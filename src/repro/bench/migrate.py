"""PR 5 migration/recovery benchmark: externalized session state.

Exercises the :class:`~repro.middleware.snapshot.SessionSnapshot` path
end to end, across all four shipped domains (communication, microgrid,
smart spaces, crowdsensing).  Each domain runs a two-phase workload —
submit an application model, then submit an evolved model — and the
benchmark interrupts the session between the phases three ways:

* **checkpoint / kill / restore** — ``platform.checkpoint()``, JSON
  round trip, ``platform.stop()`` (the kill), then
  :func:`~repro.middleware.snapshot.restore_platform` rebuilds the
  session from nothing but the snapshot and the domain's DSK;
* **live migration** — the session runs on a 2-shard threaded
  :class:`~repro.runtime.sharded.ShardedRuntime` and is migrated to
  the other shard between the phases (quiesce → snapshot → transfer →
  restore → re-route), measuring the migration pause;
* **rebalancing** — sessions packed onto one shard of a 4-shard fabric
  are spread by :class:`~repro.runtime.sharded.ShardRebalancer` and
  throughput is compared before/after.

Correctness is the headline: the domain service's ``op_log`` is the
externally visible effect trace, and every interrupted run must leave
a byte-identical op_log to the uninterrupted golden run — resume means
*exactly* resume, no replays and no gaps.

The report also times checkpoint capture/restore, snapshot sizes, and
gates checkpoint overhead on the E1 hot path at <= 5% while an
attached scheduler is idle.

``repro bench migrate`` writes ``BENCH_PR5.json`` (``--quick`` shrinks
repeats for CI).
"""

from __future__ import annotations

import statistics
import time
from typing import Any

from repro.bench.scale import BLOCKING_SECONDS_PER_UNIT
from repro.bench.workloads import COMMUNICATION_SCENARIOS, Step
from repro.domains.assembly import DomainCase, domain_cases

__all__ = [
    "recovery_bench",
    "migration_bench",
    "checkpoint_overhead_bench",
    "rebalance_bench",
    "run",
    "check",
]

#: checkpoint overhead admitted on the E1 hot path with an idle
#: scheduler attached (acceptance gate, percent).
OVERHEAD_GATE_PCT = 5.0


def _fresh_session(case: DomainCase) -> tuple[Any, Any, Any]:
    """(service, dsk, started platform) for one session of ``case``."""
    from repro.middleware.loader import load_platform

    service = case.service()
    dsk = case.knowledge(service)
    platform = load_platform(case.middleware(), dsk)
    if platform.controller is not None and case.context:
        platform.controller.context.update(case.context)
    return service, dsk, platform


def _log_bytes(service: Any) -> bytes:
    return "\n".join(service.op_log).encode("utf-8")


def golden_logs(cases: list[DomainCase]) -> dict[str, bytes]:
    """Uninterrupted two-phase runs: the per-domain golden op_logs."""
    golden: dict[str, bytes] = {}
    for case in cases:
        service, _dsk, platform = _fresh_session(case)
        try:
            platform.run_model(case.phase1())
            platform.run_model(case.phase2())
        finally:
            platform.stop()
        golden[case.name] = _log_bytes(service)
        if not golden[case.name]:
            raise RuntimeError(
                f"domain {case.name!r} produced an empty op_log; the "
                f"workload exercises nothing"
            )
    return golden


# -- checkpoint / kill / restore --------------------------------------------


def recovery_bench(
    cases: list[DomainCase],
    golden: dict[str, bytes],
    *,
    capture_repeats: int = 10,
) -> dict[str, Any]:
    """Checkpoint, kill, and cold-restore each domain's session."""
    from repro.middleware.snapshot import SessionSnapshot, restore_platform

    rows: list[dict[str, Any]] = []
    for case in cases:
        service, dsk, platform = _fresh_session(case)
        platform.run_model(case.phase1())

        capture_samples = []
        for _ in range(capture_repeats):
            start = time.perf_counter()
            snapshot = platform.checkpoint()
            capture_samples.append(time.perf_counter() - start)
        text = snapshot.to_json(indent=None)
        platform.stop()  # the kill: only the snapshot text survives

        start = time.perf_counter()
        restored = restore_platform(SessionSnapshot.from_json(text), dsk)
        restore_s = time.perf_counter() - start
        try:
            restored.run_model(case.phase2())
        finally:
            restored.stop()

        if _log_bytes(service) != golden[case.name]:
            raise AssertionError(
                f"domain {case.name!r}: op_log after checkpoint/kill/"
                f"restore diverged from the uninterrupted run"
            )
        rows.append({
            "domain": case.name,
            "op_log_identical": True,
            "capture_ms": min(capture_samples) * 1000,
            "restore_ms": restore_s * 1000,
            "snapshot_bytes": len(text.encode("utf-8")),
        })
    return {
        "domains": rows,
        "all_identical": True,
        "median_capture_ms": statistics.median(
            row["capture_ms"] for row in rows
        ),
        "median_restore_ms": statistics.median(
            row["restore_ms"] for row in rows
        ),
    }


# -- live migration ----------------------------------------------------------


def migration_bench(
    cases: list[DomainCase],
    golden: dict[str, bytes],
    *,
    repeats: int = 3,
) -> dict[str, Any]:
    """Live-migrate each domain's session between the workload phases."""
    from repro.middleware.snapshot import SessionSnapshot, restore_platform
    from repro.runtime.sharded import ShardedRuntime

    rows: list[dict[str, Any]] = []
    all_pauses: list[float] = []
    for case in cases:
        pauses: list[float] = []
        for _ in range(repeats):
            runtime = ShardedRuntime(2, name=f"bench-migrate-{case.name}")
            runtime.start()
            service = case.service()
            dsk = case.knowledge(service)
            key = f"{case.name}-session"
            holder: dict[str, Any] = {}
            try:
                def build() -> None:
                    from repro.middleware.loader import load_platform

                    platform = load_platform(case.middleware(), dsk)
                    if platform.controller is not None and case.context:
                        platform.controller.context.update(case.context)
                    holder["platform"] = platform

                runtime.post(key, build)
                runtime.post(
                    key, lambda: holder["platform"].run_model(case.phase1())
                )

                source = runtime.shard_for(key)
                target = 1 - source.index

                def capture() -> dict[str, Any]:
                    # Runs on the source shard thread: the quiesce point.
                    snapshot = holder["platform"].checkpoint()
                    holder["platform"].stop()
                    return snapshot.to_dict()

                def restore(doc: dict[str, Any]) -> bool:
                    # Runs on the target shard thread.
                    holder["platform"] = restore_platform(
                        SessionSnapshot.from_dict(doc), dsk
                    )
                    return True

                # Settle phase 1 first so the timed region is the
                # migration itself, not the queued workload.
                source.call(lambda: None).result(timeout=60)
                start = time.perf_counter()
                runtime.migrate(key, target, capture=capture, restore=restore)
                pause = time.perf_counter() - start

                if runtime.shard_for(key).index != target:
                    raise AssertionError(
                        f"domain {case.name!r}: route override did not "
                        f"re-point {key!r} to shard {target}"
                    )
                runtime.post(
                    key, lambda: holder["platform"].run_model(case.phase2())
                )
            finally:
                runtime.stop()
            platform = holder.get("platform")
            if platform is not None and platform.started:
                platform.stop()
            if _log_bytes(service) != golden[case.name]:
                raise AssertionError(
                    f"domain {case.name!r}: op_log after live migration "
                    f"diverged from the uninterrupted run"
                )
            pauses.append(pause)
        all_pauses.extend(pauses)
        rows.append({
            "domain": case.name,
            "op_log_identical": True,
            "median_pause_ms": statistics.median(pauses) * 1000,
        })
    return {
        "domains": rows,
        "all_identical": True,
        "repeats": repeats,
        "median_pause_ms": statistics.median(all_pauses) * 1000,
    }


# -- checkpoint overhead on the hot path ------------------------------------


class _ScenarioRunner:
    """Drives one E1 scenario against a full CVM platform's broker."""

    __slots__ = ("service", "dsk", "platform")

    def __init__(self, *, blocking: bool = False, op_cost: float = 0.0) -> None:
        from repro.domains.communication.cml import cml_metamodel
        from repro.domains.communication.cvm import (
            build_middleware_model,
            default_context,
        )
        from repro.middleware.loader import DomainKnowledge, load_platform
        from repro.sim.network import CommService

        if blocking:
            self.service = CommService("net0", work=_blocking_work)
        else:
            # op_cost=0.0 isolates pure middleware CPU cost; pass
            # CommService.DEFAULT_OP_COST for the calibrated E1 regime
            # where simulated service work dominates (EXPERIMENTS.md).
            self.service = CommService("net0", op_cost=op_cost)
        self.dsk = DomainKnowledge(
            dsml=cml_metamodel(), resources=[self.service]
        )
        self.platform = load_platform(build_middleware_model(), self.dsk)
        assert self.platform.broker is not None
        # Same configuration as the E1 harness: recovery runs through
        # the explicit scenario step, keeping runs deterministic.
        self.platform.broker.autonomic.enabled = False
        assert self.platform.controller is not None
        self.platform.controller.context.update(default_context())

    def run_step(self, step: Step) -> None:
        broker = self.platform.broker
        tag = step[0]
        if tag == "api":
            _tag, api, args = step
            broker.call_api(api, **args)
        elif tag == "fail":
            self.service.inject_failure(self._session_id(step[1]))
        elif tag == "recover":
            broker.call_api(
                "ncb.recover_session", session=self._session_id(step[1])
            )
        else:  # pragma: no cover - workload tags are closed
            raise ValueError(f"unknown scenario step tag {tag!r}")

    def _session_id(self, connection: str) -> str:
        return self.platform.broker.state.get(f"session:{connection}")

    def stop(self) -> None:
        self.platform.stop()


def _blocking_work(cost: float) -> None:
    if cost > 0:
        time.sleep(cost * BLOCKING_SECONDS_PER_UNIT)


def checkpoint_overhead_bench(*, repeat: int = 15) -> dict[str, Any]:
    """E1-scenario hot path with and without an idle scheduler attached.

    The scheduler is started on a wall clock (no timer queue), so it
    never fires on its own — the gate bounds the cost of merely having
    checkpointing armed on a session.  Checkpoint capture cost itself
    is reported separately from explicit ``tick()`` calls.  The
    overhead is :func:`~repro.bench.harness.paired_overhead` over
    ``repeat`` bare/armed pairs.
    """
    from repro.bench.harness import paired_overhead
    from repro.middleware.snapshot import CheckpointScheduler

    steps = [
        step
        for scenario in COMMUNICATION_SCENARIOS.values()
        for step in scenario
    ]

    # One scenario sweep is only ~2 ms of hot path — too short for a 5%
    # gate against OS jitter — so a sample sums the timed step loops of
    # several fresh sessions, timing only the loops (session setup and
    # teardown stay outside the clock).
    inner = 4

    def one_sample(with_scheduler: bool) -> float:
        """Seconds per step over ``inner`` fresh sessions."""
        total = 0.0
        for _ in range(inner):
            runner = _ScenarioRunner()
            scheduler = None
            if with_scheduler:
                scheduler = CheckpointScheduler(
                    runner.platform, interval=3600.0
                ).start()
            start = time.perf_counter()
            for step in steps:
                runner.run_step(step)
            total += time.perf_counter() - start
            if scheduler is not None:
                scheduler.stop()
            runner.stop()
        return total / (inner * len(steps))

    one_sample(False)  # warm-up: imports, metamodel caches
    overhead = paired_overhead(
        lambda: one_sample(False), lambda: one_sample(True), pairs=repeat
    )

    # Explicit checkpoint cost on a session with live state.
    runner = _ScenarioRunner()
    scheduler = CheckpointScheduler(runner.platform, interval=3600.0)
    for step in steps:
        runner.run_step(step)
    tick_samples = []
    for _ in range(max(repeat, 5)):
        start = time.perf_counter()
        snapshot = scheduler.tick()
        tick_samples.append(time.perf_counter() - start)
    snapshot_bytes = len(snapshot.to_json(indent=None).encode("utf-8"))
    runner.stop()

    return {
        "steps": len(steps),
        "sessions_per_sample": inner,
        **overhead,
        "gate_pct": OVERHEAD_GATE_PCT,
        "meets_gate": overhead["overhead_pct"] <= OVERHEAD_GATE_PCT,
        "checkpoint_ms": statistics.median(tick_samples) * 1000,
        "checkpoints_taken": scheduler.checkpoints_taken,
        "snapshot_bytes": snapshot_bytes,
    }


# -- rebalancing -------------------------------------------------------------


def rebalance_bench(
    *, sessions: int = 12, shards: int = 4, rounds: int = 2
) -> dict[str, Any]:
    """Pack sessions onto one shard, rebalance, compare throughput.

    Every session key is chosen to hash to shard 0, so the fabric
    starts fully imbalanced; the rebalancer's migrations spread the
    sessions and the same workload is replayed.  Services charge a
    blocking per-op cost (the paper's service-dominated regime), so
    spreading sessions buys real parallelism.
    """
    from repro.middleware.snapshot import SessionSnapshot, restore_platform
    from repro.runtime.sharded import ShardedRuntime, ShardRebalancer

    runtime = ShardedRuntime(shards, name="bench-rebalance")

    keys: list[str] = []
    index = 0
    while len(keys) < sessions:
        key = f"rb-{index:04d}"
        if runtime.shard_for(key).index == 0:
            keys.append(key)
        index += 1

    scenario_names = list(COMMUNICATION_SCENARIOS)
    assigned = {
        key: COMMUNICATION_SCENARIOS[scenario_names[i % len(scenario_names)]]
        for i, key in enumerate(keys)
    }
    holders: dict[str, dict[str, Any]] = {key: {} for key in keys}

    def build(key: str) -> None:
        runner = _ScenarioRunner(blocking=True)
        holders[key]["runner"] = runner

    def run_workload() -> float:
        start = time.perf_counter()
        max_steps = max(len(steps) for steps in assigned.values())
        for step_index in range(max_steps):
            for key in keys:
                steps = assigned[key]
                if step_index >= len(steps):
                    continue
                for _ in range(rounds):
                    runtime.post(
                        key,
                        lambda k=key, s=steps[step_index]: holders[k][
                            "runner"
                        ].run_step(s),
                    )
        for shard in runtime.shards:
            shard.call(lambda: None).result(timeout=120)
        return time.perf_counter() - start

    runtime.start()
    try:
        for key in keys:
            runtime.post(key, lambda k=key: build(k))
        for shard in runtime.shards:
            shard.call(lambda: None).result(timeout=120)

        def capture(key: str) -> dict[str, Any]:
            runner = holders[key]["runner"]
            snapshot = runner.platform.checkpoint()
            runner.platform.stop()
            return snapshot.to_dict()

        def restore(key: str, doc: dict[str, Any]) -> bool:
            runner = holders[key]["runner"]
            runner.platform = restore_platform(
                SessionSnapshot.from_dict(doc), runner.dsk
            )
            return True

        rebalancer = ShardRebalancer(
            runtime, capture=capture, restore=restore
        )
        elapsed_before = run_workload()
        loads_before = rebalancer.shard_loads()
        imbalance_before = rebalancer.imbalance(loads_before)

        moves = rebalancer.plan({key: 1.0 for key in keys})
        rebalancer.apply(moves)

        elapsed_after = run_workload()
        loads_after = rebalancer.shard_loads()
        imbalance_after = rebalancer.imbalance(loads_after)
    finally:
        runtime.stop()
        for holder in holders.values():
            runner = holder.get("runner")
            if runner is not None and runner.platform.started:
                runner.platform.stop()

    steps_total = rounds * sum(len(steps) for steps in assigned.values())
    return {
        "sessions": sessions,
        "shards": shards,
        "rounds": rounds,
        "steps_per_phase": steps_total,
        "moves": len(moves),
        "migrations": runtime.migrations,
        "throughput_before_steps_per_s": steps_total / elapsed_before,
        "throughput_after_steps_per_s": steps_total / elapsed_after,
        "speedup": elapsed_before / elapsed_after,
        "imbalance_before": imbalance_before,
        "imbalance_after": imbalance_after,
    }


# -- report ------------------------------------------------------------------


def run(quick: bool = False) -> dict[str, Any]:
    """The PR 5 report: recovery, migration, checkpoint overhead,
    rebalancing and the E1 pass."""
    from repro.bench.harness import e1_paired_bench, recorded

    cases = domain_cases()
    golden = golden_logs(cases)
    return {
        "bench": "PR5-session-externalization",
        "recovery": recovery_bench(
            cases, golden, capture_repeats=3 if quick else 10
        ),
        "migration": migration_bench(
            cases, golden, repeats=1 if quick else 3
        ),
        # Each hot-path sample is ~2 ms, so even quick mode keeps a
        # deep pair count here (the sub-bench is cheap — platform
        # construction dominates it).
        "checkpoint": checkpoint_overhead_bench(repeat=10 if quick else 15),
        "rebalance": rebalance_bench(
            sessions=6 if quick else 12, rounds=1 if quick else 2
        ),
        "e1": e1_paired_bench(repeat=3 if quick else 25),
        "baseline_e1_mean_overhead_pct": recorded(
            "BENCH_PR4.json", "e1", "mean_overhead_pct"
        ),
    }


def check(report: dict[str, Any]) -> str:
    recovery = report["recovery"]
    migration = report["migration"]
    assert recovery["all_identical"], recovery["domains"]
    assert migration["all_identical"], migration["domains"]
    assert len(recovery["domains"]) == 4, recovery["domains"]
    checkpoint = report["checkpoint"]
    # Shared runners are noisy; the strict <= 5% idle-scheduler
    # gate is enforced on the committed full run.
    assert checkpoint["overhead_pct"] <= 25.0, checkpoint
    rebalance = report["rebalance"]
    assert rebalance["moves"] > 0, rebalance
    assert rebalance["imbalance_after"] < rebalance["imbalance_before"], rebalance
    if not report["quick"]:
        assert checkpoint["meets_gate"], (
            f"idle-scheduler checkpoint overhead on the E1 hot path is "
            f"{checkpoint['overhead_pct']:.2f}% "
            f"(acceptance bar: <= {OVERHEAD_GATE_PCT}%)"
        )
    return ("migrate smoke OK "
            f"(pause {migration['median_pause_ms']:.2f} ms)")
