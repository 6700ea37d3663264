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
  the other shard once its first step settles (hold → capture →
  restore → re-point → release → flush), measuring the migration
  pause, then back and forth while a producer thread keeps submitting
  its remaining steps;
* **rebalancing** — sessions packed onto one shard of a 4-shard fabric
  are spread by :class:`~repro.runtime.sharded.ShardRebalancer` and
  throughput is compared before/after.

Correctness is the headline: the domain service's ``op_log`` is the
externally visible effect trace, and every interrupted run must leave
a byte-identical op_log to the uninterrupted golden run — resume means
*exactly* resume, no replays and no gaps.

The report also times checkpoint capture/restore and snapshot sizes.

``repro bench migrate`` writes ``BENCH_PR5.json`` (``--quick`` shrinks
repeats for CI).
"""

from __future__ import annotations

import statistics
import threading
import time
from typing import Any

from repro.bench.scale import _blocking_work
from repro.bench.workloads import COMMUNICATION_SCENARIOS, Step
from repro.domains.assembly import DomainCase, domain_cases

__all__ = [
    "recovery_bench",
    "migration_bench",
    "rebalance_bench",
    "run",
    "check",
]

#: moves of each session while its producer thread submits steps
LIVE_MOVES = 3


def _fresh_session(case: DomainCase) -> tuple[Any, Any, Any]:
    """(service, dsk, started platform) for one session of ``case``."""
    service = case.service()
    dsk = case.knowledge(service)
    return service, dsk, _load(case, dsk)


def _load(case: DomainCase, dsk: Any) -> Any:
    from repro.middleware.loader import load_platform

    platform = load_platform(case.middleware(), dsk)
    if platform.controller is not None and case.context:
        platform.controller.context.update(case.context)
    return platform


def _log_bytes(service: Any) -> bytes:
    return "\n".join(service.op_log).encode("utf-8")


def _phases(case: DomainCase, steps: int) -> list[Any]:
    """``steps`` session steps: the two phase models, alternating."""
    models = [case.phase1(), case.phase2()]
    return [models[i % 2] for i in range(steps)]


def golden_logs(cases: list[DomainCase], steps: int = 2) -> dict[str, bytes]:
    """Uninterrupted runs of :func:`_phases`: the per-domain golden
    op_logs."""
    golden: dict[str, bytes] = {}
    for case in cases:
        service, _dsk, platform = _fresh_session(case)
        try:
            for model in _phases(case, steps):
                platform.run_model(model)
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


class _Migratable:
    """Migration hooks: capture stops ``self.platform`` and returns its
    snapshot doc; restore rebuilds it over ``self.dsk``."""

    __slots__ = ()

    def capture(self) -> dict[str, Any]:
        snapshot = self.platform.checkpoint()
        self.platform.stop()
        return snapshot.to_dict()

    def restore(self, doc: dict[str, Any]) -> None:
        from repro.middleware.snapshot import SessionSnapshot, restore_platform

        self.platform = restore_platform(SessionSnapshot.from_dict(doc),
                                         self.dsk)


class _HostedSession(_Migratable):
    """One domain session hosted on a shard of a ShardedRuntime.  A
    ``step`` that runs on a shard not hosting the session raises, so
    work a move strands on the wrong shard cannot pass unseen."""

    def __init__(self, case: DomainCase) -> None:
        self.case = case
        self.service = case.service()
        self.dsk = case.knowledge(self.service)
        self.platform: Any = None
        self.shard = -1

    def build(self) -> None:
        from repro.runtime.sharded import current_shard

        self.platform = _load(self.case, self.dsk)
        self.shard = current_shard().index

    def step(self, model: Any) -> None:
        from repro.runtime.sharded import current_shard

        if current_shard().index != self.shard:
            raise RuntimeError("step ran on a shard not hosting the session")
        self.platform.run_model(model)

    def restore(self, doc: dict[str, Any]) -> None:
        from repro.runtime.sharded import current_shard

        super().restore(doc)
        self.shard = current_shard().index

    def stop(self) -> None:
        if self.platform is not None and self.platform.started:
            self.platform.stop()


def migration_bench(
    cases: list[DomainCase],
    *,
    repeats: int = 3,
    steps: int = 24,
) -> dict[str, Any]:
    """Live-migrate each domain's session under live traffic.

    The session runs ``steps`` steps (:func:`_phases`).  Once the first
    settles, one timed move (the pause); then :data:`LIVE_MOVES` more
    while a producer thread keeps submitting the rest.  Every run must leave an
    op_log byte-identical to the same steps run uninterrupted, with no
    step failed.
    """
    from repro.runtime.sharded import ShardedRuntime

    golden = golden_logs(cases, steps)
    rows: list[dict[str, Any]] = []
    all_pauses: list[float] = []
    for case in cases:
        sequence = _phases(case, steps)
        pauses: list[float] = []
        for _ in range(repeats):
            runtime = ShardedRuntime(2, name=f"bench-migrate-{case.name}")
            session = _HostedSession(case)
            key = f"{case.name}-session"
            futures: list[Any] = []

            def move() -> None:
                runtime.migrate(key, 1 - runtime.shard_for(key).index,
                                capture=session.capture,
                                restore=session.restore)

            def produce() -> None:
                for model in sequence[1:]:
                    futures.append(runtime.submit(key, session.step, model))
                    time.sleep(0.002)

            runtime.start()
            try:
                runtime.post(key, session.build)
                runtime.submit(key, session.step, sequence[0]).result(60)
                start = time.perf_counter()
                move()
                pauses.append(time.perf_counter() - start)
                producer = threading.Thread(target=produce)
                producer.start()
                for _ in range(LIVE_MOVES):
                    move()
                producer.join()
                failed = sum(f.exception(60) is not None for f in futures)
            finally:
                runtime.stop()
                session.stop()
            if failed or _log_bytes(session.service) != golden[case.name]:
                raise AssertionError(
                    f"domain {case.name!r}: op_log after live migration "
                    f"diverged from the uninterrupted run ({failed} of "
                    f"{steps} steps failed)"
                )
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
        "steps": steps,
        "moves_under_traffic": LIVE_MOVES,
        "median_pause_ms": statistics.median(all_pauses) * 1000,
    }


# -- the E1 scenario runner -------------------------------------------------


class _ScenarioRunner(_Migratable):
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
    runners: dict[str, _ScenarioRunner] = {}

    def build(key: str) -> None:
        runners[key] = _ScenarioRunner(blocking=True)

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
                        lambda k=key, s=steps[step_index]: runners[k].run_step(s),
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

        rebalancer = ShardRebalancer(
            runtime,
            capture=lambda key: runners[key].capture(),
            restore=lambda key, doc: runners[key].restore(doc),
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
        for runner in runners.values():
            if runner.platform.started:
                runner.platform.stop()

    steps_total = rounds * sum(len(steps) for steps in assigned.values())
    return {
        "sessions": sessions,
        "shards": shards,
        "rounds": rounds,
        "steps_per_phase": steps_total,
        "moves": len(moves),
        "migrations": runtime.stats()["migrations"],
        "throughput_before_steps_per_s": steps_total / elapsed_before,
        "throughput_after_steps_per_s": steps_total / elapsed_after,
        "speedup": elapsed_before / elapsed_after,
        "imbalance_before": imbalance_before,
        "imbalance_after": imbalance_after,
    }


# -- report ------------------------------------------------------------------


def run(quick: bool = False) -> dict[str, Any]:
    """The PR 5 report: recovery, migration and rebalancing."""
    cases = domain_cases()
    golden = golden_logs(cases)
    return {
        "bench": "PR5-session-externalization",
        "recovery": recovery_bench(
            cases, golden, capture_repeats=3 if quick else 10
        ),
        "migration": migration_bench(
            cases, repeats=1 if quick else 3, steps=12 if quick else 24
        ),
        "rebalance": rebalance_bench(
            sessions=6 if quick else 12, rounds=1 if quick else 2
        ),
    }


def check(report: dict[str, Any]) -> str:
    recovery = report["recovery"]
    migration = report["migration"]
    assert recovery["all_identical"], recovery["domains"]
    assert migration["all_identical"], migration["domains"]
    assert len(recovery["domains"]) == 4, recovery["domains"]
    rebalance = report["rebalance"]
    assert rebalance["moves"] > 0, rebalance
    assert rebalance["imbalance_after"] < rebalance["imbalance_before"], rebalance
    return ("migrate smoke OK "
            f"(pause {migration['median_pause_ms']:.2f} ms)")
