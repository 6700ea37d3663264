"""PR 7 durability benchmark: write-ahead log + exactly-once recovery.

Exercises :mod:`repro.runtime.wal` end to end and produces
``BENCH_PR7.json``:

* **kill_recovery** — for each of the four shipped domains, a session
  runs the two-phase workload through a
  :class:`~repro.runtime.durability.ShardDurability` over a log of its
  own (entry frames written before dispatch, resource effects
  memoized, checkpoint frames embedded snapshot-then-truncate).  The
  session is killed two ways — after the tail entry was applied but
  not checkpointed (recovery must *replay* the tail with memoized
  effects), and right after a checkpoint (recovery restores and the
  remaining work runs live) — and in both cases the domain service's
  ``op_log`` must come out byte-identical to the uninterrupted golden
  run.  A second immediate kill-and-recover (double recovery) checks
  idempotence.
* **fabric_kill** — the same discipline on a threaded 2-shard
  :class:`~repro.runtime.sharded.ShardedRuntime`: the session executes
  on its owning shard's pump thread, the whole fabric is hard-stopped
  mid-workload (the shard kill), and recovery rebuilds the session on
  a fresh fabric from nothing but the log + DSK.
* **e1_overhead** — the PR 3/PR 5 E1 scenario sweep with every step
  logged as a durable entry versus bare, interleaved sampling;
  the acceptance gate is WAL-on overhead ≤ 5%.  fsync batching is
  reported separately per sync profile — the gate measures the
  structural logging cost with group-commit at page-cache durability,
  the profiles price real fsync.
* **recovery_latency** — recovery wall time versus tail length
  (entries logged since the last checkpoint), showing the
  snapshot-then-truncate knob: more frequent checkpoints buy shorter
  recovery.

``repro bench wal`` writes ``BENCH_PR7.json`` (``--quick`` shrinks
repeats for CI).
"""

from __future__ import annotations

import shutil
import statistics
import tempfile
import time
from pathlib import Path
from typing import Any

from repro.bench.migrate import _fresh_session, _log_bytes, golden_logs
from repro.bench.workloads import COMMUNICATION_SCENARIOS, Step
from repro.domains.assembly import DomainCase, domain_cases
from repro.middleware.platform import apply_entry
from repro.middleware.snapshot import capture_snapshot, recover_session
from repro.runtime.durability import ShardDurability
from repro.runtime.wal import WriteAheadLog

__all__ = [
    "OVERHEAD_GATE_PCT",
    "kill_recovery_bench",
    "fabric_kill_bench",
    "e1_overhead_bench",
    "recovery_latency_bench",
    "run",
    "check",
]

#: WAL-on overhead admitted on the E1 hot path (acceptance gate, %).
OVERHEAD_GATE_PCT = 5.0


class _PlainEntry:
    """Bare-baseline stand-in for a logged signal: payload, no log."""

    __slots__ = ("payload",)

    def __init__(self, payload: dict[str, Any]) -> None:
        self.payload = payload


def _model_entry(model: Any) -> dict[str, Any]:
    from repro.modeling.serialize import model_to_dict

    return {"op": "run_model", "model": model_to_dict(model)}


def _api_steps(steps: list[Step]) -> list[dict[str, Any]]:
    return [
        {"op": "api", "api": step[1], "args": dict(step[2])}
        for step in steps
        if step[0] == "api"
    ]


# -- kill-mid-workload recovery ---------------------------------------------


def _durable_session(
    case: DomainCase, wal_dir: Path
) -> tuple[Any, Any, Any, ShardDurability]:
    """(service, dsk, platform, durability) with a fresh platform + log."""
    service, dsk, platform = _fresh_session(case)
    wal = WriteAheadLog(wal_dir, fsync=False)
    return service, dsk, platform, ShardDurability(wal)


def _execute(
    durability: ShardDurability, platform: Any, session: str,
    doc: dict[str, Any],
) -> Any:
    """One durable entry: write-ahead ``doc``, apply it, seal."""
    return durability.execute(
        session, doc, lambda signal: apply_entry(platform, signal),
        resources=platform.broker.resources,
    )


def _checkpoint(
    durability: ShardDurability, platform: Any, session: str
) -> None:
    durability.checkpoint(session, capture_snapshot(platform).to_dict())


def _recover(wal: WriteAheadLog, session: str, dsk: Any) -> Any:
    """Cold recovery of ``session`` from ``wal`` + DSK; re-executed
    entries seal into ``wal``, so a second recovery stays idempotent."""
    return recover_session(
        wal.replay(),
        session=session, apply_entry=apply_entry, wal=wal, dsk=dsk,
    )


def kill_recovery_bench(
    cases: list[DomainCase], golden: dict[str, bytes]
) -> dict[str, Any]:
    """Kill each domain's session mid-workload; recover exactly-once."""
    rows: list[dict[str, Any]] = []
    for case in cases:
        wal_dir = Path(tempfile.mkdtemp(prefix=f"wal-{case.name}-"))
        try:
            # -- scenario A: checkpoint, apply phase 2, kill before the
            # next checkpoint.  The tail entry must REPLAY with
            # memoized effects: the service op_log already contains
            # phase 2's operations, so re-executing any of them would
            # diverge from golden.
            service, dsk, platform, durable = _durable_session(case, wal_dir)
            _execute(durable, platform, case.name,
                     _model_entry(case.phase1()))
            _checkpoint(durable, platform, case.name)
            _execute(durable, platform, case.name,
                     _model_entry(case.phase2()))
            platform.stop()      # the kill: platform state is gone,
            durable.wal.close()  # only the log + external world survive
            log_at_kill = _log_bytes(service)

            wal = WriteAheadLog(wal_dir, fsync=False)
            start = time.perf_counter()
            report = _recover(wal, case.name, dsk)
            replay_recover_ms = (time.perf_counter() - start) * 1000
            replay_identical = _log_bytes(service) == golden[case.name]
            replay_untouched = _log_bytes(service) == log_at_kill
            if report.errors:
                raise AssertionError(
                    f"{case.name}: replay errors {report.errors}"
                )

            # -- double recovery: kill again immediately; a second
            # replay must also leave the op_log untouched.
            report.platform.stop()
            wal.close()
            wal = WriteAheadLog(wal_dir, fsync=False)
            report2 = _recover(wal, case.name, dsk)
            double_identical = _log_bytes(service) == golden[case.name]
            report2.platform.stop()
            wal.close()

            row = {
                "domain": case.name,
                "replay_tail_identical": replay_identical,
                "replay_no_reexecution": replay_untouched,
                "double_recovery_identical": double_identical,
                "effects_memoized": report.effects_memoized,
                "replayed_entries": report.replayed_entries,
                "recover_ms": replay_recover_ms,
            }

            # -- scenario B: kill right after the checkpoint; recovery
            # restores the snapshot and phase 2 then runs LIVE through
            # the recovered durable session.
            shutil.rmtree(wal_dir)
            wal_dir.mkdir()
            service, dsk, platform, durable = _durable_session(case, wal_dir)
            _execute(durable, platform, case.name,
                     _model_entry(case.phase1()))
            _checkpoint(durable, platform, case.name)
            platform.stop()
            durable.wal.close()

            wal = WriteAheadLog(wal_dir, fsync=False)
            start = time.perf_counter()
            report = _recover(wal, case.name, dsk)
            clean_recover_ms = (time.perf_counter() - start) * 1000
            _execute(ShardDurability(wal), report.platform, case.name,
                     _model_entry(case.phase2()))
            resume_identical = _log_bytes(service) == golden[case.name]
            report.platform.stop()
            wal.close()

            row.update({
                "resume_live_identical": resume_identical,
                "clean_recover_ms": clean_recover_ms,
            })
            rows.append(row)
        finally:
            shutil.rmtree(wal_dir, ignore_errors=True)

    all_identical = all(
        row["replay_tail_identical"]
        and row["replay_no_reexecution"]
        and row["double_recovery_identical"]
        and row["resume_live_identical"]
        for row in rows
    )
    return {
        "domains": rows,
        "all_identical": all_identical,
        "median_recover_ms": statistics.median(
            row["recover_ms"] for row in rows
        ),
    }


# -- shard-kill on the threaded fabric --------------------------------------


def fabric_kill_bench(*, shards: int = 2) -> dict[str, Any]:
    """Kill a threaded fabric mid-workload; recover the session cold.

    The communication session executes its durable entries on its
    owning shard's pump thread.  Mid-workload the whole fabric is
    hard-stopped and every platform object discarded — for the session
    this is indistinguishable from its shard dying.  Recovery rebuilds
    it on a fresh fabric from the log + DSK and the workload finishes;
    the op_log must match the uninterrupted golden run.
    """
    from repro.runtime.sharded import ShardedRuntime

    case = next(c for c in domain_cases() if c.name == "communication")
    steps = _api_steps(
        list(COMMUNICATION_SCENARIOS["basic-session"])
        + list(COMMUNICATION_SCENARIOS["conference-setup"])
    )
    cut = len(steps) // 2

    # Golden: the same entry sequence, uninterrupted, single-threaded.
    service, _dsk, platform = _fresh_session(case)
    platform.run_model(case.phase1())
    for doc in steps:
        platform.broker.call_api(doc["api"], **doc["args"])
    platform.stop()
    golden = _log_bytes(service)

    key = "wal-fabric-session"
    wal_dir = Path(tempfile.mkdtemp(prefix="wal-fabric-"))
    try:
        runtime = ShardedRuntime(shards, name="bench-wal-fabric")
        runtime.start()
        service, dsk, _platform0 = (None, None, None)
        service = case.service()
        dsk = case.knowledge(service)
        holder: dict[str, Any] = {}

        def build() -> None:
            from repro.middleware.loader import load_platform

            platform = load_platform(case.middleware(), dsk)
            if platform.controller is not None and case.context:
                platform.controller.context.update(case.context)
            wal = WriteAheadLog(wal_dir, fsync=False)
            holder["durable"] = ShardDurability(wal)
            holder["platform"] = platform

        def execute(doc: dict[str, Any]) -> Any:
            return _execute(holder["durable"], holder["platform"], key, doc)

        runtime.submit(key, build).result(timeout=30)
        runtime.submit(
            key, execute, _model_entry(case.phase1())
        ).result(timeout=30)
        runtime.submit(
            key, _checkpoint, holder["durable"], holder["platform"], key
        ).result(timeout=30)
        for doc in steps[:cut]:
            runtime.submit(key, execute, doc).result(timeout=30)

        # The shard kill: stop the fabric, discard the platform, keep
        # only the log (flushed by stop) and the external service.
        start = time.perf_counter()
        runtime.stop()
        holder.pop("platform").stop()
        holder.pop("durable").wal.close()
        kill_ms = (time.perf_counter() - start) * 1000

        runtime = ShardedRuntime(shards, name="bench-wal-fabric2")
        runtime.start()

        def recover() -> None:
            wal = WriteAheadLog(wal_dir, fsync=False)
            report = _recover(wal, key, dsk)
            holder["durable"] = ShardDurability(wal)
            holder["platform"] = report.platform
            holder["report"] = report

        start = time.perf_counter()
        runtime.submit(key, recover).result(timeout=30)
        recover_ms = (time.perf_counter() - start) * 1000
        for doc in steps[cut:]:
            runtime.submit(key, execute, doc).result(timeout=30)
        runtime.stop()
        holder["platform"].stop()
        holder["durable"].wal.close()

        identical = _log_bytes(service) == golden
        report = holder["report"]
        return {
            "shards": shards,
            "steps": len(steps),
            "killed_after": cut,
            "op_log_identical": identical,
            "replayed_entries": report.replayed_entries,
            "effects_memoized": report.effects_memoized,
            "kill_ms": kill_ms,
            "recover_ms": recover_ms,
        }
    finally:
        shutil.rmtree(wal_dir, ignore_errors=True)


# -- E1 overhead -------------------------------------------------------------


def e1_overhead_bench(*, repeat: int = 15) -> dict[str, Any]:
    """E1 scenario sweep, WAL-on vs bare, by
    :func:`~repro.bench.harness.paired_overhead` over ``repeat`` pairs
    (each side of a pair is one fresh, warmed session).

    WAL-on logs every API step as a durable entry (a write-ahead
    ``entry`` frame, then one ``applied`` frame sealing the step's
    memoized effects) through
    :meth:`~repro.runtime.durability.ShardDurability.execute` with
    group-commit batching.

    The **gate** is measured in E1's calibrated regime —
    ``CommService.DEFAULT_OP_COST``, the op-cost ratio fixed once for
    E1/E3/E5 (see EXPERIMENTS.md) so simulated service work dominates
    the way real communication-framework calls did on the paper's
    testbed.  That is the regime every prior E1 hot-path gate in this
    repo (PR 3 synthesis, PR 4 idle scheduler) was held to.  The same
    sweep at ``op_cost=0`` is reported as ``structural`` — the raw CPU
    price of the logging machinery with nothing to hide behind — but is
    diagnostic, not gated: no per-step durability scheme beats a 5%
    bound against a ~30µs no-op step.

    The ``sync_profiles`` table prices real fsync batching separately,
    since that is a pure durability/latency knob independent of the hot
    path's CPU cost.
    """
    from repro.bench.harness import STATISTIC, paired_overhead
    from repro.bench.migrate import _ScenarioRunner
    from repro.sim.network import CommService

    step_docs = _api_steps(
        [
            step
            for scenario in COMMUNICATION_SCENARIOS.values()
            for step in scenario
        ]
    )

    passes = 3

    def one_session(wal_on: bool, *, op_cost: float) -> float:
        """Seconds per step, warm: one untimed pass then ``passes``
        timed passes of the 71-step sweep on one fresh session."""
        runner = _ScenarioRunner(op_cost=op_cost)
        durable = None
        wal_dir = None
        if wal_on:
            wal_dir = Path(tempfile.mkdtemp(prefix="wal-e1-"))
            wal = WriteAheadLog(wal_dir, fsync=False, sync_every=256)
            durable = ShardDurability(wal)
        platform = runner.platform
        resources = platform.broker.resources

        def apply(signal: Any) -> Any:
            return apply_entry(platform, signal)

        def run_pass() -> None:
            if durable is not None:
                for doc in step_docs:
                    durable.execute("e1", doc, apply, resources=resources)
            else:
                # the bare side runs the identical dispatcher over
                # plain envelopes, so the delta isolates the durability
                # machinery (signal minting, framing, effect journal)
                # rather than bench-harness dispatch cost.
                for doc in step_docs:
                    apply_entry(platform, _PlainEntry(doc))

        run_pass()  # warm this session's dispatch paths
        start = time.perf_counter()
        for _ in range(passes):
            run_pass()
        elapsed = time.perf_counter() - start
        if durable is not None:
            durable.wal.close()
        runner.stop()
        if wal_dir is not None:
            shutil.rmtree(wal_dir, ignore_errors=True)
        return elapsed / (passes * len(step_docs))

    def sweep(*, op_cost: float) -> dict[str, Any]:
        one_session(False, op_cost=op_cost)  # global warm-up
        one_session(True, op_cost=op_cost)
        return {
            "op_cost": op_cost,
            "timed_passes_per_session": passes,
            **paired_overhead(
                lambda: one_session(False, op_cost=op_cost),
                lambda: one_session(True, op_cost=op_cost),
                pairs=repeat,
            ),
        }

    calibrated = sweep(op_cost=CommService.DEFAULT_OP_COST)
    structural = sweep(op_cost=0.0)
    overhead_pct = calibrated["overhead_pct"]

    # fsync batching profiles: price of real durability per entry.
    profiles = []
    for sync_every, fsync in ((1, True), (64, True), (256, False)):
        wal_dir = Path(tempfile.mkdtemp(prefix="wal-sync-"))
        try:
            runner = _ScenarioRunner()
            wal = WriteAheadLog(
                wal_dir, fsync=fsync, sync_every=sync_every
            )
            durable = ShardDurability(wal)
            start = time.perf_counter()
            for doc in step_docs:
                _execute(durable, runner.platform, "e1", doc)
            elapsed = time.perf_counter() - start
            profiles.append({
                "sync_every": sync_every,
                "fsync": fsync,
                "total_ms": elapsed * 1000,
                "per_entry_us": elapsed * 1e6 / max(1, len(step_docs)),
                "fsyncs": wal.syncs,
            })
            wal.close()
            runner.stop()
        finally:
            shutil.rmtree(wal_dir, ignore_errors=True)

    return {
        "steps": len(step_docs),
        "repeat": repeat,
        "calibrated": calibrated,
        "structural": structural,
        "statistic": STATISTIC,
        "overhead_pct": overhead_pct,
        "gate_pct": OVERHEAD_GATE_PCT,
        "meets_gate": overhead_pct <= OVERHEAD_GATE_PCT,
        "sync_profiles": profiles,
    }


# -- recovery latency vs tail length ----------------------------------------


def recovery_latency_bench(
    *, tail_lengths: tuple[int, ...] = (0, 40, 160)
) -> dict[str, Any]:
    """Recovery wall time as a function of un-checkpointed tail length."""

    case = next(c for c in domain_cases() if c.name == "communication")
    base_docs = _api_steps(
        [
            step
            for scenario in COMMUNICATION_SCENARIOS.values()
            for step in scenario
        ]
    )
    rows = []
    for tail in tail_lengths:
        wal_dir = Path(tempfile.mkdtemp(prefix="wal-tail-"))
        try:
            service, dsk, platform, durable = _durable_session(case, wal_dir)
            _execute(durable, platform, case.name,
                     _model_entry(case.phase1()))
            _checkpoint(durable, platform, case.name)
            for index in range(tail):
                _execute(durable, platform, case.name,
                         base_docs[index % len(base_docs)])
            platform.stop()
            durable.wal.close()
            log_at_kill = _log_bytes(service)

            wal = WriteAheadLog(wal_dir, fsync=False)
            start = time.perf_counter()
            report = _recover(wal, case.name, dsk)
            recover_ms = (time.perf_counter() - start) * 1000
            assert _log_bytes(service) == log_at_kill, (
                "recovery re-executed external effects"
            )
            report.platform.stop()
            wal.close()
            rows.append({
                "tail_entries": tail,
                "recover_ms": recover_ms,
                "effects_memoized": report.effects_memoized,
            })
        finally:
            shutil.rmtree(wal_dir, ignore_errors=True)
    base_ms = rows[0]["recover_ms"]
    longest = rows[-1]
    per_entry_us = (
        (longest["recover_ms"] - base_ms) * 1000 / longest["tail_entries"]
        if longest["tail_entries"]
        else 0.0
    )
    return {
        "rows": rows,
        "snapshot_only_ms": base_ms,
        "per_tail_entry_us": per_entry_us,
    }


# -- report ------------------------------------------------------------------


def run(quick: bool = False) -> dict[str, Any]:
    """The PR 7 report."""
    cases = domain_cases()
    golden = golden_logs(cases)
    return {
        "bench": "wal",
        "kill_recovery": kill_recovery_bench(cases, golden),
        "fabric_kill": fabric_kill_bench(),
        "e1_overhead": e1_overhead_bench(repeat=3 if quick else 15),
        "recovery_latency": recovery_latency_bench(
            tail_lengths=(0, 20) if quick else (0, 40, 160)
        ),
    }


def check(report: dict[str, Any]) -> str:
    kill = report["kill_recovery"]
    # Correctness gates hold on any box: every domain's op_log
    # byte-identical to golden after kill+recover, replay must
    # not re-execute external effects, and double recovery is
    # idempotent.  The <= 5% E1 overhead gate is noisy on shared
    # runners and is enforced on the committed full run.
    assert kill["all_identical"], kill["domains"]
    assert len(kill["domains"]) == 4, kill["domains"]
    for row in kill["domains"]:
        assert row["replay_no_reexecution"], row
        assert row["effects_memoized"] > 0, row
    fabric = report["fabric_kill"]
    assert fabric["op_log_identical"], fabric
    assert fabric["replayed_entries"] > 0, fabric
    overhead = report["e1_overhead"]
    assert overhead["overhead_pct"] <= 25.0, overhead["calibrated"]
    latency = report["recovery_latency"]
    assert latency["rows"][-1]["effects_memoized"] > 0, latency
    return ("wal smoke OK "
            f"(E1 overhead {overhead['overhead_pct']:.2f}%, "
            f"recover {kill['median_recover_ms']:.1f} ms)")
