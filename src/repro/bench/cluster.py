"""PR 9 cluster benchmark: the multi-process session fabric.

Four sections, correctness gated before speed is reported:

* **throughput** — the 200-interleaved-session communication workload
  (the PR 4 scale bench's shape) replayed against a
  :class:`~repro.runtime.cluster.ProcessCluster` of 1/2/4 worker
  processes, with the per-session ``op_log``s of every cluster run
  required to be byte-identical to a deterministic in-process run of
  the *same* worker backend.  The headline gate: >= 3x session-step
  throughput at 4 workers vs 1.
* **migration** — each of the four shipped domains' two-phase session
  is live-migrated *across the process boundary* between the phases
  (hold -> ``drop`` at the source, whose reply is its capture ->
  ``adopt`` on the other worker), and must finish with an op_log
  byte-identical to the uninterrupted in-process golden run.
* **fault** — one worker is SIGKILLed mid-workload: every in-flight
  future must resolve with a *typed* REJECTED outcome
  (``ShedReason.WORKER_DEAD``), never hang or leak a raw
  ``ConnectionError``; the coordinator's log shipper adopts the lost
  sessions onto the survivor from their shipped WAL, only the rejected
  suffix of each session's steps is resubmitted, and the final op_logs
  must equal the golden.
* **determinism** — a seeded shuffle of the cross-session submission
  order (per-session order preserved) run twice must produce op_logs
  identical to each other and to the golden: frame ordering across
  sessions is free, per-session FIFO is what determinism rests on.

``repro bench cluster`` writes ``BENCH_PR9.json`` (``--quick`` shrinks
the workload for CI).
"""

from __future__ import annotations

import random
import time
from typing import Any

from repro.bench.scale import BLOCKING_SECONDS_PER_UNIT, build_workload
from repro.bench.workloads import Step

__all__ = [
    "backend",
    "step_doc",
    "inline_golden",
    "throughput_bench",
    "cross_process_migration_bench",
    "kill_and_adopt",
    "kill_and_adopt_run",
    "comm_workload",
    "fault_bench",
    "determinism_bench",
    "run",
    "check",
]

#: throughput acceptance bar at 4 worker processes vs 1.
SPEEDUP_GATE = 3.0

#: the domain name the throughput/fault/determinism sessions run in.
BENCH_DOMAIN = "bench-comm"

#: open doc shared by every bench session: autonomic recovery off so
#: op_logs are deterministic (recovery runs through explicit steps).
OPEN_DOC = {"domain": BENCH_DOMAIN, "autonomic": False}

#: blocking seconds per op-cost unit for the cluster bench service.
#: Four times the scale bench's unit (~1.2 ms per service call at the
#: default op cost): service time must dominate the coordinator's
#: per-frame cost for the scaling claim to be about the fabric, not
#: about JSON encoding — this is still far below the real network
#: latencies of the paper's testbed regime.
CLUSTER_SECONDS_PER_UNIT = 4 * BLOCKING_SECONDS_PER_UNIT


def _bench_work(cost: float) -> None:
    if cost > 0:
        time.sleep(cost * CLUSTER_SECONDS_PER_UNIT)


class _BenchCommEntry:
    """DSK registry entry for the blocking-service communication domain."""

    name = BENCH_DOMAIN

    @property
    def context(self) -> dict[str, Any]:
        from repro.domains.communication.cvm import default_context

        return default_context()

    def service(self) -> Any:
        from repro.sim.network import CommService

        return CommService("net0", work=_bench_work)

    def knowledge(self, service: Any) -> Any:
        from repro.domains.communication.cml import cml_metamodel
        from repro.middleware.loader import DomainKnowledge

        return DomainKnowledge(dsml=cml_metamodel(), resources=[service])

    def middleware(self) -> Any:
        from repro.domains.communication.cvm import build_middleware_model

        return build_middleware_model()


def backend():
    """Worker backend factory: the ``"repro.bench.cluster:backend"`` spec.

    The four shipped domains plus the blocking-service bench domain.
    """
    from repro.middleware.cluster import RegistryBackend, default_registry

    registry = default_registry()
    registry.register(_BenchCommEntry())
    return RegistryBackend(registry)


def step_doc(step: Step) -> dict[str, Any]:
    """One scenario step as a portable session-op doc."""
    tag = step[0]
    if tag == "api":
        return {"op": "api", "api": step[1], "args": step[2]}
    if tag == "fail":
        return {"op": "fail", "conn": step[1]}
    if tag == "recover":
        return {"op": "recover", "conn": step[1]}
    raise ValueError(f"unknown scenario step tag {tag!r}")


def _log_bytes(op_logs: dict[str, list[str]]) -> bytes:
    """The op_log witness of a describe/inline result (single service)."""
    (log,) = op_logs.values()
    return "\n".join(log).encode("utf-8")


def inline_golden(specs: list) -> dict[str, bytes]:
    """:func:`inline_op_logs` of the communication session specs."""
    return inline_op_logs([
        (spec.key, OPEN_DOC, [step_doc(step) for step in spec.steps])
        for spec in specs
    ])


def inline_op_logs(sessions: list) -> dict[str, bytes]:
    """Deterministic in-process run of the worker backend itself over
    ``(key, open_doc, docs)`` sessions: no processes, sockets or
    threads.  A session owns its services, so its op_log does not
    depend on interleaving; cluster runs must reproduce it exactly.
    """
    target = backend()
    logs: dict[str, bytes] = {}
    try:
        for key, open_doc, docs in sessions:
            target.open(key, open_doc)
            for doc in docs:
                target.apply(key, doc)
            logs[key] = _log_bytes(target.describe(key)["op_logs"])
        return logs
    finally:
        for key in list(target.sessions):
            target.close(key)


def _open_all(cluster, specs, *, timeout: float = 300.0) -> None:
    futures = [cluster.open_session(spec.key, OPEN_DOC) for spec in specs]
    for future in futures:
        future.result(timeout).unwrap()


def _collect_logs(cluster, keys) -> dict[str, bytes]:
    return {
        key: _log_bytes(cluster.describe(key)["op_logs"]) for key in keys
    }


def _check_logs(op_logs: dict[str, bytes], golden: dict[str, bytes],
                label: str) -> None:
    mismatched = [key for key in golden if op_logs.get(key) != golden[key]]
    if mismatched:
        raise RuntimeError(
            f"op_log divergence ({label}): {mismatched[:5]} "
            f"(of {len(mismatched)})"
        )


# -- throughput ---------------------------------------------------------------


def _cluster_run(specs: list, workers: int) -> dict[str, Any]:
    """Replay ``specs`` round-robin on a cluster of ``workers`` processes."""
    from repro.runtime.cluster import ProcessCluster

    cluster = ProcessCluster(
        workers, backend="repro.bench.cluster:backend",
        name=f"bench-cluster-{workers}w",
    ).start()
    try:
        _open_all(cluster, specs)
        start = time.perf_counter()
        futures = []
        max_steps = max(len(spec.steps) for spec in specs)
        # Round-robin pipelined posting, the scale bench's interleaving:
        # step k of every session is framed before step k+1 of any.
        for step_index in range(max_steps):
            for spec in specs:
                if step_index < len(spec.steps):
                    futures.append(cluster.submit(
                        spec.key, step_doc(spec.steps[step_index])
                    ))
        outcomes = [future.result(600) for future in futures]
        elapsed = time.perf_counter() - start
        failed = [outcome for outcome in outcomes if not outcome.ok]
        if failed:
            raise RuntimeError(
                f"{len(failed)} step(s) failed at {workers} worker(s); "
                f"first: {failed[0].summary()}"
            )
        op_logs = _collect_logs(cluster, [spec.key for spec in specs])
        stats = cluster.stats()
    finally:
        cluster.stop()
    steps_total = sum(len(spec.steps) for spec in specs)
    return {
        "workers": workers,
        "sessions": len(specs),
        "steps": steps_total,
        "elapsed_s": elapsed,
        "steps_per_s": steps_total / elapsed,
        "sessions_per_s": len(specs) / elapsed,
        "restarts": stats["restarts"],
        "op_logs": op_logs,
    }


def throughput_bench(
    *, sessions: int = 200, worker_counts: tuple[int, ...] = (1, 2, 4)
) -> dict[str, Any]:
    """The cluster scale curve, gated on op_log byte-equivalence."""
    specs = build_workload(sessions)
    golden = inline_golden(specs)

    rows: list[dict[str, Any]] = []
    for workers in worker_counts:
        result = _cluster_run(specs, workers)
        _check_logs(result.pop("op_logs"), golden, f"{workers} worker(s)")
        result["op_logs_identical"] = True
        rows.append(result)

    by_workers = {row["workers"]: row for row in rows}
    speedup = None
    if 1 in by_workers and 4 in by_workers:
        speedup = by_workers[4]["steps_per_s"] / by_workers[1]["steps_per_s"]
    return {
        "sessions": sessions,
        "runs": rows,
        "speedup_steps_4_workers_vs_1": speedup,
        "meets_3x_at_4_workers": speedup is not None and speedup >= SPEEDUP_GATE,
    }


# -- cross-process live migration --------------------------------------------


def cross_process_migration_bench() -> dict[str, Any]:
    """Migrate each domain's session across the process boundary."""
    from repro.bench.workloads import golden_logs
    from repro.domains.assembly import domain_cases
    from repro.modeling.serialize import model_to_dict
    from repro.runtime.cluster import ProcessCluster

    cases = domain_cases()
    golden = golden_logs(cases)

    rows: list[dict[str, Any]] = []
    cluster = ProcessCluster(
        2, backend="repro.middleware.cluster:default_backend",
        name="bench-xmigrate",
    ).start()
    try:
        for case in cases:
            key = f"{case.name}-session"
            target = 1 - cluster.worker_for(key)
            cluster.open_session(key, {"domain": case.name}).result(120).unwrap()
            cluster.call(
                key,
                {"op": "run_model", "model": model_to_dict(case.phase1())},
                timeout=120,
            )
            start = time.perf_counter()
            cluster.migrate(key, target, timeout=120)
            pause = time.perf_counter() - start
            if cluster.worker_for(key) != target:
                raise RuntimeError(
                    f"domain {case.name!r}: route did not re-point "
                    f"{key!r} to worker {target}"
                )
            cluster.call(
                key,
                {"op": "run_model", "model": model_to_dict(case.phase2())},
                timeout=120,
            )
            log = _log_bytes(cluster.describe(key)["op_logs"])
            if log != golden[case.name]:
                raise RuntimeError(
                    f"domain {case.name!r}: op_log after cross-process "
                    f"migration diverged from the uninterrupted run"
                )
            cluster.close_session(key)
            rows.append({
                "domain": case.name,
                "op_log_identical": True,
                "pause_ms": pause * 1000,
            })
    finally:
        cluster.stop()
    return {"domains": rows, "all_identical": True}


# -- kill-a-worker fault injection -------------------------------------------


def kill_and_adopt(cluster, phases: list) -> dict[str, Any]:
    """SIGKILL the busiest worker mid-workload; adopt and resume.

    ``phases`` lists ``(key, phase_a_docs, phase_b_docs)`` for sessions
    already open on ``cluster``, which must have been started with a
    log shipper.  Phase A runs to a barrier, so every session has
    shipped frames; phase B is pipelined and the worker hosting the
    most sessions is killed mid-stream.  The shipper adopts the lost
    sessions onto a survivor from the shipped checkpoint + WAL tail;
    each session's steps rejected with ``WORKER_DEAD`` (a suffix of
    its phase B: the acknowledged prefix is in the shipped log) are
    then resubmitted in order onto the adopted route.

    Raises on a hung or untyped-failed future, or on a lost session
    the adoption skipped.  Returns the victim's sessions, the counts
    and the adoption report.
    """
    from repro.runtime.faults import InvocationOutcome
    from repro.runtime.ingress import IngressRejected, ShedReason

    phase_a = [cluster.submit(key, doc) for key, docs, _b in phases
               for doc in docs]
    for future in phase_a:
        future.result(300).unwrap()

    homes = [cluster.worker_for(key) for key, _a, _b in phases]
    victim = max(set(homes), key=homes.count)
    victim_keys = [key for key, _a, _b in phases
                   if cluster.worker_for(key) == victim]

    phase_b: dict[str, list] = {key: [] for key, _a, _b in phases}
    max_b = max(len(docs) for _key, _a, docs in phases)
    for step_index in range(max_b):
        for key, _a, docs in phases:
            if step_index < len(docs):
                doc = docs[step_index]
                phase_b[key].append((doc, cluster.submit(key, doc)))
    cluster.kill_worker(victim)

    report = cluster.wait_adoption(120)
    if report is None:
        raise RuntimeError("no adoption ran after the kill")
    bad = {key: row for key, row in report["sessions"].items()
           if "skipped" in row or "error" in row}
    missing = sorted(set(victim_keys) - set(report["sessions"]))
    if bad or missing:
        raise RuntimeError(
            f"standby failed to adopt: {bad}; left behind: {missing}")

    unresolved = 0
    untyped: list[str] = []
    suffixes: dict[str, list] = {}
    for key, steps in phase_b.items():
        for doc, future in steps:
            try:
                outcome = future.result(300)
            except Exception:  # a hung or raising future: the failure mode
                unresolved += 1
                continue
            error = outcome.error
            if (outcome.status == InvocationOutcome.REJECTED
                    and isinstance(error, IngressRejected)
                    and error.reason == ShedReason.WORKER_DEAD):
                suffixes.setdefault(key, []).append(doc)
            elif not outcome.ok:
                untyped.append(repr(error))
            elif key in suffixes:
                untyped.append(f"{key}: step acknowledged after a rejection")
    if unresolved or untyped:
        raise RuntimeError(
            f"kill-a-worker fault leaked: {unresolved} unresolved "
            f"future(s), {len(untyped)} untyped failure(s): {untyped[:3]}"
        )
    for key, docs in suffixes.items():
        for doc in docs:
            cluster.call(key, doc, timeout=300)
    errors = [err for row in report["sessions"].values()
              for err in row.get("errors", ())]
    if errors:
        raise RuntimeError(f"adoption replay errors: {errors[:3]}")
    return {
        "victim_keys": victim_keys,
        "rejected_worker_dead": sum(len(docs) for docs in suffixes.values()),
        "report": report,
    }


def comm_workload(sessions: int) -> list:
    """``(key, open_doc, phase_a_docs, phase_b_docs)`` per
    communication session, its steps split in half."""
    items = []
    for spec in build_workload(sessions):
        docs = [step_doc(step) for step in spec.steps]
        half = len(docs) // 2
        items.append((spec.key, OPEN_DOC, docs[:half], docs[half:]))
    return items


def kill_and_adopt_run(workload: list, *, workers: int,
                       name: str) -> tuple[dict[str, Any], dict[str, Any]]:
    """:func:`kill_and_adopt` on a fresh ``workers``-process cluster
    with log shipping.  ``workload`` lists ``(key, open_doc,
    phase_a_docs, phase_b_docs)``; the final op_logs must equal the
    inline golden.  Returns the fault record and the cluster stats.
    """
    from repro.runtime.cluster import ProcessCluster

    golden = inline_op_logs([(key, open_doc, docs_a + docs_b)
                             for key, open_doc, docs_a, docs_b in workload])
    cluster = ProcessCluster(
        workers, backend="repro.bench.cluster:backend", name=name)
    cluster.build_shipper()
    cluster.start()
    try:
        opens = [cluster.open_session(key, open_doc)
                 for key, open_doc, _a, _b in workload]
        for future in opens:
            future.result(300).unwrap()
        fault = kill_and_adopt(cluster, [
            (key, docs_a, docs_b) for key, _open, docs_a, docs_b in workload])
        _check_logs(_collect_logs(cluster, [item[0] for item in workload]),
                    golden, name)
        return fault, cluster.stats()
    finally:
        cluster.stop()


def fault_bench(*, sessions: int = 8) -> dict[str, Any]:
    """SIGKILL a worker mid-workload; recover to byte-identical logs.

    Recovery is the fabric's one worker-death path: log shipping plus
    standby adoption (:func:`kill_and_adopt`).
    """
    fault, stats = kill_and_adopt_run(
        comm_workload(sessions), workers=2, name="bench-fault")
    return {
        "sessions": sessions,
        "victim_sessions": len(fault["victim_keys"]),
        "rejected_worker_dead": fault["rejected_worker_dead"],
        "resubmitted": fault["rejected_worker_dead"],
        "unresolved_futures": 0,
        "untyped_failures": 0,
        "deaths": stats["deaths"],
        "restarts": stats["restarts"],
        "adoptions": stats["adoptions"],
        "op_logs_identical": True,
    }


# -- seeded frame-ordering determinism ---------------------------------------


def determinism_bench(*, sessions: int = 8, seed: int = 20260808,
                      runs: int = 2) -> dict[str, Any]:
    """Shuffle cross-session frame order (seeded); op_logs must not move."""
    from repro.runtime.cluster import ProcessCluster

    specs = build_workload(sessions)
    golden = inline_golden(specs)

    # A seeded multiset shuffle of session keys: per-session step order
    # is preserved (each occurrence submits that session's next step),
    # cross-session interleaving is randomized but reproducible.
    order = [spec.key for spec in specs for _ in spec.steps]
    random.Random(seed).shuffle(order)
    steps_by_key = {spec.key: list(spec.steps) for spec in specs}

    logs: list[dict[str, bytes]] = []
    for _ in range(runs):
        cluster = ProcessCluster(
            2, backend="repro.bench.cluster:backend", name="bench-seeded",
        ).start()
        try:
            _open_all(cluster, specs)
            cursors = {key: 0 for key in steps_by_key}
            futures = []
            for key in order:
                step = steps_by_key[key][cursors[key]]
                cursors[key] += 1
                futures.append(cluster.submit(key, step_doc(step)))
            for future in futures:
                future.result(300).unwrap()
            logs.append(
                _collect_logs(cluster, [spec.key for spec in specs]))
        finally:
            cluster.stop()

    for index, run_logs in enumerate(logs):
        _check_logs(run_logs, golden, f"seeded run {index}")
    if any(run_logs != logs[0] for run_logs in logs[1:]):
        raise RuntimeError("seeded runs diverged from each other")
    return {
        "sessions": sessions,
        "seed": seed,
        "runs": runs,
        "op_logs_identical": True,
    }


# -- report ------------------------------------------------------------------


def run(quick: bool = False) -> dict[str, Any]:
    """The PR 9 report."""
    return {
        "bench": "PR9-process-fabric",
        "throughput": throughput_bench(
            sessions=24 if quick else 200,
            worker_counts=(1, 2) if quick else (1, 2, 4),
        ),
        "migration": cross_process_migration_bench(),
        "fault": fault_bench(sessions=6 if quick else 8),
        "determinism": determinism_bench(sessions=6 if quick else 8),
    }


def check(report: dict[str, Any]) -> str:
    # Correctness gates hold on any box: every cluster run's
    # op_logs byte-identical to the inline single-process run,
    # zero unresolved futures and zero untyped failures under a
    # SIGKILLed worker, and seeded frame reordering changes
    # nothing.  The >= 3x at 4 workers perf gate is noisy on
    # shared two-core runners and is enforced on the committed
    # full run.
    for run in report["throughput"]["runs"]:
        assert run["op_logs_identical"], run
        assert run["restarts"] == 0, run
    migration = report["migration"]
    assert migration["all_identical"], migration["domains"]
    assert len(migration["domains"]) == 4, migration["domains"]
    fault = report["fault"]
    assert fault["op_logs_identical"], fault
    assert fault["unresolved_futures"] == 0, fault
    assert fault["untyped_failures"] == 0, fault
    assert fault["rejected_worker_dead"] > 0, fault
    assert fault["deaths"] == 1 and fault["restarts"] == 1, fault
    assert report["determinism"]["op_logs_identical"], report
    if not report["quick"]:
        throughput = report["throughput"]
        assert throughput["meets_3x_at_4_workers"], (
            f"session-step throughput at 4 workers is only "
            f"{throughput['speedup_steps_4_workers_vs_1']:.2f}x the "
            f"1-worker run (acceptance bar: >= {SPEEDUP_GATE}x)"
        )
    return ("cluster smoke OK "
            f"({fault['rejected_worker_dead']} typed rejections, "
            f"{len(migration['domains'])} domains migrated)")
