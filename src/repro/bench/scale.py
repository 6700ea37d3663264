"""PR 4 scale benchmark: the sharded session fabric under load.

Replays a multi-session CVM workload — ``--sessions`` (default 200)
concurrent communication sessions, each running one of the eight E1
scenarios against its own model-based NCB Broker over a simulated
service — on :class:`~repro.runtime.sharded.ShardedRuntime` fabrics of
1/2/4/8 shards, and reports aggregate throughput (sessions/sec and
signals/sec) per shard count.

Fidelity rules:

* Sessions are *interleaved*, not run-to-completion: every session's
  steps are posted round-robin, so hundreds of sessions are genuinely
  in flight at once on each shard (strict per-session ordering is
  guaranteed by shard-mailbox FIFO plus key affinity).
* The simulated service charges a *blocking* per-operation cost
  (``time.sleep``), modeling the paper's testbed where real
  communication-framework calls dominate — the regime in which a
  session fabric must scale.  Python-side middleware work still
  contends on the GIL, so the measured speedup is an honest composite.
* Correctness is checked before speed is reported: the per-session
  ``op_log``s of every sharded run must be byte-identical to the
  single-shard *inline* (deterministic, no threads) run.
* Each session completion is routed to an aggregator shard through the
  batched cross-shard forwarding channel, so the channel is exercised
  under full load and completions are double-counted against futures.

The report also re-runs the eight-scenario E1 overhead benchmark and
records the ``BENCH_PR3.json`` figure beside it — sharding must not tax
the single-session path.

``repro bench scale`` writes ``BENCH_PR4.json`` (``--quick`` shrinks
the workload for CI).
"""

from __future__ import annotations

import time
from typing import Any, Callable

from repro.bench.workloads import COMMUNICATION_SCENARIOS, Step

__all__ = [
    "SessionSpec",
    "build_workload",
    "run_fabric",
    "scale_bench",
    "run",
    "check",
]

#: seconds of blocking service time per op-cost unit.  With the
#: default op cost of 6.0 this is ~300 µs per service call — service
#: time dominates middleware CPU (the paper's Sec. VII-A regime) while
#: staying far below real network latencies, so full runs finish in
#: seconds.
BLOCKING_SECONDS_PER_UNIT = 50e-6

#: the shard counts the scale curve is measured at.
SHARD_COUNTS = (1, 2, 4, 8)

#: session key whose shard aggregates cross-shard completion signals.
AGGREGATOR_KEY = "fabric-aggregator"


class SessionSpec:
    """One platform session: a key and the scenario it replays."""

    __slots__ = ("key", "scenario", "steps")

    def __init__(self, key: str, scenario: str, steps: list[Step]) -> None:
        self.key = key
        self.scenario = scenario
        self.steps = steps


def build_workload(sessions: int) -> list[SessionSpec]:
    """``sessions`` session specs cycling through the eight scenarios."""
    names = list(COMMUNICATION_SCENARIOS)
    return [
        SessionSpec(
            key=f"session-{index:04d}",
            scenario=names[index % len(names)],
            steps=COMMUNICATION_SCENARIOS[names[index % len(names)]],
        )
        for index in range(sessions)
    ]


class _SessionState:
    """A live session: its own service + model-based Broker.

    The service and broker are private per session (isolated
    ``op_log``, no cross-session ``resource.*`` cross-talk); the
    broker's metrics registry is the owning *shard's*, so fabric-wide
    aggregation needs no extra synchronization on the hot path.
    """

    __slots__ = ("spec", "service", "broker", "done")

    def __init__(
        self, spec: SessionSpec, metrics: Any, *, work: Any = None
    ) -> None:
        from repro.domains.communication.cml import cml_metamodel
        from repro.domains.communication.cvm import build_middleware_model
        from repro.middleware.loader import DomainKnowledge, load_platform
        from repro.sim.network import CommService

        self.spec = spec
        self.service = CommService("net0", work=work or _blocking_work)
        knowledge = DomainKnowledge(
            dsml=cml_metamodel(), resources=[self.service]
        )
        platform = load_platform(
            build_middleware_model(),
            knowledge,
            start=False,
            metrics=metrics,
        )
        broker = platform.broker
        assert broker is not None
        # Same configuration as the E1 harness: recovery runs through
        # the explicit scenario step, keeping op_logs deterministic.
        broker.autonomic.enabled = False
        broker.start()
        self.broker = broker
        self.done = False

    def run_step(self, step: Step) -> None:
        tag = step[0]
        if tag == "api":
            _tag, api, args = step
            self.broker.call_api(api, **args)
        elif tag == "fail":
            self.service.inject_failure(self._session_id(step[1]))
        elif tag == "recover":
            self.broker.call_api(
                "ncb.recover_session", session=self._session_id(step[1])
            )
        else:  # pragma: no cover - workload tags are closed
            raise ValueError(f"unknown scenario step tag {tag!r}")

    def _session_id(self, connection: str) -> str:
        return self.broker.state.get(f"session:{connection}")

    def op_log_bytes(self) -> bytes:
        return "\n".join(self.service.op_log).encode("utf-8")


def _blocking_work(cost: float) -> None:
    if cost > 0:
        time.sleep(cost * BLOCKING_SECONDS_PER_UNIT)


def run_fabric(
    specs: list[SessionSpec], *, shards: int, inline: bool = False
) -> dict[str, Any]:
    """Execute ``specs`` on a fabric of ``shards`` shards.

    Returns timing plus the per-session op_logs.  Session state is
    prepared (brokers loaded) outside the timed region — the fabric is
    measured on steady-state signal processing, the load the paper's
    middleware serves, not on middleware-model bootstrapping.
    """
    from repro.runtime.sharded import ShardedRuntime

    runtime = ShardedRuntime(shards, name="bench-scale", inline=inline)
    states = {
        spec.key: _SessionState(
            spec, runtime.shard_for(spec.key).metrics
        )
        for spec in specs
    }
    completions: list[Any] = []
    aggregator = runtime.shard_for(AGGREGATOR_KEY)
    aggregator.bus.subscribe("fabric.session.done", completions.append)

    published_before = 0  # preparation publishes resource registrations
    runtime.start()
    try:
        published_before = _published(runtime)
        start = time.perf_counter()
        max_steps = max(len(spec.steps) for spec in specs)
        # Round-robin posting: step k of every session enqueues before
        # step k+1 of any — hundreds of sessions genuinely in flight.
        for step_index in range(max_steps):
            for spec in specs:
                if step_index >= len(spec.steps):
                    continue
                state = states[spec.key]
                step = spec.steps[step_index]
                last = step_index == len(spec.steps) - 1
                runtime.post(
                    spec.key,
                    lambda s=state, st=step, last=last: _run_step(
                        runtime, s, st, last
                    ),
                )
        if inline:
            runtime.drain()
        runtime.stop()  # deterministic drain: joins all shard pumps
        elapsed = time.perf_counter() - start
    finally:
        if runtime.started:
            runtime.stop()
    published = _published(runtime) - published_before

    failures = [s for s in states.values() if not s.done]
    if failures:
        raise RuntimeError(
            f"{len(failures)} session(s) did not complete: "
            f"{[s.spec.key for s in failures[:5]]}"
        )
    if len(completions) != len(specs):
        raise RuntimeError(
            f"aggregator saw {len(completions)} completions for "
            f"{len(specs)} sessions"
        )
    task_errors = sum(len(s.task_errors) for s in runtime.shards)
    if task_errors:
        raise RuntimeError(f"{task_errors} shard task error(s)")
    steps_total = sum(len(spec.steps) for spec in specs)
    return {
        "shards": shards,
        "inline": inline,
        "sessions": len(specs),
        "steps": steps_total,
        "elapsed_s": elapsed,
        "sessions_per_s": len(specs) / elapsed,
        "signals_per_s": published / elapsed,
        "published_signals": published,
        "channel": runtime.channel.stats(),
        "op_logs": {key: s.op_log_bytes() for key, s in states.items()},
    }


def _run_step(runtime: Any, state: _SessionState, step: Step, last: bool) -> None:
    state.run_step(step)
    if last:
        state.done = True
        from repro.runtime.events import Event

        done = Event(
            topic="fabric.session.done",
            payload={"session": state.spec.key,
                     "scenario": state.spec.scenario},
            origin=state.spec.key,
        )
        # Cross-shard signals ride the batched forwarding channel;
        # same-shard completions publish directly.
        runtime.route_signal(done, key=AGGREGATOR_KEY)


def _published(runtime: Any) -> int:
    """Total signals published across all shard buses and session
    buses (every session bus reports into its shard's registry)."""
    total = 0
    for shard in runtime.shards:
        for name, _label, value in shard.metrics.counters():
            if name == "bus.publish":
                total += value
    return total


def scale_bench(
    *,
    sessions: int = 200,
    shard_counts: tuple[int, ...] = SHARD_COUNTS,
) -> dict[str, Any]:
    """The scale curve: inline baseline + threaded runs per shard count."""
    specs = build_workload(sessions)

    # Deterministic single-shard inline run: the golden op_logs.
    baseline = run_fabric(specs, shards=1, inline=True)
    golden = baseline.pop("op_logs")

    rows: list[dict[str, Any]] = []
    for shards in shard_counts:
        result = run_fabric(specs, shards=shards)
        op_logs = result.pop("op_logs")
        mismatched = [
            key for key in golden if op_logs.get(key) != golden[key]
        ]
        if mismatched:
            raise RuntimeError(
                f"op_log divergence at {shards} shard(s): "
                f"{mismatched[:5]} (of {len(mismatched)})"
            )
        result["op_logs_identical"] = True
        rows.append(result)

    by_shards = {row["shards"]: row for row in rows}
    speedup_4x = None
    if 1 in by_shards and 4 in by_shards:
        speedup_4x = (
            by_shards[4]["signals_per_s"] / by_shards[1]["signals_per_s"]
        )
    baseline.pop("inline", None)
    return {
        "sessions": sessions,
        "scenarios": len(COMMUNICATION_SCENARIOS),
        "inline_baseline": baseline,
        "runs": rows,
        "speedup_signals_4_shards_vs_1": speedup_4x,
        "meets_2x_at_4_shards": (
            speedup_4x is not None and speedup_4x >= 2.0
        ),
    }


def run(quick: bool = False) -> dict[str, Any]:
    """The PR 4 report: the scale sweep plus the E1 pass."""
    from repro.bench.harness import e1_paired_bench, recorded

    return {
        "bench": "PR4-sharded-fabric",
        "scale": scale_bench(
            sessions=64 if quick else 200,
            shard_counts=(1, 2, 4) if quick else SHARD_COUNTS,
        ),
        "e1": e1_paired_bench(repeat=3 if quick else 25),
        "baseline_e1_mean_overhead_pct": recorded(
            "BENCH_PR3.json", "e1", "mean_overhead_pct"
        ),
    }


def check(report: dict[str, Any]) -> str:
    scale = report["scale"]
    for run in scale["runs"]:
        assert run["op_logs_identical"], run
        assert run["channel"]["pending"] == 0, run
    by_shards = {run["shards"]: run for run in scale["runs"]}
    speedup = (
        by_shards[4]["signals_per_s"] / by_shards[1]["signals_per_s"]
    )
    # Shared runners are noisy and may be core-limited; the >= 2x
    # acceptance bar is enforced on the committed full run.
    assert speedup >= 1.3, (speedup, scale["runs"])
    if not report["quick"]:
        assert scale["meets_2x_at_4_shards"], (
            f"aggregate signal throughput at 4 shards is only "
            f"{scale['speedup_signals_4_shards_vs_1']:.2f}x the 1-shard "
            f"run (acceptance bar: >= 2x)"
        )
    return f"scale smoke OK ({speedup:.2f}x at 4 shards)"
