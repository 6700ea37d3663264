"""PR2 fault-tolerance benchmark: E5 recovery under a hostile substrate.

The paper's E5 experiment demonstrates recovery from failures, but the
seed implementation only survived it because the simulated service was
polite.  This benchmark replays the E5 communication scenarios against
a :class:`~repro.sim.faults.FaultInjector`-wrapped service (seeded op
failures at >= 10 %, latency spikes) with the Broker's fault layer
engaged — retry policies, a per-resource circuit breaker, guarded API
calls — and reports:

* per-outcome operation counts (ok / exhausted / rejected / failed),
* retry counts and injected-fault counts,
* recovery latency (virtual-clock seconds from failure injection to
  successful ``ncb.recover_session``) as a histogram,
* a deterministic circuit-breaker demonstration (hard outage window:
  closed -> open -> half-open -> closed) with the autonomic symptoms
  the transitions raised,
* a determinism check (same seed => identical fault/op logs),
* the wall-clock overhead of the guarded invocation path.

Everything runs on a :class:`~repro.runtime.clock.VirtualClock`, so
the numbers are reproducible bit-for-bit for a given seed.

``repro bench faults`` writes ``BENCH_PR2.json``.
"""

from __future__ import annotations

from typing import Any

from repro.middleware.broker.autonomic import Symptom
from repro.middleware.broker.layer import BrokerLayer
from repro.middleware.broker.resource import TransientResourceError
from repro.runtime.clock import VirtualClock
from repro.runtime.faults import RetryPolicy
from repro.runtime.metrics import MetricsRegistry
from repro.sim.faults import FaultInjector, FlakyWindow
from repro.sim.network import CommService

__all__ = [
    "DEFAULT_POLICY",
    "build_faulty_broker",
    "GuardedScenarioRunner",
    "run_recovery_episodes",
    "breaker_outage_demo",
    "determinism_check",
    "guard_overhead_bench",
    "run",
    "check",
]

#: Retry policy used throughout: transient faults only, exponential
#: backoff, bounded attempts.
DEFAULT_POLICY = RetryPolicy(
    max_attempts=4,
    base_delay=0.05,
    multiplier=2.0,
    max_delay=1.0,
    retry_on=(TransientResourceError,),
)


def build_faulty_broker(
    *,
    seed: int,
    failure_rate: float = 0.12,
    windows: tuple[FlakyWindow, ...] = (),
    latency_spike_rate: float = 0.05,
    latency_spike: float = 0.2,
    policy: RetryPolicy | None = DEFAULT_POLICY,
    failure_threshold: int = 5,
    recovery_time: float = 10.0,
    clock: VirtualClock | None = None,
    metrics: MetricsRegistry | None = None,
    autonomic: bool = False,
) -> tuple[BrokerLayer, CommService, FaultInjector]:
    """A model-based CVM Broker over a fault-injected CommService.

    Mirrors :func:`repro.bench.harness.fresh_model_based_broker` but
    wraps the service in a seeded :class:`FaultInjector`, runs on a
    virtual clock, and engages the fault layer (retry policy + circuit
    breaker on ``net0``).
    """
    from repro.domains.communication.cml import cml_metamodel
    from repro.domains.communication.cvm import build_middleware_model
    from repro.middleware.loader import DomainKnowledge, load_platform

    clock = clock or VirtualClock()
    metrics = metrics if metrics is not None else MetricsRegistry()
    service = CommService("net0", op_cost=0.0)
    injector = FaultInjector(
        service,
        seed=seed,
        clock=clock,
        failure_rate=failure_rate,
        latency_spike_rate=latency_spike_rate,
        latency_spike=latency_spike,
        windows=windows,
    )
    model = build_middleware_model()
    knowledge = DomainKnowledge(dsml=cml_metamodel(), resources=[injector])
    platform = load_platform(
        model, knowledge, start=False, clock=clock, metrics=metrics
    )
    broker = platform.broker
    assert broker is not None
    broker.autonomic.enabled = autonomic
    if policy is not None:
        broker.resources.protect(
            "net0",
            policy,
            failure_threshold=failure_threshold,
            recovery_time=recovery_time,
        )
    broker.start()
    return broker, service, injector


class GuardedScenarioRunner:
    """Replays E5 workload steps through the guarded Broker API.

    Unlike :class:`repro.bench.harness.ScenarioRunner`, every API call
    goes through :meth:`BrokerLayer.call_api_guarded`, so injected
    faults degrade into typed outcomes instead of exceptions; the
    runner tallies outcomes and measures recovery latency on the
    virtual clock.
    """

    def __init__(
        self,
        broker: BrokerLayer,
        service: CommService,
        clock: VirtualClock,
        metrics: MetricsRegistry,
    ) -> None:
        self.broker = broker
        self.service = service
        self.clock = clock
        self.metrics = metrics
        self.outcomes: dict[str, int] = {}
        self.steps_run = 0
        self.skipped_steps = 0
        self._failed_at: dict[str, float] = {}
        self.recovery_latencies: list[float] = []

    def _lookup(self, connection: str) -> str | None:
        session = self.broker.state.get(f"session:{connection}")
        if session is None or session not in self.service.sessions:
            return None
        return session

    def _tally(self, status: str) -> None:
        self.outcomes[status] = self.outcomes.get(status, 0) + 1

    def run(self, steps: Any) -> None:
        for step in steps:
            self.steps_run += 1
            tag = step[0]
            if tag == "api":
                _tag, api, args = step
                self._tally(self.broker.call_api_guarded(api, **args).status)
            elif tag == "fail":
                session = self._lookup(step[1])
                if session is None:
                    self.skipped_steps += 1      # earlier open degraded
                    continue
                self.service.inject_failure(session)
                self._failed_at[step[1]] = self.clock.now()
            elif tag == "recover":
                session = self._lookup(step[1])
                if session is None:
                    self.skipped_steps += 1
                    continue
                outcome = self.broker.call_api_guarded(
                    "ncb.recover_session", session=session
                )
                self._tally(outcome.status)
                failed_at = self._failed_at.pop(step[1], None)
                if outcome.ok and failed_at is not None:
                    latency = self.clock.now() - failed_at
                    self.recovery_latencies.append(latency)
                    self.metrics.observe(
                        "faults.recovery_latency", self.service.name, latency
                    )
            else:
                raise ValueError(f"unknown scenario step tag {tag!r}")


def run_recovery_episodes(
    *,
    episodes: int = 25,
    seed: int = 1,
    failure_rate: float = 0.12,
) -> dict[str, Any]:
    """Replay the full E5 scenario suite ``episodes`` times, each with
    its own injector seed, and aggregate fault-layer statistics."""
    from repro.bench.workloads import COMMUNICATION_SCENARIOS

    metrics = MetricsRegistry()
    totals: dict[str, int] = {}
    injected = 0
    retries_before = 0
    steps = 0
    skipped = 0
    recovery_latencies: list[float] = []
    unhandled = 0
    for episode in range(episodes):
        clock = VirtualClock()
        broker, service, injector = build_faulty_broker(
            seed=seed + episode,
            failure_rate=failure_rate,
            clock=clock,
            metrics=metrics,
        )
        runner = GuardedScenarioRunner(broker, service, clock, metrics)
        try:
            for scenario_steps in COMMUNICATION_SCENARIOS.values():
                runner.run(scenario_steps)
        except Exception:  # noqa: BLE001 - the claim under test
            unhandled += 1
        finally:
            broker.stop()
        for status, count in runner.outcomes.items():
            totals[status] = totals.get(status, 0) + count
        injected += injector.injected_faults
        retries_before += broker.resources.retries
        steps += runner.steps_run
        skipped += runner.skipped_steps
        recovery_latencies.extend(runner.recovery_latencies)
    histogram = metrics.histogram("faults.recovery_latency", "net0")
    return {
        "episodes": episodes,
        "seed": seed,
        "failure_rate": failure_rate,
        "steps": steps,
        "skipped_steps": skipped,
        "outcomes": dict(sorted(totals.items())),
        "injected_faults": injected,
        "retries": retries_before,
        "unhandled_exceptions": unhandled,
        "recovery_latency": (
            histogram.summary() if histogram is not None else None
        ),
        "recoveries": len(recovery_latencies),
    }


def breaker_outage_demo(
    *,
    seed: int = 7,
    failure_threshold: int = 3,
    recovery_time: float = 10.0,
    metrics: MetricsRegistry | None = None,
) -> dict[str, Any]:
    """Deterministic hard-outage walk through the breaker states.

    A flaky window with failure rate 1.0 makes every call fail; the
    breaker opens after ``failure_threshold`` consecutive failures,
    rejects while open, half-opens after ``recovery_time`` seconds of
    virtual time, and closes on the first healthy probe.  Autonomic
    symptoms installed on the breaker topics record the outage as
    change requests.
    """
    clock = VirtualClock()
    metrics = metrics if metrics is not None else MetricsRegistry()
    outage = FlakyWindow(100.0, 160.0, 1.0)
    broker, _service, injector = build_faulty_broker(
        seed=seed,
        failure_rate=0.0,
        latency_spike_rate=0.0,
        windows=(outage,),
        failure_threshold=failure_threshold,
        recovery_time=recovery_time,
        clock=clock,
        metrics=metrics,
        autonomic=True,
    )
    breaker = broker.resources.breaker("net0")
    assert breaker is not None
    broker.install_symptom(Symptom.for_breaker("net0", state="open"))
    broker.install_symptom(
        Symptom.for_breaker(
            "net0", state="closed", request_kind="resource-restored"
        )
    )

    broker.call_api_guarded("ncb.open_session", connection="c1")
    clock.advance(outage.start - clock.now())    # enter the outage

    probes = 0
    while breaker.state != "open" and probes < 50:
        probes += 1
        broker.call_api_guarded("ncb.probe")
    opened_at = clock.now()

    rejected = 0
    for _ in range(5):                           # traffic while open
        outcome = broker.call_api_guarded("ncb.probe")
        rejected += outcome.status == "rejected"

    resume_at = max(outage.end, breaker.retry_at)
    clock.advance(resume_at - clock.now() + 0.001)
    heal_probes = 0
    while breaker.state != "closed" and heal_probes < 10:
        heal_probes += 1
        broker.call_api_guarded("ncb.probe")
    recovered_at = clock.now()
    requests = [
        {"kind": request.kind, "symptom": request.symptom}
        for request in broker.autonomic.requests_raised
    ]
    result = {
        "seed": seed,
        "failure_threshold": failure_threshold,
        "recovery_time": recovery_time,
        "probes_to_open": probes,
        "rejected_while_open": rejected,
        "heal_probes": heal_probes,
        "open_duration_s": recovered_at - opened_at,
        "final_state": breaker.state,
        "transitions": [
            {"t": round(t, 6), "from": old, "to": new}
            for t, old, new in breaker.transitions
        ],
        "breaker_rejections": breaker.rejections,
        "injected_faults": injector.injected_faults,
        "autonomic_requests": requests,
    }
    broker.stop()
    return result


def determinism_check(*, seed: int = 3) -> dict[str, Any]:
    """Run one episode twice with the same seed; logs must match."""
    from repro.bench.workloads import COMMUNICATION_SCENARIOS

    def one_run() -> tuple[list[str], list[str], dict[str, int]]:
        clock = VirtualClock()
        metrics = MetricsRegistry()
        broker, service, injector = build_faulty_broker(
            seed=seed, clock=clock, metrics=metrics
        )
        runner = GuardedScenarioRunner(broker, service, clock, metrics)
        for steps in COMMUNICATION_SCENARIOS.values():
            runner.run(steps)
        broker.stop()
        return list(service.op_log), list(injector.fault_log), runner.outcomes

    first_ops, first_faults, first_outcomes = one_run()
    second_ops, second_faults, second_outcomes = one_run()
    return {
        "seed": seed,
        "op_log_length": len(first_ops),
        "fault_log_length": len(first_faults),
        "replay_matches": (
            first_ops == second_ops
            and first_faults == second_faults
            and first_outcomes == second_outcomes
        ),
    }


def guard_overhead_bench(*, calls: int = 20000) -> dict[str, Any]:
    """Wall-clock cost of the guarded invocation path on a healthy
    resource: bare dispatch vs retry policy vs policy + breaker."""
    from repro.bench.harness import measure
    from repro.middleware.broker.resource import (
        CallableResource,
        ResourceManager,
    )
    from repro.runtime.events import EventBus

    quiet = MetricsRegistry()
    quiet.enabled = False

    def fresh_manager() -> ResourceManager:
        bus = EventBus(name="bench", metrics=quiet)
        manager = ResourceManager(bus, metrics=quiet)
        manager.register(CallableResource("r", {"op": lambda: 1}))
        return manager

    rows: dict[str, Any] = {"calls": calls}
    bare = fresh_manager()
    policied = fresh_manager()
    policied.set_fault_policy("r", DEFAULT_POLICY)
    breakered = fresh_manager()
    breakered.protect("r", DEFAULT_POLICY)
    for label, manager in (
        ("bare_us", bare), ("policy_us", policied), ("breaker_us", breakered)
    ):
        def run(manager=manager) -> None:
            for _ in range(calls):
                manager.invoke("r", "op")

        rows[label] = measure(label, run, repeat=3).minimum / calls * 1e6
    return rows


def run(quick: bool = False) -> dict[str, Any]:
    """The fault suite (deterministic; one size)."""
    return {
        "bench": "PR2-fault-tolerance",
        "recovery": run_recovery_episodes(),
        "breaker_outage": breaker_outage_demo(),
        "determinism": determinism_check(),
        "guard_overhead": guard_overhead_bench(),
    }


def check(report: dict[str, Any]) -> str:
    recovery = report["recovery"]
    assert recovery["failure_rate"] >= 0.10, recovery
    assert recovery["unhandled_exceptions"] == 0, recovery
    assert recovery["recovery_latency"]["count"] > 0, recovery
    assert report["determinism"]["replay_matches"], report["determinism"]
    assert report["breaker_outage"]["final_state"] == "closed"
    return (
        f"fault-injection smoke OK ({recovery['episodes']} episodes, "
        f"{recovery['injected_faults']} faults injected, "
        f"{recovery['unhandled_exceptions']} unhandled exceptions)"
    )
