"""Shared benchmark harness: scenario replay, timing, result tables.

The pytest-benchmark modules under ``benchmarks/`` use these helpers
to replay workloads against either Broker implementation, time code
paths consistently, and print the rows that EXPERIMENTS.md records.
:func:`paired_overhead` is the one overhead statistic every gated
bench block reports.

This module is also the ``fabric`` suite of ``repro bench``
(``BENCH_PR1.json``): like every suite module it exposes ``run(quick)``
and ``check(results)``.
"""

from __future__ import annotations

import json
import statistics
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Sequence

from repro.baselines.handcrafted_broker import HandcraftedBroker
from repro.bench.workloads import Step
from repro.middleware.broker.layer import BrokerLayer
from repro.runtime.metrics import MetricsRegistry
from repro.sim.network import CommService

__all__ = [
    "ScenarioRunner",
    "Measurement",
    "measure",
    "least_noise",
    "ResultTable",
    "fresh_model_based_broker",
    "fresh_handcrafted_broker",
    "bus_scaling_bench",
    "STATISTIC",
    "paired_overhead",
    "e1_paired_bench",
    "recorded",
    "run",
    "check",
]


def least_noise(samples: Iterable[Any], *, key: Callable[[Any], float] | None = None):
    """The least scheduler-noise-contaminated sample of a repeat set.

    On a shared box, preemption and frequency drift only ever *inflate*
    a wall-clock sample (or a latency-keyed run summary) — they never
    make code look faster than it is — so the minimum over repeats is
    the closest estimate of the machine-independent figure of a
    micro-benchmark.  Overheads (one side against another) are paired
    instead, see :func:`paired_overhead`.  Pass ``key`` to select among
    structured run summaries instead of raw floats.
    """
    picked = list(samples)
    if not picked:
        raise ValueError("least_noise() requires at least one sample")
    if key is None:
        return min(picked)
    return min(picked, key=key)


class ScenarioRunner:
    """Replays a workload scenario against one Broker implementation.

    The runner needs to resolve symbolic connection ids to live
    session ids for failure injection; ``session_lookup`` abstracts
    over the two Brokers' state representations.
    """

    def __init__(
        self,
        broker: Any,
        service: CommService,
        session_lookup: Callable[[str], str],
    ) -> None:
        self.broker = broker
        self.service = service
        self.session_lookup = session_lookup
        self.steps_run = 0

    def run(self, steps: Sequence[Step]) -> None:
        for step in steps:
            tag = step[0]
            if tag == "api":
                _tag, api, args = step
                self.broker.call_api(api, **args)
            elif tag == "fail":
                self.service.inject_failure(self.session_lookup(step[1]))
            elif tag == "recover":
                # Recovery is itself a broker responsibility.
                self.broker.call_api(
                    "ncb.recover_session", session=self.session_lookup(step[1])
                )
            else:
                raise ValueError(f"unknown scenario step tag {tag!r}")
            self.steps_run += 1


def fresh_model_based_broker(
    *,
    lean: bool = False,
    autonomic: bool | None = None,
    op_cost: float | None = None,
) -> tuple[BrokerLayer, CommService, ScenarioRunner]:
    """A model-based Broker layer loaded from the CVM middleware model.

    Only the Broker layer is loaded (the E1 experiment compares Broker
    implementations below an identical upper stack).  Autonomic
    recovery is disabled by default so both Brokers execute recovery
    through the same explicit API step.  The broker runs its generated
    (Tier-3) call table, like every loaded platform.
    """
    from repro.domains.communication.cml import cml_metamodel
    from repro.domains.communication.cvm import build_middleware_model
    from repro.middleware.loader import DomainKnowledge, load_platform

    service = CommService("net0", op_cost=op_cost)
    model = build_middleware_model(lean=lean)
    knowledge = DomainKnowledge(dsml=cml_metamodel(), resources=[service])
    # A dedicated single-writer registry: the metrics concurrency model
    # (PR 4) gives each single-threaded platform its own lock-free
    # registry; falling back to the process-wide default would add a
    # mutex acquire per counter bump that no deployment configured this
    # way would pay.
    platform = load_platform(
        model, knowledge, start=False, metrics=MetricsRegistry()
    )
    broker = platform.broker
    assert broker is not None
    if autonomic is None:
        autonomic = False
    broker.autonomic.enabled = autonomic
    # Start only the broker (upper layers are not under test here).
    broker.start()

    def lookup(connection: str) -> str:
        return broker.state.get(f"session:{connection}")

    return broker, service, ScenarioRunner(broker, service, lookup)


def fresh_handcrafted_broker(
    *, op_cost: float | None = None
) -> tuple[HandcraftedBroker, CommService, ScenarioRunner]:
    service = CommService("net0", op_cost=op_cost)
    broker = HandcraftedBroker(service)

    def lookup(connection: str) -> str:
        return broker.sessions[connection]

    return broker, service, ScenarioRunner(broker, service, lookup)


@dataclass
class Measurement:
    """Timing statistics over repeated runs of a callable."""

    label: str
    samples: list[float] = field(default_factory=list)

    @property
    def mean(self) -> float:
        return statistics.fmean(self.samples)

    @property
    def median(self) -> float:
        return statistics.median(self.samples)

    @property
    def minimum(self) -> float:
        return least_noise(self.samples)

    @property
    def total(self) -> float:
        return sum(self.samples)

    def ratio_to(self, other: "Measurement") -> float:
        """mean(self) / mean(other)."""
        return self.mean / other.mean

    def __repr__(self) -> str:
        return (
            f"Measurement({self.label!r}, n={len(self.samples)}, "
            f"mean={self.mean * 1000:.3f}ms)"
        )


def measure(
    label: str,
    fn: Callable[[], Any],
    *,
    repeat: int = 5,
    warmup: int = 1,
) -> Measurement:
    """Time ``fn`` ``repeat`` times (after ``warmup`` discarded runs)."""
    for _ in range(warmup):
        fn()
    measurement = Measurement(label)
    for _ in range(repeat):
        start = time.perf_counter()
        fn()
        measurement.samples.append(time.perf_counter() - start)
    return measurement


class ResultTable:
    """Plain-text result table matching EXPERIMENTS.md formatting."""

    def __init__(self, title: str, columns: Sequence[str]) -> None:
        self.title = title
        self.columns = list(columns)
        self.rows: list[list[str]] = []

    def add(self, *cells: Any) -> None:
        if len(cells) != len(self.columns):
            raise ValueError(
                f"expected {len(self.columns)} cells, got {len(cells)}"
            )
        self.rows.append([_fmt(cell) for cell in cells])

    def render(self) -> str:
        widths = [
            max(len(self.columns[i]), *(len(r[i]) for r in self.rows))
            if self.rows
            else len(self.columns[i])
            for i in range(len(self.columns))
        ]
        def line(cells: Iterable[str]) -> str:
            return "  ".join(c.ljust(w) for c, w in zip(cells, widths))

        parts = [f"== {self.title} ==", line(self.columns),
                 line("-" * w for w in widths)]
        parts += [line(row) for row in self.rows]
        return "\n".join(parts)

    def print(self) -> None:
        print("\n" + self.render())


def _fmt(cell: Any) -> str:
    if isinstance(cell, float):
        return f"{cell:.3f}"
    return str(cell)


# -- signal-fabric micro-benchmarks (BENCH_PR1.json) ----------------------


class _LinearScanBus:
    """Reference implementation of the pre-index routing strategy:
    a list copy per publish plus a full scan over all subscriptions.
    Used as the baseline the indexed bus is compared against."""

    def __init__(self) -> None:
        from repro.runtime.topics import TopicMatcher

        self._matcher = TopicMatcher
        self._subs: list[tuple[str, Callable[[], None]]] = []

    def subscribe(self, pattern: str, callback: Callable[[], None]) -> None:
        self._subs.append((pattern, callback))

    def publish(self, topic: str) -> int:
        delivered = 0
        for pattern, callback in list(self._subs):
            if not self._matcher.matches(pattern, topic):
                continue
            delivered += 1
            callback()
        return delivered


def bus_scaling_bench(
    subscriber_counts: Sequence[int] = (1, 10, 100, 1000),
    *,
    publishes: int = 2000,
) -> list[dict[str, Any]]:
    """Per-publish routing cost vs subscriber population.

    Each configuration registers ``n`` exact-topic subscribers plus one
    wildcard subscriber, then publishes to a single hot topic (one
    exact + one wildcard match per publish).  The indexed bus should be
    flat in ``n``; the linear-scan reference grows with ``n``.
    """
    from repro.runtime.events import EventBus
    from repro.runtime.metrics import MetricsRegistry

    rows: list[dict[str, Any]] = []
    sink = lambda *_: None  # noqa: E731
    quiet = MetricsRegistry()
    quiet.enabled = False
    for count in subscriber_counts:
        bus = EventBus(name="bench", metrics=quiet)
        for i in range(count):
            bus.subscribe(f"cold.topic.{i}", sink)
        bus.subscribe("hot.topic", sink)
        bus.subscribe("hot.*", sink)
        linear = _LinearScanBus()
        for i in range(count):
            linear.subscribe(f"cold.topic.{i}", sink)
        linear.subscribe("hot.topic", sink)
        linear.subscribe("hot.*", sink)

        from repro.runtime.events import Event

        signal = Event(topic="hot.topic")

        def run_indexed() -> None:
            for _ in range(publishes):
                bus.publish(signal)

        def run_linear() -> None:
            for _ in range(publishes):
                linear.publish("hot.topic")

        indexed = measure(f"indexed[{count}]", run_indexed, repeat=5)
        scan = measure(f"linear[{count}]", run_linear, repeat=5)
        indexed_us = indexed.minimum / publishes * 1e6
        linear_us = scan.minimum / publishes * 1e6
        rows.append({
            "subscribers": count,
            "publishes": publishes,
            "indexed_us": indexed_us,
            "linear_scan_us": linear_us,
            "speedup": linear_us / indexed_us if indexed_us else 0.0,
        })
    return rows


#: The one overhead statistic every gated bench block reports.
STATISTIC = "median of paired ratios"


def paired_overhead(
    bare: Callable[[], float],
    treated: Callable[[], float],
    *,
    pairs: int,
) -> dict[str, Any]:
    """The overhead of ``treated`` over ``bare`` from paired samples.

    ``bare`` and ``treated`` each time one sample and return its cost
    per step in seconds; the caller decides what is inside the timed
    region.  A pair runs both back to back, so slowly varying machine
    speed (thermal drift, noisy neighbours) inflates both sides of the
    pair together and cancels out of that pair's ratio.  Pair order
    alternates (bare first on even pairs, treated first on odd ones),
    so drift *within* a pair biases alternate pairs in opposite
    directions and cancels in the median.

    The gated number is ``overhead_pct``, the median of the per-pair
    ratios ``treated / bare - 1``; ``p25_pct`` and ``p75_pct`` bound
    its interquartile range, the noise indicator.  The per-step times
    are medians over the pairs.
    """
    if pairs < 2:
        raise ValueError("paired_overhead() needs at least two pairs")
    bares: list[float] = []
    deltas: list[float] = []
    ratios: list[float] = []
    for index in range(pairs):
        if index % 2 == 0:
            base = bare()
            cost = treated()
        else:
            cost = treated()
            base = bare()
        bares.append(base)
        deltas.append(cost - base)
        ratios.append(cost / base - 1.0)
    p25, median, p75 = statistics.quantiles(ratios, n=4, method="inclusive")
    return {
        "statistic": STATISTIC,
        "pairs": pairs,
        "overhead_pct": 100.0 * median,
        "p25_pct": 100.0 * p25,
        "p75_pct": 100.0 * p75,
        "bare_us_per_step": statistics.median(bares) * 1e6,
        "delta_us_per_step": statistics.median(deltas) * 1e6,
    }


def e1_paired_bench(*, repeat: int = 15) -> dict[str, Any]:
    """E1: model-based vs handcrafted broker overhead, both regimes.

    One warm broker pair per regime replays the eight communication
    scenarios; a sample times ``passes`` full sweeps on one side, and
    :func:`paired_overhead` pairs ``repeat`` handcrafted/model samples.

    Both sides run warm (an untimed full sweep first): every scenario
    tears its sessions down, so repeats start from equivalent state
    with route caches, metric instruments, and interned topic strings
    filled.  E1 compares the per-request price of a *running*
    middleware platform against the handcrafted baseline — charging
    the model-based side its one-time cache fills (which the cacheless
    handcrafted broker structurally cannot pay) would fold platform
    cold-start into a steady-state number.

    Two regimes:

    * ``calibrated`` — ``CommService.DEFAULT_OP_COST``, the op-cost
      ratio fixed for E1/E3/E5 so simulated service work dominates the
      way real communication-framework calls did on the paper's
      testbed.  This is the **gated** number (``mean_overhead_pct``,
      the key every E1 gate reads).
    * ``structural`` — ``op_cost=0``, the raw CPU price of the
      model-based dispatch machinery with nothing to hide behind.
      Diagnostic, not gated.
    """
    from repro.bench.workloads import COMMUNICATION_SCENARIOS

    scenario_steps = list(COMMUNICATION_SCENARIOS.values())
    n_steps = sum(len(steps) for steps in scenario_steps)

    #: full sweeps timed per sample — stretches the timed region so
    #: perf_counter granularity and entry/exit jitter amortize.
    passes = 3

    def sweep(*, op_cost: float) -> dict[str, Any]:
        _b, _s, model_runner = fresh_model_based_broker(op_cost=op_cost)
        _hb, _hs, hand_runner = fresh_handcrafted_broker(op_cost=op_cost)
        for steps in scenario_steps:  # untimed warm-up, both sides
            model_runner.run(steps)
            hand_runner.run(steps)

        def timer(runner: ScenarioRunner) -> Callable[[], float]:
            def sample() -> float:
                start = time.perf_counter()
                for _ in range(passes):
                    for steps in scenario_steps:
                        runner.run(steps)
                return (time.perf_counter() - start) / (passes * n_steps)

            return sample

        return {
            "op_cost": op_cost,
            "timed_passes": passes,
            **paired_overhead(
                timer(hand_runner), timer(model_runner), pairs=repeat
            ),
        }

    calibrated = sweep(op_cost=CommService.DEFAULT_OP_COST)
    structural = sweep(op_cost=0.0)
    return {
        "statistic": STATISTIC,
        "steps_per_sweep": n_steps,
        "calibrated": calibrated,
        "structural": structural,
        "mean_overhead_pct": calibrated["overhead_pct"],
    }


def recorded(path: str, *keys: str) -> float | None:
    """A numeric field of a committed bench report (the trajectory
    baseline), or None when the report or the field is absent."""
    try:
        with open(path, encoding="utf-8") as handle:
            doc: Any = json.load(handle)
        for key in keys:
            doc = doc[key]
        return float(doc)
    except (OSError, ValueError, KeyError, TypeError):
        return None


# -- the fabric suite (BENCH_PR1.json) ------------------------------------


def run(quick: bool = False) -> dict[str, Any]:
    """Bus routing scaling plus the E1 overhead pass (same size either
    way: the suite is already CI-sized)."""
    return {
        "bench": "PR1-signal-fabric",
        "bus_scaling": bus_scaling_bench(),
        "e1": e1_paired_bench(repeat=5),
    }


def check(report: dict[str, Any]) -> str:
    widest = report["bus_scaling"][-1]
    e1 = report["e1"]
    return (
        f"fabric OK (indexed bus {widest['speedup']:.1f}x over a linear "
        f"scan at {widest['subscribers']} subscribers, E1 overhead "
        f"{e1['mean_overhead_pct']:.2f}%)"
    )
