"""A3 (ablation) — leaner middleware-model configurations.

Paper Sec. VII-A: "The flexibility of the model-based approach would
enable us to model leaner configurations for each of the layers,
featuring only the strictly required components, thus contributing to
compensate for the extra overhead."

Regenerates: the eight-scenario suite on the full model-based Broker
vs a lean configuration (autonomic manager and state snapshots
disabled in the middleware model).  Shape asserted: lean is at least
as fast and narrows the gap to the handcrafted baseline.
"""

from __future__ import annotations

import gc
import statistics
import time

from repro.bench.harness import (
    STATISTIC,
    ResultTable,
    fresh_handcrafted_broker,
    fresh_model_based_broker,
)
from repro.bench.workloads import COMMUNICATION_SCENARIOS

#: The failure-recovery scenario needs the autonomic path disabled for
#: an apples-to-apples run (recovery is an explicit step in E1 anyway).
SUITE = {
    name: steps for name, steps in COMMUNICATION_SCENARIOS.items()
}


#: Interleaved rounds per A3 run.  A cold suite costs ~20 ms, and on a
#: shared box a slow phase inflates a whole run of consecutive samples,
#: so the rounds must be many for the median to land on calm ones.
ROUNDS = 45

CONFIGS = {
    "full": lambda: fresh_model_based_broker(lean=False),
    "lean": lambda: fresh_model_based_broker(lean=True),
    "hand": fresh_handcrafted_broker,
}


def _cold_suite_time(factory) -> float:
    """One cold suite run on a fresh broker, timed the way ``timeit``
    does: a collection first and the collector off inside the timed
    region, so a generation-2 pass that the previous sample's garbage
    triggers is not charged to whichever configuration runs next."""
    _broker, _service, runner = factory()
    gc.collect()
    gc.disable()
    try:
        start = time.perf_counter()
        for steps in SUITE.values():
            runner.run(steps)
        return time.perf_counter() - start
    finally:
        gc.enable()


def _paired_suite_times(rounds: int = ROUNDS) -> dict[str, list[float]]:
    """Per-configuration cold suite times from interleaved rounds.

    A round times each configuration once, back to back, so machine
    speed that drifts between rounds (noisy neighbours, frequency
    changes) inflates all three samples of a round together and cancels
    out of that round's ratios; the start of the order rotates every
    round, so drift within a round cancels across rounds.  Timing each
    configuration as one block instead lets a slow phase land on one
    configuration alone.  One untimed round warms the process first.
    """
    names = list(CONFIGS)
    for name in names:
        _cold_suite_time(CONFIGS[name])
    samples: dict[str, list[float]] = {name: [] for name in names}
    for index in range(rounds):
        shift = index % len(names)
        for name in names[shift:] + names[:shift]:
            samples[name].append(_cold_suite_time(CONFIGS[name]))
    return samples


def _overhead_pct(samples: dict[str, list[float]], treated: str,
                  bare: str) -> float:
    """The median over rounds of ``treated / bare - 1``, in percent."""
    return 100.0 * (statistics.median(
        t / b for t, b in zip(samples[treated], samples[bare])
    ) - 1.0)


def test_full_config_suite(benchmark):
    benchmark.group = "a3-suite"

    def run():
        _b, _s, runner = fresh_model_based_broker(lean=False)
        for steps in SUITE.values():
            runner.run(steps)

    benchmark.pedantic(run, rounds=5, iterations=1)


def test_lean_config_suite(benchmark):
    benchmark.group = "a3-suite"

    def run():
        _b, _s, runner = fresh_model_based_broker(lean=True)
        for steps in SUITE.values():
            runner.run(steps)

    benchmark.pedantic(run, rounds=5, iterations=1)


def test_a3_lean_narrows_the_gap(benchmark, report):
    samples: dict[str, list[float]] = {}

    def run():
        samples.update(_paired_suite_times())

    benchmark.pedantic(run, rounds=1, iterations=1)

    full_overhead = _overhead_pct(samples, "full", "hand")
    lean_overhead = _overhead_pct(samples, "lean", "hand")
    lean_vs_full = _overhead_pct(samples, "lean", "full")
    table = ResultTable(
        "A3: lean middleware-model configuration "
        "(paper: leaner configs compensate the overhead; "
        f"{STATISTIC} over {ROUNDS} rounds)",
        ["configuration", "median suite ms", "overhead vs handcrafted %"],
    )
    table.add("model-based (full managers)",
              statistics.median(samples["full"]) * 1000, full_overhead)
    table.add("model-based (lean)",
              statistics.median(samples["lean"]) * 1000, lean_overhead)
    table.add("handcrafted", statistics.median(samples["hand"]) * 1000, 0.0)
    report.append(table)

    # Shape: lean <= full (it does strictly less per call), and the
    # remaining overhead stays positive (flexibility is not free).
    assert lean_vs_full <= 5.0
    assert lean_overhead > 0.0
