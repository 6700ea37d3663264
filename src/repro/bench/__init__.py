"""Benchmark harness utilities (workloads, runners, LoC accounting)."""

from repro.bench.faults import (
    GuardedScenarioRunner,
    breaker_outage_demo,
    build_faulty_broker,
    guard_overhead_bench,
    run_recovery_episodes,
)
from repro.bench.harness import (
    Measurement,
    ResultTable,
    ScenarioRunner,
    fresh_handcrafted_broker,
    fresh_model_based_broker,
    measure,
)
from repro.bench.loc import (
    comment_ratio,
    count_callable_loc,
    count_module_loc,
    count_module_tokens,
    count_source_loc,
    count_source_tokens,
    loc_report,
)
from repro.bench.repo_factory import (
    ROOT_CLASSIFIER,
    build_generator,
    build_repository,
)
from repro.bench.workloads import (
    COMMUNICATION_SCENARIOS,
    adaptation_wiring,
    adaptation_wiring_reliable,
    scenario_names,
)

__all__ = [
    "ScenarioRunner", "Measurement", "ResultTable", "measure",
    "fresh_model_based_broker", "fresh_handcrafted_broker",
    "GuardedScenarioRunner", "build_faulty_broker",
    "run_recovery_episodes", "breaker_outage_demo",
    "guard_overhead_bench",
    "COMMUNICATION_SCENARIOS", "scenario_names",
    "adaptation_wiring", "adaptation_wiring_reliable",
    "count_source_loc", "count_module_loc", "count_callable_loc",
    "count_source_tokens", "count_module_tokens",
    "loc_report", "comment_ratio",
    "build_repository", "build_generator", "ROOT_CLASSIFIER",
]
