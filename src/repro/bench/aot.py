"""PR 8 benchmark: the Tier-3 (AOT-generated module) synthesis tier.

The PR 3 template microbench and stress synthesis, plus:

* ``tier_equivalence`` — every shipped domain's op_log must be
  byte-identical between a platform stripped to Tier-2 and a default
  (generated-module) platform, and a runtime DSK edit must drop and
  regenerate the installed program;
* the E1 sweep (whose brokers run the generated call table), gated at
  ``AOT_E1_GATE_PCT`` in the calibrated regime on full runs.

``repro bench aot`` writes ``BENCH_PR8.json``.
"""

from __future__ import annotations

from typing import Any

__all__ = ["AOT_E1_GATE_PCT", "tier_equivalence", "run", "check"]

#: E1 overhead admitted in the calibrated regime with Tier-3 active
#: (acceptance gate, percent).
AOT_E1_GATE_PCT = 5.0


def tier_equivalence() -> dict[str, Any]:
    """Tier-3 vs Tier-2 op_log equality across all four domains.

    Each domain runs its two-phase session twice — once on a platform
    whose generated tables were removed (PR 3's compiled closures) and
    once on a default platform, which must have the generated program
    installed — and the external services' op_logs must be
    byte-identical: Tier-3 may only change cost, never behaviour.  The
    communication domain additionally replaces a rule mid-session: the
    edit drops the installed program (that synthesis cycle falls back
    to Tier-2), the end of the cycle regenerates it, and the op_log
    must still match the Tier-2 run.
    """
    from repro.bench.migrate import _fresh_session, _log_bytes
    from repro.domains.assembly import domain_cases
    from repro.middleware.synthesis.aot import remove_generated

    domains: list[dict[str, Any]] = []
    edit_result: dict[str, Any] = {}
    for case in domain_cases():
        service2, _dsk, tier2 = _fresh_session(case)
        try:
            remove_generated(tier2)
            tier2.run_model(case.phase1())
            tier2.run_model(case.phase2())
        finally:
            tier2.stop()
        golden = _log_bytes(service2)
        if not golden:
            raise RuntimeError(f"{case.name}: empty golden op_log")

        service3, _dsk, tier3 = _fresh_session(case)
        try:
            program = tier3.synthesis.interpreter._aot
            if program is None or tier3.broker._aot_calls is None:
                raise RuntimeError(
                    f"{case.name}: default platform runs no generated program"
                )
            tier3.run_model(case.phase1())
            tier3.run_model(case.phase2())
        finally:
            tier3.stop()
        domains.append({
            "domain": case.name,
            "op_log_bytes": len(golden),
            "broker_apis": len(program.broker_calls),
            "syn_classes": len(program.syn_classes),
            "broker_skipped": list(program.broker_skipped),
            "syn_skipped": list(program.syn_skipped),
            "identical": _log_bytes(service3) == golden,
        })

        if case.name == "communication":
            service_e, _dsk, edited = _fresh_session(case)
            try:
                interpreter = edited.synthesis.interpreter
                edited.run_model(case.phase1())
                # Replace a live rule: semantics are unchanged (the
                # same rule goes back in) but the installed program
                # must be dropped and lazily rebuilt.
                rule = next(iter(interpreter._rules.values()))
                interpreter.add_rule(rule, replace=True)
                dropped = interpreter._aot is None
                edited.run_model(case.phase2())
                regenerated = interpreter._aot is not None
            finally:
                edited.stop()
            edit_result = {
                "dropped_on_edit": dropped,
                "regenerated_after_cycle": regenerated,
                "identical": _log_bytes(service_e) == golden,
            }

    return {
        "domains": domains,
        "edit_cycle": edit_result,
        "all_identical": (
            all(row["identical"] for row in domains)
            and edit_result["identical"]
            and edit_result["dropped_on_edit"]
            and edit_result["regenerated_after_cycle"]
        ),
    }


def run(quick: bool = False) -> dict[str, Any]:
    from repro.bench.harness import e1_paired_bench, recorded
    from repro.bench.synthesis import tier_benches

    e1 = e1_paired_bench(repeat=3 if quick else 25)
    return {
        "bench": "PR8-aot-synthesis",
        **tier_benches(quick),
        "tier_equivalence": tier_equivalence(),
        "e1": e1,
        # The E1 trajectory baseline: the last model-vs-handcrafted
        # number committed before Tier-3 (BENCH_PR4).
        "baseline_e1_mean_overhead_pct": recorded(
            "BENCH_PR4.json", "e1", "mean_overhead_pct"
        ),
        "gate_pct": AOT_E1_GATE_PCT,
        "meets_e1_gate": e1["mean_overhead_pct"] <= AOT_E1_GATE_PCT,
    }


def check(report: dict[str, Any]) -> str:
    equivalence = report["tier_equivalence"]
    # Correctness gates hold on any box: all four domains'
    # op_logs byte-identical between Tier-2 and Tier-3, nothing
    # silently skipped, and the runtime-edit cycle falls back
    # and regenerates.  The <= 5% E1 overhead gate is noisy on
    # shared runners and is enforced on the committed full run.
    assert equivalence["all_identical"], equivalence
    assert len(equivalence["domains"]) == 4, equivalence["domains"]
    for row in equivalence["domains"]:
        assert not row["broker_skipped"], row
        assert not row["syn_skipped"], row
    cycle = equivalence["edit_cycle"]
    assert cycle["dropped_on_edit"], cycle
    assert cycle["regenerated_after_cycle"], cycle
    e1 = report["e1"]
    assert e1["mean_overhead_pct"] <= 25.0, e1["calibrated"]
    assert report["synthesis_stress"]["scripts_identical"], (
        "tier scripts diverged in stress run"
    )
    if not report["quick"]:
        assert report["meets_e1_gate"], (
            f"calibrated E1 overhead with AOT is "
            f"{e1['mean_overhead_pct']:.2f}% "
            f"(acceptance bar: <= {AOT_E1_GATE_PCT}%)"
        )
    return ("aot smoke OK "
            f"(E1 overhead {e1['mean_overhead_pct']:.2f}%, "
            f"{len(equivalence['domains'])} domains identical)")
