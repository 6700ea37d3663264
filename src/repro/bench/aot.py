"""PR 8 benchmark: the Tier-3 (AOT-generated module) synthesis tier.

The PR 3 template microbench and stress synthesis, plus:

* ``tier_equivalence`` — every shipped domain's op_log, and what its
  Controller did per script (broker trace, each command's case and
  result status/error, the ``controller.command``/``controller.case``
  counters), must be identical between a platform stripped to Tier-2
  and a default (generated-module) platform, and a runtime DSK edit
  must drop and regenerate the installed program;
* the E1 sweep (whose brokers run the generated call table), gated at
  ``AOT_E1_GATE_PCT`` in the calibrated regime on full runs.

``repro bench aot`` writes ``BENCH_PR8.json``.
"""

from __future__ import annotations

from typing import Any

__all__ = [
    "AOT_E1_GATE_PCT", "controlled_session", "tier_equivalence", "run",
    "check",
]

#: E1 overhead admitted in the calibrated regime with Tier-3 active
#: (acceptance gate, percent).
AOT_E1_GATE_PCT = 5.0


#: counters the Controller bumps per executed command
_CONTROLLER_COUNTERS = ("controller.command", "controller.case")


def controlled_session(
    case: Any, models: list[Any], *, generated: bool
) -> tuple[dict[str, Any], Any]:
    """Run ``models`` (``case``'s session phases, built once so both
    tiers see the same model ids) on a fresh platform and record what
    it did: ``(record, program)``.

    The platform gets its own metrics registry.  With ``generated``
    false its generated tables are stripped first (the reflective
    reference); otherwise ``program`` is the installed one.  The record
    holds the service op_log and, per control script, the broker trace
    and every command's operation, case and result status/error, plus
    the ``controller.command``/``controller.case`` counters.
    """
    from repro.bench.migrate import _log_bytes
    from repro.middleware.loader import load_platform
    from repro.middleware.synthesis.aot import remove_generated
    from repro.runtime.metrics import MetricsRegistry

    service = case.service()
    platform = load_platform(
        case.middleware(), case.knowledge(service), metrics=MetricsRegistry()
    )
    controller = platform.controller
    if case.context:
        controller.context.update(case.context)
    program = platform.synthesis.interpreter._aot
    if not generated:
        remove_generated(platform)
        program = None
    outcomes: list[Any] = []
    submit = controller.submit_script

    def recording(script: Any) -> Any:
        outcome = submit(script)
        outcomes.append(outcome)
        return outcome

    controller.submit_script = recording
    try:
        for model in models:
            platform.run_model(model)
    finally:
        platform.stop()
    scripts = [
        {
            "broker_trace": outcome.broker_trace(),
            "commands": [
                [
                    command.command.operation,
                    command.case,
                    command.result.status if command.result else None,
                    command.result.error if command.result else None,
                ]
                for command in outcome.outcomes
            ],
        }
        for outcome in outcomes
    ]
    counters = sorted(
        [name, label, value]
        for name, label, value in platform.metrics.counters()
        if name in _CONTROLLER_COUNTERS
    )
    return {
        "op_log": _log_bytes(service),
        "scripts": scripts,
        "counters": counters,
    }, program


def tier_equivalence() -> dict[str, Any]:
    """Tier-3 vs Tier-2 equality across all four domains.

    Each domain runs its two-phase session twice
    (:func:`controlled_session`) — once on a platform whose generated
    tables were removed (PR 3's compiled closures and the reflective
    Case-1 scan) and once on a default platform, which must have the
    generated program installed.  The external services' op_logs must
    be byte-identical and the Controller records (per-script broker
    traces, command cases, result status/error, counters) equal:
    Tier-3 may only change cost, never behaviour.  The
    communication domain additionally replaces a rule mid-session: the
    edit drops the installed program (that synthesis cycle falls back
    to Tier-2), the end of the cycle regenerates it, and the op_log
    must still match the Tier-2 run.
    """
    from repro.bench.migrate import _fresh_session, _log_bytes
    from repro.domains.assembly import domain_cases

    domains: list[dict[str, Any]] = []
    edit_result: dict[str, Any] = {}
    for case in domain_cases():
        models = [case.phase1(), case.phase2()]
        reference, _none = controlled_session(case, models, generated=False)
        golden = reference["op_log"]
        if not golden:
            raise RuntimeError(f"{case.name}: empty golden op_log")
        record, program = controlled_session(case, models, generated=True)
        if program is None:
            raise RuntimeError(
                f"{case.name}: default platform runs no generated program"
            )
        domains.append({
            "domain": case.name,
            "op_log_bytes": len(golden),
            "broker_apis": len(program.broker_calls),
            "syn_classes": len(program.syn_classes),
            "ctl_operations": len(program.ctl_actions),
            "commands": sum(len(s["commands"]) for s in record["scripts"]),
            "broker_skipped": list(program.broker_skipped),
            "syn_skipped": list(program.syn_skipped),
            "ctl_skipped": list(program.ctl_skipped),
            "identical": record["op_log"] == golden,
            "controller_identical": (
                record["scripts"] == reference["scripts"]
                and record["counters"] == reference["counters"]
            ),
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
            all(row["identical"] and row["controller_identical"]
                for row in domains)
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
    # op_logs byte-identical and Controller records equal between
    # Tier-2 and Tier-3, nothing silently skipped, and the
    # runtime-edit cycle falls back and regenerates.  The <= 5% E1
    # overhead gate is noisy on shared runners and is enforced on
    # the committed full run.
    assert equivalence["all_identical"], equivalence
    assert len(equivalence["domains"]) == 4, equivalence["domains"]
    for row in equivalence["domains"]:
        assert row["controller_identical"], row
        assert not row["broker_skipped"], row
        assert not row["syn_skipped"], row
        assert not row["ctl_skipped"], row
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
