"""PR 8 benchmark: the Tier-3 (AOT-generated module) synthesis tier.

Generated code against the reference path (command templates and
broker steps read per call, expressions through the cached compiled
evaluator):

* ``template_microbench`` — renders one representative command
  template through the render function the generated module compiles
  for it and through the reference render;
* ``synthesis_stress`` — synthesizes a large (>=5k objects) model from
  empty through an interpreter with the generated program installed
  and through one without it, asserting the two scripts are identical
  before reporting the speedup;
* ``tier_equivalence`` — every shipped domain's op_log, and what its
  Controller did per script (broker trace, each command's case and
  result status/error, the ``controller.command``/``controller.case``
  counters), must be identical between a platform stripped to the
  reference path and a default (generated-module) platform, and a
  runtime DSK edit must drop the installed program and the next cycle
  regenerate it and run generated code;
* the E1 sweep (whose brokers run the generated call table), gated at
  ``AOT_E1_GATE_PCT`` in the calibrated regime on full runs.

``repro bench aot`` writes ``BENCH_PR8.json``.
"""

from __future__ import annotations

import time
from typing import Any

from repro.bench.harness import least_noise

__all__ = [
    "AOT_E1_GATE_PCT", "controlled_session", "template_microbench",
    "synthesis_stress", "tier_benches", "tier_equivalence", "run", "check",
]

#: E1 overhead admitted in the calibrated regime with Tier-3 active
#: (acceptance gate, percent).
AOT_E1_GATE_PCT = 5.0


#: representative of the CVM command templates: literal args, several
#: safe expressions over the change env, a guard, a computed target.
_MICROBENCH_TEMPLATE: dict[str, Any] = {
    "operation": "comm.session.establish",
    "args": {"kind": "session", "quality": "standard"},
    "args_expr": {
        "connection": "obj.id",
        "label": "name + '-session'",
        "capacity": "max(1, replicas * 2)",
    },
    "target_expr": "obj.id",
    "when": "replicas > 0",
    "classifier": "comm.control",
}


def _stress_metamodel():
    from repro.modeling.meta import Metamodel

    metamodel = Metamodel("bench-synthesis")
    root = metamodel.new_class("Root")
    root.attribute("name", "string")
    root.reference("items", "Item", containment=True, many=True)
    item = metamodel.new_class("Item")
    item.attribute("name", "string")
    item.attribute("replicas", "int", default=1)
    item.attribute("tier", "string", default="standard")
    return metamodel.resolve()


def _stress_rules():
    from repro.middleware.synthesis.interpreter import EntityRule
    from repro.modeling.lts import LTS

    item = LTS("bench-item")
    item.add_transition(
        "initial", "add", "running",
        actions=(
            {
                "operation": "item.deploy",
                "args": {"kind": "item"},
                "args_expr": {
                    "id": "obj.id",
                    "label": "name + '/' + tier",
                    "capacity": "max(1, replicas * 2)",
                },
                "target_expr": "obj.id",
            },
        ),
    )
    item.add_transition(
        "running", "set:replicas", "running",
        actions=(
            {
                "operation": "item.scale",
                "args_expr": {"id": "obj.id", "to": "new"},
                "when": "new != old",
            },
        ),
    )
    item.add_transition("running", "remove", "initial")
    root = LTS("bench-root")
    root.add_transition("initial", "add", "up")
    root.add_transition("up", "remove", "initial")
    return [EntityRule("Item", item), EntityRule("Root", root)]


def _stress_model(objects: int):
    """A Root with ``objects`` Item children, in a private ModelSpace so
    repeated benchmark runs mint identical (golden-trace) ids."""
    from repro.modeling.model import Model, ModelSpace

    metamodel = _stress_metamodel()
    model = Model(
        metamodel, name="stress", space=ModelSpace("bench-synthesis")
    )
    root = model.create("Root", name="root")
    model.add_root(root)
    for index in range(objects):
        root.items.append(
            model.create(
                "Item",
                name=f"item-{index}",
                replicas=(index % 4) + 1,
                tier="premium" if index % 7 == 0 else "standard",
            )
        )
    return metamodel, model


def _interpreter(rules: list[Any], metamodel: Any, *, generated: bool) -> Any:
    """A fresh interpreter over ``rules``; with ``generated`` it has the
    program :func:`build_program` generates for them installed."""
    from repro.middleware.synthesis.aot import build_program
    from repro.middleware.synthesis.interpreter import ChangeInterpreter

    interpreter = ChangeInterpreter()
    for rule in rules:
        interpreter.add_rule(rule)
    if generated:
        interpreter.install_aot(build_program(
            rules=interpreter._rules, actions=[], dsml=metamodel,
            domain="bench-synthesis",
        ))
    return interpreter


def template_microbench(
    *, iterations: int = 20_000, repeat: int = 5
) -> dict[str, Any]:
    """Per-render cost of one command template, generated vs reference."""
    from repro.middleware.synthesis.interpreter import (
        ChangeInterpreter,
        EntityRule,
    )
    from repro.modeling.diff import diff_models
    from repro.modeling.lts import LTS
    from repro.modeling.model import Model

    metamodel = _stress_metamodel()
    lts = LTS("micro")
    lts.add_transition(
        "initial", "add", "running", actions=(_MICROBENCH_TEMPLATE,)
    )
    interpreter = _interpreter(
        [EntityRule("Item", lts)], metamodel, generated=True
    )
    ((_guard, _transition, (render,)),) = interpreter._aot.syn_dispatch[
        ("Item", "initial", "add")
    ]
    model = Model(metamodel, name="micro")
    obj = model.create("Item", name="svc", replicas=3)
    model.add_root(obj)
    (change,) = diff_models(Model(metamodel, name="empty"), model)
    env = ChangeInterpreter._change_env(change)
    render_reference = ChangeInterpreter._render_command

    def run_generated() -> None:
        for _ in range(iterations):
            render(change, obj)

    def run_reference() -> None:
        for _ in range(iterations):
            render_reference(_MICROBENCH_TEMPLATE, env)

    # Equivalence sanity check before timing anything.
    assert render(change, obj) == [
        render_reference(_MICROBENCH_TEMPLATE, env)
    ]
    run_generated()  # warm both paths (parse caches, bytecode)
    run_reference()
    # Alternate the sides so a slow spell of the box hits both.
    samples = [(_time(run_generated), _time(run_reference))
               for _ in range(repeat)]
    generated_s = least_noise(sample[0] for sample in samples)
    reference_s = least_noise(sample[1] for sample in samples)
    generated_us = generated_s / iterations * 1e6
    reference_us = reference_s / iterations * 1e6
    return {
        "iterations": iterations,
        "generated_us": generated_us,
        "reference_us": reference_us,
        "speedup": reference_us / generated_us if generated_us else 0.0,
    }


def synthesis_stress(
    *, objects: int = 5000, repeat: int = 3
) -> dict[str, Any]:
    """Synthesize ``objects`` adds with and without the generated
    program; identical scripts are asserted, then the interpretation
    time is compared."""
    from repro.modeling.diff import diff_models
    from repro.modeling.model import Model

    metamodel, model = _stress_model(objects)
    empty = Model(metamodel, name="empty")

    diff_start = time.perf_counter()
    changes = diff_models(empty, model)
    diff_s = time.perf_counter() - diff_start

    def interpret(generated: bool) -> tuple[float, Any, Any]:
        # Fresh interpreter per run: LTS executions are stateful, so
        # replaying the same change list needs a clean slate.
        interpreter = _interpreter(
            _stress_rules(), metamodel, generated=generated
        )
        start = time.perf_counter()
        script = interpreter.interpret(changes, script_name="stress")
        return time.perf_counter() - start, script, interpreter._aot

    # Alternate the sides so a slow spell of the box hits both.
    runs = [(interpret(True), interpret(False)) for _ in range(repeat)]
    generated_s = least_noise(run[0][0] for run in runs)
    reference_s = least_noise(run[1][0] for run in runs)
    (_s, generated_script, program), (_r, reference_script, _none) = runs[-1]
    operations = [
        (c.operation, dict(c.args), c.target, c.classifier)
        for c in generated_script
    ]
    identical = operations == [
        (c.operation, dict(c.args), c.target, c.classifier)
        for c in reference_script
    ]
    return {
        "objects": objects,
        "changes": len(changes),
        "commands": len(generated_script),
        "diff_ms": diff_s * 1000,
        "generated_ms": generated_s * 1000,
        "reference_ms": reference_s * 1000,
        "speedup": reference_s / generated_s if generated_s else 0.0,
        "scripts_identical": identical,
        "syn_skipped": list(program.syn_skipped),
    }


def _time(fn) -> float:
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


def tier_benches(quick: bool) -> dict[str, Any]:
    """The template microbench and the stress synthesis, sized for a
    quick (CI) or a full run."""
    return {
        "template_microbench": template_microbench(
            iterations=5_000 if quick else 20_000, repeat=3 if quick else 5
        ),
        "synthesis_stress": synthesis_stress(
            objects=1_000 if quick else 5_000, repeat=2 if quick else 3
        ),
    }


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
    """Generated vs reference equality across all four domains.

    Each domain runs its two-phase session twice
    (:func:`controlled_session`) — once on a platform whose generated
    tables were removed (the reflective reference paths) and once on a
    default platform, which must have the generated program installed.
    The external services' op_logs must be byte-identical and the
    Controller records (per-script broker traces, command cases,
    result status/error, counters) equal: Tier-3 may only change cost,
    never behaviour.  The communication domain additionally replaces a
    rule mid-session: the edit drops the installed program, the next
    cycle regenerates it before it interprets and runs generated code
    (no change builds the reference env), and the op_log must still
    match the reference run.
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
                # Count the changes that take the reference path.
                reference_changes = []
                change_env = interpreter._change_env
                interpreter._change_env = lambda change: (
                    reference_changes.append(change) or change_env(change)
                )
                processed = interpreter.changes_processed
                edited.run_model(case.phase2())
                regenerated = interpreter._aot is not None
                ran_generated = (
                    not reference_changes
                    and interpreter.changes_processed > processed
                )
            finally:
                edited.stop()
            edit_result = {
                "dropped_on_edit": dropped,
                "regenerated": regenerated,
                "ran_generated": ran_generated,
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
            and edit_result["regenerated"]
            and edit_result["ran_generated"]
        ),
    }


def run(quick: bool = False) -> dict[str, Any]:
    from repro.bench.harness import e1_paired_bench, recorded

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
    # the reference path and Tier-3, nothing silently skipped, and
    # the runtime-edit cycle drops, regenerates and runs generated
    # code.  The <= 5% E1 overhead gate is noisy on shared runners
    # and is enforced on the committed full run; the 25% bound below
    # holds on any box.
    assert equivalence["all_identical"], equivalence
    assert len(equivalence["domains"]) == 4, equivalence["domains"]
    for row in equivalence["domains"]:
        assert row["controller_identical"], row
        assert not row["broker_skipped"], row
        assert not row["syn_skipped"], row
        assert not row["ctl_skipped"], row
    cycle = equivalence["edit_cycle"]
    assert cycle["dropped_on_edit"], cycle
    assert cycle["regenerated"], cycle
    assert cycle["ran_generated"], cycle
    e1 = report["e1"]
    assert e1["mean_overhead_pct"] <= 25.0, e1["calibrated"]
    micro = report["template_microbench"]
    stress = report["synthesis_stress"]
    # Generated code must stay no slower than the reference path, and
    # the stress DSK must be fully generated, so the comparison cannot
    # pass vacuously.
    assert micro["generated_us"] <= micro["reference_us"], micro
    assert stress["generated_ms"] <= stress["reference_ms"], stress
    assert stress["scripts_identical"], stress
    assert not stress["syn_skipped"], stress
    if not report["quick"]:
        assert report["meets_e1_gate"], (
            f"calibrated E1 overhead with AOT is "
            f"{e1['mean_overhead_pct']:.2f}% "
            f"(acceptance bar: <= {AOT_E1_GATE_PCT}%)"
        )
    return ("aot smoke OK "
            f"(generated {micro['speedup']:.1f}x on templates, "
            f"{stress['speedup']:.1f}x on {stress['objects']} objects, "
            f"E1 overhead {e1['mean_overhead_pct']:.2f}%, "
            f"{len(equivalence['domains'])} domains identical)")
