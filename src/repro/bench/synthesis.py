"""PR 3 synthesis benchmarks: compiled vs interpreted execution tiers.

Measures the interpretation-overhead gap the compilation layer closes:

* ``template_microbench`` — renders one representative command
  template through the compiled plan (:class:`_CompiledTemplate`) and
  through the reference string-``evaluate()`` path; the acceptance
  bar is a >=2x compiled speedup.
* ``synthesis_stress`` — synthesizes a large (>=5k objects) model from
  empty through both interpreter tiers, asserting the two scripts are
  identical before reporting the speedup.
* the eight E1 communication scenarios (broker-level overhead vs the
  handcrafted baseline), re-run for the BENCH_PR1 -> BENCH_PR3
  trajectory.

``repro bench synthesis`` bundles all three into ``BENCH_PR3.json``
(``--quick`` shrinks the workloads for CI).
"""

from __future__ import annotations

import time
from typing import Any

from repro.bench.harness import least_noise

__all__ = [
    "template_microbench",
    "synthesis_stress",
    "tier_benches",
    "run",
    "check",
]


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


def template_microbench(
    *, iterations: int = 20_000, repeat: int = 5
) -> dict[str, Any]:
    """Per-render cost of one command template, compiled vs interpreted."""
    from repro.middleware.synthesis.interpreter import (
        ChangeInterpreter,
        _CompiledTemplate,
    )
    from repro.modeling.model import Model

    metamodel = _stress_metamodel()
    model = Model(metamodel, name="micro")
    obj = model.create("Item", name="svc", replicas=3)
    env = {"obj": obj, "name": "svc", "replicas": 3, "object_id": obj.id}

    compiled = _CompiledTemplate(_MICROBENCH_TEMPLATE)
    render_interpreted = ChangeInterpreter._render_command

    def run_compiled() -> None:
        for _ in range(iterations):
            compiled.render(env)

    def run_interpreted() -> None:
        for _ in range(iterations):
            render_interpreted(_MICROBENCH_TEMPLATE, env)

    # Equivalence sanity check before timing anything.
    assert compiled.render(env) == render_interpreted(
        _MICROBENCH_TEMPLATE, env
    )
    run_compiled()  # warm both paths (parse caches, bytecode)
    run_interpreted()
    compiled_s = least_noise(_time(run_compiled) for _ in range(repeat))
    interpreted_s = least_noise(_time(run_interpreted) for _ in range(repeat))
    compiled_us = compiled_s / iterations * 1e6
    interpreted_us = interpreted_s / iterations * 1e6
    return {
        "iterations": iterations,
        "compiled_us": compiled_us,
        "interpreted_us": interpreted_us,
        "speedup": interpreted_us / compiled_us if compiled_us else 0.0,
    }


def synthesis_stress(
    *, objects: int = 5000, repeat: int = 3
) -> dict[str, Any]:
    """Synthesize ``objects`` adds through both tiers; identical scripts
    are asserted, then the interpretation time is compared."""
    from repro.middleware.synthesis.interpreter import ChangeInterpreter
    from repro.modeling.diff import diff_models
    from repro.modeling.model import Model

    metamodel, model = _stress_model(objects)
    empty = Model(metamodel, name="empty")

    diff_start = time.perf_counter()
    changes = diff_models(empty, model)
    diff_s = time.perf_counter() - diff_start

    def interpret(compiled: bool) -> tuple[float, Any]:
        samples = []
        script = None
        for _ in range(repeat):
            # Fresh interpreter per run: LTS executions are stateful,
            # so replaying the same change list needs a clean slate.
            interpreter = ChangeInterpreter(compiled=compiled)
            for rule in _stress_rules():
                interpreter.add_rule(rule)
            start = time.perf_counter()
            script = interpreter.interpret(changes, script_name="stress")
            samples.append(time.perf_counter() - start)
        return least_noise(samples), script

    compiled_s, compiled_script = interpret(True)
    interpreted_s, interpreted_script = interpret(False)
    operations = [
        (c.operation, dict(c.args), c.target, c.classifier)
        for c in compiled_script
    ]
    identical = operations == [
        (c.operation, dict(c.args), c.target, c.classifier)
        for c in interpreted_script
    ]
    return {
        "objects": objects,
        "changes": len(changes),
        "commands": len(compiled_script),
        "diff_ms": diff_s * 1000,
        "compiled_ms": compiled_s * 1000,
        "interpreted_ms": interpreted_s * 1000,
        "speedup": interpreted_s / compiled_s if compiled_s else 0.0,
        "scripts_identical": identical,
    }


def _time(fn) -> float:
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


def tier_benches(quick: bool) -> dict[str, Any]:
    """The template microbench and the stress synthesis, sized for a
    quick (CI) or a full run; shared with the ``aot`` suite."""
    return {
        "template_microbench": template_microbench(
            iterations=5_000 if quick else 20_000, repeat=3 if quick else 5
        ),
        "synthesis_stress": synthesis_stress(
            objects=1_000 if quick else 5_000, repeat=2 if quick else 3
        ),
    }


def run(quick: bool = False) -> dict[str, Any]:
    """The PR 3 report: compiled (Tier-2) vs interpreted synthesis."""
    from repro.bench.harness import e1_paired_bench, recorded

    return {
        "bench": "PR3-compiled-synthesis",
        **tier_benches(quick),
        "e1": e1_paired_bench(repeat=5),
        "baseline_e1_mean_overhead_pct": recorded(
            "BENCH_PR1.json", "e1", "mean_overhead_pct"
        ),
    }


def check(report: dict[str, Any]) -> str:
    micro = report["template_microbench"]
    stress = report["synthesis_stress"]
    # Compiled template evaluation must stay faster than the
    # interpreted reference tier (CI boxes are noisy; the 2x
    # acceptance bar is enforced on the committed full run).
    assert micro["compiled_us"] <= micro["interpreted_us"], micro
    assert stress["compiled_ms"] <= stress["interpreted_ms"], stress
    assert stress["scripts_identical"], stress
    e1 = report["e1"]
    baseline = report["baseline_e1_mean_overhead_pct"]
    if baseline is not None:
        # Compiled E1 mean must not regress above the interpreted
        # (pre-compilation) BENCH_PR1 baseline.  Shared runners
        # are noisy, so allow a few points of measurement slack;
        # the strict number is recorded by the committed full run.
        assert e1["mean_overhead_pct"] <= baseline + 5.0, (e1, baseline)
    return (
        f"perf smoke OK (compiled {micro['speedup']:.1f}x on templates, "
        f"{stress['speedup']:.1f}x on {stress['objects']} objects, "
        f"E1 overhead {e1['mean_overhead_pct']:.2f}%)"
    )
