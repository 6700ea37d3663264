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

``write_bench_json`` bundles all three into ``BENCH_PR3.json``; the
CLI front-end is ``repro bench-synthesis`` (``--quick`` shrinks the
workloads for the CI perf-smoke job).
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path
from typing import Any

from repro.bench.harness import least_noise

__all__ = [
    "template_microbench",
    "synthesis_stress",
    "tier_equivalence",
    "write_bench_json",
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


def tier_equivalence(*, edit_cycle: bool = True) -> dict[str, Any]:
    """Tier-3 vs Tier-2 op_log equality across all four domains.

    Each domain runs its two-phase session twice — once on Tier-2
    (PR 3's compiled closures) and once with the AOT program installed
    — and the external services' op_logs must be byte-identical:
    Tier-3 may only change cost, never behaviour.  With ``edit_cycle``
    the communication domain additionally replaces a rule mid-session:
    the edit drops the installed program (that synthesis cycle falls
    back to Tier-2), the end of the next cycle regenerates it, and the
    op_log must still match the pure Tier-2 run.
    """
    from repro.bench.migrate import _fresh_session, _log_bytes
    from repro.domains.assembly import domain_cases

    domains: list[dict[str, Any]] = []
    edit_result: dict[str, Any] | None = None
    for case in domain_cases():
        service2, _dsk, tier2 = _fresh_session(case)
        try:
            tier2.run_model(case.phase1())
            tier2.run_model(case.phase2())
        finally:
            tier2.stop()
        golden = _log_bytes(service2)
        if not golden:
            raise RuntimeError(f"{case.name}: empty golden op_log")

        service3, _dsk, tier3 = _fresh_session(case)
        try:
            program = tier3.enable_aot()
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

        if edit_cycle and case.name == "communication":
            service_e, _dsk, edited = _fresh_session(case)
            try:
                edited.enable_aot()
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
            and (edit_result is None
                 or (edit_result["identical"]
                     and edit_result["dropped_on_edit"]
                     and edit_result["regenerated_after_cycle"]))
        ),
    }


def _time(fn) -> float:
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


def _pr1_baseline(path: str = "BENCH_PR1.json") -> float | None:
    """Mean E1 overhead recorded by the PR 1 fabric benchmark, if the
    report is present next to the output file."""
    candidate = Path(path)
    if not candidate.exists():
        return None
    try:
        doc = json.loads(candidate.read_text(encoding="utf-8"))
        return float(doc["e1"]["mean_overhead_pct"])
    except (ValueError, KeyError, TypeError):
        return None


#: E1 overhead admitted in the calibrated regime with Tier-3 active
#: (the ISSUE's acceptance gate, percent).
AOT_E1_GATE_PCT = 5.0


def write_bench_json(
    path: str | None = None, *, quick: bool = False, tier: str = "compiled"
) -> dict[str, Any]:
    """Run the synthesis benchmarks and write the JSON report.

    ``tier="compiled"`` is the PR 3 report (``BENCH_PR3.json``).
    ``tier="aot"`` is the PR 8 report (``BENCH_PR8.json``): the same
    micro/stress sections plus the paired-delta E1 sweep with Tier-3
    installed and the four-domain tier-equivalence check.  Correctness
    gates (identical op_logs, edit-cycle regeneration) hold even on
    ``--quick`` runs; the <=5% calibrated-overhead gate is enforced
    only on committed full runs (smoke boxes are noisy — same
    precedent as the PR 4/PR 5/PR 6 benchmarks).
    """
    from repro.bench.harness import e1_paired_bench, e1_quick_bench

    if tier not in ("compiled", "aot"):
        raise ValueError(f"unknown tier {tier!r}")
    if path is None:
        path = "BENCH_PR8.json" if tier == "aot" else "BENCH_PR3.json"

    micro = template_microbench(
        iterations=5_000 if quick else 20_000, repeat=3 if quick else 5
    )
    stress = synthesis_stress(
        objects=1_000 if quick else 5_000, repeat=2 if quick else 3
    )
    if tier == "aot":
        equivalence = tier_equivalence()
        e1 = e1_paired_bench(repeat=3 if quick else 25, aot=True)
        # The E1 trajectory baseline: PR 4's min-of-samples sweep was
        # the last committed model-vs-handcrafted number (14.3%).
        baseline = _pr_baseline(
            Path(path).parent / "BENCH_PR4.json",
            keys=("e1", "mean_overhead_pct"),
        )
        results: dict[str, Any] = {
            "bench": "PR8-aot-synthesis",
            "python": sys.version.split()[0],
            "quick": quick,
            "template_microbench": micro,
            "synthesis_stress": stress,
            "tier_equivalence": equivalence,
            "e1": e1,
            "baseline_e1_mean_overhead_pct": baseline,
            "gate_pct": AOT_E1_GATE_PCT,
            "meets_e1_gate": e1["mean_overhead_pct"] <= AOT_E1_GATE_PCT,
        }
        if not equivalence["all_identical"]:
            raise AssertionError(
                f"Tier-3 op_logs diverged from Tier-2: {equivalence}"
            )
        if not stress["scripts_identical"]:
            raise AssertionError("tier scripts diverged in stress run")
        if not quick and not results["meets_e1_gate"]:
            raise AssertionError(
                f"calibrated E1 overhead with AOT is "
                f"{e1['mean_overhead_pct']:.2f}% "
                f"(acceptance bar: <= {AOT_E1_GATE_PCT}%)"
            )
    else:
        e1 = e1_quick_bench(repeat=5)
        baseline = _pr1_baseline(str(Path(path).parent / "BENCH_PR1.json"))
        results = {
            "bench": "PR3-compiled-synthesis",
            "python": sys.version.split()[0],
            "quick": quick,
            "template_microbench": micro,
            "synthesis_stress": stress,
            "e1": e1,
            "baseline_e1_mean_overhead_pct": baseline,
        }
        if baseline is not None:
            results["e1_overhead_improvement_pct_points"] = (
                baseline - e1["mean_overhead_pct"]
            )
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(results, handle, indent=2)
        handle.write("\n")
    return results


def _pr_baseline(path: Path, *, keys: tuple[str, ...]) -> float | None:
    """A nested numeric field from a sibling bench report, if present."""
    if not path.exists():
        return None
    try:
        doc: Any = json.loads(path.read_text(encoding="utf-8"))
        for key in keys:
            doc = doc[key]
        return float(doc)
    except (ValueError, KeyError, TypeError):
        return None


def main(argv: list[str] | None = None) -> int:
    import argparse

    parser = argparse.ArgumentParser(
        prog="python -m repro.bench.synthesis",
        description="synthesis-tier benchmarks (writes BENCH_PR3.json, "
                    "or BENCH_PR8.json with --tier aot)",
    )
    parser.add_argument("--output", default=None)
    parser.add_argument("--quick", action="store_true",
                        help="smaller workloads (CI perf-smoke)")
    parser.add_argument("--tier", choices=("compiled", "aot"),
                        default="compiled",
                        help="execution tier under test (aot = Tier-3)")
    args = parser.parse_args(argv)
    results = write_bench_json(
        args.output, quick=args.quick, tier=args.tier
    )
    print(json.dumps(results, indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())
