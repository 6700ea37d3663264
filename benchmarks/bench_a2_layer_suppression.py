"""A2 (ablation) — layer suppression per node role (paper Secs. IV-C/D).

The 2SVM runs suppressed stacks on its nodes: the central device keeps
the top layers, smart objects keep the bottom two.  This ablation
measures what suppression buys: per-command cost on a bottom-only
object node vs pushing the same work through a full four-layer stack,
and the component-footprint difference.
"""

from __future__ import annotations

import gc
import statistics
import time

from repro.bench.harness import ResultTable
from repro.domains.assembly import assemble_middleware_model
from repro.domains.smartspace import build_object_node
from repro.domains.smartspace import dsk as ss_dsk
from repro.domains.smartspace.ssml import ssml_metamodel
from repro.middleware.loader import DomainKnowledge, load_platform
from repro.middleware.synthesis.scripts import Command, ControlScript
from repro.sim.space import SmartSpace


def _full_stack_platform(space: SmartSpace | None = None):
    """A smart-space platform with all four layers on one node."""
    model = assemble_middleware_model("2svm-full", "smartspace", ss_dsk)
    space = space or SmartSpace(ss_dsk.RESOURCE_NAME, op_cost=0.5)
    return load_platform(
        model, DomainKnowledge(dsml=ssml_metamodel(), resources=[space])
    )


def _configure_script(count: int) -> ControlScript:
    script = ControlScript(name="configure")
    for index in range(count):
        script.add(Command(
            "ss.object.configure",
            args={"object": "obj0", "capability": "light",
                  "value": index, "node": "node0"},
        ))
    return script


def _register(platform):
    platform.run_script(ControlScript(commands=[
        Command("ss.object.register",
                args={"object": "obj0", "kind": "lamp",
                      "capabilities": {"light": 0}, "node": "node0"}),
    ]))


def test_suppressed_node_script_execution(benchmark):
    node = build_object_node("bench", space=SmartSpace("space0", op_cost=0.5))
    _register(node)
    script = _configure_script(20)
    benchmark.group = "a2-script"
    benchmark(lambda: node.run_script(script))
    node.stop()


def test_full_stack_script_execution(benchmark):
    platform = _full_stack_platform()
    _register(platform)
    script = _configure_script(20)
    benchmark.group = "a2-script"
    benchmark(lambda: platform.run_script(script))
    platform.stop()


#: Order-alternated rounds for the A2 latency check, after one untimed
#: warm-up round.  The first round in a fresh process runs slow on
#: whichever platform goes first, so one round alone cannot decide it.
ROUNDS = 7


def _fresh_pair() -> dict:
    """A registered object node and full stack, both cold."""
    node = build_object_node("bench", space=SmartSpace("space0", op_cost=0.5))
    full = _full_stack_platform()
    for platform in (node, full):
        _register(platform)
    return {"suppressed": node, "full": full}


def _script_time(platform, script: ControlScript) -> float:
    """One timed script run, the collector off inside the timed region
    so a pass the previous sample's garbage triggers lands on neither."""
    gc.collect()
    gc.disable()
    try:
        start = time.perf_counter()
        platform.run_script(script)
        return time.perf_counter() - start
    finally:
        gc.enable()


def _paired_rounds(script: ControlScript, rounds: int) -> tuple[dict, dict]:
    """Per-configuration script times from ``rounds`` rounds on fresh
    platforms, the suppressed node first in even rounds and second in
    odd ones; and each configuration's layer count."""
    samples: dict[str, list[float]] = {"suppressed": [], "full": []}
    layers: dict[str, int] = {}
    for index in range(rounds):
        pair = _fresh_pair()
        names = list(pair) if index % 2 == 0 else list(pair)[::-1]
        for name in names:
            samples[name].append(_script_time(pair[name], script))
            layers[name] = len(pair[name].layers)
            pair[name].stop()
    return samples, layers


def test_a2_footprint_and_latency(benchmark, report):
    script = _configure_script(50)
    samples: dict[str, list[float]] = {}
    layers: dict[str, int] = {}

    def run():
        _paired_rounds(script, 1)  # warm-up, untimed
        timed, counted = _paired_rounds(script, ROUNDS)
        samples.update(timed)
        layers.update(counted)

    benchmark.pedantic(run, rounds=1, iterations=1)

    ratio = statistics.median(
        s / f for s, f in zip(samples["suppressed"], samples["full"]))
    table = ResultTable(
        "A2: layer suppression (2SVM object node vs full stack; "
        f"median over {ROUNDS} order-alternated rounds)",
        ["configuration", "layers", "50-command script ms"],
    )
    table.add("object node (controller+broker)", layers["suppressed"],
              statistics.median(samples["suppressed"]) * 1000)
    table.add("full 4-layer stack", layers["full"],
              statistics.median(samples["full"]) * 1000)
    report.append(table)

    # Footprint: the suppressed node instantiates half the layers.
    assert layers == {"suppressed": 2, "full": 4}
    # Script execution cost on the shared path is comparable (the
    # suppressed node gives up no throughput by dropping upper layers):
    # suppressed_s <= full_s * 1.25, as the median of paired ratios.
    assert ratio <= 1.25


def test_a2_same_work_on_both_configurations():
    """The latency claim's deterministic half: the 50-command script
    makes the same broker calls and resource invocations on the object
    node as on the full stack, so neither does more work to time."""
    script = _configure_script(50)
    work = {}
    for name, build in (
        ("suppressed", lambda space: build_object_node("bench", space=space)),
        ("full", _full_stack_platform),
    ):
        space = SmartSpace(ss_dsk.RESOURCE_NAME, op_cost=0.0)
        platform = build(space)
        _register(platform)
        calls = []
        call_api = platform.broker.call_api

        def recording(api, _call_api=call_api, _calls=calls, **args):
            _calls.append((api, args))
            return _call_api(api, **args)

        platform.broker.call_api = recording
        invoked = len(space.op_log)
        platform.run_script(script)
        work[name] = (calls, space.op_log[invoked:])
        platform.stop()
    calls, invocations = work["suppressed"]
    assert len(calls) >= 50 and len(invocations) >= 50
    assert work["suppressed"] == work["full"]
