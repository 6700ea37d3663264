"""Generated vs reference synthesis: equivalence and rule edits.

The generated module (Tier-3) is the only compiled execution path; the
reference path reads each rule's command templates per change and
evaluates them through the cached compiled evaluator.  These tests pin
the contract that the generated module is *behaviorally invisible*:
byte-identical control scripts over arbitrary change lists (the
reference path's compiled evaluator against the AST walker here; the
generated module against the reference path in ``test_aot.py``),
identical service op_logs through the full CVM stack, and rule
replacement taking effect on the next change.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.middleware.synthesis import interpreter as interpreter_module
from repro.middleware.synthesis.aot import build_program
from repro.middleware.synthesis.interpreter import (
    ChangeInterpreter,
    EntityRule,
    InterpreterError,
)
from repro.middleware.synthesis.scripts import script_to_json
from repro.modeling.diff import diff_models
from repro.modeling.expr import compile_expression
from repro.modeling.lts import LTS
from repro.modeling.meta import Metamodel
from repro.modeling.model import Model, MObject


def _dsml() -> Metamodel:
    metamodel = Metamodel("compiled-prop")
    root = metamodel.new_class("Root")
    root.reference("items", "Item", containment=True, many=True)
    item = metamodel.new_class("Item")
    item.attribute("name", "string")
    item.attribute("replicas", "int", default=1)
    item.attribute("tier", "string", default="standard")
    return metamodel.resolve()


def _rules() -> list[EntityRule]:
    item = LTS("item")
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
            {
                "operation": "item.premium_boost",
                "when": "tier == 'premium'",
                "args_expr": {"id": "obj.id"},
            },
        ),
    )
    item.add_transition(
        "running", "set:replicas", "running",
        actions=(
            {
                "operation": "item.scale",
                "args_expr": {"id": "obj.id", "to": "new", "from": "old"},
            },
        ),
    )
    item.add_transition(
        "running", "set:tier", "running",
        actions=(
            {
                "operation": "item.retier",
                "foreach": "[new, old]",
                "args_expr": {"id": "obj.id", "tier": "item"},
            },
        ),
    )
    item.add_transition(
        "running", "remove", "initial",
        actions=({"operation": "item.undeploy", "args_expr": {"id": "obj.id"}},),
    )
    root = LTS("root")
    root.add_transition("initial", "add", "up")
    root.add_transition("up", "remove", "initial")
    return [EntityRule("Item", item), EntityRule("Root", root)]


def _build_model(metamodel: Metamodel, items: dict[str, tuple[int, str]]) -> Model:
    """A Root whose Item children carry explicit ids, so revisions of
    the same logical item diff against each other."""
    model = Model(metamodel, name="rev")
    root = MObject(metamodel.find_class("Root"), id="root")
    model.add_root(root)
    for name in sorted(items):
        replicas, tier = items[name]
        obj = MObject(
            metamodel.find_class("Item"), id=name,
            name=name, replicas=replicas, tier=tier,
        )
        root.items.append(obj)
    return model


_item_names = st.sampled_from([f"i{k}" for k in range(5)])
_item_specs = st.tuples(
    st.integers(min_value=1, max_value=4),
    st.sampled_from(["standard", "premium"]),
)
_revisions = st.lists(
    st.dictionaries(_item_names, _item_specs, max_size=5),
    min_size=1,
    max_size=4,
)


def _interpreter(metamodel: Metamodel, *, generated: bool) -> ChangeInterpreter:
    interpreter = ChangeInterpreter()
    for rule in _rules():
        interpreter.add_rule(rule)
    if generated:
        program = build_program(
            rules=interpreter._rules, actions=[], dsml=metamodel,
            domain="compiled-prop",
        )
        assert not program.syn_skipped
        interpreter.install_aot(program)
    return interpreter


def _session_scripts(interpreter, metamodel, revisions) -> list[str]:
    previous = Model(metamodel, name="empty")
    produced: list[str] = []
    for items in revisions:
        current = _build_model(metamodel, items)
        script = interpreter.interpret(
            diff_models(previous, current), script_name="cycle"
        )
        script.script_id = "script#norm"  # ids come from a global seq
        produced.append(script_to_json(script))
        previous = current
    return produced


@settings(max_examples=50, deadline=None)
@given(_revisions)
def test_compiled_and_interpreted_scripts_byte_identical(revisions):
    """For random multi-revision editing sessions the reference path's
    cached compiled evaluator emits byte-identical control scripts to
    the AST walker (``Expression.evaluate``, patched in as a test
    seam).  The generated-vs-reference side of this property is
    ``test_aot.py::test_aot_scripts_byte_identical_to_compiled``."""
    metamodel = _dsml()
    reference = _session_scripts(
        _interpreter(metamodel, generated=False), metamodel, revisions
    )
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(
            interpreter_module, "evaluate",
            lambda source, env: compile_expression(source).evaluate(env),
        )
        walked = _session_scripts(
            _interpreter(metamodel, generated=False), metamodel, revisions
        )
    assert reference == walked


class TestRuleReplacement:
    def _rule(self, operation: str) -> EntityRule:
        lts = LTS("svc")
        lts.add_transition(
            "initial", "add", "running",
            actions=({"operation": operation, "args_expr": {"id": "obj.id"}},),
        )
        return EntityRule("Item", lts)

    def _add_change(self, metamodel: Metamodel, item_id: str):
        empty = Model(metamodel, name="empty")
        model = _build_model(metamodel, {item_id: (1, "standard")})
        return diff_models(empty, model)

    def test_replacing_a_rule_takes_effect(self):
        metamodel = _dsml()
        interpreter = ChangeInterpreter()
        interpreter.add_rule(self._rule("one.start"))
        first = interpreter.interpret(self._add_change(metamodel, "i0"))
        assert first.operations() == ["one.start"]
        interpreter.add_rule(self._rule("two.start"), replace=True)
        second = interpreter.interpret(self._add_change(metamodel, "i1"))
        assert second.operations() == ["two.start"]

    def test_duplicate_rule_without_replace_raises(self):
        interpreter = ChangeInterpreter()
        interpreter.add_rule(self._rule("one.start"))
        with pytest.raises(InterpreterError, match="duplicate rule"):
            interpreter.add_rule(self._rule("two.start"))


def test_full_stack_op_log_equivalence_between_tiers():
    """A default CVM (generated module) and one stripped to the
    reference path drive the service to the same trace."""
    from repro.domains.communication import CmlBuilder, build_cvm
    from repro.middleware.synthesis.aot import remove_generated
    from repro.modeling.serialize import clone_model
    from repro.sim.network import CommService

    def edit_sequence():
        builder = CmlBuilder("meeting")
        alice = builder.person("alice", role="initiator")
        bob = builder.person("bob")
        connection = builder.connection(
            "call", [alice, bob], media=["audio", ("video", "standard")]
        )
        v1 = builder.build()
        v2 = clone_model(v1)
        for medium in v2.by_id(connection.id).media:
            if medium.kind == "video":
                medium.quality = "high"
        return [v1, v2]

    logs = {}
    for generated in (True, False):
        service = CommService("net0", op_cost=0.0)
        platform = build_cvm(service=service)
        assert platform.synthesis.interpreter._aot is not None
        if not generated:
            remove_generated(platform)
        try:
            for revision in edit_sequence():
                platform.run_model(clone_model(revision))
            platform.teardown_model()
        finally:
            platform.stop()
        logs[generated] = list(service.op_log)
    assert logs[True] == logs[False]
    assert logs[True]  # the scenario actually exercised the service
