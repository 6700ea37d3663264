"""Tier-3 AOT synthesis: behavioural invisibility and lifecycle.

The AOT tier (PR 8) compiles a loaded DSK into a real Python module —
flat dispatch tables, per-API call functions, slot-indexed feature
reads.  These tests pin the contract inherited from the compiled tier
(PR 3): Tier-3 may only change *cost*, never behaviour.  Coverage:

* property: random multi-revision editing sessions emit byte-identical
  control scripts on Tier-2 and Tier-3;
* full-stack op_log equality across all four shipped domains;
* the runtime-edit lifecycle: a DSK edit drops the installed program
  (that cycle falls back to Tier-2), the next completed cycle
  regenerates it, and the service trace never diverges;
* generation determinism and DSK-hash validation in the loader;
* the broker fast path: parity with the action-table path, including
  error propagation and counter semantics;
* checkpoint/restore: ``externalize()`` documents match between tiers
  and ``restore_platform(aot=True)`` resumes on Tier-3.
"""

from __future__ import annotations

import json
import re

import pytest
from hypothesis import given, settings, strategies as st

from repro.domains.communication.cml import cml_metamodel
from repro.domains.communication.cvm import (
    build_middleware_model,
    default_context,
)
from repro.middleware.loader import DomainKnowledge, LoaderError, load_platform
from repro.middleware.snapshot import restore_platform
from repro.middleware.synthesis.aot import (
    AotError,
    build_program,
    load_program,
)
from repro.middleware.synthesis.interpreter import ChangeInterpreter, EntityRule
from repro.middleware.synthesis.scripts import script_to_json
from repro.modeling.aotgen import dsk_fingerprint, dsk_hash, generate_module_source
from repro.modeling.diff import diff_models
from repro.modeling.lts import LTS
from repro.modeling.meta import Metamodel
from repro.modeling.model import Model, MObject
from repro.sim.network import CommService


# -- synthesis-layer property: Tier-2 vs Tier-3 scripts ---------------------

def _dsml() -> Metamodel:
    metamodel = Metamodel("aot-prop")
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


def _aot_interpreter(metamodel: Metamodel) -> ChangeInterpreter:
    interpreter = ChangeInterpreter(compiled=True)
    for rule in _rules():
        interpreter.add_rule(rule)
    program = build_program(
        rules=interpreter._rules, actions=[], dsml=metamodel, domain="aot-prop"
    )
    assert not program.syn_skipped
    interpreter.install_aot(program)
    return interpreter


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


@settings(max_examples=50, deadline=None)
@given(_revisions)
def test_aot_scripts_byte_identical_to_compiled(revisions):
    """Random multi-revision editing sessions produce byte-identical
    control scripts whether the interpreter runs PR 3's compiled
    closures or the installed Tier-3 dispatch tables."""
    metamodel = _dsml()
    scripts: dict[bool, list[str]] = {}
    for aot in (True, False):
        if aot:
            interpreter = _aot_interpreter(metamodel)
        else:
            interpreter = ChangeInterpreter(compiled=True)
            for rule in _rules():
                interpreter.add_rule(rule)
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
        scripts[aot] = produced
    assert scripts[True] == scripts[False]


# -- full-stack equality across the shipped domains -------------------------

def test_four_domain_op_logs_identical_under_aot():
    """Every shipped domain's two-phase session drives its service to
    the same op_log with and without the Tier-3 program installed."""
    from repro.bench.migrate import _fresh_session, _log_bytes
    from repro.domains.assembly import domain_cases

    for case in domain_cases():
        service2, _dsk, tier2 = _fresh_session(case)
        try:
            tier2.run_model(case.phase1())
            tier2.run_model(case.phase2())
        finally:
            tier2.stop()
        golden = _log_bytes(service2)
        assert golden, f"{case.name}: empty golden op_log"

        service3, _dsk, tier3 = _fresh_session(case)
        try:
            program = tier3.enable_aot()
            assert program.broker_calls, case.name
            tier3.run_model(case.phase1())
            tier3.run_model(case.phase2())
        finally:
            tier3.stop()
        assert _log_bytes(service3) == golden, case.name


# -- runtime-edit lifecycle --------------------------------------------------

def _comm_session():
    service = CommService("net0", op_cost=0.0)
    dsk = DomainKnowledge(dsml=cml_metamodel(), resources=[service])
    platform = load_platform(build_middleware_model(), dsk)
    platform.controller.context.update(default_context())
    return service, dsk, platform


def _conference(*, extended=False):
    from repro.domains.communication.cml import CmlBuilder

    builder = CmlBuilder("conference")
    alice = builder.person("alice", role="initiator")
    bob = builder.person("bob")
    builder.connection("c1", [alice, bob], media=["audio"])
    if extended:
        carol = builder.person("carol")
        builder.connection("c2", [alice, carol], media=["text"])
    return builder.build()


class TestRuntimeEditLifecycle:
    def test_rule_edit_falls_back_then_regenerates(self):
        service, _dsk, platform = _comm_session()
        try:
            platform.enable_aot()
            interpreter = platform.synthesis.interpreter
            platform.run_model(_conference())
            assert interpreter._aot is not None
            # Replace a live rule (same semantics back in): the
            # installed program must drop immediately...
            rule = next(iter(interpreter._rules.values()))
            interpreter.add_rule(rule, replace=True)
            assert interpreter._aot is None
            # ...the next cycle runs on Tier-2 and then regenerates.
            platform.run_model(_conference(extended=True))
            assert interpreter._aot is not None
        finally:
            platform.stop()

        golden_service, _dsk, reference = _comm_session()
        try:
            reference.run_model(_conference())
            reference.run_model(_conference(extended=True))
        finally:
            reference.stop()
        assert service.op_log == golden_service.op_log

    def test_dynamic_broker_action_drops_call_table(self):
        from repro.middleware.broker.actions import BrokerAction

        _service, _dsk, platform = _comm_session()
        try:
            platform.enable_aot()
            broker = platform.broker
            assert broker._aot_calls is not None
            broker.install_action(
                BrokerAction(
                    name="custom.noop",
                    pattern="custom.noop",
                    implementation=[{"set": "custom:flag", "expr": "1"}],
                )
            )
            # Edited call table: Tier-3 entries were generated from the
            # previous action set, so the whole table is dropped.
            assert broker._aot_calls is None
        finally:
            platform.stop()


# -- generation determinism and loader validation ----------------------------

class TestGenerationAndValidation:
    def _dsk_parts(self, platform):
        return dict(
            rules=platform.synthesis.interpreter._rules,
            actions=list(platform.broker.calls._actions),
            dsml=platform.dsml,
            domain=platform.domain,
        )

    def test_generation_is_deterministic(self):
        _service, _dsk, platform = _comm_session()
        try:
            parts = self._dsk_parts(platform)
            assert generate_module_source(**parts) == generate_module_source(
                **parts
            )
        finally:
            platform.stop()

    def test_dsk_hash_tracks_rule_set(self):
        _service, _dsk, platform = _comm_session()
        try:
            parts = self._dsk_parts(platform)
            baseline = dsk_hash(dsk_fingerprint(
                rules=parts["rules"], actions=parts["actions"],
                dsml=parts["dsml"],
            ))
            trimmed = dict(parts["rules"])
            trimmed.pop(next(iter(trimmed)))
            assert dsk_hash(dsk_fingerprint(
                rules=trimmed, actions=parts["actions"], dsml=parts["dsml"],
            )) != baseline
        finally:
            platform.stop()

    def test_loader_refuses_foreign_module(self):
        """A module generated from a different DSK shape is refused —
        the hash check, not trust, is what makes pregenerated modules
        shippable."""
        _service, _dsk, platform = _comm_session()
        try:
            parts = self._dsk_parts(platform)
            source = generate_module_source(**parts)
            trimmed = dict(parts["rules"])
            trimmed.pop(next(iter(trimmed)))
            with pytest.raises(AotError, match="hash mismatch"):
                load_program(
                    source, rules=trimmed, actions=parts["actions"],
                    dsml=parts["dsml"], domain=parts["domain"],
                )
        finally:
            platform.stop()

    def test_loader_refuses_wrong_abi(self):
        _service, _dsk, platform = _comm_session()
        try:
            parts = self._dsk_parts(platform)
            source = generate_module_source(**parts).replace(
                "ABI = 1", "ABI = 99", 1
            )
            with pytest.raises(AotError, match="ABI mismatch"):
                load_program(source, **parts)
        finally:
            platform.stop()

    def test_load_platform_aot_requires_start(self):
        service = CommService("net0", op_cost=0.0)
        dsk = DomainKnowledge(dsml=cml_metamodel(), resources=[service])
        with pytest.raises(LoaderError, match="aot"):
            load_platform(build_middleware_model(), dsk, start=False, aot=True)


# -- broker fast-path parity -------------------------------------------------

class TestBrokerFastPath:
    def test_call_api_results_and_counters_match_tier2(self):
        results = {}
        for aot in (True, False):
            service, _dsk, platform = _comm_session()
            try:
                if aot:
                    platform.enable_aot()
                broker = platform.broker
                session = broker.call_api("ncb.open_session", connection="c1")
                broker.call_api(
                    "ncb.add_party", connection="c1", party="alice"
                )
                broker.call_api("ncb.close_session", connection="c1")
                results[aot] = (
                    session,
                    broker.api_calls,
                    broker.metrics.counter_value("broker.call_api"),
                    list(service.op_log),
                )
            finally:
                platform.stop()
        assert results[True] == results[False]

    def test_errors_propagate_identically(self):
        errors = {}
        for aot in (True, False):
            _service, _dsk, platform = _comm_session()
            try:
                if aot:
                    platform.enable_aot()
                # close_session on a connection that was never opened:
                # the step expression dereferences missing state.
                with pytest.raises(Exception) as info:
                    platform.broker.call_api(
                        "ncb.close_session", connection="ghost"
                    )
                errors[aot] = type(info.value).__name__
            finally:
                platform.stop()
        assert errors[True] == errors[False]

    def test_transactional_calls_take_the_slow_path(self):
        """``_transactional`` needs the action table's snapshot and
        rollback bracket, which generated functions do not carry."""
        _service, _dsk, platform = _comm_session()
        try:
            platform.enable_aot()
            broker = platform.broker
            before = broker.calls.dispatched
            broker.call_api(
                "ncb.open_session", connection="c1", _transactional=True
            )
            assert broker.calls.dispatched == before + 1
            assert broker.state.get("session:c1")
        finally:
            platform.stop()


# -- checkpoint / restore ----------------------------------------------------

class TestCheckpointRestore:
    def test_externalized_documents_match_between_tiers(self):
        """The externalized state of a session (broker state + counters,
        controller context + counters) is tier-independent.  The full
        snapshot JSON is not compared byte-for-byte because model ids
        come from a process-global sequence."""
        docs = {}
        for aot in (True, False):
            _service, _dsk, platform = _comm_session()
            try:
                if aot:
                    platform.enable_aot()
                platform.run_model(_conference())
                text = json.dumps(
                    [
                        platform.broker.externalize(),
                        platform.controller.externalize(),
                    ],
                    sort_keys=True,
                )
                docs[aot] = re.sub(r"#\d+", "#N", text)
            finally:
                platform.stop()
        assert docs[True] == docs[False]

    def test_restore_resumes_on_tier3(self):
        service, dsk, platform = _comm_session()
        platform.enable_aot()
        platform.run_model(_conference())
        snapshot = platform.checkpoint()
        platform.stop()

        service.op_log.clear()
        restored = restore_platform(snapshot, dsk, aot=True)
        try:
            assert restored.synthesis.interpreter._aot is not None
            assert restored.broker._aot_calls
            restored.run_model(_conference(extended=True))
        finally:
            restored.stop()
        assert any("open_session" in line for line in service.op_log)
