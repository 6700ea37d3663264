"""Tier-3 AOT synthesis: behavioural invisibility and lifecycle.

The AOT tier (PR 8) compiles a loaded DSK into a real Python module —
flat dispatch tables, per-API call functions, slot-indexed feature
reads — and every loaded platform runs it.  These tests pin the
contract inherited from the compiled tier (PR 3): Tier-3 may only
change *cost*, never behaviour.  The Tier-2 reference side is a
platform stripped by ``remove_generated``; the other side must have
its program installed.  Coverage:

* property: random multi-revision editing sessions emit byte-identical
  control scripts on Tier-2 and Tier-3;
* full-stack op_log equality across all four shipped domains;
* every platform-building path installs the tables, and platforms of
  one DSK shape share one code object;
* the runtime-edit lifecycle: a DSK edit drops the installed program
  (that cycle falls back to Tier-2), the end of the cycle regenerates
  it, and the service trace never diverges;
* generation determinism and DSK-hash validation in the loader;
* the broker's generated path: parity with the action-table path,
  including error propagation, counters, the latency histogram and
  transactional rollback;
* checkpoint/restore: ``externalize()`` documents match between tiers
  and ``restore_platform`` resumes on Tier-3.
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
from repro.middleware.loader import DomainKnowledge, load_platform
from repro.middleware.snapshot import restore_platform
from repro.middleware.synthesis.aot import (
    AotError,
    build_program,
    load_program,
    remove_generated,
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
            remove_generated(tier2)
            tier2.run_model(case.phase1())
            tier2.run_model(case.phase2())
        finally:
            tier2.stop()
        golden = _log_bytes(service2)
        assert golden, f"{case.name}: empty golden op_log"

        service3, _dsk, tier3 = _fresh_session(case)
        try:
            program = tier3.synthesis.interpreter._aot
            assert program is not None, case.name
            assert program.broker_calls, case.name
            assert tier3.broker._aot_calls == program.broker_calls
            tier3.run_model(case.phase1())
            tier3.run_model(case.phase2())
        finally:
            tier3.stop()
        assert _log_bytes(service3) == golden, case.name


# -- every platform runs shared generated code -------------------------------

def _generated_code(platform):
    """A code object of ``platform``'s generated module, after checking
    that every table its layers have is installed.  Programs exec'd
    from one module code object share it and its nested functions'."""
    synthesis, broker = platform.synthesis, platform.broker
    program = None
    if synthesis is not None:
        program = synthesis.interpreter._aot
        assert program is not None, platform.name
        assert synthesis.aot_refresh is not None
    if broker is None:
        return program.code
    calls = broker._aot_calls
    assert calls, platform.name
    if program is not None:
        assert program.broker_calls == calls
    return calls[min(calls)].__code__


class TestEveryPlatformRunsGeneratedCode:
    def test_loader_restore_and_broker_only_platforms(self):
        from repro.bench.harness import fresh_model_based_broker

        service, dsk, first = _comm_session()
        _service, _dsk, second = _comm_session()
        try:
            first.run_model(_conference())
            code = _generated_code(first)
            assert _generated_code(second) is code
            restored = restore_platform(first.checkpoint(), dsk)
            try:
                assert _generated_code(restored) is code
            finally:
                restored.stop()
        finally:
            first.stop()
            second.stop()
        # E1's broker: the same model with only the broker started
        broker = fresh_model_based_broker()[0]
        assert broker._aot_calls[min(broker._aot_calls)].__code__ is code

    def test_layer_suppressed_platforms(self):
        """2SVM's central node has synthesis and no broker; its object
        nodes have a broker and no synthesis."""
        from repro.domains.smartspace.ssvm import TwoSVM

        deployment = TwoSVM(["n0", "n1"])
        try:
            assert deployment.central.broker is None
            _generated_code(deployment.central)
            n0, n1 = (deployment.nodes[n] for n in ("n0", "n1"))
            assert n0.synthesis is None
            assert _generated_code(n0) is _generated_code(n1)
        finally:
            deployment.stop()

    def test_worker_open_restore_and_adopt(self, tmp_path):
        from repro.middleware.cluster import RegistryBackend
        from repro.runtime.durability import DurabilityPolicy

        backends = []
        for worker in (0, 1):
            backend = RegistryBackend(durability=DurabilityPolicy(
                mode="wal", log_root=str(tmp_path / f"wal-{worker}"),
                fsync=False,
            ))
            backend.worker_id = worker
            backend.enable_durability()
            backends.append(backend)
        source, adopter = backends
        doc = {"domain": "communication", "autonomic": False}
        try:
            source.open("s1", doc)
            source.open("s2", doc)
            source.apply("s1", {"op": "api", "api": "ncb.open_session",
                                "args": {"connection": "c1"}})
            source.restore("s3", source.capture("s1"))
            adopter.adopt("s1", source.ship_tail())
            codes = {_generated_code(host.platform)
                     for backend in backends
                     for host in backend.sessions.values()}
            assert len(codes) == 1
            assert sorted(adopter.sessions) == ["s1"]
        finally:
            for backend in backends:
                for session in list(backend.sessions):
                    backend.close(session)
                backend.shutdown()

    def test_an_edited_dsk_gets_new_code(self):
        from repro.middleware.broker.actions import BrokerAction

        _service, _dsk, edited = _comm_session()
        _service, _dsk, untouched = _comm_session()
        try:
            code = _generated_code(untouched)
            edited.broker.install_action(BrokerAction(
                name="custom.noop", pattern="custom.noop",
                implementation=[{"set": "custom:flag", "expr": "1"}],
            ))
            edited.run_model(_conference())  # the cycle's end regenerates
            assert _generated_code(edited) is not code
            assert "custom.noop" in edited.broker._aot_calls
            assert _generated_code(untouched) is code
        finally:
            edited.stop()
            untouched.stop()


# -- runtime-edit lifecycle --------------------------------------------------

def _comm_session(*, generated=True):
    service = CommService("net0", op_cost=0.0)
    dsk = DomainKnowledge(dsml=cml_metamodel(), resources=[service])
    platform = load_platform(build_middleware_model(), dsk)
    platform.controller.context.update(default_context())
    if not generated:
        remove_generated(platform)
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

        golden_service, _dsk, reference = _comm_session(generated=False)
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

    @pytest.mark.parametrize(
        "domain", ["communication", "microgrid", "smartspace", "crowdsensing"]
    )
    def test_generation_is_deterministic(self, domain):
        """Same DSK -> byte-identical module source, in every domain."""
        from repro.bench.migrate import _fresh_session
        from repro.domains.assembly import domain_cases

        case = next(c for c in domain_cases() if c.name == domain)
        _service, _dsk, platform = _fresh_session(case)
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


# -- the broker's generated path ---------------------------------------------

class TestBrokerFastPath:
    def test_call_api_results_and_counters_match_tier2(self):
        results = {}
        for generated in (True, False):
            service, _dsk, platform = _comm_session(generated=generated)
            try:
                broker = platform.broker
                session = broker.call_api("ncb.open_session", connection="c1")
                broker.call_api(
                    "ncb.add_party", connection="c1", party="alice"
                )
                broker.call_api("ncb.close_session", connection="c1")
                results[generated] = (
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
        for generated in (True, False):
            _service, _dsk, platform = _comm_session(generated=generated)
            try:
                # close_session on a connection that was never opened:
                # the step expression dereferences missing state.
                with pytest.raises(Exception) as info:
                    platform.broker.call_api(
                        "ncb.close_session", connection="ghost"
                    )
                errors[generated] = type(info.value).__name__
            finally:
                platform.stop()
        assert errors[True] == errors[False]

    def test_transactional_calls_run_the_generated_function(self):
        _service, _dsk, platform = _comm_session()
        try:
            broker = platform.broker
            assert "ncb.open_session" in broker._aot_calls
            broker.calls.dispatch = None  # the action table must not run
            before = broker.calls.dispatched
            broker.call_api(
                "ncb.open_session", connection="c1", _transactional=True
            )
            assert broker.calls.dispatched == before + 1
            assert broker.state.get("session:c1")
            assert broker.state.snapshot_count == 0
        finally:
            platform.stop()

    def test_failed_transactional_call_rolls_back_on_generated_path(self):
        from repro.middleware.broker.actions import BrokerAction
        from repro.middleware.broker.layer import BrokerLayer
        from repro.middleware.broker.resource import CallableResource

        layer = BrokerLayer("broker")
        layer.configure({})
        layer.install_resource(CallableResource("dev0", {"ping": lambda: 1}))
        layer.install_action(BrokerAction(
            name="mutate-fail", pattern="api.bad",
            implementation=[
                {"set": "v", "expr": "2"},
                {"resource": "ghost", "operation": "x"},
            ],
        ))
        program = build_program(
            rules={}, actions=list(layer.calls._actions), dsml=None
        )
        assert "api.bad" in program.broker_calls
        layer.install_aot(program.broker_calls)
        layer.start()
        try:
            layer.state.set("v", 1)
            with pytest.raises(Exception):
                layer.call_api("api.bad", _transactional=True)
            assert layer.state.get("v") == 1  # rolled back
            assert layer.state.snapshot_count == 0
            with pytest.raises(Exception):
                layer.call_api("api.bad")
            assert layer.state.get("v") == 2  # no bracket, no rollback
        finally:
            layer.stop()

    def test_latency_histogram_counts_every_call(self):
        from repro.runtime.metrics import MetricsRegistry

        service = CommService("net0", op_cost=0.0)
        platform = load_platform(
            build_middleware_model(),
            DomainKnowledge(dsml=cml_metamodel(), resources=[service]),
            metrics=MetricsRegistry(),
        )
        try:
            broker = platform.broker
            assert broker._aot_calls
            broker.call_api("ncb.open_session", connection="c1")
            for party in ("alice", "bob", "carol"):
                broker.call_api("ncb.add_party", connection="c1", party=party)
            sampled = sum(
                histogram.count
                for name, _api, histogram in broker.metrics.histograms()
                if name == "broker.call_api"
            )
            assert sampled == broker.api_calls == 4
            assert broker.metrics.histogram(
                "broker.call_api", "ncb.add_party").count == 3
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
        for generated in (True, False):
            _service, _dsk, platform = _comm_session(generated=generated)
            try:
                platform.run_model(_conference())
                text = json.dumps(
                    [
                        platform.broker.externalize(),
                        platform.controller.externalize(),
                    ],
                    sort_keys=True,
                )
                docs[generated] = re.sub(r"#\d+", "#N", text)
            finally:
                platform.stop()
        assert docs[True] == docs[False]

    def test_restore_resumes_on_tier3(self):
        service, dsk, platform = _comm_session()
        platform.run_model(_conference())
        snapshot = platform.checkpoint()
        platform.stop()

        service.op_log.clear()
        restored = restore_platform(snapshot, dsk)
        try:
            assert restored.synthesis.interpreter._aot is not None
            assert restored.broker._aot_calls
            restored.run_model(_conference(extended=True))
        finally:
            restored.stop()
        assert any("open_session" in line for line in service.op_log)
