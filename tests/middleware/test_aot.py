"""Tier-3 AOT synthesis: behavioural invisibility and lifecycle.

The AOT tier (PR 8) compiles a loaded DSK into a real Python module —
flat dispatch tables, per-API call functions, slot-indexed feature
reads — and every loaded platform runs it.  These tests pin the
contract that the generated module may only change *cost*, never
behaviour.  The reference side is a platform stripped by
``remove_generated``, which runs the reflective paths (templates and
steps read per call); the other side must have its program installed.
Coverage:

* property: random multi-revision editing sessions emit byte-identical
  control scripts on the generated module and the reference path;
* full-stack op_log equality across all four shipped domains;
* generated code is total: after a direct rule edit, the edited cycle
  and the teardown run no reference render, broker table dispatch or
  Case-1 pattern scan;
* every platform-building path installs the tables, and platforms of
  one DSK shape share one code object;
* the runtime-edit lifecycle: a DSK edit drops the installed program,
  the next cycle regenerates it before it interprets, and the service
  trace never diverges;
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
from hypothesis import given, settings

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
from repro.modeling.aotgen import (
    ABI_VERSION,
    dsk_fingerprint,
    dsk_hash,
    generate_module_source,
)
from repro.sim.network import CommService
from tests.middleware.test_compiled_synthesis import (
    _dsml,
    _interpreter,
    _revisions,
    _session_scripts,
)


# -- synthesis-layer property: generated vs reference scripts ---------------

@settings(max_examples=50, deadline=None)
@given(_revisions)
def test_aot_scripts_byte_identical_to_compiled(revisions):
    """Random multi-revision editing sessions produce byte-identical
    control scripts whether the interpreter runs the installed Tier-3
    dispatch tables or the reference path's compiled evaluator."""
    metamodel = _dsml()
    generated = _session_scripts(
        _interpreter(metamodel, generated=True), metamodel, revisions
    )
    reference = _session_scripts(
        _interpreter(metamodel, generated=False), metamodel, revisions
    )
    assert generated == reference


# -- full-stack equality across the shipped domains -------------------------

def test_four_domain_op_logs_identical_under_aot():
    """Every shipped domain's two-phase session drives its service to
    the same op_log with and without the Tier-3 program installed, and
    its Controller does the same per script: broker trace, each
    command's case and result status/error, and the
    ``controller.command``/``controller.case`` counters."""
    from repro.bench.aot import controlled_session
    from repro.domains.assembly import domain_cases

    for case in domain_cases():
        models = [case.phase1(), case.phase2()]
        reference, _none = controlled_session(case, models, generated=False)
        assert reference["op_log"], f"{case.name}: empty golden op_log"
        assert reference["counters"], case.name
        record, program = controlled_session(case, models, generated=True)
        assert program is not None, case.name
        assert program.broker_calls, case.name
        assert program.ctl_actions and not program.ctl_skipped, case.name
        assert record["op_log"] == reference["op_log"], case.name
        assert record["scripts"] == reference["scripts"], case.name
        assert record["counters"] == reference["counters"], case.name


def test_generated_code_is_total_across_edits_and_teardown(monkeypatch):
    """On default platforms of all four domains no reflective path runs:
    not in the two phases, not in the cycle after a direct
    ``add_rule(replace=True)`` (the cycle regenerates before it
    interprets) and not in the teardown.  No change builds the
    reference env, no template renders on the reference path, no
    broker call dispatches through the action table and no command
    takes the Case-1 pattern scan."""
    from repro.bench.migrate import _fresh_session
    from repro.domains.assembly import domain_cases
    from repro.middleware.broker.actions import BrokerActionTable
    from repro.middleware.controller.handlers import ActionHandler
    from repro.middleware.synthesis.interpreter import ChangeInterpreter

    counts = dict.fromkeys(
        ("change_env", "render", "dispatch", "candidates"), 0
    )

    def counting(key, fn):
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    for owner, name, key, wrap in (
        (ChangeInterpreter, "_change_env", "change_env", staticmethod),
        (ChangeInterpreter, "_render_command", "render", staticmethod),
        (BrokerActionTable, "dispatch", "dispatch", None),
        (ActionHandler, "candidates", "candidates", None),
    ):
        wrapper = counting(key, getattr(owner, name))
        monkeypatch.setattr(owner, name, wrap(wrapper) if wrap else wrapper)

    for case in domain_cases():
        service, _dsk, platform = _fresh_session(case)
        try:
            platform.run_model(case.phase1())
            platform.run_model(case.phase2())
            synthesis = platform.synthesis
            rule = next(iter(synthesis.interpreter._rules.values()))
            synthesis.add_rule(rule, replace=True)
            assert synthesis.interpreter._aot is None, case.name
            processed = synthesis.interpreter.changes_processed
            platform.run_model(case.phase1())
            assert synthesis.interpreter.changes_processed > processed
            assert synthesis.interpreter._aot is not None, case.name
            platform.teardown_model()
            assert platform.broker.api_calls, case.name
            assert platform.controller.commands_executed, case.name
        finally:
            platform.stop()
        assert service.op_log, case.name
    assert counts == dict.fromkeys(counts, 0)


# -- every platform runs shared generated code -------------------------------

def _generated_code(platform):
    """A code object of ``platform``'s generated module, after checking
    that every table its layers have is installed.  Programs exec'd
    from one module code object share it and its nested functions'."""
    synthesis, broker, controller = (
        platform.synthesis, platform.broker, platform.controller
    )
    program = None
    if synthesis is not None:
        program = synthesis.interpreter._aot
        assert program is not None, platform.name
        assert synthesis.aot_refresh is not None
    if controller is not None:
        table = controller._aot_actions
        assert table is not None, platform.name
        assert set(table) == {
            a.pattern for a in controller.actions._actions
        }, platform.name
        if program is not None:
            assert table == program.ctl_actions
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
        from repro.runtime.wal import decode_frame

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
            adopter.adopt("s1", [decode_frame(frame)
                                 for frame in source.ship_tail()])
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
    def test_rule_edit_drops_then_the_next_cycle_regenerates(self):
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
            # ...and the next cycle regenerates it before it runs.
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
                f"ABI = {ABI_VERSION}", "ABI = 99", 1
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


# -- the controller's generated Case-1 path -----------------------------------

class _RecordingBroker:
    """A BrokerPort that records calls; ``fail.api`` raises."""

    def __init__(self):
        self.calls = []

    def call_api(self, api, **args):
        self.calls.append((api, args))
        if api == "fail.api":
            raise RuntimeError("backend down")
        return {"api": api, "n": len(self.calls), "text": "t"}


def _controller_with(actions, context=None):
    """A started standalone ControllerLayer over a recording broker,
    its generated Case-1 table built from ``actions`` and installed."""
    from repro.middleware.controller.layer import ControllerLayer

    broker = _RecordingBroker()
    layer = ControllerLayer("ctl")
    for action in actions:
        layer.install_action(action)
    layer.configure({})
    layer.wire("broker", broker)
    layer.start()
    layer.context.update(context or {})
    program = build_program(
        rules={}, actions=[], dsml=None,
        controller_actions=list(layer.actions._actions),
    )
    layer.install_aot(program.ctl_actions)
    return layer, broker, program


def _run_both_paths(layer, broker, commands):
    """Each command's (case, status, error, value, trace) and the broker
    calls, on the generated table and then on the reflective scan."""
    runs = []
    table = layer._aot_actions
    for generated in (table, None):
        layer.install_aot(generated)
        broker.calls.clear()
        outcomes = []
        for command in commands:
            outcome = layer.execute_command(command)
            result = outcome.result
            outcomes.append((
                outcome.case, result.status, result.error, result.value,
                result.call_trace(),
            ))
        runs.append((outcomes, list(broker.calls)))
    layer.install_aot(table)
    return runs


class TestControllerGeneratedPath:
    def test_args_expr_errors_identical_on_both_paths(self):
        from repro.middleware.controller.handlers import Action
        from repro.middleware.synthesis.scripts import Command

        layer, broker, program = _controller_with([
            Action("unknown-name", "op.unknown",
                   [{"api": "a.x", "args_expr": {"v": "ghost + 1"}}]),
            Action("divide", "op.divide",
                   [{"api": "a.x", "args_expr": {"v": "1 / zero"}}]),
            Action("after-call", "op.after",
                   [{"api": "a.first", "result": "first"},
                    {"api": "a.second", "args_expr": {"v": "first['missing']"}}]),
            Action("broker-fails", "op.fails",
                   [{"api": "a.ok"}, {"api": "fail.api", "args": {"k": 1}}]),
        ])
        assert set(program.ctl_actions) == {
            "op.unknown", "op.divide", "op.after", "op.fails"
        }
        commands = [
            Command("op.unknown"),
            Command("op.divide", args={"zero": 0}),
            Command("op.after"),
            Command("op.fails"),
        ]
        generated, reflective = _run_both_paths(layer, broker, commands)
        assert generated == reflective
        errors = [row[2] for row in generated[0]]
        assert all(row[1] == "error" for row in generated[0])
        assert errors[0] == "ExpressionError: unknown name 'ghost' in 'ghost + 1'"
        assert errors[1].startswith("ExpressionError: error evaluating '1 / zero'")
        assert errors[3] == "RuntimeError: backend down"
        layer.stop()

    def test_name_resolution_matches_action_run(self):
        """Step results, then ``command``, then command args, then the
        context snapshot, then safe constants — as Action.run's env."""
        from repro.middleware.controller.handlers import Action
        from repro.middleware.synthesis.scripts import Command

        layer, broker, _program = _controller_with([
            Action("resolve", "op.resolve", [
                {"api": "a.first", "args": {"lit": 3, "v": "overridden"},
                 "args_expr": {"v": "x", "ctx": "y", "op": "command.operation",
                               "const": "None"},
                 "result": "x"},
                {"api": "a.second",
                 "args_expr": {"prev": "x['api']", "count": "len(x)",
                               "weird key": "sorted(x)"}},
            ]),
        ], context={"x": "from-context", "y": 7})
        commands = [
            Command("op.resolve", args={"x": "from-args"}),
            Command("op.resolve"),
        ]
        generated, reflective = _run_both_paths(layer, broker, commands)
        assert generated == reflective
        first_call = generated[1][0]
        assert first_call == ("a.first", {
            "lit": 3, "v": "from-args", "ctx": 7, "op": "op.resolve",
            "const": None,
        })
        assert generated[1][2][1]["v"] == "from-context"
        assert generated[1][1][1] == {
            "prev": "a.first", "count": 3, "weird key": ["api", "n", "text"],
        }
        layer.stop()

    def test_policy_scores_select_among_generated_candidates(self):
        from repro.middleware.controller.handlers import Action
        from repro.middleware.controller.policy import Policy
        from repro.middleware.synthesis.scripts import Command

        layer, broker, program = _controller_with([
            Action("cheap", "op.pick", [{"api": "a.cheap"}],
                   attributes={"cost": 1.0}),
            Action("fast", "op.pick", [{"api": "a.fast"}],
                   attributes={"cost": 5.0, "speed": 9.0}),
        ])
        assert [a.name for a, _fn in program.ctl_actions["op.pick"]] == [
            "cheap", "fast",
        ]
        layer.policies.add(Policy(
            name="speed-first", condition="mode == 'fast'",
            weights={"speed": 1.0},
        ))
        layer.policies.add(Policy(name="frugal", weights={"cost": -1.0}))
        for mode, api in (("eco", "a.cheap"), ("fast", "a.fast")):
            layer.context.set("mode", mode)
            generated, reflective = _run_both_paths(
                layer, broker, [Command("op.pick")]
            )
            assert generated == reflective
            assert [call[0] for call in generated[1]] == [api]
        layer.stop()

    def test_refused_operations_take_the_reflective_scan(self):
        from repro.middleware.controller.handlers import Action
        from repro.middleware.synthesis.scripts import Command

        layer, broker, program = _controller_with([
            Action("plain", "op.plain", [{"api": "a.plain"}]),
            Action("guarded", "op.guarded", [{"api": "a.g"}], guard="on"),
            Action("callable", "op.callable",
                   lambda command, brk, context: brk.call_api("a.c")),
            Action("shadowed", "op.wild.x", [{"api": "a.x"}]),
            Action("wild", "op.wild.*", [{"api": "a.w"}]),
            Action("bad-expr", "op.bad", [{"api": "a.b",
                                           "args_expr": {"v": "open(1)"}}]),
            Action("object-arg", "op.object", [{"api": "a.o",
                                                "args": {"v": [1, 2]}}]),
        ], context={"on": True})
        assert set(program.ctl_actions) == {"op.plain"}
        assert program.ctl_skipped == (
            "op.bad", "op.callable", "op.guarded", "op.object", "op.wild.x",
        )
        commands = [Command(op) for op in (
            "op.plain", "op.guarded", "op.callable", "op.wild.x",
            "op.wild.y", "op.object",
        )]
        generated, reflective = _run_both_paths(layer, broker, commands)
        assert generated == reflective
        assert [api for api, _args in generated[1]] == [
            "a.plain", "a.g", "a.c", "a.x", "a.w", "a.o",
        ]
        layer.stop()

    def test_install_action_drops_the_table_and_the_cycle_regenerates(self):
        from repro.middleware.controller.handlers import Action

        _service, _dsk, platform = _comm_session()
        try:
            controller = platform.controller
            assert controller._aot_actions
            controller.install_action(Action(
                "act-custom", "comm.custom", [{"api": "ncb.open_session",
                                               "args_expr": {"connection": "c"}}],
            ))
            assert controller._aot_actions is None
            platform.run_model(_conference())  # the cycle's end regenerates
            assert "comm.custom" in controller._aot_actions
            assert (controller._aot_actions
                    == platform.synthesis.interpreter._aot.ctl_actions)
        finally:
            platform.stop()

    def test_controller_action_def_regenerates_at_batch_end(self):
        from repro.middleware.metamodel import dumps_json_attr
        from repro.middleware.synthesis.scripts import Command, ControlScript

        service, _dsk, platform = _comm_session()
        try:
            before = platform.synthesis.interpreter._aot
            edited = platform.reflect()
            controller_def = edited.objects_by_class("ControllerLayerDef")[0]
            action = edited.create(
                "ControllerActionDef", name="act-open-twice",
                pattern="comm.session.open_twice",
            )
            step = edited.create("ControllerStepDef", api="ncb.open_session")
            step.argsExprJson = dumps_json_attr({"connection": "connection"})
            action.steps.append(step)
            controller_def.actions.append(action)
            platform.apply_reflection(edited)
            # No synthesis cycle ran: the batch end regenerated.
            table = platform.controller._aot_actions
            assert "comm.session.open_twice" in table
            assert platform.synthesis.interpreter._aot is not before
            _action, fn = table["comm.session.open_twice"][0]
            assert fn is not None
            outcome = platform.run_script(ControlScript(commands=[
                Command("comm.session.open_twice", args={"connection": "c9"}),
            ]))
            assert outcome.ok
            assert outcome.broker_trace() == ["ncb.open_session(connection='c9')"]
            assert any("open_session" in line for line in service.op_log)
        finally:
            platform.stop()

    def test_broker_action_def_regenerates_on_a_broker_only_platform(self):
        from repro.domains.assembly import assemble_middleware_model
        from repro.domains.communication import dsk as comm_dsk

        service = CommService("net0", op_cost=0.0)
        platform = load_platform(
            assemble_middleware_model(
                "ncb-only", "communication", comm_dsk,
                with_ui=False, with_synthesis=False, with_controller=False,
            ),
            DomainKnowledge(dsml=cml_metamodel(), resources=[service]),
        )
        try:
            assert platform.synthesis is None and platform.controller is None
            before = platform.broker._aot_calls
            assert before
            edited = platform.reflect()
            broker_def = edited.objects_by_class("BrokerLayerDef")[0]
            action = edited.create(
                "BrokerActionDef", name="custom-flag", pattern="custom.flag",
            )
            action.steps.append(
                edited.create("StepDef", setKey="custom:flag", expr="1")
            )
            broker_def.actions.append(action)
            platform.apply_reflection(edited)
            calls = platform.broker._aot_calls
            assert calls is not None and "custom.flag" in calls
            assert calls is not before
            platform.broker.call_api("custom.flag")
            assert platform.broker.state.get("custom:flag") == 1
        finally:
            platform.stop()

    def test_command_histogram_counts_every_command(self):
        from repro.runtime.metrics import MetricsRegistry

        service = CommService("net0", op_cost=0.0)
        platform = load_platform(
            build_middleware_model(),
            DomainKnowledge(dsml=cml_metamodel(), resources=[service]),
            metrics=MetricsRegistry(),
        )
        try:
            controller = platform.controller
            controller.context.update(default_context())
            assert controller._aot_actions
            platform.run_model(_conference(extended=True))
            platform.run_model(_conference())
            metrics = platform.metrics
            commands = controller.commands_executed
            assert commands > 0
            assert controller.actions.executed == commands  # all Case 1
            sampled = sum(
                histogram.count
                for name, _op, histogram in metrics.histograms()
                if name == "controller.command"
            )
            counted = sum(
                value for name, _op, value in metrics.counters()
                if name == "controller.command"
            )
            assert sampled == counted == commands
            assert metrics.counter_value("controller.case", "actions") == commands
        finally:
            platform.stop()
