"""Unit tests for the Synthesis layer (comparator, interpreter, engine)."""

import pytest

from repro.middleware.synthesis.comparator import ComparatorError, ModelComparator
from repro.middleware.synthesis.dispatcher import Dispatcher
from repro.middleware.synthesis.engine import SynthesisEngine, SynthesisError
from repro.middleware.synthesis.interpreter import (
    ChangeInterpreter,
    EntityRule,
    InterpreterError,
)
from repro.modeling.constraints import ConstraintRegistry
from repro.modeling.lts import LTS
from repro.modeling.meta import Metamodel
from repro.modeling.model import Model
from repro.modeling.serialize import clone_model


@pytest.fixture
def dsml() -> Metamodel:
    mm = Metamodel("toyml")
    app = mm.new_class("App")
    app.attribute("name", "string", required=True)
    app.reference("services", "Service", containment=True, many=True)
    service = mm.new_class("Service")
    service.attribute("name", "string", required=True)
    service.attribute("replicas", "int", default=1)
    return mm.resolve()


def service_rule() -> EntityRule:
    lts = LTS("service-rule")
    lts.add_transition(
        "initial", "add", "running",
        actions=(
            {"operation": "svc.deploy",
             "args_expr": {"svc": "obj.id", "n": "replicas"}},
        ),
    )
    lts.add_transition(
        "running", "set:replicas", "running",
        actions=(
            {"operation": "svc.scale",
             "args_expr": {"svc": "object_id", "n": "new"}},
        ),
    )
    lts.add_transition(
        "running", "remove", "initial",
        actions=({"operation": "svc.undeploy",
                  "args_expr": {"svc": "object_id"}},),
    )
    return EntityRule("Service", lts)


def app_rule() -> EntityRule:
    lts = LTS("app-rule")
    lts.add_transition("initial", "add", "up")
    lts.add_transition("up", "remove", "initial")
    lts.add_transition("up", "set:name", "up")
    return EntityRule("App", lts)


class TestComparator:
    def test_none_is_empty_model(self, dsml):
        comparator = ModelComparator(dsml)
        model = Model(dsml, name="m")
        model.create_root("App", name="a")
        changes = comparator.compare(None, model)
        assert len(changes.by_kind("add")) == 1
        assert comparator.comparisons == 1

    def test_metamodel_mismatch(self, dsml):
        comparator = ModelComparator(dsml)
        other = Metamodel("other")
        other.new_class("X")
        other.resolve()
        with pytest.raises(ComparatorError):
            comparator.compare(None, Model(other, name="x"))


class TestInterpreter:
    def make(self, dsml, strict=False):
        interpreter = ChangeInterpreter(strict=strict)
        interpreter.add_rule(service_rule())
        interpreter.add_rule(app_rule())
        comparator = ModelComparator(dsml)
        return interpreter, comparator

    def test_add_emits_deploy(self, dsml):
        interpreter, comparator = self.make(dsml)
        model = Model(dsml, name="m")
        app = model.create_root("App", name="a")
        svc = model.create("Service", name="s", replicas=3)
        app.services.append(svc)
        script = interpreter.interpret(comparator.compare(None, model))
        assert script.operations() == ["svc.deploy"]
        assert script.commands[0].args == {"svc": svc.id, "n": 3}
        assert interpreter.entity_state(svc.id) == "running"

    def test_update_and_remove_lifecycle(self, dsml):
        interpreter, comparator = self.make(dsml)
        v1 = Model(dsml, name="m")
        app = v1.create_root("App", name="a")
        svc = v1.create("Service", name="s")
        app.services.append(svc)
        interpreter.interpret(comparator.compare(None, v1))

        v2 = clone_model(v1)
        v2.by_id(svc.id).replicas = 5
        script2 = interpreter.interpret(comparator.compare(v1, v2))
        assert script2.operations() == ["svc.scale"]
        assert script2.commands[0].args["n"] == 5

        v3 = clone_model(v2)
        v3_app = v3.by_id(app.id)
        v3_app.services.remove(v3.by_id(svc.id))
        script3 = interpreter.interpret(comparator.compare(v2, v3))
        assert script3.operations() == ["svc.undeploy"]
        assert interpreter.entity_state(svc.id) is None  # cleaned up

    def test_unmatched_change_ignored_by_default(self, dsml):
        interpreter, comparator = self.make(dsml)
        v1 = Model(dsml, name="m")
        app = v1.create_root("App", name="a")
        interpreter.interpret(comparator.compare(None, v1))
        v2 = clone_model(v1)
        v2.by_id(app.id).name = "renamed"
        script = interpreter.interpret(comparator.compare(v1, v2))
        assert script.empty  # set:name transition emits nothing

    def test_strict_mode_requires_rules(self, dsml):
        interpreter = ChangeInterpreter(strict=True)
        interpreter.add_rule(app_rule())  # no Service rule
        comparator = ModelComparator(dsml)
        model = Model(dsml, name="m")
        app = model.create_root("App", name="a")
        app.services.append(model.create("Service", name="s"))
        with pytest.raises(InterpreterError, match="no synthesis rule"):
            interpreter.interpret(comparator.compare(None, model))

    def test_on_unmatched_error(self, dsml):
        lts = LTS("svc")
        lts.add_transition("initial", "add", "running")
        interpreter = ChangeInterpreter()
        interpreter.add_rule(EntityRule("Service", lts, on_unmatched="error"))
        comparator = ModelComparator(dsml)
        v1 = Model(dsml, name="m")
        app = v1.create_root("App", name="a")
        svc = v1.create("Service", name="s")
        app.services.append(svc)
        # App has no rule -> ignored; Service add matches
        with pytest.raises(InterpreterError):
            # set:replicas has no transition -> error mode raises
            v2 = clone_model(v1)
            interpreter.interpret(comparator.compare(None, v1))
            v2.by_id(svc.id).replicas = 9
            interpreter.interpret(comparator.compare(v1, v2))

    def test_foreach_command_expansion(self, dsml):
        lts = LTS("svc")
        lts.add_transition(
            "initial", "add", "running",
            actions=(
                {"operation": "unit.start", "foreach": "[1, 2, 3]",
                 "args_expr": {"index": "item"}},
            ),
        )
        interpreter = ChangeInterpreter()
        interpreter.add_rule(EntityRule("Service", lts))
        comparator = ModelComparator(dsml)
        model = Model(dsml, name="m")
        app = model.create_root("App", name="a")
        app.services.append(model.create("Service", name="s"))
        script = interpreter.interpret(comparator.compare(None, model))
        assert script.operations() == ["unit.start"] * 3
        assert [c.args["index"] for c in script] == [1, 2, 3]

    def test_when_filter_on_templates(self, dsml):
        lts = LTS("svc")
        lts.add_transition(
            "initial", "add", "running",
            actions=(
                {"operation": "only.large", "when": "replicas > 2"},
            ),
        )
        interpreter = ChangeInterpreter()
        interpreter.add_rule(EntityRule("Service", lts))
        comparator = ModelComparator(dsml)
        model = Model(dsml, name="m")
        app = model.create_root("App", name="a")
        app.services.append(model.create("Service", name="small", replicas=1))
        app.services.append(model.create("Service", name="big", replicas=5))
        script = interpreter.interpret(comparator.compare(None, model))
        assert script.operations() == ["only.large"]

    def test_duplicate_rule_rejected(self, dsml):
        interpreter = ChangeInterpreter()
        interpreter.add_rule(app_rule())
        with pytest.raises(InterpreterError, match="duplicate"):
            interpreter.add_rule(app_rule())

    @pytest.mark.parametrize("template, match", [
        ({"args": {"id": 1}}, "missing operation"),
        ({"operation": "svc.deploy", "args_expr": {"n": "replicas +"}},
         "bad template expression"),
        ({"operation": "svc.deploy", "when": "open('x')"},
         "bad template expression"),
        ({"operation": "svc.deploy", "foreach": "[1,"},
         "bad template expression"),
    ])
    def test_malformed_template_refused_at_rule_construction(
        self, template, match
    ):
        """Every template is checked when its rule is built, before
        any change could reach it (first-fire templates included)."""
        lts = LTS("svc")
        lts.add_transition(
            "initial", "add", "running",
            actions=({"operation": "svc.ok", "args_expr": {"id": "obj.id"}},),
        )
        lts.add_transition("running", "remove", "initial", actions=(template,))
        with pytest.raises(InterpreterError, match=match):
            EntityRule("Service", lts)

    def test_event_hooks(self):
        interpreter = ChangeInterpreter()
        seen = []
        interpreter.on_event("controller.*", lambda t, p: seen.append(t))
        assert interpreter.handle_event("controller.failed", {}) == 1
        assert interpreter.handle_event("other.topic", {}) == 0
        assert seen == ["controller.failed"]


class TestDispatcher:
    def test_promote_clones_and_notifies(self, dsml):
        dispatcher = Dispatcher()
        received = []
        dispatcher.on_model_update(received.append)
        model = Model(dsml, name="m")
        model.create_root("App", name="a")
        runtime = dispatcher.promote(model)
        assert received == [runtime]
        # later user edits don't touch the runtime model
        model.roots[0].name = "changed"
        assert runtime.roots[0].name == "a"

    def test_clear(self, dsml):
        dispatcher = Dispatcher()
        dispatcher.promote(Model(dsml, name="m"))
        dispatcher.clear()
        assert dispatcher.runtime_model is None


class TestSynthesisEngine:
    @pytest.fixture
    def engine(self, dsml) -> SynthesisEngine:
        constraints = ConstraintRegistry()
        constraints.invariant(
            "replicas-positive", "Service", "self.replicas >= 1"
        )
        engine = SynthesisEngine(
            metamodel=dsml, constraints=constraints
        )
        engine.add_rules([service_rule(), app_rule()])
        engine.configure({})
        engine.start()
        return engine

    def make_model(self, dsml, replicas=2) -> Model:
        model = Model(dsml, name="v1")
        app = model.create_root("App", name="a")
        app.services.append(
            model.create("Service", name="s", replicas=replicas)
        )
        return model

    def test_full_cycle(self, dsml, engine):
        result = engine.synthesize(self.make_model(dsml))
        assert result.script.operations() == ["svc.deploy"]
        assert engine.dispatcher.runtime_model is not None
        assert engine.cycles == 1
        assert not result.no_op

    def test_invalid_model_rejected(self, dsml, engine):
        with pytest.raises(SynthesisError, match="rejected"):
            engine.synthesize(self.make_model(dsml, replicas=0))
        assert engine.rejected == 1
        assert engine.dispatcher.runtime_model is None

    def test_incremental_cycle(self, dsml, engine):
        first = engine.synthesize(self.make_model(dsml))
        updated = clone_model(first.accepted_model)
        next(iter(updated.objects_by_class("Service"))).replicas = 7
        second = engine.synthesize(updated)
        assert second.script.operations() == ["svc.scale"]

    def test_no_op_resubmission(self, dsml, engine):
        first = engine.synthesize(self.make_model(dsml))
        again = engine.synthesize(clone_model(first.accepted_model))
        assert again.no_op
        assert again.script.empty

    def test_script_submitted_downward(self, dsml):
        submitted = []

        class FakeController:
            def submit_script(self, script):
                submitted.append(script)

        engine = SynthesisEngine(metamodel=dsml)
        engine.add_rules([service_rule(), app_rule()])
        engine.wire("downward", FakeController())
        engine.configure({})
        engine.start()
        engine.synthesize(self.make_model(dsml))
        assert len(submitted) == 1

    def test_teardown_script(self, dsml, engine):
        engine.synthesize(self.make_model(dsml))
        result = engine.teardown_script()
        assert result.script.operations() == ["svc.undeploy"]
        assert engine.dispatcher.runtime_model is None

    def test_negotiator_hook(self, dsml, engine):
        def negotiator(model):
            for svc in model.objects_by_class("Service"):
                svc.replicas = 1  # remote party caps replicas
            return model

        engine.negotiator = negotiator
        result = engine.synthesize(self.make_model(dsml, replicas=50))
        assert result.script.commands[0].args["n"] == 1

    def test_stats(self, dsml, engine):
        engine.synthesize(self.make_model(dsml))
        stats = engine.stats()
        assert stats["cycles"] == 1
        assert stats["commands_emitted"] == 1


class TestEventHookAggregation:
    def test_raising_hook_does_not_starve_later_hooks(self):
        """Regression: one raising DSK hook used to prevent every hook
        registered after it from seeing the event."""
        from repro.runtime.events import EventDeliveryError

        interpreter = ChangeInterpreter()
        calls = []

        def bad(topic, payload):
            calls.append("bad")
            raise RuntimeError("boom")

        interpreter.on_event("net.*", bad)
        interpreter.on_event("net.*", lambda t, p: calls.append("good"))
        with pytest.raises(EventDeliveryError) as excinfo:
            interpreter.handle_event("net.down", {"session": "s1"})
        assert calls == ["bad", "good"]
        assert len(excinfo.value.errors) == 1
        assert isinstance(excinfo.value.errors[0], RuntimeError)

    def test_match_count_and_no_match(self):
        interpreter = ChangeInterpreter()
        seen = []
        interpreter.on_event("net.*", lambda t, p: seen.append(t))
        assert interpreter.handle_event("net.down", {}) == 1
        assert interpreter.handle_event("power.low", {}) == 0
        assert seen == ["net.down"]

    def test_hook_patterns_use_segment_semantics(self):
        # Regression: "session*" hooks used to fire on "sessions.closed".
        interpreter = ChangeInterpreter()
        seen = []
        interpreter.on_event("session*", lambda t, p: seen.append(t))
        interpreter.handle_event("sessions", {})
        interpreter.handle_event("sessions.closed", {})
        assert seen == ["sessions"]


class TestScriptForwardedAsSignal:
    def test_downward_submission_is_a_traced_call(self, dsml):
        """Scripts travel to the Controller as Call signals carrying
        the script payload (layer-to-layer causality)."""
        from repro.runtime.events import Call

        received = []

        class FakeController:
            def receive_signal(self, signal):
                received.append(signal)

        engine = SynthesisEngine(metamodel=dsml)
        engine.add_rules([service_rule(), app_rule()])
        engine.wire("downward", FakeController())
        engine.configure({})
        engine.start()
        engine.synthesize(TestSynthesisEngine().make_model(dsml))
        assert len(received) == 1
        signal = received[0]
        assert isinstance(signal, Call)
        assert signal.topic == "synthesis.script"
        assert signal.payload["script"].operations()
        assert signal.origin == engine.name


class TestScriptForwardedToBusPort:
    def test_bus_downward_port_receives_one_batch(self, dsml):
        """When the downward port is an EventBus (distributed wiring),
        the script travels as one batch: a script-level Call plus one
        derived Call per command, all sharing the script's trace."""
        from repro.runtime.events import Call, EventBus

        bus = EventBus(name="downlink")
        scripts = []
        commands = []
        bus.subscribe("synthesis.script", scripts.append)
        bus.subscribe("synthesis.script.command", commands.append)

        engine = SynthesisEngine(metamodel=dsml)
        engine.add_rules([service_rule(), app_rule()])
        engine.wire("downward", bus)
        engine.configure({})
        engine.start()
        engine.synthesize(TestSynthesisEngine().make_model(dsml))

        assert len(scripts) == 1
        root = scripts[0]
        assert isinstance(root, Call)
        script = root.payload["script"]
        assert len(commands) == len(list(script))
        for signal, command in zip(commands, script):
            assert signal.payload["script_id"] == script.script_id
            assert signal.payload["operation"] == command.operation
            assert signal.payload["args"] == dict(command.args)
            assert signal.parent_seq == root.seq
            assert signal.trace_id == root.trace_id
