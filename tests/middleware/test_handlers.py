"""Unit tests for Case 1/Case 2 handlers and command classification."""

import pytest

from repro.middleware.controller.dsc import DSCTaxonomy
from repro.middleware.controller.handlers import (
    Action,
    ActionHandler,
    CommandClassifier,
    EventHandler,
    HandlerError,
    IntentModelHandler,
)
from repro.middleware.controller.intent import IntentModelGenerator
from repro.middleware.controller.policy import ContextStore, Policy, PolicyEngine
from repro.middleware.controller.procedure import Procedure, ProcedureRepository
from repro.middleware.controller.stackmachine import StackMachine
from repro.middleware.synthesis.scripts import Command


class FakeBroker:
    def __init__(self):
        self.calls = []

    def call_api(self, api, **args):
        self.calls.append((api, args))
        return len(self.calls)


@pytest.fixture
def broker():
    return FakeBroker()


@pytest.fixture
def policies():
    return PolicyEngine(ContextStore({"mode": "normal"}))


class TestActionHandler:
    def test_callable_action(self, broker, policies):
        handler = ActionHandler(broker, policies)
        handler.add("act", "do.it",
                    lambda cmd, brk, ctx: brk.call_api("api.x", v=cmd.args["v"]))
        result = handler.handle(Command("do.it", args={"v": 7}))
        assert result.ok
        assert broker.calls == [("api.x", {"v": 7})]
        assert handler.executed == 1

    def test_declarative_action(self, broker, policies):
        handler = ActionHandler(broker, policies)
        handler.add("act", "do.it", [
            {"api": "api.a", "args": {"k": 1}},
            {"api": "api.b", "args_expr": {"doubled": "v * 2"}, "result": "r"},
        ])
        result = handler.handle(Command("do.it", args={"v": 5}))
        assert result.ok
        assert broker.calls == [("api.a", {"k": 1}), ("api.b", {"doubled": 10})]
        assert len(result.broker_calls) == 2  # trace recorded

    def test_pattern_matching(self, broker, policies):
        handler = ActionHandler(broker, policies)
        handler.add("wild", "stream.*", [{"api": "api.s"}])
        assert handler.can_handle(Command("stream.open"))
        assert handler.can_handle(Command("stream.close"))
        assert not handler.can_handle(Command("session.open"))

    def test_guarded_action(self, broker, policies):
        handler = ActionHandler(broker, policies)
        handler.add("guarded", "op", [{"api": "a"}], guard="mode == 'eco'")
        assert not handler.can_handle(Command("op"))
        policies.context.set("mode", "eco")
        assert handler.can_handle(Command("op"))

    def test_policy_scored_selection(self, broker, policies):
        policies.add(Policy(name="w", weights={"speed": 1.0}))
        handler = ActionHandler(broker, policies)
        handler.add("slow", "op", [{"api": "slow.api"}],
                    attributes={"speed": 1.0})
        handler.add("fast", "op", [{"api": "fast.api"}],
                    attributes={"speed": 9.0})
        handler.handle(Command("op"))
        assert broker.calls[0][0] == "fast.api"

    def test_register_returns_the_action(self, broker, policies):
        handler = ActionHandler(broker, policies)
        action = Action(name="a", pattern="op", implementation=[])
        assert handler.register(action) is action
        assert handler.add("b", "op", []).name == "b"

    def test_one_selection_from_given_candidates(self, broker, policies):
        policies.add(Policy(name="w", weights={"speed": 1.0}))
        handler = ActionHandler(broker, policies)
        slow = handler.add("slow", "op", [], attributes={"speed": 1.0})
        fast = handler.add("fast", "op", [], attributes={"speed": 9.0})
        tie = handler.add("tie", "op", [], attributes={"speed": 9.0})
        candidates = handler.candidates(Command("op"))
        assert [action for action, _fn in candidates] == [slow, fast, tie]
        decision = policies.decide("op")
        assert handler.select(candidates, decision)[0] is fast  # first on ties
        assert handler.select([], decision) is None

    def test_duplicate_action_rejected(self, broker, policies):
        handler = ActionHandler(broker, policies)
        handler.add("a", "op", [])
        with pytest.raises(HandlerError, match="duplicate"):
            handler.add("a", "other", [])

    def test_no_match_raises(self, broker, policies):
        handler = ActionHandler(broker, policies)
        with pytest.raises(HandlerError, match="no action"):
            handler.handle(Command("ghost.op"))

    def test_implementation_error_captured(self, broker, policies):
        handler = ActionHandler(broker, policies)

        def boom(cmd, brk, ctx):
            raise ValueError("domain error")

        handler.add("bad", "op", boom)
        result = handler.handle(Command("op"))
        assert result.status == "error"
        assert "domain error" in result.error

    def test_table_size_estimate(self, broker, policies):
        handler = ActionHandler(broker, policies)
        handler.add("a", "x", [{"api": "1"}, {"api": "2"}])
        handler.add("b", "y", lambda c, b, x: None)
        assert handler.table_size_estimate() == 3


class TestIntentModelHandler:
    @pytest.fixture
    def world(self, broker, policies):
        taxonomy = DSCTaxonomy("t")
        taxonomy.define("dsc.op")
        repo = ProcedureRepository(taxonomy)
        p = Procedure("p", "dsc.op")
        p.main.add("BROKER", api="api.deep", args_expr={"v": "v"})
        p.main.add("RETURN", value="done")
        repo.add(p)
        generator = IntentModelGenerator(repo, policies)
        machine = StackMachine(broker)
        return IntentModelHandler(
            generator, machine, classifier_map={"do.deep": "dsc.op"}
        )

    def test_handle_generates_and_executes(self, world, broker):
        result = world.handle(Command("do.deep", args={"v": 3}))
        assert result.ok and result.value == "done"
        assert broker.calls == [("api.deep", {"v": 3})]

    def test_explicit_classifier_wins(self, world):
        assert world.classifier_for(Command("whatever", classifier="dsc.op")) == "dsc.op"

    def test_pattern_map(self, world):
        world.classifier_map["do.*"] = "dsc.op"
        assert world.classifier_for(Command("do.other")) == "dsc.op"

    def test_fallback_to_operation_name(self, world):
        assert world.classifier_for(Command("unmapped.op")) == "unmapped.op"

    def test_can_handle(self, world):
        assert world.can_handle(Command("do.deep"))
        assert not world.can_handle(Command("nothing.here"))

    def test_unresolvable_raises_handler_error(self, world):
        with pytest.raises(HandlerError):
            world.handle(Command("nothing.here"))


def _classify(classifier, policies, command, *, actions, intent):
    """Classify under the decision the Controller takes for ``command``."""
    return classifier.classify(
        command,
        policies.decide(command.classifier or command.operation),
        action_available=actions,
        intent_available=lambda: intent,
    )


class TestCommandClassifier:
    def test_default_prefers_actions_when_available(self, policies):
        classifier = CommandClassifier()
        case = _classify(
            classifier, policies, Command("op"), actions=True, intent=True
        )
        assert case == "actions"

    def test_falls_through_to_available_side(self, policies):
        classifier = CommandClassifier()
        assert _classify(
            classifier, policies, Command("op"), actions=False, intent=True
        ) == "intent"
        assert _classify(
            classifier, policies, Command("op"), actions=True, intent=False
        ) == "actions"

    def test_policy_forces_case(self, policies):
        policies.add(Policy(name="f", force_case="intent"))
        classifier = CommandClassifier()
        case = _classify(
            classifier, policies, Command("op"), actions=True, intent=True
        )
        assert case == "intent"

    def test_override_pattern(self, policies):
        classifier = CommandClassifier(overrides={"special.*": "intent"})
        assert _classify(
            classifier, policies, Command("special.op"),
            actions=True, intent=True,
        ) == "intent"
        assert _classify(
            classifier, policies, Command("plain.op"),
            actions=True, intent=True,
        ) == "actions"

    def test_nothing_available_raises(self, policies):
        classifier = CommandClassifier()
        with pytest.raises(HandlerError, match="no handler"):
            _classify(
                classifier, policies, Command("op"),
                actions=False, intent=False,
            )

    def test_intent_default(self, policies):
        classifier = CommandClassifier(default_case="intent")
        assert _classify(
            classifier, policies, Command("op"), actions=True, intent=True
        ) == "intent"

    def test_bad_default_rejected(self, policies):
        with pytest.raises(HandlerError):
            CommandClassifier(default_case="magic")

    def test_intent_availability_asked_only_for_case_2(self, policies):
        asked = []

        def intent_available():
            asked.append(True)
            return True

        classifier = CommandClassifier()
        decision = policies.decide("op")
        assert classifier.classify(
            Command("op"), decision,
            action_available=True, intent_available=intent_available,
        ) == "actions"
        assert asked == []
        assert classifier.classify(
            Command("op"), decision,
            action_available=False, intent_available=intent_available,
        ) == "intent"
        assert asked == [True]


class TestEventHandler:
    def test_exact_and_wildcard_dispatch(self):
        handler = EventHandler()
        seen = []
        handler.on("a.b", lambda t, p: seen.append(("exact", t)))
        handler.on("a.*", lambda t, p: seen.append(("wild", t)))
        assert handler.dispatch("a.b", {}) == 2
        assert handler.dispatch("a.c", {}) == 1
        assert handler.dispatch("z", {}) == 0
        assert handler.handled == 2
        assert handler.unhandled == 1

    def test_payload_passed(self):
        handler = EventHandler()
        got = []
        handler.on("t", lambda t, p: got.append(p["k"]))
        handler.dispatch("t", {"k": 42})
        assert got == [42]
