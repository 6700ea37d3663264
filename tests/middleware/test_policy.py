"""Unit tests for policies and the context store."""

import pytest

from repro.middleware.controller.policy import (
    ContextStore,
    Policy,
    PolicyEngine,
    PolicyError,
)


class TestContextStore:
    def test_get_set_update_delete(self):
        ctx = ContextStore({"a": 1})
        assert ctx.get("a") == 1
        assert ctx.get("b", "dflt") == "dflt"
        ctx.set("b", 2)
        ctx.update({"c": 3})
        assert len(ctx) == 3
        ctx.delete("a")
        assert "a" not in ctx

    def test_watchers_fire_on_change(self):
        ctx = ContextStore()
        seen = []
        ctx.watch(lambda k, old, new: seen.append((k, old, new)))
        ctx.set("x", 1)
        ctx.set("x", 1)  # no-op: same value
        ctx.set("x", 2)
        ctx.delete("x")
        assert seen == [("x", None, 1), ("x", 1, 2), ("x", 2, None)]

    def test_fingerprint_stability(self):
        ctx = ContextStore({"a": 1, "b": [1, 2]})
        fp1 = ctx.fingerprint()
        fp2 = ctx.fingerprint()
        assert fp1 == fp2
        assert hash(fp1) == hash(fp2)  # hashable
        ctx.set("b", [1, 3])
        assert ctx.fingerprint() != fp1

    def test_fingerprint_subset(self):
        ctx = ContextStore({"a": 1, "noise": 99})
        fp = ctx.fingerprint(("a",))
        ctx.set("noise", 100)
        assert ctx.fingerprint(("a",)) == fp

    def test_fingerprint_freezes_nested(self):
        ctx = ContextStore({"d": {"x": [1, {2}]}})
        hash(ctx.fingerprint())  # must not raise


class TestPolicy:
    def test_activation_by_condition(self):
        p = Policy(name="p", condition="load > 0.5")
        assert p.active({"load": 0.9})
        assert not p.active({"load": 0.1})

    def test_missing_context_means_inactive(self):
        p = Policy(name="p", condition="missing_key == 1")
        assert not p.active({})

    def test_absent_context_key_is_inactive(self):
        p = Policy(name="p", condition="battery < 30")
        assert not p.active({"load": 0.5})
        assert p.active({"battery": 10})

    def test_raising_condition_handled_alike_by_both_evaluators(self):
        """Policy.active runs the compiled evaluator; a condition that
        raises fails the same way under the reference AST walker, so
        the policy is inactive either way."""
        from repro.modeling.expr import ExpressionError, compile_expression

        for condition, context in [
            ("1 / zero > 0", {"zero": 0}),
            ("ghost == 1", {}),
            ("limits['cap'] > 1", {"limits": {}}),
            ("len(count) > 1", {"count": 3}),
        ]:
            expression = compile_expression(condition)
            messages = []
            for evaluate in (expression.evaluate, expression.evaluate_fast):
                with pytest.raises(ExpressionError) as info:
                    evaluate(context)
                messages.append(str(info.value))
            assert messages[0] == messages[1], condition
            assert not Policy(name="p", condition=condition).active(context)

    def test_active_runs_the_compiled_evaluator(self, monkeypatch):
        from repro.modeling.expr import Expression

        def walker(self, context=None):
            raise AssertionError("reference AST walker on the hot path")

        monkeypatch.setattr(Expression, "evaluate", walker)
        assert Policy(name="p", condition="load > 0.5").active({"load": 0.9})

    def test_bad_condition_rejected(self):
        with pytest.raises(PolicyError):
            Policy(name="p", condition="import os")

    def test_bad_force_case_rejected(self):
        with pytest.raises(PolicyError):
            Policy(name="p", force_case="maybe")

    def test_concerns_prefix(self):
        p = Policy(name="p", applies_to="comm.stream")
        assert p.concerns("comm.stream.open")
        assert not p.concerns("comm.session")
        assert Policy(name="q").concerns("anything")


class TestPolicyEngine:
    @pytest.fixture
    def engine(self) -> PolicyEngine:
        engine = PolicyEngine(ContextStore({"load": 0.2, "mode": "eco"}))
        engine.add(Policy(name="base", weights={"cost": -1.0}))
        engine.add(
            Policy(
                name="eco",
                condition="mode == 'eco'",
                weights={"battery": 10.0},
                priority=1,
            )
        )
        engine.add(
            Policy(
                name="panic",
                condition="load > 0.9",
                force_case="actions",
                prefer={"fast_proc": 100.0},
                priority=5,
            )
        )
        return engine

    def test_weights_accumulate(self, engine):
        decision = engine.decide()
        assert decision.weights == {"cost": -1.0, "battery": 10.0}
        assert decision.force_case is None
        assert decision.active_policies == ["base", "eco"]

    def test_inactive_policy_excluded(self, engine):
        engine.context.set("mode", "normal")
        decision = engine.decide()
        assert "battery" not in decision.weights

    def test_force_case_from_high_priority(self, engine):
        engine.context.set("load", 0.95)
        decision = engine.decide()
        assert decision.force_case == "actions"
        assert decision.prefer == {"fast_proc": 100.0}

    def test_scoring(self, engine):
        decision = engine.decide()
        low_cost = decision.score({"cost": 1.0, "battery": 0.0})
        high_cost = decision.score({"cost": 5.0, "battery": 0.0})
        assert low_cost > high_cost
        named = decision.score({}, "fast_proc")
        assert named == 0.0  # panic inactive at low load

    def test_score_handles_non_numeric(self, engine):
        decision = engine.decide()
        assert decision.score({"cost": "expensive"}) == pytest.approx(
            decision.score({})
        )

    def test_score_booleans(self):
        engine = PolicyEngine()
        engine.add(Policy(name="b", weights={"adaptive": 2.0}))
        decision = engine.decide()
        assert decision.score({"adaptive": True}) == 2.0
        assert decision.score({"adaptive": False}) == 0.0

    def test_applies_to_filters(self):
        engine = PolicyEngine()
        engine.add(Policy(name="scoped", applies_to="grid.",
                          weights={"x": 1.0}))
        assert engine.decide("grid.balance").weights == {"x": 1.0}
        assert engine.decide("comm.open").weights == {}

    def test_duplicate_policy_rejected(self, engine):
        with pytest.raises(PolicyError, match="duplicate"):
            engine.add(Policy(name="base"))

    def test_remove(self, engine):
        engine.remove("base")
        assert "cost" not in engine.decide().weights
        with pytest.raises(PolicyError):
            engine.remove("base")

    def test_relevant_context_keys(self, engine):
        keys = engine.relevant_context_keys()
        assert set(keys) == {"mode", "load"}
