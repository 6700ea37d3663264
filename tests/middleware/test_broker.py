"""Unit tests for the Broker layer and its managers."""

import pytest

from repro.middleware.broker.actions import (
    ActionContext,
    BrokerAction,
    BrokerActionError,
    BrokerActionTable,
    EventBindingTable,
)
from repro.middleware.broker.autonomic import (
    AutonomicManager,
    ChangePlan,
    Symptom,
)
from repro.middleware.broker.layer import BrokerLayer
from repro.middleware.broker.resource import (
    CallableResource,
    ResourceError,
    ResourceManager,
)
from repro.middleware.broker.state import StateError, StateManager
from repro.modeling.expr import ExpressionError
from repro.runtime.events import EventBus


@pytest.fixture
def bus():
    return EventBus()


@pytest.fixture
def resources(bus):
    manager = ResourceManager(bus)
    manager.register(
        CallableResource(
            "dev0",
            {
                "ping": lambda: "pong",
                "add": lambda a, b: a + b,
                "boom": lambda: (_ for _ in ()).throw(RuntimeError("bang")),
            },
        )
    )
    return manager


@pytest.fixture
def state():
    return StateManager()


class TestResourceManager:
    def test_invoke(self, resources):
        assert resources.invoke("dev0", "ping") == "pong"
        assert resources.invoke("dev0", "add", a=1, b=2) == 3
        assert resources.invocations == 2

    def test_unknown_resource_and_operation(self, resources):
        with pytest.raises(ResourceError, match="no resource"):
            resources.invoke("ghost", "ping")
        with pytest.raises(ResourceError, match="no operation"):
            resources.invoke("dev0", "ghost_op")

    def test_duplicate_registration(self, resources):
        with pytest.raises(ResourceError, match="duplicate"):
            resources.register(CallableResource("dev0", {}))

    def test_resource_events_surface_on_bus(self, bus, resources):
        seen = []
        bus.subscribe("resource.*", seen.append)
        resources.get("dev0").notify("alert", level=3)
        assert len(seen) == 1
        assert seen[0].topic == "resource.dev0.alert"
        assert seen[0].payload["level"] == 3
        assert seen[0].payload["resource"] == "dev0"

    def test_deregister_detaches(self, bus, resources):
        device = resources.get("dev0")
        resources.deregister("dev0")
        seen = []
        bus.subscribe("resource.*", seen.append)
        device.notify("alert")
        assert seen == []

    def test_inventory(self, resources):
        inventory = resources.inventory()
        assert inventory[0]["name"] == "dev0"
        assert "ping" in inventory[0]["operations"]


class TestStateManager:
    def test_basic_ops(self, state):
        state.set("a", 1)
        state.increment("a", 4)
        assert state.get("a") == 5
        state.delete("a")
        assert state.get("a") is None

    def test_snapshot_restore(self, state):
        state.set("x", 1)
        state.snapshot()
        state.set("x", 2)
        state.set("y", 3)
        state.restore()
        assert state.get("x") == 1
        assert "y" not in state

    def test_nested_snapshots(self, state):
        state.set("v", 0)
        state.snapshot()
        state.set("v", 1)
        state.snapshot()
        state.set("v", 2)
        state.restore()   # back to v=1
        assert state.get("v") == 1
        state.restore()   # back to v=0
        assert state.get("v") == 0

    def test_drop_snapshot_commits(self, state):
        state.set("v", 1)
        state.snapshot()
        state.set("v", 2)
        state.drop_snapshot()
        with pytest.raises(StateError):
            state.restore()
        assert state.get("v") == 2

    def test_restore_without_snapshot(self, state):
        with pytest.raises(StateError):
            state.restore()

    def test_watchers_fire_on_restore(self, state):
        changes = []
        state.set("x", 1)
        state.watch(lambda k, old, new: changes.append((k, old, new)))
        state.snapshot()
        state.set("x", 9)
        state.restore()
        assert ("x", 9, 1) in changes

    def test_restore_by_index_pops_later_snapshots(self, state):
        state.set("v", 0)
        state.snapshot()          # index 0
        state.set("v", 1)
        state.snapshot()          # index 1
        state.set("v", 2)
        state.restore(0)
        assert state.get("v") == 0
        assert state.snapshot_count == 0

    def test_restore_index_type_checked(self, state):
        state.snapshot()
        with pytest.raises(StateError, match="must be an integer"):
            state.restore("latest")
        # bool is an int subclass but a nonsensical index — reject it.
        with pytest.raises(StateError, match="must be an integer"):
            state.restore(True)

    def test_restore_negative_index_rejected(self, state):
        state.snapshot()
        with pytest.raises(StateError, match="negative"):
            state.restore(-1)
        # the failed restore must not have consumed the snapshot
        assert state.snapshot_count == 1

    def test_restore_out_of_range_index_rejected(self, state):
        state.snapshot()
        with pytest.raises(StateError, match="no snapshot 3"):
            state.restore(3)
        assert state.snapshot_count == 1

    def test_drop_without_snapshot(self, state):
        with pytest.raises(StateError, match="no snapshot to drop"):
            state.drop_snapshot()

    def test_externalize_roundtrip_preserves_snapshot_stack(self, state):
        state.set("a", 1)
        state.snapshot()
        state.set("a", 2)
        doc = state.externalize()
        other = StateManager()
        other.restore_external(doc)
        assert other.get("a") == 2
        other.restore()
        assert other.get("a") == 1

    def test_restore_external_is_quiet(self, state):
        changes = []
        state.watch(lambda k, old, new: changes.append(k))
        state.restore_external({"values": {"a": 1}, "snapshots": []})
        assert state.get("a") == 1
        assert changes == []

    def test_restore_external_model_needs_metamodel(self, state):
        from repro.domains.communication.cml import CmlBuilder

        builder = CmlBuilder("m")
        builder.person("p1")
        state.install_model(builder.build())
        doc = state.externalize()
        with pytest.raises(StateError, match="metamodel"):
            StateManager().restore_external(doc)

    def test_externalize_model_slot_roundtrip(self, state):
        from repro.domains.communication.cml import CmlBuilder, cml_metamodel

        builder = CmlBuilder("m")
        builder.person("p1")
        state.install_model(builder.build())
        other = StateManager()
        other.restore_external(state.externalize(), metamodel=cml_metamodel())
        assert other.runtime_model is not None
        assert len(other.runtime_model) == len(state.runtime_model)


class TestBrokerActions:
    def test_declarative_resource_steps(self, resources, state):
        table = BrokerActionTable(resources, state)
        table.add("sum", "math.add", [
            {"resource": "dev0", "operation": "add",
             "args_expr": {"a": "x", "b": "y"}, "state": "last_sum"},
        ])
        assert table.dispatch("math.add", x=2, y=5) == 7
        assert state.get("last_sum") == 7

    def test_dynamic_state_key(self, resources, state):
        table = BrokerActionTable(resources, state)
        table.add("store", "kv.put", [
            {"resource": "dev0", "operation": "ping",
             "state_expr": "'result:' + key"},
        ])
        table.dispatch("kv.put", key="k1")
        assert state.get("result:k1") == "pong"

    def test_set_step(self, resources, state):
        table = BrokerActionTable(resources, state)
        table.add("count", "ctr.bump", [
            {"set": "n", "expr": "state.get('n', 0) + 1"},
        ])
        table.dispatch("ctr.bump")
        table.dispatch("ctr.bump")
        assert state.get("n") == 2

    def test_compute_step(self, resources, state):
        table = BrokerActionTable(resources, state)
        table.add("calc", "m.calc", [
            {"resource": "dev0", "operation": "add",
             "args": {"a": 1, "b": 2}, "result": "three"},
            {"compute": "three * 10"},
        ])
        # the compute step's value becomes the action value
        assert table.dispatch("m.calc") == 30

    def test_priority_selection(self, resources, state):
        table = BrokerActionTable(resources, state)
        table.add("generic", "op.*",
                  [{"set": "which", "expr": "'generic'"}], priority=0)
        table.add("special", "op.hot",
                  [{"set": "which", "expr": "'special'"}], priority=5)
        table.dispatch("op.hot")
        assert state.get("which") == "special"

    def test_guard(self, resources, state):
        table = BrokerActionTable(resources, state)
        table.add("guarded", "op", [{"set": "x", "expr": "1"}],
                  guard="enabled")
        with pytest.raises(BrokerActionError):
            table.dispatch("op", enabled=False)
        table.dispatch("op", enabled=True)
        assert state.get("x") == 1

    def test_unknown_api(self, resources, state):
        table = BrokerActionTable(resources, state)
        with pytest.raises(BrokerActionError, match="no broker action"):
            table.dispatch("nothing")

    def test_callable_action(self, resources, state):
        table = BrokerActionTable(resources, state)
        table.add("fn", "op", lambda ctx: ctx.args["v"] * 2)
        assert table.dispatch("op", v=21) == 42

    def test_malformed_step(self, resources, state):
        table = BrokerActionTable(resources, state)
        table.add("bad", "op", [{"operation": "ping"}])  # no resource
        with pytest.raises(BrokerActionError, match="needs resource"):
            table.dispatch("op")


    @pytest.mark.parametrize("bad_step, error", [
        ({"operation": "ping"}, BrokerActionError),
        ({"resource": "dev0", "operation": "ping",
          "args_expr": {"v": "1 +"}}, ExpressionError),
        ({"compute": "open('x')"}, ExpressionError),
    ])
    def test_malformed_later_step_refused_before_any_step_runs(
        self, resources, state, bad_step, error
    ):
        table = BrokerActionTable(resources, state)
        table.add("bad", "op", [{"set": "ran", "expr": "1"}, bad_step])
        with pytest.raises(error):
            table.dispatch("op")
        assert state.get("ran") is None
        assert resources.invocations == 0


class TestEventBindings:
    def test_binding_runs_action(self, resources, state):
        bindings = EventBindingTable(resources, state)
        action = BrokerAction(
            name="react", pattern="*",
            implementation=[{"set": "seen", "expr": "topic"}],
        )
        bindings.bind("resource.dev0.*", action)
        fired = bindings.dispatch("resource.dev0.alert", {"level": 1})
        assert fired == 1
        assert state.get("seen") == "resource.dev0.alert"

    def test_binding_guard(self, resources, state):
        bindings = EventBindingTable(resources, state)
        action = BrokerAction(
            name="react", pattern="*",
            implementation=[{"set": "count",
                             "expr": "state.get('count', 0) + 1"}],
        )
        bindings.bind("t", action, guard="level > 2")
        bindings.dispatch("t", {"level": 1})
        bindings.dispatch("t", {"level": 5})
        assert state.get("count") == 1

    def test_route_cache_invalidated_by_late_bind(self, resources, state):
        """A topic cached as unrouted must pick up bindings added
        afterwards (the per-topic route cache is dropped on bind)."""
        bindings = EventBindingTable(resources, state)
        assert bindings.dispatch("resource.dev0.alert", {}) == 0
        action = BrokerAction(
            name="react", pattern="*",
            implementation=[{"set": "seen", "expr": "topic"}],
        )
        bindings.bind("resource.dev0.*", action)
        assert bindings.dispatch("resource.dev0.alert", {}) == 1
        assert state.get("seen") == "resource.dev0.alert"


class TestAutonomicManager:
    @pytest.fixture
    def manager(self, resources, state):
        return AutonomicManager(resources, state)

    def test_event_symptom_fires_plan(self, manager, state):
        manager.add_symptom(
            Symptom(name="s", condition="severity > 1",
                    request_kind="fix", on_topic="resource.dev0.alert")
        )
        manager.add_plan(
            ChangePlan(name="p", request_kind="fix",
                       steps=[{"set": "fixed",
                               "expr": "state.get('fixed', 0) + 1"}])
        )
        assert manager.observe_event("resource.dev0.alert", {"severity": 3}) == 1
        assert manager.observe_event("resource.dev0.alert", {"severity": 0}) == 0
        assert manager.observe_event("resource.dev0.other", {"severity": 9}) == 0
        assert state.get("fixed") == 1
        assert manager.plans_executed == 1

    def test_state_symptom(self, manager, state):
        manager.add_symptom(
            Symptom(name="hot", condition="temp > 80", request_kind="cool")
        )
        manager.add_plan(
            ChangePlan(name="c", request_kind="cool",
                       steps=[{"set": "cooled", "expr": "True"}])
        )
        state.set("temp", 50)
        assert manager.observe_state() == 0
        state.set("temp", 99)
        assert manager.observe_state() == 1
        assert state.get("cooled") is True

    def test_unplanned_request_recorded(self, manager):
        manager.add_symptom(
            Symptom(name="s", condition="True", request_kind="mystery",
                    on_topic="t")
        )
        manager.observe_event("t", {})
        assert len(manager.unplanned_requests) == 1

    def test_cooldown(self, resources, state):
        clock = {"now": 0.0}
        manager = AutonomicManager(resources, state, now=lambda: clock["now"])
        manager.add_symptom(
            Symptom(name="s", condition="True", request_kind="r",
                    on_topic="t", cooldown=10.0)
        )
        assert manager.observe_event("t", {}) == 1
        assert manager.observe_event("t", {}) == 0  # within cooldown
        clock["now"] = 11.0
        assert manager.observe_event("t", {}) == 1

    def test_disabled_manager(self, manager):
        manager.enabled = False
        manager.add_symptom(
            Symptom(name="s", condition="True", request_kind="r", on_topic="t")
        )
        assert manager.observe_event("t", {}) == 0

    def test_plan_guard(self, manager, state):
        manager.add_symptom(
            Symptom(name="s", condition="True", request_kind="r", on_topic="t")
        )
        manager.add_plan(
            ChangePlan(name="guarded", request_kind="r",
                       steps=[{"set": "ran", "expr": "'guarded'"}],
                       guard="severity > 5")
        )
        manager.add_plan(
            ChangePlan(name="fallback", request_kind="r",
                       steps=[{"set": "ran", "expr": "'fallback'"}])
        )
        manager.observe_event("t", {"severity": 1})
        assert state.get("ran") == "fallback"
        manager.observe_event("t", {"severity": 9})
        assert state.get("ran") == "guarded"

    def test_callable_plan(self, manager):
        hits = []
        manager.add_symptom(
            Symptom(name="s", condition="True", request_kind="r", on_topic="t")
        )
        manager.add_plan(
            ChangePlan(name="fn", request_kind="r",
                       steps=lambda request, context: hits.append(request.kind))
        )
        manager.observe_event("t", {})
        assert hits == ["r"]


class TestBrokerLayer:
    @pytest.fixture
    def layer(self, bus):
        layer = BrokerLayer("broker", bus=bus)
        layer.configure({})
        layer.install_resource(
            CallableResource("dev0", {"ping": lambda: "pong"})
        )
        layer.install_action(
            BrokerAction(
                name="ping", pattern="api.ping",
                implementation=[{"resource": "dev0", "operation": "ping"}],
            )
        )
        layer.start()
        return layer

    def test_call_api(self, layer):
        assert layer.call_api("api.ping") == "pong"
        assert layer.api_calls == 1

    def test_requires_running(self, bus):
        layer = BrokerLayer("b2", bus=bus).configure({})
        with pytest.raises(Exception):
            layer.call_api("api.ping")

    def test_transactional_rollback(self, layer):
        layer.state.set("v", 1)
        layer.install_action(
            BrokerAction(
                name="mutate-fail", pattern="api.bad",
                implementation=[
                    {"set": "v", "expr": "2"},
                    {"resource": "ghost", "operation": "x"},
                ],
            )
        )
        with pytest.raises(Exception):
            layer.call_api("api.bad", _transactional=True)
        assert layer.state.get("v") == 1  # rolled back

    def test_event_forwarding_upward(self, layer):
        received = []

        class Upper:
            def receive_signal(self, signal):
                received.append(signal.topic)

        layer.stop()
        layer.wire("upward", Upper())
        layer.start()
        layer.resources.get("dev0").notify("fault", code=7)
        assert received == ["resource.dev0.fault"]
        assert layer.events_forwarded >= 1

    def test_stats(self, layer):
        layer.call_api("api.ping")
        stats = layer.stats()
        assert stats["api_calls"] == 1
        assert stats["resources"] == 1
