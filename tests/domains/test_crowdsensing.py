"""Tests for the mobile crowdsensing domain (CSML + CSVM)."""

import pytest

from repro.domains.crowdsensing import CSVM, QueryBuilder, csml_constraints
from repro.modeling.constraints import ConstraintRegistry, validate_model
from repro.modeling.serialize import clone_model
from repro.sim.fleet import DeviceFleet


@pytest.fixture
def fleet():
    fleet = DeviceFleet("fleet0", op_cost=0.0)
    for i in range(8):
        fleet.op_register_device(
            f"dev{i}", region="center" if i < 5 else "edge"
        )
    return fleet


@pytest.fixture
def vm(fleet):
    provider = CSVM(fleet=fleet)
    yield provider
    provider.stop()


class TestCsml:
    def test_valid_model(self):
        builder = QueryBuilder("air")
        builder.query("temp", "temperature")
        assert validate_model(builder.build(), csml_constraints()).ok

    def test_unknown_sensor_rejected(self):
        builder = QueryBuilder("air")
        builder.query("smell", "smell")
        assert not validate_model(builder.build(), csml_constraints()).ok

    def test_battery_range_invariant(self):
        builder = QueryBuilder("air")
        builder.query("t", "temperature", min_battery=150.0)
        assert not validate_model(builder.build(), csml_constraints()).ok

    def test_duplicate_query_names_rejected(self):
        builder = QueryBuilder("air")
        builder.query("t", "temperature")
        builder.query("t", "noise")
        assert not validate_model(builder.build(), csml_constraints()).ok


class TestProviderConfiguration:
    def test_no_ui_layer(self, vm):
        # models are created on mobile devices; the provider runs the
        # bottom three layers (Sec. IV-D)
        assert vm.platform.ui is None
        assert vm.platform.synthesis is not None
        assert vm.platform.controller is not None
        assert vm.platform.broker is not None


class TestSubmitValidation:
    def test_submit_validates_once_with_the_platform_registry(
        self, vm, monkeypatch
    ):
        checked = []
        validate = ConstraintRegistry.validate

        def spy(registry, *args, **kwargs):
            checked.append(registry)
            return validate(registry, *args, **kwargs)

        monkeypatch.setattr(ConstraintRegistry, "validate", spy)
        builder = QueryBuilder("air")
        builder.query("t", "temperature")
        vm.submit_model(builder.build())
        assert checked == [vm.platform.synthesis.constraints]

    def test_invalid_model_raises_value_error_before_synthesis(self, vm):
        builder = QueryBuilder("air")
        builder.query("t", "temperature", min_battery=150.0)
        with pytest.raises(ValueError, match="validation failed"):
            vm.submit_model(builder.build())
        assert vm.platform.synthesis.rejected == 0
        assert vm.platform.synthesis.cycles == 0


class TestQueryLifecycle:
    def test_start_distributes_task(self, vm, fleet):
        builder = QueryBuilder("air")
        query = builder.query("temp", "temperature")
        result = vm.submit_model(builder.build())
        assert result.script.operations() == ["cs.query.start"]
        assert all(
            query.id in d.active_tasks for d in fleet.devices.values()
        )

    def test_inactive_query_not_started(self, vm, fleet):
        builder = QueryBuilder("air")
        builder.query("later", "temperature", active=False)
        result = vm.submit_model(builder.build())
        assert result.script.empty

    def test_activate_later(self, vm, fleet):
        builder = QueryBuilder("air")
        query = builder.query("later", "temperature", active=False)
        vm.submit_model(builder.build())
        edited = clone_model(builder.build())
        edited.by_id(query.id).active = True
        result = vm.submit_model(edited)
        assert result.script.operations() == ["cs.query.start"]

    def test_on_the_fly_sensor_update(self, vm, fleet):
        builder = QueryBuilder("air")
        query = builder.query("q", "temperature")
        vm.submit_model(builder.build())
        edited = clone_model(builder.build())
        edited.by_id(query.id).sensor = "noise"
        result = vm.submit_model(edited)
        assert result.script.operations() == ["cs.query.update"]
        spec = fleet.devices["dev0"].active_tasks[query.id]
        assert spec["sensor"] == "noise"

    def test_pause_revokes(self, vm, fleet):
        builder = QueryBuilder("air")
        query = builder.query("q", "temperature")
        vm.submit_model(builder.build())
        edited = clone_model(builder.build())
        edited.by_id(query.id).active = False
        vm.submit_model(edited)
        assert query.id not in fleet.devices["dev0"].active_tasks

    def test_remove_stops(self, vm, fleet):
        builder = QueryBuilder("air")
        query = builder.query("q", "temperature")
        vm.submit_model(builder.build())
        edited = clone_model(builder.build())
        edited.roots[0].queries.remove(edited.by_id(query.id))
        result = vm.submit_model(edited)
        assert result.script.operations() == ["cs.query.stop"]
        assert query.id not in fleet.devices["dev0"].active_tasks


class TestCollection:
    @pytest.mark.parametrize("aggregate", ["mean", "max", "min", "count"])
    def test_aggregates(self, vm, aggregate):
        builder = QueryBuilder("air")
        query = builder.query("q", "temperature", aggregate=aggregate)
        vm.submit_model(builder.build())
        value = vm.collect(query)
        if aggregate == "count":
            assert value == 8
        else:
            assert isinstance(value, float)

    def test_aggregate_relationships(self, vm):
        builder = QueryBuilder("air")
        q_mean = builder.query("m", "temperature", aggregate="mean")
        q_max = builder.query("x", "temperature", aggregate="max")
        q_min = builder.query("n", "temperature", aggregate="min")
        vm.submit_model(builder.build())
        mean = vm.collect(q_mean)
        highest = vm.collect(q_max)
        lowest = vm.collect(q_min)
        assert lowest <= mean <= highest

    def test_collect_by_name(self, vm):
        builder = QueryBuilder("air")
        builder.query("named", "noise")
        vm.submit_model(builder.build())
        assert isinstance(vm.collect("named"), float)

    def test_collect_unknown_query(self, vm):
        builder = QueryBuilder("air")
        builder.query("q", "noise")
        vm.submit_model(builder.build())
        with pytest.raises(LookupError):
            vm.collect("ghost")

    def test_collect_without_model(self, fleet):
        provider = CSVM(fleet=fleet)
        with pytest.raises(LookupError, match="no campaign"):
            provider.collect("anything")
        provider.stop()

    def test_results_accumulate_via_events(self, vm):
        builder = QueryBuilder("air")
        query = builder.query("q", "temperature")
        vm.submit_model(builder.build())
        vm.collect(query)
        vm.collect(query)
        assert len(vm.results[query.id]) == 2
        assert all("value" in r for r in vm.results[query.id])

    def test_empty_round_returns_none(self, vm, fleet):
        builder = QueryBuilder("air")
        query = builder.query("q", "temperature", region="nowhere")
        vm.submit_model(builder.build())
        assert vm.collect(query) is None


class TestAdaptiveGathering:
    def test_battery_saver_samples_fewer_devices(self, vm, fleet):
        builder = QueryBuilder("air")
        query = builder.query("q", "temperature", aggregate="count")
        vm.submit_model(builder.build())
        full = vm.collect(query)
        assert full == 8
        # fleet battery collapses -> battery-saver policy flips gatherer
        vm.platform.controller.context.set("coverage_mode", "eco")
        vm.platform.controller.context.set("fleet_battery", 10.0)
        sampled = vm.collect(query)
        assert sampled == 4  # half the readings

    def test_refresh_fleet_context(self, vm, fleet):
        for device in fleet.devices.values():
            device.battery = 20.0
        status = vm.refresh_fleet_context()
        assert status["mean_battery"] == pytest.approx(20.0)
        assert vm.platform.controller.context.get("fleet_battery") == pytest.approx(20.0)

    def test_dropout_plan_updates_state(self, vm, fleet):
        builder = QueryBuilder("air")
        query = builder.query("q", "temperature")
        vm.submit_model(builder.build())
        fleet.drain_battery("dev0", 100.0)
        assert vm.platform.broker.state.get("dropouts") == 1
