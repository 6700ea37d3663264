"""DSK-registry worker backend: in-process contract tests."""

import pytest

from repro.middleware.cluster import (
    ClusterBackendError,
    DskRegistry,
    RegistryBackend,
    default_backend,
    platform_dsk_hash,
)


@pytest.fixture()
def backend():
    target = default_backend()
    yield target
    for session in list(target.sessions):
        target.close(session)


def _checkpoint(session, capture):
    """The lone checkpoint frame a live move hands ``adopt``."""
    return [{"k": "checkpoint", "session": session, "snapshot": capture}]


def _comm_workload(target, session):
    target.apply(session, {"op": "api", "api": "ncb.open_session",
                           "args": {"connection": "c1"}})
    target.apply(session, {"op": "api", "api": "ncb.add_party",
                           "args": {"connection": "c1", "party": "p1"}})


class TestRegistryBackend:
    def test_registry_lists_four_domains(self, backend):
        assert backend.registry.names() == [
            "communication", "crowdsensing", "microgrid", "smartspace",
        ]

    def test_unknown_domain_refused(self, backend):
        with pytest.raises(ClusterBackendError, match="not in DSK registry"):
            backend.open("s1", {"domain": "no-such-domain"})

    def test_open_reports_dsk_hash(self, backend):
        opened = backend.open("s1", {"domain": "communication"})
        assert opened["domain"] == "communication"
        assert len(opened["dsk_hash"]) == 64
        host = backend.sessions["s1"]
        assert opened["dsk_hash"] == platform_dsk_hash(host.platform)

    def test_double_open_refused(self, backend):
        backend.open("s1", {"domain": "communication"})
        with pytest.raises(ClusterBackendError, match="already open"):
            backend.open("s1", {"domain": "communication"})

    def test_apply_and_describe(self, backend):
        backend.open("s1", {"domain": "communication", "autonomic": False})
        _comm_workload(backend, "s1")
        op_logs = backend.describe("s1")["op_logs"]
        assert list(op_logs) == ["net0"]
        assert op_logs["net0"]  # the workload left a visible trace

    def test_describe_reports_adoption_replay_bytes(self, tmp_path):
        """``describe`` shows the tail a standby would replay and the
        checkpoint it would restore, from the cadence rule's counters."""
        from repro.runtime.durability import DurabilityPolicy
        from repro.runtime.wal import decode_frame

        durable = RegistryBackend(durability=DurabilityPolicy(
            mode="wal", log_root=str(tmp_path), fsync=False))
        durable.enable_durability()
        try:
            durable.open("s1", {"domain": "communication",
                                "autonomic": False})
            (base,) = durable.ship_tail()
            opened = durable.describe("s1")
            assert opened["tail_bytes"] == 0
            assert opened["checkpoint_bytes"] == len(base)
            _comm_workload(durable, "s1")
            tail = durable.ship_tail()
            assert ([decode_frame(frame)["k"] for frame in tail]
                    == ["entry", "applied"] * 2)
            worked = durable.describe("s1")
            assert worked["tail_bytes"] == sum(len(frame) for frame in tail)
            assert worked["checkpoint_bytes"] == opened["checkpoint_bytes"]
        finally:
            durable.close("s1")
            durable.shutdown()

    def test_describe_without_durability_reports_no_replay(self, backend):
        backend.open("s1", {"domain": "communication", "autonomic": False})
        _comm_workload(backend, "s1")
        described = backend.describe("s1")
        assert (described["tail_bytes"], described["checkpoint_bytes"]) == (
            0, 0)

    def test_capture_restore_resumes_exactly(self, backend):
        backend.open("s1", {"domain": "communication", "autonomic": False})
        _comm_workload(backend, "s1")
        mid_log = backend.describe("s1")["op_logs"]["net0"]
        doc = backend.drop("s1")
        assert doc["domain"] == "communication"
        assert doc["dsk_hash"]
        assert doc["services"]["net0"]["op_log"] == mid_log
        assert "s1" not in backend.sessions

        report = backend.adopt("s1", _checkpoint("s1", doc))
        assert report["replayed"] == 0 and report["errors"] == []
        assert backend.describe("s1")["op_logs"]["net0"] == mid_log
        # The restored session keeps working (state, not just logs).
        backend.apply("s1", {"op": "api", "api": "ncb.add_party",
                             "args": {"connection": "c1", "party": "p2"}})
        assert len(backend.describe("s1")["op_logs"]["net0"]) > len(mid_log)

    def test_restore_refuses_hash_mismatch(self, backend):
        backend.open("s1", {"domain": "communication"})
        doc = backend.drop("s1")
        doc["dsk_hash"] = "0" * 64
        with pytest.raises(ClusterBackendError, match="hash mismatch"):
            backend.adopt("s1", _checkpoint("s1", doc))
        assert "s1" not in backend.sessions

    def test_run_model_op(self, backend):
        from repro.domains.assembly import domain_cases
        from repro.modeling.serialize import model_to_dict

        case = {c.name: c for c in domain_cases()}["microgrid"]
        backend.open("s1", {"domain": "microgrid"})
        result = backend.apply(
            "s1", {"op": "run_model", "model": model_to_dict(case.phase1())}
        )
        assert result == {"ran": "home"}
        assert backend.describe("s1")["op_logs"]["plant0"]

    def test_capture_restore_all_domains(self, backend):
        from repro.domains.assembly import domain_cases
        from repro.modeling.serialize import model_to_dict

        for case in domain_cases():
            key = f"{case.name}-s"
            backend.open(key, {"domain": case.name})
            backend.apply(key, {
                "op": "run_model", "model": model_to_dict(case.phase1()),
            })
            before = backend.describe(key)["op_logs"]
            backend.adopt(key, _checkpoint(key, backend.drop(key)))
            assert backend.describe(key)["op_logs"] == before

    def test_configure_sets_worker_id(self):
        target = RegistryBackend(DskRegistry([]))
        target.configure(3, {"durability": "off"})
        assert target.worker_id == 3
        assert target.durability is None

    def test_dsk_hash_tracks_edits_and_regeneration(self, backend):
        from repro.domains.assembly import domain_cases
        from repro.middleware.broker.actions import BrokerAction
        from repro.modeling.aotgen import dsk_fingerprint, dsk_hash
        from repro.modeling.serialize import model_to_dict

        backend.open("s1", {"domain": "communication"})
        platform = backend.sessions["s1"].platform

        interpreter = platform.synthesis.interpreter

        def recomputed():
            return dsk_hash(dsk_fingerprint(
                rules=interpreter._rules,
                actions=list(platform.broker.calls._actions),
                dsml=platform.dsml,
                controller_actions=list(platform.controller.actions._actions),
            ))

        before = interpreter._aot.dsk_hash
        assert platform_dsk_hash(platform) == recomputed() == before
        platform.broker.install_action(BrokerAction(
            name="custom.noop", pattern="custom.noop",
            implementation=[{"set": "custom:flag", "expr": "1"}],
        ))
        assert platform.broker._aot_calls is None  # the edit dropped it
        edited = platform_dsk_hash(platform)
        assert edited == recomputed() != before
        case = next(c for c in domain_cases() if c.name == "communication")
        backend.apply("s1", {"op": "run_model",
                             "model": model_to_dict(case.phase1())})
        assert interpreter._aot.dsk_hash == edited  # regenerated
        assert platform_dsk_hash(platform) == recomputed()

    def test_unknown_op_refused(self, backend):
        backend.open("s1", {"domain": "communication"})
        with pytest.raises(ClusterBackendError, match="unknown session op"):
            backend.apply("s1", {"op": "frobnicate"})

    def test_apply_unknown_session_refused(self, backend):
        with pytest.raises(ClusterBackendError, match="not open"):
            backend.apply("ghost", {"op": "noop"})


class TestServiceStateRoundTrip:
    """export_state/import_state on every simulated service."""

    def test_comm_service(self):
        from repro.sim.network import CommService

        service = CommService("net0", op_cost=0.0)
        sid = service.op_open_session("alice", ["alice", "bob"])
        service.op_open_stream(sid, medium="audio", quality="high")
        doc = service.export_state()

        clone = CommService("net0", op_cost=0.0)
        clone.import_state(doc)
        assert clone.op_log == service.op_log
        # Counters continue, not restart: new ids must not collide.
        sid2 = clone.op_open_session("carol", ["carol"])
        assert sid2 != sid

    def test_plant_controller(self):
        from repro.sim.plant import PlantController

        service = PlantController("plant0", op_cost=0.0)
        service.op_register_device("heater", "load", 300.0)
        service.op_set_mode("heater", "on")
        doc = service.export_state()
        clone = PlantController("plant0", op_cost=0.0)
        clone.import_state(doc)
        assert clone.op_log == service.op_log
        assert clone.devices.keys() == service.devices.keys()

    def test_smart_space(self):
        from repro.sim.space import SmartSpace

        service = SmartSpace("space0", op_cost=0.0)
        service.op_register_object("lamp1", "lamp", {"light": 0})
        doc = service.export_state()
        clone = SmartSpace("space0", op_cost=0.0)
        clone.import_state(doc)
        assert clone.op_log == service.op_log

    def test_device_fleet(self):
        from repro.sim.fleet import DeviceFleet

        service = DeviceFleet("fleet0", op_cost=0.0)
        for index in range(3):
            service.op_register_device(f"d{index}")
        service.op_distribute_task("t1", "temperature")
        doc = service.export_state()
        clone = DeviceFleet("fleet0", op_cost=0.0)
        clone.import_state(doc)
        assert clone.op_log == service.op_log
