"""Unit tests for session snapshots (PR 5 tentpole).

Covers the snapshot document format, capture/apply round trips and
cold restore via the loader.
"""

import pytest

from repro.domains.communication.cml import CmlBuilder, cml_metamodel
from repro.domains.communication.cvm import (
    build_middleware_model,
    default_context,
)
from repro.middleware.loader import DomainKnowledge, load_platform
from repro.middleware.snapshot import (
    SessionSnapshot,
    apply_snapshot,
    capture_snapshot,
    restore_platform,
)
from repro.modeling.serialize import SerializationError
from repro.runtime.external import ExternalizeError, StateExternalizer
from repro.sim.network import CommService


def fresh_session():
    service = CommService("net0", op_cost=0.0)
    dsk = DomainKnowledge(dsml=cml_metamodel(), resources=[service])
    platform = load_platform(build_middleware_model(), dsk)
    platform.controller.context.update(default_context())
    return service, dsk, platform


def conference_model(*, extended=False):
    builder = CmlBuilder("conference")
    alice = builder.person("alice", role="initiator")
    bob = builder.person("bob")
    builder.connection("c1", [alice, bob], media=["audio"])
    if extended:
        carol = builder.person("carol")
        builder.connection("c2", [alice, carol], media=["text"])
    return builder.build()


class TestSnapshotDocument:
    def test_json_roundtrip_is_fixpoint(self):
        _service, _dsk, platform = fresh_session()
        platform.run_model(conference_model())
        snapshot = platform.checkpoint()
        platform.stop()
        text = snapshot.to_json()
        assert SessionSnapshot.from_json(text).to_json() == text

    def test_envelope_checked(self):
        with pytest.raises(SerializationError, match="format"):
            SessionSnapshot.from_dict({"format": "repro-model", "version": 1})
        with pytest.raises(SerializationError, match="version"):
            SessionSnapshot.from_dict({"format": "repro-session", "version": 99})

    def test_missing_keys_rejected(self):
        with pytest.raises(SerializationError, match="missing required key"):
            SessionSnapshot.from_dict(
                {"format": "repro-session", "version": 1, "name": "x"}
            )

    def test_layers_capture_all_four(self):
        _service, _dsk, platform = fresh_session()
        snapshot = capture_snapshot(platform)
        platform.stop()
        assert set(snapshot.layers) == {"ui", "synthesis", "controller",
                                        "broker"}
        assert snapshot.domain == "communication"

    def test_layers_satisfy_externalizer_protocol(self):
        _service, _dsk, platform = fresh_session()
        try:
            for layer in (platform.ui, platform.synthesis,
                          platform.controller, platform.broker):
                assert isinstance(layer, StateExternalizer)
        finally:
            platform.stop()


class TestColdRestore:
    def test_kill_and_restore_continues_exactly(self):
        service, dsk, platform = fresh_session()
        platform.run_model(conference_model())
        text = platform.checkpoint().to_json()
        platform.stop()  # the kill
        log_at_kill = list(service.op_log)

        restored = restore_platform(SessionSnapshot.from_json(text), dsk)
        # restore replays nothing against the external world
        assert service.op_log == log_at_kill
        restored.run_model(conference_model(extended=True))
        restored.stop()
        # only the delta (carol's session) was synthesized
        assert service.op_log[:len(log_at_kill)] == log_at_kill
        assert len(service.op_log) > len(log_at_kill)

    def test_restored_equals_uninterrupted(self):
        golden_service, _dsk, golden = fresh_session()
        golden.run_model(conference_model())
        golden.run_model(conference_model(extended=True))
        golden.stop()

        service, dsk, platform = fresh_session()
        platform.run_model(conference_model())
        text = platform.checkpoint().to_json()
        platform.stop()
        restored = restore_platform(SessionSnapshot.from_json(text), dsk)
        restored.run_model(conference_model(extended=True))
        restored.stop()
        assert service.op_log == golden_service.op_log

    def test_broker_state_travels(self):
        service, dsk, platform = fresh_session()
        platform.run_model(conference_model())
        session_keys = [k for k in platform.broker.state.keys()
                        if k.startswith("session:")]
        assert session_keys
        session_id = platform.broker.state.get(session_keys[0])
        snapshot = platform.checkpoint()
        platform.stop()
        restored = restore_platform(snapshot, dsk)
        try:
            assert restored.broker.state.get(session_keys[0]) == session_id
        finally:
            restored.stop()

    def test_cold_restore_takes_no_rollback_capture(self, monkeypatch):
        """A platform ``restore_platform`` just built has nothing to roll
        back to: the layer docs apply without a rollback snapshot, and a
        refused snapshot tears the new platform down."""
        import repro.middleware.loader as loader
        import repro.middleware.snapshot as snapshot_module

        _service, dsk, platform = fresh_session()
        platform.run_model(conference_model())
        snapshot = platform.checkpoint()
        platform.stop()
        captures, built = [], []
        capture = snapshot_module.capture_snapshot
        monkeypatch.setattr(snapshot_module, "capture_snapshot",
                            lambda p: captures.append(p) or capture(p))
        load = loader.load_platform
        monkeypatch.setattr(loader, "load_platform",
                            lambda *a, **k: built.append(load(*a, **k))
                            or built[-1])

        restore_platform(snapshot, dsk).stop()
        assert captures == []
        snapshot.domain = "microgrid"
        with pytest.raises(ExternalizeError, match="domain"):
            restore_platform(snapshot, dsk)
        assert len(built) == 2 and not built[1].started


class TestApplySnapshot:
    def test_reverts_in_place_mutation(self):
        _service, _dsk, platform = fresh_session()
        platform.run_model(conference_model())
        snapshot = capture_snapshot(platform)
        platform.broker.state.set("drift", "yes")
        platform.controller.context.set("network_quality", "poor")
        platform.restore_from(snapshot)
        try:
            assert "drift" not in platform.broker.state
            assert platform.controller.context.get("network_quality") == "good"
        finally:
            platform.stop()

    def test_domain_mismatch_rejected(self):
        _service, _dsk, platform = fresh_session()
        snapshot = capture_snapshot(platform)
        snapshot.domain = "microgrid"
        with pytest.raises(ExternalizeError, match="domain"):
            apply_snapshot(platform, snapshot)
        platform.stop()

    def test_stopped_platform_rejected(self):
        _service, _dsk, platform = fresh_session()
        snapshot = capture_snapshot(platform)
        platform.stop()
        with pytest.raises(ExternalizeError, match="started"):
            apply_snapshot(platform, snapshot)

    def test_ui_runtime_view_resyncs(self):
        _service, _dsk, platform = fresh_session()
        platform.run_model(conference_model())
        snapshot = capture_snapshot(platform)
        dispatches = platform.synthesis.dispatcher.dispatches
        platform.ui._runtime_view = None  # a crashed UI lost its view
        platform.restore_from(snapshot)
        try:
            assert platform.ui.runtime_view is not None
            # restore re-announces the model but is not a new dispatch
            assert platform.synthesis.dispatcher.dispatches == dispatches
        finally:
            platform.stop()


class TestDispatcherInstall:
    def test_install_notifies_without_counting(self):
        from repro.middleware.synthesis.dispatcher import Dispatcher

        dispatcher = Dispatcher()
        seen = []
        dispatcher.on_model_update(seen.append)
        model = conference_model()
        dispatcher.install(model, dispatches=7)
        assert seen == [model]
        assert dispatcher.dispatches == 7
        assert dispatcher.runtime_model is model

    def test_install_none_skips_notification(self):
        from repro.middleware.synthesis.dispatcher import Dispatcher

        dispatcher = Dispatcher()
        seen = []
        dispatcher.on_model_update(seen.append)
        dispatcher.install(None)
        assert seen == []
        assert dispatcher.runtime_model is None
