"""Tests for the communication domain (CML + CVM)."""

import pytest

from repro.domains.communication import (
    CmlBuilder,
    build_cvm,
    cml_constraints,
    cml_metamodel,
    parse_cml,
)
from repro.middleware.synthesis.engine import SynthesisError
from repro.modeling.constraints import validate_model
from repro.modeling.model import Model
from repro.sim.network import CommService


@pytest.fixture
def service():
    return CommService("net0", op_cost=0.0)


@pytest.fixture
def cvm(service):
    platform = build_cvm(service=service)
    yield platform
    platform.stop()


def standup_builder() -> tuple[CmlBuilder, dict]:
    builder = CmlBuilder("standup")
    alice = builder.person("alice", role="initiator")
    bob = builder.person("bob")
    connection = builder.connection(
        "daily", [alice, bob], media=["audio", ("video", "high")]
    )
    return builder, {"alice": alice, "bob": bob, "connection": connection}


class TestCml:
    def test_metamodel_structure(self):
        mm = cml_metamodel()
        assert mm.find_class("CommSchema") is not None
        connection = mm.require_class("Connection")
        assert connection.find_feature("participants").required

    def test_builder_produces_valid_models(self):
        builder, _ = standup_builder()
        report = validate_model(builder.build(), cml_constraints())
        assert report.ok

    def test_min_parties_invariant(self):
        builder = CmlBuilder("solo")
        alice = builder.person("alice")
        builder.connection("lonely", [alice])
        report = validate_model(builder.build(), cml_constraints())
        assert not report.ok

    def test_duplicate_media_invariant(self):
        builder = CmlBuilder("dup")
        a = builder.person("a")
        b = builder.person("b")
        builder.connection("c", [a, b], media=["audio", "audio"])
        assert not validate_model(builder.build(), cml_constraints()).ok

    def test_two_initiators_invariant(self):
        builder = CmlBuilder("x")
        builder.person("a", role="initiator")
        builder.person("b", role="initiator")
        assert not validate_model(builder.build(), cml_constraints()).ok

    def test_foreign_participant_invariant(self):
        b1 = CmlBuilder("one")
        outsider = b1.person("outsider")
        b2 = CmlBuilder("two")
        insider = b2.person("insider")
        connection = b2.model.create("Connection", name="c")
        connection.participants.extend([insider, outsider])
        b2.schema.connections.append(connection)
        assert not validate_model(b2.build(), cml_constraints()).ok

    def test_participant_matched_by_id_passes(self):
        """A participant held outside the schema still passes when its
        id names one of the schema's persons: ids decide, as they do
        for the schema's own persons."""
        from repro.modeling.serialize import clone_model

        builder, people = standup_builder()
        model = builder.build()
        twin = next(
            p for p in clone_model(model).objects_by_class("Person")
            if p.id == people["bob"].id
        )
        connection = people["connection"]
        connection.participants.remove(people["bob"])
        connection.participants.append(twin)
        assert twin.container is not people["bob"].container
        assert validate_model(model, cml_constraints()).ok


class TestCmlParser:
    def test_parse_full_scenario(self):
        model = parse_cml(
            """
            # morning sync
            scenario standup
            person alice initiator
            person bob
            connection daily alice bob : audio video/high
            """
        )
        schema = model.roots[0]
        assert schema.name == "standup"
        assert len(schema.persons) == 2
        connection = schema.connections[0]
        assert len(connection.participants) == 2
        qualities = {m.kind: m.quality for m in connection.media}
        assert qualities == {"audio": "standard", "video": "high"}

    def test_parse_errors(self):
        with pytest.raises(ValueError, match="empty CML"):
            parse_cml("# nothing")
        with pytest.raises(ValueError, match="unknown person"):
            parse_cml("scenario s\nconnection c ghost other")
        with pytest.raises(ValueError, match="unknown CML keyword"):
            parse_cml("scenario s\nteleport x")
        with pytest.raises(ValueError, match="before 'scenario'"):
            parse_cml("person alice")


class TestCvmExecution:
    def test_establish_scenario(self, cvm, service):
        builder, refs = standup_builder()
        result = cvm.run_model(builder.build())
        assert result.script.operations() == [
            "comm.session.establish", "comm.party.add", "comm.party.add",
            "comm.stream.open", "comm.stream.open",
        ]
        assert service.op_log == [
            "open_session", "add_party", "add_party",
            "open_stream", "open_stream",
        ]
        session = next(iter(service.sessions.values()))
        assert {m.medium for m in session.streams.values()} == {"audio", "video"}

    def test_textual_model_through_ui(self, cvm, service):
        cvm.ui.parse(
            "scenario chat\nperson a\nperson b\nconnection c a b : text",
            name="chat",
        )
        cvm.ui.submit("chat")
        assert "open_stream" in service.op_log

    def test_invalid_model_rejected_before_execution(self, cvm, service):
        builder = CmlBuilder("bad")
        solo = builder.person("solo")
        builder.connection("c", [solo])
        with pytest.raises(Exception):
            cvm.run_model(builder.build())
        assert service.op_log == []

    def test_reconfiguration_cycle(self, cvm, service):
        builder, refs = standup_builder()
        cvm.run_model(builder.build())
        edited = cvm.ui.checkout()
        for medium in edited.by_id(refs["connection"].id).media:
            if medium.kind == "video":
                medium.quality = "low"
        cvm.ui.submit(cvm.ui.put_model(edited))
        assert service.op_log[-1] == "reconfigure_stream"

    def test_party_churn(self, cvm, service):
        builder, refs = standup_builder()
        cvm.run_model(builder.build())
        edited = cvm.ui.checkout()
        schema = edited.roots[0]
        carol = edited.create("Person", userId="carol")
        schema.persons.append(carol)
        connection = edited.by_id(refs["connection"].id)
        connection.participants.append(carol)
        bob = edited.by_id(refs["bob"].id)
        connection.participants.remove(bob)
        cvm.ui.submit(cvm.ui.put_model(edited))
        assert service.op_log[-2:] == ["add_party", "remove_party"]

    def test_teardown(self, cvm, service):
        builder, _ = standup_builder()
        cvm.run_model(builder.build())
        result = cvm.teardown_model()
        assert result.script.operations() == [
            "comm.stream.close", "comm.stream.close", "comm.session.teardown",
        ]
        assert all(s.state == "closed" for s in service.sessions.values())

    def test_autonomic_failure_recovery(self, cvm, service):
        builder, _ = standup_builder()
        cvm.run_model(builder.build())
        session = next(iter(service.sessions))
        service.inject_failure(session)
        # the broker's symptom->plan loop recovers synchronously
        assert service.sessions[session].state == "active"
        assert cvm.broker.state.get("recoveries") == 1
        assert cvm.broker.state.get("failures") == 1  # event binding counted

    def test_audit_log_state(self, cvm, service):
        # Case 2 path writes the audit log through ncb.log
        cvm.controller.context.set("adaptation_mode", "dynamic")
        builder, _ = standup_builder()
        cvm.run_model(builder.build())
        # session established via Case 1 actions? adaptive policy only
        # forces streams; establish stays Case 1. Check IM stats ran.
        assert cvm.controller.generator.stats.requests >= 1


class TestCvmVariability:
    """The paper's variability test (Sec. VII-B): same engine, different
    execution paths chosen by environmental context."""

    def test_transport_selection_flips_with_context(self, cvm, service):
        cvm.controller.context.set("adaptation_mode", "dynamic")
        builder, _ = standup_builder()
        cvm.run_model(builder.build())
        good_log = list(service.op_log)
        # fast transport chosen: each adaptive stream-open contributes
        # exactly one probe (the QoS monitor), none before open_stream
        per_stream = good_log[good_log.index("open_stream"):]
        assert per_stream[0] == "open_stream"

        cvm.controller.context.set("network_quality", "poor")
        edited = cvm.ui.checkout()
        connection = next(iter(edited.objects_by_class("Connection")))
        edited_medium = edited.create("Medium", kind="text")
        connection.media.append(edited_medium)
        cvm.ui.submit(cvm.ui.put_model(edited))
        # reliable transport probes BEFORE opening (plus the QoS probe after)
        assert service.op_log[len(good_log):] == [
            "probe", "open_stream", "probe",
        ]

    def test_case_classification_respects_policy(self, cvm):
        # static mode: streams go through Case 1 actions
        outcome_ops = []
        builder, _ = standup_builder()
        result = cvm.run_model(builder.build())
        assert result.script is not None
        assert cvm.controller.actions.executed >= 1

    def test_lean_configuration_loads(self, service):
        lean = build_cvm(service=service, lean=True)
        assert lean.broker.autonomic.enabled is False
        builder, _ = standup_builder()
        lean.run_model(builder.build())
        assert "open_session" in service.op_log
        lean.stop()

    def test_intent_default_case_loads(self, service):
        platform = build_cvm(service=service, default_case="intent")
        builder, _ = standup_builder()
        platform.run_model(builder.build())
        # everything went through IM generation
        assert platform.controller.generator.stats.requests >= 5
        platform.stop()
