"""Every shipped middleware model survives serialization and reloads
into a working platform — the deployment artifact story."""

import pytest

from repro.middleware.conformance import check_conformance
from repro.middleware.loader import DomainKnowledge, load_platform
from repro.middleware.metamodel import middleware_metamodel
from repro.modeling.constraints import validate_model
from repro.modeling.serialize import model_from_json, model_to_json

DOMAIN_MODELS = {}


def _register_domains():
    from repro.domains.communication.cml import cml_metamodel
    from repro.domains.communication.cvm import (
        build_middleware_model as cvm_model,
    )
    from repro.domains.crowdsensing.csml import csml_metamodel
    from repro.domains.crowdsensing.csvm import (
        build_middleware_model as csvm_model,
    )
    from repro.domains.microgrid.mgridml import mgridml_metamodel
    from repro.domains.microgrid.mgridvm import (
        build_middleware_model as mgrid_model,
    )
    from repro.domains.smartspace.ssml import ssml_metamodel
    from repro.domains.smartspace.ssvm import (
        build_central_model,
        build_full_model,
        build_object_node_model,
    )

    DOMAIN_MODELS.update({
        "communication": (cvm_model, cml_metamodel),
        "microgrid": (mgrid_model, mgridml_metamodel),
        "crowdsensing": (csvm_model, csml_metamodel),
        "smartspace-full": (build_full_model, ssml_metamodel),
        "smartspace-central": (build_central_model, ssml_metamodel),
        "smartspace-node": (build_object_node_model, ssml_metamodel),
    })


_register_domains()


@pytest.mark.parametrize("name", sorted(DOMAIN_MODELS))
def test_model_is_structurally_valid(name):
    build, _dsml = DOMAIN_MODELS[name]
    report = validate_model(build())
    assert report.ok, [str(d) for d in report.errors]


@pytest.mark.parametrize("name", sorted(DOMAIN_MODELS))
def test_model_serialization_roundtrip(name):
    build, _dsml = DOMAIN_MODELS[name]
    model = build()
    restored = model_from_json(model_to_json(model), middleware_metamodel())
    assert len(restored) == len(model)
    # and the round trip is a fixpoint
    assert model_to_json(restored) == model_to_json(model)


@pytest.mark.parametrize("name", sorted(DOMAIN_MODELS))
def test_roundtripped_model_conforms(name):
    build, dsml = DOMAIN_MODELS[name]
    restored = model_from_json(model_to_json(build()), middleware_metamodel())
    report = check_conformance(restored, dsml())
    assert report.ok, report.render()


def _two_phase_log(case, middleware_model):
    """Run case's two-phase workload on ``middleware_model``; op_log."""
    service = case.service()
    platform = load_platform(middleware_model, case.knowledge(service))
    if platform.controller is not None and case.context:
        platform.controller.context.update(case.context)
    try:
        platform.run_model(case.phase1())
        platform.run_model(case.phase2())
    finally:
        platform.stop()
    return list(service.op_log)


def _migrate_cases():
    from repro.domains.assembly import domain_cases

    return domain_cases()


@pytest.mark.parametrize("case", _migrate_cases(), ids=lambda c: c.name)
def test_reloaded_model_runs_identically(case):
    """assemble -> serialize -> deserialize -> load_platform produces
    exactly the behaviour of the directly assembled platform, for every
    shipped domain — the full deployment-artifact round trip."""
    direct = _two_phase_log(case, case.middleware())
    reloaded_model = model_from_json(
        model_to_json(case.middleware()), middleware_metamodel()
    )
    reloaded = _two_phase_log(case, reloaded_model)
    assert direct  # the workload touches the external world
    assert reloaded == direct


def test_roundtripped_cvm_executes():
    """The serialized artifact is deployable: parse -> load -> run."""
    from repro.domains.communication.cml import (
        CmlBuilder,
        cml_metamodel,
    )
    from repro.sim.network import CommService

    build, _ = DOMAIN_MODELS["communication"]
    restored = model_from_json(model_to_json(build()), middleware_metamodel())
    service = CommService("net0", op_cost=0.0)
    platform = load_platform(
        restored,
        DomainKnowledge(dsml=cml_metamodel(), resources=[service]),
    )
    builder = CmlBuilder("s")
    a = builder.person("a", role="initiator")
    b = builder.person("b")
    builder.connection("c", [a, b], media=["audio"])
    platform.run_model(builder.build())
    assert "open_session" in service.op_log
    platform.stop()
