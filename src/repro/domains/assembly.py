"""Shared assembly of domain DSK specs into middleware models.

Every domain package exposes the same spec functions (synthesis rules,
DSC taxonomy, procedures, actions, policies, autonomic knowledge) as
pure data; :func:`assemble_middleware_model` turns one such DSK module
into a complete middleware model.  That the *same* assembler covers all
four domains is itself part of the reproduction: the paper's single
domain-independent metamodel expresses every platform of Sec. IV.

:func:`domain_cases` assembles each shipped domain one level further:
its simulated service, DSK, middleware model and a two-phase session
workload — what the cluster's DSK registry, ``repro trace --replay``
and the benchmarks all build sessions from.
"""

from __future__ import annotations

from types import ModuleType
from typing import Any, Callable

from repro.middleware.model import MiddlewareModelBuilder
from repro.modeling.model import Model

__all__ = ["assemble_middleware_model", "DomainCase", "domain_cases"]


def _specs(dsk: ModuleType, name: str) -> list[dict[str, Any]]:
    fn: Callable[[], list[dict[str, Any]]] | None = getattr(dsk, name, None)
    return fn() if fn is not None else []


def assemble_middleware_model(
    name: str,
    domain: str,
    dsk: ModuleType,
    *,
    description: str = "",
    lean: bool = False,
    default_case: str = "actions",
    layer_names: dict[str, str] | None = None,
    with_ui: bool = True,
    with_synthesis: bool = True,
    with_controller: bool = True,
    with_broker: bool = True,
) -> Model:
    """Build a middleware model from a domain DSK module.

    ``with_*`` flags realize the layer-suppression configurations of
    Secs. IV-C/IV-D (e.g. a smart-object node keeps only controller +
    broker).  ``lean`` disables the Broker's optional managers (A3
    ablation).
    """
    names = {"ui": "ui", "synthesis": "synthesis",
             "controller": "controller", "broker": "broker"}
    names.update(layer_names or {})
    builder = MiddlewareModelBuilder(name, domain, description=description)

    if with_ui:
        builder.ui_layer(names["ui"])

    if with_synthesis:
        synthesis = builder.synthesis_layer(names["synthesis"])
        for rule in _specs(dsk, "synthesis_rules"):
            synthesis.rule(
                rule["class_name"],
                initial=rule.get("initial", "initial"),
                on_unmatched=rule.get("on_unmatched", "ignore"),
                states=rule.get("states", {}),
                transitions=rule.get("transitions", []),
            )

    if with_controller:
        controller = builder.controller_layer(
            names["controller"], default_case=default_case
        )
        for spec in _specs(dsk, "dsc_specs"):
            controller.dsc(
                spec["name"],
                kind=spec.get("kind", "operation"),
                parent=spec.get("parent"),
                description=spec.get("description", ""),
                constraints=spec.get("constraints"),
            )
        for spec in _specs(dsk, "procedure_specs"):
            controller.procedure(
                spec["name"],
                spec["classifier"],
                dependencies=spec.get("dependencies", ()),
                attributes=spec.get("attributes"),
                units=spec.get("units"),
                description=spec.get("description", ""),
            )
        for spec in _specs(dsk, "controller_action_specs"):
            controller.action(
                spec["name"],
                spec["pattern"],
                spec["steps"],
                guard=spec.get("guard"),
                attributes=spec.get("attributes"),
            )
        map_fn = getattr(dsk, "classifier_map", None)
        if map_fn is not None:
            for pattern, classifier in map_fn().items():
                controller.map_operation(pattern, classifier)
        for spec in _specs(dsk, "policy_specs"):
            controller.policy(
                spec["name"],
                condition=spec.get("condition", "True"),
                weights=spec.get("weights"),
                prefer=spec.get("prefer"),
                force_case=spec.get("force_case"),
                applies_to=spec.get("applies_to", ""),
                advice=spec.get("advice"),
                priority=spec.get("priority", 0),
            )
        for spec in _specs(dsk, "case_override_specs"):
            controller.case_override(spec["pattern"], spec["case"])

    if with_broker:
        broker = builder.broker_layer(
            names["broker"],
            enable_autonomic=not lean,
            enable_state_snapshots=not lean,
        )
        resource_name = getattr(dsk, "RESOURCE_NAME", None)
        if resource_name:
            broker.requires_resource(resource_name)
        for spec in _specs(dsk, "broker_action_specs"):
            if lean and spec.get("lean_skip"):
                # "leaner configurations ... featuring only the strictly
                # required components" (Sec. VII-A)
                continue
            broker.action(
                spec["name"],
                spec["pattern"],
                spec["steps"],
                guard=spec.get("guard"),
                priority=spec.get("priority", 0),
            )
        if not lean:
            for spec in _specs(dsk, "event_binding_specs"):
                inline = spec["action"]
                broker.action(
                    inline["name"], f"internal.{inline['name']}", inline["steps"]
                )
                broker.event_binding(
                    spec["topic_pattern"], inline["name"], guard=spec.get("guard")
                )
        if not lean:
            for spec in _specs(dsk, "symptom_specs"):
                broker.symptom(
                    spec["name"],
                    spec["condition"],
                    spec["request_kind"],
                    on_topic=spec.get("on_topic"),
                    cooldown=spec.get("cooldown", 0.0),
                )
            for spec in _specs(dsk, "plan_specs"):
                broker.plan(
                    spec["name"],
                    spec["request_kind"],
                    spec["steps"],
                    guard=spec.get("guard"),
                )
    return builder.build()


class DomainCase:
    """One domain's two-phase session workload.

    ``service`` builds a fresh simulated resource (the external world
    whose ``op_log`` is the correctness witness), ``knowledge`` wraps
    it in the domain's DSK, ``middleware`` builds the shipped
    middleware model, and ``phase1``/``phase2`` build the application
    model before and after the in-session edit.
    """

    __slots__ = (
        "name", "service", "knowledge", "middleware", "context",
        "phase1", "phase2",
    )

    def __init__(
        self,
        name: str,
        *,
        service: Callable[[], Any],
        knowledge: Callable[[Any], Any],
        middleware: Callable[[], Any],
        context: dict[str, Any],
        phase1: Callable[[], Any],
        phase2: Callable[[], Any],
    ) -> None:
        self.name = name
        self.service = service
        self.knowledge = knowledge
        self.middleware = middleware
        self.context = context
        self.phase1 = phase1
        self.phase2 = phase2


def domain_cases() -> list[DomainCase]:
    """The four domains' two-phase workloads."""
    from repro.domains.communication.cml import (
        CmlBuilder,
        cml_constraints,
        cml_metamodel,
    )
    from repro.domains.communication.cvm import (
        build_middleware_model as comm_middleware,
        default_context as comm_context,
    )
    from repro.domains.crowdsensing.csml import (
        QueryBuilder,
        csml_constraints,
        csml_metamodel,
    )
    from repro.domains.crowdsensing.csvm import (
        build_middleware_model as cs_middleware,
    )
    from repro.domains.microgrid.mgridml import (
        MGridBuilder,
        mgridml_constraints,
        mgridml_metamodel,
    )
    from repro.domains.microgrid.mgridvm import (
        build_middleware_model as grid_middleware,
        default_context as grid_context,
    )
    from repro.domains.smartspace.ssml import (
        SpaceBuilder,
        ssml_constraints,
        ssml_metamodel,
    )
    from repro.domains.smartspace.ssvm import build_full_model
    from repro.middleware.loader import DomainKnowledge
    from repro.sim.fleet import DeviceFleet
    from repro.sim.network import CommService
    from repro.sim.plant import PlantController
    from repro.sim.space import SmartSpace

    def comm_model(extended: bool) -> Any:
        builder = CmlBuilder("conference")
        alice = builder.person("alice", role="initiator")
        bob = builder.person("bob")
        builder.connection("c1", [alice, bob], media=["audio"])
        if extended:
            carol = builder.person("carol")
            builder.connection("c2", [alice, carol], media=["text"])
        return builder.build()

    def grid_model(extended: bool) -> Any:
        builder = MGridBuilder("home", grid_import_limit=5000.0)
        builder.device("heater", "load", 300.0, mode="on")
        builder.device("solar1", "generator", 2000.0, mode="on", priority=2)
        if extended:
            builder.device("cooler", "load", 150.0, mode="on")
        return builder.build()

    def space_model(extended: bool) -> Any:
        builder = SpaceBuilder("lab")
        builder.smart_object("lamp1", kind="lamp", settings={"light": 0})
        builder.smart_object("door1", kind="door", settings={"locked": True})
        if extended:
            builder.smart_object("fan1", kind="fan", settings={"speed": 0})
        return builder.build()

    def sensing_model(extended: bool) -> Any:
        builder = QueryBuilder("air")
        builder.query("t1", "temperature")
        if extended:
            builder.query("n1", "noise", aggregate="max")
        return builder.build()

    def fleet_with_devices() -> DeviceFleet:
        fleet = DeviceFleet("fleet0", op_cost=0.0)
        for index in range(3):
            fleet.op_register_device(f"d{index}")  # direct: not op-logged
        return fleet

    return [
        DomainCase(
            "communication",
            service=lambda: CommService("net0", op_cost=0.0),
            knowledge=lambda svc: DomainKnowledge(
                dsml=cml_metamodel(), resources=[svc],
                constraints=cml_constraints(),
            ),
            middleware=comm_middleware,
            context=comm_context(),
            phase1=lambda: comm_model(False),
            phase2=lambda: comm_model(True),
        ),
        DomainCase(
            "microgrid",
            service=lambda: PlantController("plant0", op_cost=0.0),
            knowledge=lambda svc: DomainKnowledge(
                dsml=mgridml_metamodel(), resources=[svc],
                constraints=mgridml_constraints(),
            ),
            middleware=grid_middleware,
            context=grid_context(),
            phase1=lambda: grid_model(False),
            phase2=lambda: grid_model(True),
        ),
        DomainCase(
            "smartspace",
            service=lambda: SmartSpace("space0", op_cost=0.0),
            knowledge=lambda svc: DomainKnowledge(
                dsml=ssml_metamodel(), resources=[svc],
                constraints=ssml_constraints(),
            ),
            middleware=build_full_model,
            context={},
            phase1=lambda: space_model(False),
            phase2=lambda: space_model(True),
        ),
        DomainCase(
            "crowdsensing",
            service=fleet_with_devices,
            knowledge=lambda svc: DomainKnowledge(
                dsml=csml_metamodel(), resources=[svc],
                constraints=csml_constraints(),
            ),
            middleware=cs_middleware,
            context={"fleet_battery": 100.0, "coverage_mode": "full"},
            phase1=lambda: sensing_model(False),
            phase2=lambda: sensing_model(True),
        ),
    ]

