"""Platform loader: middleware model + domain knowledge -> running platform.

Paper Fig. 2: "the middleware platform is generated from two input
models: a model of its structural elements, and a model of the domain
knowledge describing its operational semantics."

:func:`load_platform` interprets a middleware model (instance of the
metamodel in :mod:`repro.middleware.metamodel`) and produces a
:class:`~repro.middleware.platform.Platform` whose layers are
configured exactly as modeled.  Domain knowledge that cannot live in a
serialized model (Python callables: resources, negotiators, textual
parsers) arrives through the :class:`DomainKnowledge` bundle —
mirroring the paper's separation of DSK from the model of execution
(Sec. V-B).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable

from repro.middleware.broker.actions import BrokerAction
from repro.middleware.broker.autonomic import ChangePlan, Symptom
from repro.middleware.broker.layer import BrokerLayer
from repro.middleware.broker.resource import Resource
from repro.middleware.controller.dsc import DSCTaxonomy
from repro.middleware.controller.handlers import Action
from repro.middleware.controller.layer import ControllerLayer
from repro.middleware.controller.policy import Policy
from repro.middleware.controller.procedure import Procedure
from repro.middleware.metamodel import loads_json_attr, middleware_metamodel
from repro.middleware.platform import Platform
from repro.middleware.synthesis.engine import SynthesisEngine
from repro.middleware.synthesis.interpreter import EntityRule
from repro.middleware.ui import ModelWorkspace
from repro.modeling.constraints import ConstraintRegistry
from repro.modeling.lts import LTS
from repro.modeling.meta import Metamodel
from repro.modeling.model import Model, MObject
from repro.runtime.clock import Clock, WallClock
from repro.runtime.events import EventBus
from repro.runtime.factory import ComponentFactory, ComponentSpec
from repro.runtime.metrics import MetricsRegistry, default_registry
from repro.runtime.registry import Registry, TypeRegistry

__all__ = ["LoaderError", "DomainKnowledge", "load_platform"]


class LoaderError(Exception):
    """Raised when a middleware model cannot be realized."""


@dataclass
class DomainKnowledge:
    """Non-serializable DSK handed to the loader alongside the model.

    Attributes:
        dsml: the application-level DSML metamodel the platform runs.
        resources: underlying resources to register with the Broker.
        controller_actions: Case 1 actions with Python implementations
            (model-defined declarative actions need no code).
        broker_actions: Broker actions with Python implementations.
        constraints: DSML invariants enforced at UI/Synthesis time.
        parser: optional textual concrete syntax for the DSML.
        negotiator: optional Synthesis-layer negotiation hook.
        event_hooks: (pattern, callback) pairs for Controller events
            surfacing at the Synthesis layer.
    """

    dsml: Metamodel
    resources: list[Resource] = field(default_factory=list)
    #: template name -> Component class, for generic ``ComponentDef``
    #: elements in layer models (the paper's component factory path).
    component_types: "TypeRegistry | None" = None
    controller_actions: list[Action] = field(default_factory=list)
    broker_actions: list[BrokerAction] = field(default_factory=list)
    constraints: ConstraintRegistry | None = None
    parser: Callable[[str], Model] | None = None
    negotiator: Callable[[Model], Model] | None = None
    event_hooks: list[tuple[str, Callable[[str, dict[str, Any]], None]]] = field(
        default_factory=list
    )


def load_platform(
    middleware_model: Model,
    dsk: DomainKnowledge,
    *,
    bus: EventBus | None = None,
    clock: Clock | None = None,
    metrics: MetricsRegistry | None = None,
    start: bool = True,
    aot: bool = False,
) -> Platform:
    """Realize a middleware model as a running platform.

    ``aot=True`` additionally compiles the loaded DSK into a Tier-3
    generated module (see :mod:`repro.middleware.synthesis.aot`) once
    the platform is started; requires ``start=True``.
    """
    if middleware_model.metamodel is not middleware_metamodel():
        raise LoaderError(
            "middleware model must conform to the md-dsm metamodel"
        )
    if not middleware_model.roots:
        raise LoaderError("middleware model has no root")
    root = middleware_model.roots[0]
    if not root.is_a("MiddlewareModel"):
        raise LoaderError(f"root must be a MiddlewareModel, got {root.meta.name}")

    clock = clock or WallClock()
    metrics = metrics if metrics is not None else default_registry()
    bus = bus or EventBus(
        name=f"{root.get('name')}.bus", clock=clock, metrics=metrics
    )
    kwargs = {"bus": bus, "clock": clock, "metrics": metrics}

    broker = _load_broker(root.get("broker"), dsk, kwargs)
    controller = _load_controller(root.get("controller"), dsk, kwargs)
    synthesis = _load_synthesis(root.get("synthesis"), dsk, kwargs)
    ui = _load_ui(root.get("ui"), dsk, kwargs)

    platform = Platform(
        name=str(root.get("name")),
        domain=str(root.get("domain")),
        middleware_model=middleware_model,
        dsml=dsk.dsml,
        ui=ui,
        synthesis=synthesis,
        controller=controller,
        broker=broker,
        bus=bus,
        clock=clock,
        metrics=metrics,
    )
    _realize_layer_components(platform, root, dsk, bus, clock)
    if start:
        platform.start()
        _post_start_install(platform, root, dsk)
        if aot and platform.synthesis is not None:
            platform.enable_aot()
    elif aot:
        raise LoaderError("aot=True requires start=True")
    return platform


def _realize_layer_components(
    platform: Platform,
    root: MObject,
    dsk: DomainKnowledge,
    bus: EventBus,
    clock: Clock,
) -> None:
    """Realize generic ``ComponentDef`` elements via the component
    factory (paper Sec. V-A: components generated from templates
    parameterized with model metadata).  Instances land in
    ``platform.components`` and start/stop with the platform."""
    specs: list[ComponentSpec] = []
    for layer_name in ("ui", "synthesis", "controller", "broker"):
        layer_def = root.get(layer_name)
        if layer_def is None:
            continue
        for component_def in layer_def.get("components"):
            specs.append(ComponentSpec.from_model(component_def))
    if not specs:
        return
    if dsk.component_types is None:
        raise LoaderError(
            f"middleware model declares {len(specs)} component(s) but the "
            f"domain knowledge bundle provides no component_types registry"
        )
    factory = ComponentFactory(
        dsk.component_types,
        registry=platform.components,
        bus=bus,
        clock=clock,
        context={"platform": platform.name, "domain": platform.domain},
    )
    factory.realize_all(specs)


# -- per-layer loading --------------------------------------------------


def _load_broker(
    layer_def: MObject | None, dsk: DomainKnowledge, kwargs: dict[str, Any]
) -> BrokerLayer | None:
    if layer_def is None or not layer_def.get("enabled"):
        return None
    broker = BrokerLayer(str(layer_def.get("name")), **kwargs)
    broker.configure(
        {
            "enable_autonomic": layer_def.get("enableAutonomic"),
            "enable_policies": layer_def.get("enablePolicies"),
            "enable_state_snapshots": layer_def.get("enableStateSnapshots"),
        }
    )
    for resource in dsk.resources:
        broker.install_resource(resource)
    _check_resource_requirements(layer_def, broker)
    actions_by_name: dict[str, BrokerAction] = {}
    for action_def in layer_def.get("actions"):
        action = BrokerAction(
            name=str(action_def.get("name")),
            pattern=str(action_def.get("pattern")),
            implementation=[_step_dict(s) for s in action_def.get("steps")],
            guard=action_def.get("guard") or None,
            priority=int(action_def.get("priority")),
        )
        broker.install_action(action)
        actions_by_name[action.name] = action
    for action in dsk.broker_actions:
        broker.install_action(action)
        actions_by_name[action.name] = action
    for binding_def in layer_def.get("eventBindings"):
        action_name = str(binding_def.get("action"))
        action = actions_by_name.get(action_name)
        if action is None:
            raise LoaderError(
                f"event binding {binding_def.get('topicPattern')!r}: unknown "
                f"action {action_name!r}"
            )
        broker.install_event_binding(
            str(binding_def.get("topicPattern")),
            action,
            guard=binding_def.get("guard") or None,
        )
    for symptom_def in layer_def.get("symptoms"):
        broker.install_symptom(
            Symptom(
                name=str(symptom_def.get("name")),
                condition=str(symptom_def.get("condition")),
                request_kind=str(symptom_def.get("requestKind")),
                on_topic=symptom_def.get("onTopic") or None,
                cooldown=float(symptom_def.get("cooldown")),
            )
        )
    for plan_def in layer_def.get("plans"):
        broker.install_plan(
            ChangePlan(
                name=str(plan_def.get("name")),
                request_kind=str(plan_def.get("requestKind")),
                steps=[_step_dict(s) for s in plan_def.get("steps")],
                guard=plan_def.get("guard") or None,
            )
        )
    return broker


def _check_resource_requirements(layer_def: MObject, broker: BrokerLayer) -> None:
    missing: list[str] = []
    for requirement in layer_def.get("requiredResources"):
        name = str(requirement.get("name"))
        if requirement.get("optional"):
            continue
        if name not in broker.resources:
            missing.append(name)
    if missing:
        raise LoaderError(
            f"broker layer requires resources {missing!r} which were not "
            f"provided by the domain knowledge bundle"
        )


def _step_dict(step_def: MObject) -> dict[str, Any]:
    if step_def.get("setKey"):
        return {"set": step_def.get("setKey"), "expr": step_def.get("expr")}
    if step_def.get("compute"):
        computed: dict[str, Any] = {"compute": step_def.get("compute")}
        if step_def.get("result"):
            computed["result"] = step_def.get("result")
        return computed
    step: dict[str, Any] = {
        "operation": step_def.get("operation"),
        "args": loads_json_attr(step_def.get("argsJson"), {}),
        "args_expr": loads_json_attr(step_def.get("argsExprJson"), {}),
    }
    if step_def.get("resource"):
        step["resource"] = step_def.get("resource")
    if step_def.get("resourceExpr"):
        step["resource_expr"] = step_def.get("resourceExpr")
    if step_def.get("result"):
        step["result"] = step_def.get("result")
    if step_def.get("stateKey"):
        step["state"] = step_def.get("stateKey")
    if step_def.get("stateExpr"):
        step["state_expr"] = step_def.get("stateExpr")
    return step


def _load_controller(
    layer_def: MObject | None, dsk: DomainKnowledge, kwargs: dict[str, Any]
) -> ControllerLayer | None:
    if layer_def is None or not layer_def.get("enabled"):
        return None
    controller = ControllerLayer(str(layer_def.get("name")), **kwargs)
    controller.configure(
        {
            "default_case": layer_def.get("defaultCase"),
            "max_configurations": layer_def.get("maxConfigurations"),
            "cache_size": layer_def.get("cacheSize"),
        }
    )
    taxonomy: DSCTaxonomy = controller.taxonomy
    # Parents may be declared in any order: two passes.
    pending = list(layer_def.get("classifiers"))
    while pending:
        progressed = False
        for dsc_def in list(pending):
            parent = dsc_def.get("parent") or None
            if parent and parent not in taxonomy:
                continue
            taxonomy.define(
                str(dsc_def.get("name")),
                kind=str(dsc_def.get("kind")),
                parent=parent,
                description=str(dsc_def.get("description") or ""),
                constraints=loads_json_attr(dsc_def.get("constraintsJson"), {}),
            )
            pending.remove(dsc_def)
            progressed = True
        if not progressed:
            names = [str(d.get("name")) for d in pending]
            raise LoaderError(f"unresolvable DSC parents among {names!r}")
    for procedure_def in layer_def.get("procedures"):
        controller.repository.add(_procedure_from_def(procedure_def))
    for map_def in layer_def.get("classifierMap"):
        controller.classifier_map[str(map_def.get("pattern"))] = str(
            map_def.get("classifier")
        )
    for override_def in layer_def.get("caseOverrides"):
        controller.classifier.overrides[str(override_def.get("pattern"))] = str(
            override_def.get("case")
        )
    for policy_def in layer_def.get("policies"):
        controller.policies.add(
            Policy(
                name=str(policy_def.get("name")),
                condition=str(policy_def.get("condition")),
                weights=loads_json_attr(policy_def.get("weightsJson"), {}),
                prefer=loads_json_attr(policy_def.get("preferJson"), {}),
                force_case=policy_def.get("forceCase") or None,
                applies_to=str(policy_def.get("appliesTo") or ""),
                advice=loads_json_attr(policy_def.get("adviceJson"), {}),
                priority=int(policy_def.get("priority")),
            )
        )
    return controller


def _procedure_from_def(procedure_def: MObject) -> Procedure:
    procedure = Procedure(
        str(procedure_def.get("name")),
        str(procedure_def.get("classifier")),
        dependencies=[str(d) for d in procedure_def.get("dependencies")],
        attributes=loads_json_attr(procedure_def.get("attributesJson"), {}),
        description=str(procedure_def.get("description") or ""),
    )
    for unit_def in procedure_def.get("units"):
        unit = procedure.unit(str(unit_def.get("name")))
        for instruction_def in unit_def.get("instructions"):
            unit.add(
                str(instruction_def.get("opcode")),
                **loads_json_attr(instruction_def.get("operandsJson"), {}),
            )
    return procedure


def _load_synthesis(
    layer_def: MObject | None, dsk: DomainKnowledge, kwargs: dict[str, Any]
) -> SynthesisEngine | None:
    if layer_def is None or not layer_def.get("enabled"):
        return None
    synthesis = SynthesisEngine(
        str(layer_def.get("name")),
        metamodel=dsk.dsml,
        constraints=dsk.constraints,
        strict=bool(layer_def.get("strict")),
        **kwargs,
    )
    synthesis.configure({})
    for rule_def in layer_def.get("rules"):
        synthesis.add_rule(_rule_from_def(rule_def))
    if dsk.negotiator is not None:
        synthesis.negotiator = dsk.negotiator
    for pattern, callback in dsk.event_hooks:
        synthesis.interpreter.on_event(pattern, callback)
    return synthesis


def _rule_from_def(rule_def: MObject) -> EntityRule:
    lts = LTS(
        f"rule:{rule_def.get('className')}",
        initial=str(rule_def.get("initial")),
    )
    for state_def in rule_def.get("states"):
        lts.add_state(str(state_def.get("name")), final=bool(state_def.get("final")))
    for transition_def in rule_def.get("transitions"):
        lts.add_transition(
            str(transition_def.get("source")),
            str(transition_def.get("label")),
            str(transition_def.get("target")),
            guard=transition_def.get("guard") or None,
            actions=tuple(loads_json_attr(transition_def.get("commandsJson"), [])),
            priority=int(transition_def.get("priority")),
        )
    return EntityRule(
        str(rule_def.get("className")),
        lts,
        on_unmatched=str(rule_def.get("onUnmatched")),
    )


def _load_ui(
    layer_def: MObject | None, dsk: DomainKnowledge, kwargs: dict[str, Any]
) -> ModelWorkspace | None:
    if layer_def is None or not layer_def.get("enabled"):
        return None
    ui = ModelWorkspace(
        str(layer_def.get("name")),
        metamodel=dsk.dsml,
        constraints=dsk.constraints,
        **kwargs,
    )
    ui.configure({})
    if dsk.parser is not None:
        ui.set_parser(dsk.parser)
    return ui


def _post_start_install(
    platform: Platform, root: MObject, dsk: DomainKnowledge
) -> None:
    """Install pieces that need started layers (Case 1 action tables
    exist only after the Controller's broker port is live)."""
    controller = platform.controller
    if controller is None:
        return
    layer_def = root.get("controller")
    if layer_def is not None:
        for action_def in layer_def.get("actions"):
            controller.install_action(
                Action(
                    name=str(action_def.get("name")),
                    pattern=str(action_def.get("pattern")),
                    implementation=[
                        _controller_step_dict(s) for s in action_def.get("steps")
                    ],
                    guard=action_def.get("guard") or None,
                    attributes=loads_json_attr(action_def.get("attributesJson"), {}),
                )
            )
    for action in dsk.controller_actions:
        controller.install_action(action)


def _controller_step_dict(step_def: MObject) -> dict[str, Any]:
    step: dict[str, Any] = {
        "api": step_def.get("api"),
        "args": loads_json_attr(step_def.get("argsJson"), {}),
        "args_expr": loads_json_attr(step_def.get("argsExprJson"), {}),
    }
    if step_def.get("result"):
        step["result"] = step_def.get("result")
    return step
