"""The per-metaclass validation plan against a reflective reference.

``ConstraintRegistry.validate`` reads required features from raw slots
and runs invariants resolved once per metaclass.  The reference below
walks the model reflectively (``MObject.get``, ``is_a`` per registered
class name for every object); both must report the same diagnostics,
in the same order, for the four domains' models with faults injected.
"""

from __future__ import annotations

import pytest

from repro.domains.assembly import domain_cases
from repro.modeling.constraints import (
    ConstraintRegistry,
    Diagnostic,
    Invariant,
    Severity,
    validate_model,
    validate_object,
)
from repro.modeling.meta import Metamodel
from repro.modeling.model import Model
from repro.modeling.serialize import clone_model

CASES = {case.name: case for case in domain_cases()}


def reference_diagnostics(model, registry, context=None) -> list[Diagnostic]:
    out: list[Diagnostic] = []
    env = context or {}
    for obj in model.walk():
        cls = obj.meta
        for attr in cls.all_attributes().values():
            value = obj.get(attr.name)
            if attr.many:
                unset = len(value) == 0
            else:
                unset = value is None or (
                    attr.type_name == "string" and value == "")
            if attr.required and unset:
                out.append(Diagnostic(
                    Severity.ERROR, obj.id, cls.name,
                    f"required attribute {attr.name!r} is unset"))
        for ref in cls.all_references().values():
            value = obj.get(ref.name)
            empty = (len(value) == 0) if ref.many else (value is None)
            if ref.required and empty:
                out.append(Diagnostic(
                    Severity.ERROR, obj.id, cls.name,
                    f"required reference {ref.name!r} is unset"))
        for class_name, invariants in registry._invariants.items():
            if not obj.is_a(class_name):
                continue
            for invariant in invariants:
                try:
                    ok = invariant.holds(obj, env)
                except Exception as exc:  # noqa: BLE001
                    out.append(Diagnostic(
                        Severity.ERROR, obj.id, cls.name,
                        f"invariant raised: {exc}",
                        constraint=invariant.name))
                    continue
                if not ok:
                    out.append(Diagnostic(
                        invariant.severity, obj.id, cls.name,
                        invariant.message, constraint=invariant.name))
    return out


def _registry_with_faults(domain: str) -> ConstraintRegistry:
    """The domain's invariants plus one that always fails and two that
    raise, on classes at different depths of the containment tree."""
    case = CASES[domain]
    source = case.knowledge(case.service()).constraints
    registry = ConstraintRegistry()
    for invariants in source._invariants.values():
        for invariant in invariants:
            registry.add(invariant)
    model = case.phase2()
    root_class = model.roots[0].meta.name
    leaf_class = list(model.walk())[-1].meta.name
    registry.add(Invariant("never", root_class, lambda obj, ctx: False,
                           severity=Severity.WARNING))
    registry.add(Invariant("divides", leaf_class,
                           lambda obj, ctx: 1 / 0 > 0))
    registry.add(Invariant("no-feature", leaf_class, "self.noSuchFeature > 1"))
    return registry


def _unset_required(model) -> int:
    """Unset every required feature of every other object."""
    hits = 0
    for position, obj in enumerate(list(model.walk())):
        if position % 2:
            continue
        cls = obj.meta
        for name, attr in cls.all_attributes().items():
            if attr.required:
                obj.unset(name)
                hits += 1
        for name, ref in cls.all_references().items():
            if ref.required and not ref.containment:
                obj.unset(name)
                hits += 1
    return hits


def _violate_invariants(model) -> None:
    """Give every string attribute one value, every number -1, and empty
    every non-containment many-reference: the domains' invariants check
    uniqueness, ranges, known sensors and participant counts."""
    values = {"string": "dup", "int": -1, "float": -1.0}
    for obj in list(model.walk()):
        for name, attr in obj.meta.all_attributes().items():
            if not attr.many and attr.type_name in values:
                obj.set(name, values[attr.type_name])
        for name, ref in obj.meta.all_references().items():
            if ref.many and not ref.containment:
                obj.get(name).clear()


FAULTS = {
    "none": lambda model: None,
    "unset-required": _unset_required,
    "invariant-violations": _violate_invariants,
}


@pytest.mark.parametrize("fault", sorted(FAULTS))
@pytest.mark.parametrize("domain", sorted(CASES))
def test_plan_matches_reflective_reference(domain, fault):
    registry = _registry_with_faults(domain)
    case = CASES[domain]
    for build in (case.phase1, case.phase2):
        model = build()
        FAULTS[fault](model)
        planned = registry.validate(model).diagnostics
        assert planned == reference_diagnostics(clone_model(model), registry)
        # the always-failing and raising invariants fire on every model
        names = {d.constraint for d in planned}
        assert {"never", "divides", "no-feature"} <= names
        if fault != "none":
            assert len(planned) > len(
                registry.validate(build()).diagnostics)
        # the plan is reused, and reports the same the second time
        assert registry.validate(model).diagnostics == planned
        assert validate_model(model, registry).diagnostics == planned


def test_domain_registries_agree_on_unset_features():
    """The shipped registries (shared module singletons) too."""
    for case in domain_cases():
        registry = case.knowledge(case.service()).constraints
        model = case.phase2()
        assert _unset_required(model)
        assert registry.validate(model).diagnostics == reference_diagnostics(
            clone_model(model), registry)


@pytest.fixture
def shapes() -> Metamodel:
    mm = Metamodel("shapes")
    shape = mm.new_class("Shape", abstract=True)
    shape.attribute("name", "string", required=True)
    circle = mm.new_class("Circle", supertypes=[shape])
    circle.attribute("radius", "int", default=1)
    board = mm.new_class("Board")
    board.attribute("name", "string", required=True)
    board.reference("shapes", "Shape", containment=True, many=True)
    return mm.resolve()


def _board(mm: Metamodel) -> Model:
    model = Model(mm, name="b")
    board = model.create_root("Board", name="board")
    board.get("shapes").append(model.create("Circle", name="c"))
    return model


class TestPlanInvalidation:
    def test_attribute_added_to_a_supertype_after_first_use(self, shapes):
        registry = ConstraintRegistry()
        model = _board(shapes)
        assert registry.validate(model).ok
        shapes.classes["Shape"].attribute("colour", "string", required=True)
        report = registry.validate(model)
        assert [d.message for d in report.errors] == [
            "required attribute 'colour' is unset"]
        assert report.diagnostics == reference_diagnostics(model, registry)
        circle = model.roots[0].get("shapes")[0]
        circle.set("colour", "red")
        assert registry.validate(model).ok

    def test_reference_added_after_first_use(self, shapes):
        registry = ConstraintRegistry()
        model = _board(shapes)
        assert registry.validate(model).ok
        shapes.classes["Board"].reference("focus", "Shape", required=True)
        assert [d.message for d in registry.validate(model).errors] == [
            "required reference 'focus' is unset"]

    def test_invariant_added_after_first_use(self, shapes):
        registry = ConstraintRegistry()
        model = _board(shapes)
        assert registry.validate(model).ok
        registry.invariant("small", "Shape", "self.radius < 1")
        report = registry.validate(model)
        assert [(d.class_name, d.constraint) for d in report.errors] == [
            ("Circle", "small")]
        assert report.diagnostics == reference_diagnostics(model, registry)

    def test_validate_object_walks_only_the_subtree(self, shapes):
        registry = ConstraintRegistry()
        registry.invariant("named-board", "Board", "self.name == 'x'")
        registry.invariant("named-shape", "Shape", "self.name == 'x'")
        circle = _board(shapes).roots[0].get("shapes")[0]
        report = validate_object(circle, registry)
        assert [d.constraint for d in report.errors] == ["named-shape"]

    def test_context_reaches_invariants(self, shapes):
        registry = ConstraintRegistry()
        registry.invariant("bounded", "Circle", "self.radius <= limit")
        model = _board(shapes)
        assert registry.validate(model, context={"limit": 1}).ok
        assert not registry.validate(model, context={"limit": 0}).ok
