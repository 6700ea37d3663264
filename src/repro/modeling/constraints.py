"""OCL-style constraint framework for models.

The paper argues that "the formalization of such abstractions enables
the use of automated tools to verify the consistency of the generated
middleware" (Sec. II).  This module provides that verification layer:

* structural validation (required features, multiplicities, containment
  integrity) derived automatically from the metamodel, and
* user-defined invariants attached to metaclasses, written either as
  Python callables or as safe expression strings (see
  :mod:`repro.modeling.expr`) where ``self`` is the object under check.

Validation never raises on constraint failure; it returns a
:class:`ValidationReport` so callers can present all diagnostics at
once (the behaviour modelers expect from EMF validators).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable

from repro.modeling.expr import compile_expression
from repro.modeling.meta import MetaAttribute, MetaClass, Metamodel, MetaReference
from repro.modeling.model import _MISSING, Model, MObject

__all__ = [
    "Severity",
    "Diagnostic",
    "ValidationReport",
    "Invariant",
    "ConstraintRegistry",
    "validate_model",
    "validate_object",
]


class Severity:
    """Diagnostic severity levels (ordered)."""

    INFO = "info"
    WARNING = "warning"
    ERROR = "error"

    ORDER = {INFO: 0, WARNING: 1, ERROR: 2}


@dataclass(frozen=True)
class Diagnostic:
    """One validation finding."""

    severity: str
    object_id: str
    class_name: str
    message: str
    constraint: str = "structural"

    def __str__(self) -> str:
        return (
            f"[{self.severity}] {self.class_name}({self.object_id}) "
            f"{self.constraint}: {self.message}"
        )


@dataclass
class ValidationReport:
    """All diagnostics produced by one validation run."""

    diagnostics: list[Diagnostic] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.errors

    @property
    def errors(self) -> list[Diagnostic]:
        return [d for d in self.diagnostics if d.severity == Severity.ERROR]

    @property
    def warnings(self) -> list[Diagnostic]:
        return [d for d in self.diagnostics if d.severity == Severity.WARNING]

    def add(self, diagnostic: Diagnostic) -> None:
        self.diagnostics.append(diagnostic)

    def merge(self, other: "ValidationReport") -> None:
        self.diagnostics.extend(other.diagnostics)

    def raise_if_invalid(self) -> None:
        if not self.ok:
            summary = "; ".join(str(d) for d in self.errors[:5])
            more = len(self.errors) - 5
            if more > 0:
                summary += f" (+{more} more)"
            raise ValueError(f"model validation failed: {summary}")

    def __len__(self) -> int:
        return len(self.diagnostics)

    def __repr__(self) -> str:
        return (
            f"ValidationReport(errors={len(self.errors)}, "
            f"warnings={len(self.warnings)}, total={len(self.diagnostics)})"
        )


class Invariant:
    """A named invariant over instances of a metaclass.

    ``body`` is either a callable ``(obj, context) -> bool`` or an
    expression string where ``self`` denotes the checked object.
    """

    def __init__(
        self,
        name: str,
        class_name: str,
        body: Callable[[MObject, dict[str, Any]], bool] | str,
        *,
        message: str | None = None,
        severity: str = Severity.ERROR,
    ) -> None:
        self.name = name
        self.class_name = class_name
        self.message = message or f"invariant {name!r} violated"
        self.severity = severity
        if isinstance(body, str):
            # The shared cache: registries rebuilt per submit (the CSVM's
            # csml_constraints) reuse one parse and one lowering.
            evaluate = compile_expression(body).evaluate_fast

            def _check(obj: MObject, context: dict[str, Any]) -> bool:
                env = dict(context)
                env["self"] = obj
                return bool(evaluate(env))

            self._check = _check
        else:
            self._check = body

    def holds(self, obj: MObject, context: dict[str, Any]) -> bool:
        return bool(self._check(obj, context))


class _ClassPlan:
    """What validating one instance of a metaclass reads, resolved once
    per metaclass per registry.

    Holds the raw slot indices of the class's required attributes and
    references, and the registry's invariants that apply to the class,
    in registration order; the walk into children reads the table's
    containment slots.  Built against the class's feature table: a
    feature added to the class or a supertype marks that table
    ``stale``, and the plan is rebuilt on its next use.
    """

    __slots__ = ("table", "attributes", "references", "invariants")

    def __init__(self, cls: MetaClass, invariants: tuple[Invariant, ...]) -> None:
        table = cls.feature_table()
        self.table = table
        self.invariants = invariants
        attributes: list[tuple[int, MetaAttribute]] = []
        references: list[tuple[int, MetaReference]] = []
        for slot in table.slots.values():
            feature = slot.feature
            if feature.required:
                (attributes if slot.is_attribute else references).append(
                    (slot.index, feature))
        self.attributes = tuple(attributes)
        self.references = tuple(references)


class ConstraintRegistry:
    """Invariants registered per metaclass name.

    Class-name matching respects inheritance: an invariant on an
    abstract base applies to all conforming instances.  The registry
    validates models through one :class:`_ClassPlan` per metaclass,
    dropped when an invariant is added.
    """

    def __init__(self) -> None:
        self._invariants: dict[str, list[Invariant]] = {}
        self._plans: dict[MetaClass, _ClassPlan] = {}

    def add(self, invariant: Invariant) -> Invariant:
        self._invariants.setdefault(invariant.class_name, []).append(invariant)
        self._plans = {}
        return invariant

    def invariant(
        self,
        name: str,
        class_name: str,
        body: Callable[[MObject, dict[str, Any]], bool] | str,
        **kwargs: Any,
    ) -> Invariant:
        return self.add(Invariant(name, class_name, body, **kwargs))

    def _plan(self, cls: MetaClass) -> _ClassPlan:
        plan = self._plans.get(cls)
        if plan is None or plan.table.stale:
            plan = _ClassPlan(cls, tuple(
                invariant
                for class_name, invariants in self._invariants.items()
                if cls.is_a(class_name)
                for invariant in invariants
            ))
            self._plans[cls] = plan
        return plan

    def validate(
        self,
        target: Model | MObject,
        *,
        context: dict[str, Any] | None = None,
        metamodel: Metamodel | None = None,
    ) -> ValidationReport:
        """Validate a model (all roots) or one object's containment
        subtree: structural checks, then this registry's invariants,
        object by object in containment pre-order.

        If ``metamodel`` is given, additionally checks each object's
        class is known to it (guards against mixing instances across
        metamodels).
        """
        report = ValidationReport()
        env = context or {}
        roots = (target,) if isinstance(target, MObject) else target.roots
        for root in roots:
            self._check_tree(root, report, env, metamodel)
        return report

    def _check_tree(
        self,
        obj: MObject,
        report: ValidationReport,
        env: dict[str, Any],
        metamodel: Metamodel | None,
    ) -> None:
        cls = obj._cls
        plan = self._plan(cls)
        if obj._table is not plan.table:
            obj._slots()  # migrate a store laid out before a feature add
        store = obj._store
        add = report.add
        if metamodel is not None and metamodel.find_class(cls.name) is None:
            add(Diagnostic(
                Severity.ERROR, obj.id, cls.name,
                f"class {cls.name!r} not in metamodel {metamodel.name!r}"))
        for index, attr in plan.attributes:
            value = store[index]
            if value is _MISSING:
                value = [] if attr.many else attr.default_value()
            if _is_unset(attr, value):
                add(Diagnostic(Severity.ERROR, obj.id, cls.name,
                               f"required attribute {attr.name!r} is unset"))
        for index, ref in plan.references:
            value = store[index]
            if value is _MISSING or value is None or (ref.many and not value):
                add(Diagnostic(Severity.ERROR, obj.id, cls.name,
                               f"required reference {ref.name!r} is unset"))
        for invariant in plan.invariants:
            try:
                ok = invariant.holds(obj, env)
            except Exception as exc:  # noqa: BLE001 - reported, not raised
                severity, message = Severity.ERROR, f"invariant raised: {exc}"
            else:
                if ok:
                    continue
                severity, message = invariant.severity, invariant.message
            add(Diagnostic(severity, obj.id, cls.name, message,
                           constraint=invariant.name))
        for slot in plan.table.containment:
            value = store[slot.index]
            if value is _MISSING or value is None:
                continue
            if slot.many:
                for child in value:
                    self._check_tree(child, report, env, metamodel)
            else:
                self._check_tree(value, report, env, metamodel)

    def __len__(self) -> int:
        return sum(len(v) for v in self._invariants.values())


def _is_unset(attr: MetaAttribute, value: Any) -> bool:
    if attr.many:
        return len(value) == 0
    if value is None:
        return True
    # A required string defaulting to "" counts as unset.
    return attr.type_name == "string" and value == ""


def validate_object(
    obj: MObject,
    registry: ConstraintRegistry | None = None,
    *,
    context: dict[str, Any] | None = None,
) -> ValidationReport:
    """Validate one object and its containment subtree."""
    if registry is None:
        registry = ConstraintRegistry()
    return registry.validate(obj, context=context)


def validate_model(
    model: Model,
    registry: ConstraintRegistry | None = None,
    *,
    context: dict[str, Any] | None = None,
    metamodel: Metamodel | None = None,
) -> ValidationReport:
    """Validate all roots of ``model`` (see :meth:`ConstraintRegistry.validate`);
    without a registry, only the structural checks run."""
    if registry is None:
        registry = ConstraintRegistry()
    return registry.validate(model, context=context, metamodel=metamodel)
