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
from typing import Any, Callable, Iterable

from repro.modeling.expr import ExpressionError, compile_expression
from repro.modeling.meta import MetaAttribute, Metamodel
from repro.modeling.model import Model, MObject

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


class ConstraintRegistry:
    """Invariants registered per metaclass name.

    Class-name matching respects inheritance: an invariant on an
    abstract base applies to all conforming instances.
    """

    def __init__(self) -> None:
        self._invariants: dict[str, list[Invariant]] = {}

    def add(self, invariant: Invariant) -> Invariant:
        self._invariants.setdefault(invariant.class_name, []).append(invariant)
        return invariant

    def invariant(
        self,
        name: str,
        class_name: str,
        body: Callable[[MObject, dict[str, Any]], bool] | str,
        **kwargs: Any,
    ) -> Invariant:
        return self.add(Invariant(name, class_name, body, **kwargs))

    def applicable(self, obj: MObject) -> Iterable[Invariant]:
        for class_name, invariants in self._invariants.items():
            if obj.is_a(class_name):
                yield from invariants

    def check(
        self,
        obj: MObject,
        report: ValidationReport,
        context: dict[str, Any] | None = None,
    ) -> None:
        env = context or {}
        for invariant in self.applicable(obj):
            try:
                ok = invariant.holds(obj, env)
            except (ExpressionError, Exception) as exc:  # noqa: BLE001
                report.add(
                    Diagnostic(
                        Severity.ERROR,
                        obj.id,
                        obj.meta.name,
                        f"invariant raised: {exc}",
                        constraint=invariant.name,
                    )
                )
                continue
            if not ok:
                report.add(
                    Diagnostic(
                        invariant.severity,
                        obj.id,
                        obj.meta.name,
                        invariant.message,
                        constraint=invariant.name,
                    )
                )

    def __len__(self) -> int:
        return sum(len(v) for v in self._invariants.values())


def _check_structure(obj: MObject, report: ValidationReport) -> None:
    """Structural checks derived from the metaclass."""
    cls = obj.meta
    for attr in cls.all_attributes().values():
        value = obj.get(attr.name)
        if attr.required and _is_unset(attr, value):
            report.add(
                Diagnostic(
                    Severity.ERROR,
                    obj.id,
                    cls.name,
                    f"required attribute {attr.name!r} is unset",
                )
            )
    for ref in cls.all_references().values():
        value = obj.get(ref.name)
        empty = (len(value) == 0) if ref.many else (value is None)
        if ref.required and empty:
            report.add(
                Diagnostic(
                    Severity.ERROR,
                    obj.id,
                    cls.name,
                    f"required reference {ref.name!r} is unset",
                )
            )


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
    report = ValidationReport()
    for element in obj.walk():
        _check_structure(element, report)
        if registry is not None:
            registry.check(element, report, context)
    return report


def validate_model(
    model: Model,
    registry: ConstraintRegistry | None = None,
    *,
    context: dict[str, Any] | None = None,
    metamodel: Metamodel | None = None,
) -> ValidationReport:
    """Validate all roots of ``model``.

    If ``metamodel`` is given, additionally checks each object's class
    is known to it (guards against mixing instances across metamodels).
    """
    report = ValidationReport()
    for obj in model.walk():
        if metamodel is not None and metamodel.find_class(obj.meta.name) is None:
            report.add(
                Diagnostic(
                    Severity.ERROR,
                    obj.id,
                    obj.meta.name,
                    f"class {obj.meta.name!r} not in metamodel {metamodel.name!r}",
                )
            )
        _check_structure(obj, report)
        if registry is not None:
            registry.check(obj, report, context)
    return report
