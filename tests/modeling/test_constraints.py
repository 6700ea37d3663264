"""Unit tests for the constraint/validation framework."""

import pytest

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


@pytest.fixture
def metamodel() -> Metamodel:
    mm = Metamodel("forms")
    form = mm.new_class("Form")
    form.attribute("title", "string", required=True)
    form.reference("fields", "Field", containment=True, many=True)
    form.reference("primary", "Field", required=True)
    field = mm.new_class("Field")
    field.attribute("name", "string", required=True)
    field.attribute("width", "int", default=10)
    return mm.resolve()


@pytest.fixture
def valid_model(metamodel) -> Model:
    m = Model(metamodel, name="ok")
    form = m.create_root("Form", title="Signup")
    field = m.create("Field", name="email")
    form.fields.append(field)
    form.primary = field
    return m


class TestStructuralValidation:
    def test_valid_model_passes(self, valid_model):
        report = validate_model(valid_model)
        assert report.ok
        assert len(report) == 0

    def test_missing_required_attribute(self, metamodel):
        m = Model(metamodel, name="bad")
        form = m.create_root("Form")
        field = m.create("Field", name="x")
        form.fields.append(field)
        form.primary = field
        report = validate_model(m)
        assert not report.ok
        assert any("title" in d.message for d in report.errors)

    def test_empty_string_counts_as_unset(self, metamodel):
        m = Model(metamodel, name="bad")
        form = m.create_root("Form", title="")
        field = m.create("Field", name="x")
        form.fields.append(field)
        form.primary = field
        assert not validate_model(m).ok

    def test_missing_required_reference(self, metamodel):
        m = Model(metamodel, name="bad")
        m.create_root("Form", title="T")
        report = validate_model(m)
        assert any("primary" in d.message for d in report.errors)

    def test_validation_walks_subtree(self, valid_model):
        # break a nested object
        valid_model.roots[0].fields[0].unset("name")
        report = validate_object(valid_model.roots[0])
        assert any(d.class_name == "Field" for d in report.errors)


class TestInvariants:
    def test_expression_invariant(self, valid_model):
        registry = ConstraintRegistry()
        registry.invariant(
            "wide-enough", "Field", "self.width >= 5",
            message="field too narrow",
        )
        assert validate_model(valid_model, registry).ok
        valid_model.roots[0].fields[0].width = 2
        report = validate_model(valid_model, registry)
        assert [d.constraint for d in report.errors] == ["wide-enough"]

    def test_callable_invariant(self, valid_model):
        registry = ConstraintRegistry()
        registry.invariant(
            "has-fields", "Form",
            lambda obj, _ctx: len(obj.get("fields")) > 0,
        )
        assert validate_model(valid_model, registry).ok

    def test_warning_severity_does_not_fail(self, valid_model):
        registry = ConstraintRegistry()
        registry.invariant(
            "nitpick", "Field", "False", severity=Severity.WARNING
        )
        report = validate_model(valid_model, registry)
        assert report.ok
        assert len(report.warnings) == 1

    def test_invariant_applies_through_inheritance(self):
        mm = Metamodel("m")
        base = mm.new_class("Base", abstract=True)
        base.attribute("n", "int")
        mm.new_class("Derived", supertypes=[base])
        mm.resolve()
        m = Model(mm, name="x")
        m.create_root("Derived", n=-1)
        registry = ConstraintRegistry()
        registry.invariant("nonneg", "Base", "self.n >= 0")
        assert not validate_model(m, registry).ok

    def test_raising_invariant_reported_not_propagated(self, valid_model):
        registry = ConstraintRegistry()
        registry.invariant("broken", "Field", "self.width / 0 > 1")
        report = validate_model(valid_model, registry)
        assert any("raised" in d.message for d in report.errors)

    def test_context_passed_to_invariants(self, valid_model):
        registry = ConstraintRegistry()
        registry.invariant("ctx", "Field", "self.width <= max_width")
        ok = validate_model(valid_model, registry, context={"max_width": 20})
        assert ok.ok
        bad = validate_model(valid_model, registry, context={"max_width": 5})
        assert not bad.ok


class TestReport:
    def test_raise_if_invalid(self, metamodel):
        m = Model(metamodel, name="bad")
        m.create_root("Form")
        report = validate_model(m)
        with pytest.raises(ValueError, match="validation failed"):
            report.raise_if_invalid()

    def test_merge(self):
        from repro.modeling.constraints import ValidationReport

        r1 = ValidationReport()
        r1.add(Diagnostic(Severity.ERROR, "x", "C", "m1"))
        r2 = ValidationReport()
        r2.add(Diagnostic(Severity.WARNING, "y", "C", "m2"))
        r1.merge(r2)
        assert len(r1) == 2
        assert len(r1.errors) == 1 and len(r1.warnings) == 1

    def test_foreign_class_detected(self, valid_model):
        other = Metamodel("other")
        other.new_class("Alien")
        other.resolve()
        report = validate_model(valid_model, metamodel=other)
        assert not report.ok

    def test_diagnostic_str(self):
        d = Diagnostic(Severity.ERROR, "id#1", "Form", "boom", constraint="c")
        assert "Form" in str(d) and "boom" in str(d)


def test_domain_invariants_use_the_compiled_evaluator(monkeypatch):
    """String invariants evaluate through the cached compiled evaluator:
    validating every domain's phase models never walks an AST."""
    from repro.domains.assembly import domain_cases
    from repro.modeling.expr import Expression

    def walker(self, context=None):
        raise AssertionError(f"AST walk of {self.source!r}")

    monkeypatch.setattr(Expression, "evaluate", walker)
    checked = 0
    for case in domain_cases():
        registry = case.knowledge(case.service()).constraints
        for model in (case.phase1(), case.phase2()):
            report = validate_model(model, registry)
            assert report.ok, (case.name, report.diagnostics)
        checked += sum(
            len(invariants) for invariants in registry._invariants.values()
        )
    assert checked  # the domains do carry invariants
