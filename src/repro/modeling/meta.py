"""Metamodeling kernel: metaclasses, features, and metamodels.

This module is the foundation of the MD-DSM reproduction.  The original
paper builds on the Eclipse Modeling Framework (EMF); offline we provide
an EMF-equivalent kernel with the constructs the paper relies on:

* :class:`MetaClass` — a class in a metamodel, with single/multiple
  inheritance, abstractness, attributes and references.
* :class:`MetaAttribute` — a typed, possibly multi-valued attribute.
* :class:`MetaReference` — a typed reference to instances of another
  metaclass, possibly containment, possibly with an opposite.
* :class:`MetaEnum` — an enumeration datatype.
* :class:`Metamodel` — a named registry of metaclasses and enums, with
  well-formedness checking and cross-metamodel imports.

Instances of metaclasses are :class:`repro.modeling.model.MObject`;
this module holds only the *type level*.
"""

from __future__ import annotations

from typing import Any, Callable, Iterable, Iterator, Mapping, Sequence

__all__ = [
    "MetamodelError",
    "MetaEnum",
    "MetaAttribute",
    "MetaReference",
    "MetaClass",
    "FeatureSlot",
    "FeatureTable",
    "Metamodel",
    "ATTRIBUTE_TYPES",
]


class MetamodelError(Exception):
    """Raised when a metamodel is ill-formed or misused."""


#: Attribute type name -> (python type(s) accepted, default factory).
ATTRIBUTE_TYPES: dict[str, tuple[tuple[type, ...], Callable[[], Any]]] = {
    "string": ((str,), str),
    "int": ((int,), int),
    "float": ((float, int), float),
    "bool": ((bool,), bool),
    "any": ((object,), lambda: None),
}


class MetaEnum:
    """An enumeration datatype usable as an attribute type.

    >>> status = MetaEnum("Status", ["idle", "active", "failed"])
    >>> status.is_valid("idle")
    True
    """

    def __init__(self, name: str, literals: Sequence[str]) -> None:
        if not name:
            raise MetamodelError("enum name must be non-empty")
        if not literals:
            raise MetamodelError(f"enum {name!r} must have at least one literal")
        seen: set[str] = set()
        for literal in literals:
            if literal in seen:
                raise MetamodelError(f"enum {name!r} has duplicate literal {literal!r}")
            seen.add(literal)
        self.name = name
        self.literals: tuple[str, ...] = tuple(literals)
        self.default: str = self.literals[0]

    def is_valid(self, value: Any) -> bool:
        return isinstance(value, str) and value in self.literals

    def __contains__(self, value: object) -> bool:
        return self.is_valid(value)

    def __repr__(self) -> str:
        return f"MetaEnum({self.name!r}, literals={list(self.literals)!r})"


class _Feature:
    """Common behaviour of attributes and references."""

    def __init__(self, name: str, *, many: bool, required: bool) -> None:
        if not name or not name.isidentifier():
            raise MetamodelError(f"feature name {name!r} must be a valid identifier")
        self.name = name
        self.many = many
        self.required = required
        self.owner: MetaClass | None = None  # set when added to a class

    @property
    def qualified_name(self) -> str:
        owner = self.owner.name if self.owner is not None else "?"
        return f"{owner}.{self.name}"


class MetaAttribute(_Feature):
    """A typed attribute of a metaclass.

    ``type_name`` is one of :data:`ATTRIBUTE_TYPES` keys or the name of a
    :class:`MetaEnum` registered in the same metamodel.
    """

    def __init__(
        self,
        name: str,
        type_name: str = "string",
        *,
        default: Any = None,
        many: bool = False,
        required: bool = False,
    ) -> None:
        super().__init__(name, many=many, required=required)
        self.type_name = type_name
        self.default = default
        self._enum: MetaEnum | None = None  # resolved by Metamodel

    def resolve(self, metamodel: "Metamodel") -> None:
        if self.type_name in ATTRIBUTE_TYPES:
            self._enum = None
            return
        enum = metamodel.enums.get(self.type_name)
        if enum is None:
            raise MetamodelError(
                f"attribute {self.qualified_name}: unknown type {self.type_name!r}"
            )
        self._enum = enum

    def default_value(self) -> Any:
        """Default for a missing single-valued attribute."""
        if self.default is not None:
            return self.default
        if self._enum is not None:
            return self._enum.default
        return None

    def check_value(self, value: Any) -> None:
        """Raise :class:`MetamodelError` unless ``value`` fits this attribute."""
        if value is None:
            return
        if self._enum is not None:
            if not self._enum.is_valid(value):
                raise MetamodelError(
                    f"{self.qualified_name}: {value!r} is not a literal of "
                    f"enum {self._enum.name!r}"
                )
            return
        accepted, _factory = ATTRIBUTE_TYPES[self.type_name]
        # bool is a subclass of int; keep int attributes honest.
        if self.type_name in ("int", "float") and isinstance(value, bool):
            raise MetamodelError(
                f"{self.qualified_name}: bool {value!r} not valid for {self.type_name}"
            )
        if not isinstance(value, accepted):
            raise MetamodelError(
                f"{self.qualified_name}: {value!r} is not of type {self.type_name!r}"
            )

    def __repr__(self) -> str:
        return f"MetaAttribute({self.qualified_name}: {self.type_name})"


class MetaReference(_Feature):
    """A reference from one metaclass to another.

    ``containment`` references own their targets (a target may have at
    most one container).  ``opposite`` names a reference on the target
    class kept in sync automatically by the instance layer.
    """

    def __init__(
        self,
        name: str,
        target_name: str,
        *,
        containment: bool = False,
        many: bool = False,
        required: bool = False,
        opposite: str | None = None,
    ) -> None:
        super().__init__(name, many=many, required=required)
        self.target_name = target_name
        self.containment = containment
        self.opposite = opposite
        self._target: MetaClass | None = None
        self._opposite_ref: MetaReference | None = None

    @property
    def target(self) -> "MetaClass":
        if self._target is None:
            raise MetamodelError(f"reference {self.qualified_name} is unresolved")
        return self._target

    @property
    def opposite_ref(self) -> "MetaReference | None":
        return self._opposite_ref

    def resolve(self, metamodel: "Metamodel") -> None:
        target = metamodel.find_class(self.target_name)
        if target is None:
            raise MetamodelError(
                f"reference {self.qualified_name}: unknown target class "
                f"{self.target_name!r}"
            )
        self._target = target
        if self.opposite is not None:
            opp = target.find_feature(self.opposite)
            if not isinstance(opp, MetaReference):
                raise MetamodelError(
                    f"reference {self.qualified_name}: opposite {self.opposite!r} "
                    f"is not a reference of {target.name!r}"
                )
            self._opposite_ref = opp
            if opp.opposite is not None and opp.opposite != self.name:
                raise MetamodelError(
                    f"reference {self.qualified_name}: opposite mismatch with "
                    f"{opp.qualified_name}"
                )
            if self.containment and opp.containment:
                raise MetamodelError(
                    f"reference {self.qualified_name}: both sides of an opposite "
                    f"pair cannot be containment"
                )

    def __repr__(self) -> str:
        kind = "contains" if self.containment else "refers to"
        return f"MetaReference({self.qualified_name} {kind} {self.target_name})"


class FeatureSlot:
    """One entry of a :class:`FeatureTable`: where a feature's value
    lives in an instance's slot store, plus what the hot path needs to
    know about it without isinstance checks."""

    __slots__ = ("index", "feature", "is_attribute", "many")

    def __init__(
        self,
        index: int,
        feature: "MetaAttribute | MetaReference",
        is_attribute: bool,
    ) -> None:
        self.index = index
        self.feature = feature
        self.is_attribute = is_attribute
        self.many = feature.many

    def __repr__(self) -> str:
        kind = "attr" if self.is_attribute else "ref"
        return f"FeatureSlot({self.index}, {kind} {self.feature.name!r})"


class FeatureTable:
    """Frozen name -> :class:`FeatureSlot` map for one metaclass.

    Built once per class shape and shared by every instance: feature
    access becomes a single dict hit plus a list index instead of a
    supertype-chain walk.  When the class (or a supertype) gains a
    feature, the table is marked ``stale`` so live instances migrate
    lazily to the rebuilt table on their next access.  ``containment``
    holds the slots of the containment references, in feature order,
    for the containment walk.
    """

    __slots__ = ("slots", "size", "stale", "containment")

    def __init__(self, cls: "MetaClass") -> None:
        slots: dict[str, FeatureSlot] = {}
        index = 0
        for name, attr in cls.all_attributes().items():
            slots[name] = FeatureSlot(index, attr, True)
            index += 1
        for name, ref in cls.all_references().items():
            slots[name] = FeatureSlot(index, ref, False)
            index += 1
        self.slots = slots
        self.size = index
        self.stale = False
        self.containment = tuple(
            slot for slot in slots.values()
            if not slot.is_attribute and slot.feature.containment
        )


class MetaClass:
    """A class in a metamodel.

    Supports multiple supertypes; feature lookup walks the supertype
    chain (C3-free, first-match — metamodels here are small and
    diamond-safe because feature names must be globally unique along
    any inheritance path).
    """

    def __init__(
        self,
        name: str,
        *,
        abstract: bool = False,
        supertypes: Sequence["MetaClass"] = (),
    ) -> None:
        if not name or not name[0].isalpha():
            raise MetamodelError(f"metaclass name {name!r} must start with a letter")
        self.name = name
        self.abstract = abstract
        self.supertypes: tuple[MetaClass, ...] = tuple(supertypes)
        self._attributes: dict[str, MetaAttribute] = {}
        self._references: dict[str, MetaReference] = {}
        self.metamodel: Metamodel | None = None
        #: supertype-name closure (incl. own name); supertypes are
        #: immutable after construction so this never invalidates.
        self._closure: frozenset[str] | None = None
        self._feature_table: FeatureTable | None = None
        self._all_attributes: dict[str, MetaAttribute] | None = None
        self._all_references: dict[str, MetaReference] | None = None
        #: classes whose feature table/dicts embed this class's features
        #: (subclasses that built caches) — invalidated on feature adds.
        self._cache_dependents: set[MetaClass] = {self}

    # -- construction -------------------------------------------------

    def add_attribute(self, attribute: MetaAttribute) -> MetaAttribute:
        self._check_fresh_feature(attribute.name)
        attribute.owner = self
        self._attributes[attribute.name] = attribute
        self._invalidate_caches()
        return attribute

    def add_reference(self, reference: MetaReference) -> MetaReference:
        self._check_fresh_feature(reference.name)
        reference.owner = self
        self._references[reference.name] = reference
        self._invalidate_caches()
        return reference

    def _invalidate_caches(self) -> None:
        for dependent in self._cache_dependents:
            table = dependent._feature_table
            if table is not None:
                table.stale = True
                dependent._feature_table = None
            dependent._all_attributes = None
            dependent._all_references = None
        self._cache_dependents = {self}

    def attribute(self, name: str, type_name: str = "string", **kwargs: Any) -> MetaAttribute:
        """Shorthand: create and add an attribute."""
        return self.add_attribute(MetaAttribute(name, type_name, **kwargs))

    def reference(self, name: str, target_name: str, **kwargs: Any) -> MetaReference:
        """Shorthand: create and add a reference."""
        return self.add_reference(MetaReference(name, target_name, **kwargs))

    def _check_fresh_feature(self, name: str) -> None:
        if self.find_feature(name) is not None:
            raise MetamodelError(f"class {self.name!r} already has feature {name!r}")

    # -- queries -------------------------------------------------------

    def all_supertypes(self) -> Iterator["MetaClass"]:
        """All (transitive) supertypes, depth-first, deduplicated."""
        seen: set[str] = set()
        stack = list(self.supertypes)
        while stack:
            super_cls = stack.pop(0)
            if super_cls.name in seen:
                continue
            seen.add(super_cls.name)
            yield super_cls
            stack.extend(super_cls.supertypes)

    def supertype_closure(self) -> frozenset[str]:
        """Names of this class and all transitive supertypes (cached;
        the supertype tuple is immutable after construction)."""
        closure = self._closure
        if closure is None:
            closure = self._closure = frozenset(
                (self.name, *(sup.name for sup in self.all_supertypes()))
            )
        return closure

    def conforms_to(self, other: "MetaClass") -> bool:
        """True if instances of this class are instances of ``other``."""
        if other is self:
            return True
        return other.name in self.supertype_closure()

    def is_a(self, class_name: str) -> bool:
        """True if instances of this class are instances of the class
        its metamodel resolves ``class_name`` to."""
        metamodel = self.metamodel
        if metamodel is None:
            return self.name == class_name
        target = metamodel.find_class(class_name)
        return target is not None and self.conforms_to(target)

    def own_attributes(self) -> tuple[MetaAttribute, ...]:
        return tuple(self._attributes.values())

    def own_references(self) -> tuple[MetaReference, ...]:
        return tuple(self._references.values())

    def _register_dependent(self) -> None:
        for super_cls in self.all_supertypes():
            super_cls._cache_dependents.add(self)

    def all_attributes(self) -> dict[str, MetaAttribute]:
        result = self._all_attributes
        if result is None:
            result = {}
            for super_cls in reversed(list(self.all_supertypes())):
                result.update(super_cls._attributes)
            result.update(self._attributes)
            self._all_attributes = result
            self._register_dependent()
        return result

    def all_references(self) -> dict[str, MetaReference]:
        result = self._all_references
        if result is None:
            result = {}
            for super_cls in reversed(list(self.all_supertypes())):
                result.update(super_cls._references)
            result.update(self._references)
            self._all_references = result
            self._register_dependent()
        return result

    def feature_table(self) -> FeatureTable:
        """The frozen per-class feature table (see :class:`FeatureTable`)."""
        table = self._feature_table
        if table is None:
            table = self._feature_table = FeatureTable(self)
            self._register_dependent()
        return table

    def find_feature(self, name: str) -> MetaAttribute | MetaReference | None:
        slot = self.feature_table().slots.get(name)
        return slot.feature if slot is not None else None

    def containment_references(self) -> tuple[MetaReference, ...]:
        return tuple(slot.feature for slot in self.feature_table().containment)

    def __repr__(self) -> str:
        flags = " abstract" if self.abstract else ""
        return f"MetaClass({self.name!r}{flags})"


class Metamodel:
    """A named collection of metaclasses and enums.

    A metamodel may *import* other metamodels: class resolution falls
    back to imports, which is how domain DSML metamodels reuse the
    shared middleware metamodel's datatypes.
    """

    def __init__(self, name: str, *, imports: Sequence["Metamodel"] = ()) -> None:
        if not name:
            raise MetamodelError("metamodel name must be non-empty")
        self.name = name
        self.imports: tuple[Metamodel, ...] = tuple(imports)
        self.classes: dict[str, MetaClass] = {}
        self.enums: dict[str, MetaEnum] = {}
        self._resolved = False

    # -- construction -------------------------------------------------

    def add_class(self, cls: MetaClass) -> MetaClass:
        if cls.name in self.classes:
            raise MetamodelError(f"metamodel {self.name!r} already has class {cls.name!r}")
        cls.metamodel = self
        self.classes[cls.name] = cls
        self._resolved = False
        return cls

    def new_class(
        self,
        name: str,
        *,
        abstract: bool = False,
        supertypes: Sequence[MetaClass] = (),
    ) -> MetaClass:
        return self.add_class(MetaClass(name, abstract=abstract, supertypes=supertypes))

    def add_enum(self, enum: MetaEnum) -> MetaEnum:
        if enum.name in self.enums:
            raise MetamodelError(f"metamodel {self.name!r} already has enum {enum.name!r}")
        self.enums[enum.name] = enum
        self._resolved = False
        return enum

    def new_enum(self, name: str, literals: Sequence[str]) -> MetaEnum:
        return self.add_enum(MetaEnum(name, literals))

    # -- resolution & queries -----------------------------------------

    def find_class(self, name: str) -> MetaClass | None:
        found = self.classes.get(name)
        if found is not None:
            return found
        for imported in self.imports:
            found = imported.find_class(name)
            if found is not None:
                return found
        return None

    def require_class(self, name: str) -> MetaClass:
        found = self.find_class(name)
        if found is None:
            raise MetamodelError(f"metamodel {self.name!r}: no class named {name!r}")
        return found

    def find_enum(self, name: str) -> MetaEnum | None:
        found = self.enums.get(name)
        if found is not None:
            return found
        for imported in self.imports:
            found = imported.find_enum(name)
            if found is not None:
                return found
        return None

    def resolve(self) -> "Metamodel":
        """Resolve all references and attribute enum types; validate.

        Idempotent; called automatically by the instance layer before
        any instantiation.
        """
        if self._resolved:
            return self
        for imported in self.imports:
            imported.resolve()
        for cls in self.classes.values():
            for attr in cls.own_attributes():
                self._resolve_attribute(attr)
            for ref in cls.own_references():
                ref.resolve(self)
        self._check_wellformed()
        self._resolved = True
        return self

    def _resolve_attribute(self, attr: MetaAttribute) -> None:
        if attr.type_name in ATTRIBUTE_TYPES:
            attr.resolve(self)
            return
        enum = self.find_enum(attr.type_name)
        if enum is None:
            raise MetamodelError(
                f"attribute {attr.qualified_name}: unknown type {attr.type_name!r}"
            )
        attr._enum = enum

    def _check_wellformed(self) -> None:
        for cls in self.classes.values():
            for sup in cls.all_supertypes():
                if sup.name == cls.name:
                    raise MetamodelError(f"class {cls.name!r} inherits from itself")
            # Feature names must not shadow along the inheritance chain.
            own = {f.name for f in cls.own_attributes()} | {
                f.name for f in cls.own_references()
            }
            for sup in cls.all_supertypes():
                inherited = {f.name for f in sup.own_attributes()} | {
                    f.name for f in sup.own_references()
                }
                shadowed = own & inherited
                if shadowed:
                    raise MetamodelError(
                        f"class {cls.name!r} shadows inherited features "
                        f"{sorted(shadowed)!r} from {sup.name!r}"
                    )

    def iter_classes(self, *, concrete_only: bool = False) -> Iterator[MetaClass]:
        for cls in self.classes.values():
            if concrete_only and cls.abstract:
                continue
            yield cls

    def subclasses_of(self, name: str) -> list[MetaClass]:
        base = self.require_class(name)
        return [cls for cls in self.classes.values() if cls.conforms_to(base)]

    def __contains__(self, name: object) -> bool:
        return isinstance(name, str) and self.find_class(name) is not None

    def __repr__(self) -> str:
        return (
            f"Metamodel({self.name!r}, classes={len(self.classes)}, "
            f"enums={len(self.enums)})"
        )


def build_metamodel(
    name: str,
    classes: Mapping[str, Mapping[str, Any]],
    *,
    enums: Mapping[str, Iterable[str]] | None = None,
    imports: Sequence[Metamodel] = (),
) -> Metamodel:
    """Declaratively build a metamodel from nested dictionaries.

    ``classes`` maps class name to a spec dict with optional keys:
    ``abstract`` (bool), ``supertypes`` (list of names), ``attributes``
    (name -> type spec) and ``references`` (name -> ref spec).  A type
    spec is either a type-name string or a dict of
    :class:`MetaAttribute` kwargs with ``type``.  A ref spec is a dict
    of :class:`MetaReference` kwargs with ``target``.

    This is the format used by the JSON metamodel serializer and by the
    textual examples; programmatic construction elsewhere uses the
    object API directly.
    """
    metamodel = Metamodel(name, imports=imports)
    for enum_name, literals in (enums or {}).items():
        metamodel.new_enum(enum_name, list(literals))
    # Two passes so supertypes may be declared in any order.
    pending = dict(classes)
    created: dict[str, MetaClass] = {}
    while pending:
        progressed = False
        for cls_name in list(pending):
            spec = pending[cls_name]
            super_names = list(spec.get("supertypes", []))
            if not all(s in created or metamodel.find_class(s) for s in super_names):
                continue
            supertypes = [
                created.get(s) or metamodel.require_class(s) for s in super_names
            ]
            cls = metamodel.new_class(
                cls_name,
                abstract=bool(spec.get("abstract", False)),
                supertypes=supertypes,
            )
            created[cls_name] = cls
            del pending[cls_name]
            progressed = True
        if not progressed:
            raise MetamodelError(
                f"unresolvable supertypes among classes {sorted(pending)!r}"
            )
    for cls_name, spec in classes.items():
        cls = created[cls_name]
        for attr_name, attr_spec in dict(spec.get("attributes", {})).items():
            if isinstance(attr_spec, str):
                cls.attribute(attr_name, attr_spec)
            else:
                kwargs = dict(attr_spec)
                type_name = kwargs.pop("type", "string")
                cls.attribute(attr_name, type_name, **kwargs)
        for ref_name, ref_spec in dict(spec.get("references", {})).items():
            kwargs = dict(ref_spec)
            target = kwargs.pop("target")
            cls.reference(ref_name, target, **kwargs)
    return metamodel.resolve()
