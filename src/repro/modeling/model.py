"""Instance layer of the metamodeling kernel.

:class:`MObject` is a typed object conforming to a
:class:`~repro.modeling.meta.MetaClass`; :class:`Model` is a root
container of MObjects.  The instance layer maintains:

* attribute type checking against the metaclass,
* containment (every object has at most one container; containment
  cycles are rejected),
* bidirectional (opposite) reference consistency,
* stable ids for diffing and serialization.
"""

from __future__ import annotations

import itertools
from typing import Any, Callable, Iterator

from repro.modeling.meta import (
    FeatureSlot,
    MetaAttribute,
    MetaClass,
    Metamodel,
    MetamodelError,
    MetaReference,
)

__all__ = ["ModelError", "ModelSpace", "MObject", "Model"]


class ModelError(Exception):
    """Raised on ill-typed or structurally invalid model manipulation."""


class ModelSpace:
    """Scope for object-id sequences.

    Two models built in the same space share one monotone counter (ids
    never collide between them); models built in *different* spaces get
    independent, deterministic sequences — which is what golden-trace
    comparisons across repeated benchmark runs need.  The process-wide
    default space preserves the historical global-counter behaviour.
    """

    __slots__ = ("name", "_counter")

    def __init__(self, name: str = "space", *, start: int = 1) -> None:
        self.name = name
        self._counter = itertools.count(start)

    def next_id(self, class_name: str) -> str:
        return f"{class_name.lower()}#{next(self._counter)}"

    def __repr__(self) -> str:
        return f"ModelSpace({self.name!r})"


_default_space = ModelSpace("default")


def _next_id(class_name: str) -> str:
    return _default_space.next_id(class_name)


#: sentinel marking "feature never explicitly set" in the slot store.
_MISSING = object()


class _ManyRefList:
    """List facade over a multi-valued reference that keeps invariants."""

    def __init__(self, owner: "MObject", ref: MetaReference) -> None:
        self._owner = owner
        self._ref = ref

    def _raw(self) -> list["MObject"]:
        return self._owner._ref_list(self._ref)

    def append(self, value: "MObject") -> None:
        self._owner._link(self._ref, value)

    def extend(self, values: Any) -> None:
        for value in values:
            self.append(value)

    def remove(self, value: "MObject") -> None:
        self._owner._unlink(self._ref, value)

    def clear(self) -> None:
        for value in list(self._raw()):
            self.remove(value)

    def __iter__(self) -> Iterator["MObject"]:
        return iter(list(self._raw()))

    def __len__(self) -> int:
        return len(self._raw())

    def __getitem__(self, index: int) -> "MObject":
        return self._raw()[index]

    def __contains__(self, value: object) -> bool:
        return value in self._raw()

    def __eq__(self, other: object) -> bool:
        if isinstance(other, _ManyRefList):
            return self._raw() == other._raw()
        if isinstance(other, list):
            return self._raw() == other
        return NotImplemented

    def __repr__(self) -> str:
        return f"ManyRef({self._ref.name}={self._raw()!r})"


class MObject:
    """An instance of a :class:`MetaClass`.

    Attribute and reference access uses plain Python attribute syntax
    (``obj.name``, ``obj.children.append(x)``); every access is checked
    against the metaclass.
    """

    __slots__ = ("_cls", "_id", "_table", "_store", "_container", "_container_ref")

    def __init__(
        self,
        cls: MetaClass,
        *,
        id: str | None = None,
        space: ModelSpace | None = None,
        **features: Any,
    ) -> None:
        if cls.abstract:
            raise ModelError(f"cannot instantiate abstract class {cls.name!r}")
        if cls.metamodel is not None:
            cls.metamodel.resolve()
        table = cls.feature_table()
        object.__setattr__(self, "_cls", cls)
        object.__setattr__(
            self, "_id", id or (space or _default_space).next_id(cls.name)
        )
        object.__setattr__(self, "_table", table)
        object.__setattr__(self, "_store", [_MISSING] * table.size)
        object.__setattr__(self, "_container", None)
        object.__setattr__(self, "_container_ref", None)
        for name, value in features.items():
            self.set(name, value)

    # -- slot-store machinery ------------------------------------------

    def _slots(self) -> dict[str, FeatureSlot]:
        """The live feature table's slot map, migrating the instance
        store first if the class shape changed since the last access."""
        table = self._table
        if table.stale:
            self._migrate()
            table = self._table
        return table.slots

    def _migrate(self) -> None:
        new_table = self._cls.feature_table()
        old_table = self._table
        old_store = self._store
        store: list[Any] = [_MISSING] * new_table.size
        for name, slot in old_table.slots.items():
            target = new_table.slots.get(name)
            if target is not None:
                store[target.index] = old_store[slot.index]
        object.__setattr__(self, "_table", new_table)
        object.__setattr__(self, "_store", store)

    def _require_slot(self, name: str) -> FeatureSlot:
        slot = self._slots().get(name)
        if slot is None:
            raise ModelError(f"class {self._cls.name!r} has no feature {name!r}")
        return slot

    def _ref_slot(self, ref: MetaReference) -> FeatureSlot:
        return self._slots()[ref.name]

    def _ref_list(self, ref: MetaReference) -> list["MObject"]:
        slot = self._ref_slot(ref)
        value = self._store[slot.index]
        if value is _MISSING:
            value = []
            self._store[slot.index] = value
        return value

    # -- identity ------------------------------------------------------

    @property
    def meta(self) -> MetaClass:
        return self._cls

    @property
    def id(self) -> str:
        return self._id

    @property
    def container(self) -> "MObject | None":
        return self._container

    @property
    def containing_reference(self) -> MetaReference | None:
        return self._container_ref

    def is_a(self, class_or_name: MetaClass | str) -> bool:
        if isinstance(class_or_name, str):
            return self._cls.is_a(class_or_name)
        return self._cls.conforms_to(class_or_name)

    # -- generic feature access ----------------------------------------

    def get(self, name: str) -> Any:
        slot = self._require_slot(name)
        value = self._store[slot.index]
        if slot.is_attribute:
            if slot.many:
                if value is _MISSING:
                    value = []
                    self._store[slot.index] = value
                return value
            if value is not _MISSING:
                return value
            return slot.feature.default_value()
        if slot.many:
            return _ManyRefList(self, slot.feature)
        return None if value is _MISSING else value

    def set(self, name: str, value: Any) -> None:
        slot = self._require_slot(name)
        if slot.is_attribute:
            self._set_attribute(slot, value)
        else:
            self._set_reference(slot.feature, value)

    def unset(self, name: str) -> None:
        slot = self._require_slot(name)
        if slot.is_attribute:
            self._store[slot.index] = _MISSING
        elif slot.many:
            _ManyRefList(self, slot.feature).clear()
        else:
            self._set_reference(slot.feature, None)

    def explicit_attributes(self) -> dict[str, Any]:
        """Attributes explicitly set on this instance, without defaults
        (many-valued lists materialized by :meth:`get` included)."""
        slots = self._slots()
        store = self._store
        return {
            name: store[slot.index]
            for name, slot in slots.items()
            if slot.is_attribute and store[slot.index] is not _MISSING
        }

    def has_explicit(self, name: str) -> bool:
        """True if ``name`` is an attribute explicitly set on this
        instance (as opposed to reporting its default)."""
        slot = self._slots().get(name)
        return (
            slot is not None
            and slot.is_attribute
            and self._store[slot.index] is not _MISSING
        )

    def __getattr__(self, name: str) -> Any:
        # Only called when normal lookup fails (i.e. model features).
        if name.startswith("_"):
            raise AttributeError(name)
        try:
            return self.get(name)
        except ModelError as exc:
            raise AttributeError(str(exc)) from exc

    def __setattr__(self, name: str, value: Any) -> None:
        if name in MObject.__slots__:
            object.__setattr__(self, name, value)
        else:
            self.set(name, value)

    # -- attribute machinery ---------------------------------------------

    def _set_attribute(self, slot: FeatureSlot, value: Any) -> None:
        attr = slot.feature
        if slot.many:
            if not isinstance(value, (list, tuple)):
                raise ModelError(
                    f"{attr.qualified_name} is many-valued; expected list, "
                    f"got {type(value).__name__}"
                )
            for item in value:
                self._check_attr(attr, item)
            self._store[slot.index] = list(value)
            return
        self._check_attr(attr, value)
        self._store[slot.index] = _MISSING if value is None else value

    def _check_attr(self, attr: MetaAttribute, value: Any) -> None:
        try:
            attr.check_value(value)
        except MetamodelError as exc:
            raise ModelError(str(exc)) from exc

    # -- reference machinery ----------------------------------------------

    def _set_reference(self, ref: MetaReference, value: Any) -> None:
        if ref.many:
            if not isinstance(value, (list, tuple, _ManyRefList)):
                raise ModelError(
                    f"{ref.qualified_name} is many-valued; expected list, "
                    f"got {type(value).__name__}"
                )
            _ManyRefList(self, ref).clear()
            for item in value:
                self._link(ref, item)
            return
        slot = self._ref_slot(ref)
        current = self._store[slot.index]
        if current is _MISSING:
            current = None
        if current is value:
            return
        if current is not None:
            self._unlink(ref, current)
        if value is not None:
            self._link(ref, value)

    def _check_ref_target(self, ref: MetaReference, value: "MObject") -> None:
        if not isinstance(value, MObject):
            raise ModelError(
                f"{ref.qualified_name}: expected MObject, got {type(value).__name__}"
            )
        if not value._cls.conforms_to(ref.target):
            raise ModelError(
                f"{ref.qualified_name}: {value._cls.name!r} does not conform "
                f"to {ref.target.name!r}"
            )

    def _link(self, ref: MetaReference, value: "MObject") -> None:
        self._check_ref_target(ref, value)
        if ref.containment:
            self._take_ownership(ref, value)
        if ref.many:
            raw = self._ref_list(ref)
            if value in raw:
                return
            raw.append(value)
        else:
            slot = self._ref_slot(ref)
            current = self._store[slot.index]
            if current is value:
                return
            if current is not _MISSING and current is not None:
                self._unlink(ref, current)
            self._store[slot.index] = value
        self._sync_opposite_add(ref, value)

    def _unlink(self, ref: MetaReference, value: "MObject") -> None:
        if ref.many:
            raw = self._ref_list(ref)
            if value not in raw:
                raise ModelError(
                    f"{ref.qualified_name}: {value!r} is not referenced"
                )
            raw.remove(value)
        else:
            slot = self._ref_slot(ref)
            if self._store[slot.index] is not value:
                raise ModelError(
                    f"{ref.qualified_name}: {value!r} is not referenced"
                )
            self._store[slot.index] = _MISSING
        if ref.containment and value._container is self:
            object.__setattr__(value, "_container", None)
            object.__setattr__(value, "_container_ref", None)
        self._sync_opposite_remove(ref, value)

    def _take_ownership(self, ref: MetaReference, value: "MObject") -> None:
        # Reject containment cycles.
        ancestor: MObject | None = self
        while ancestor is not None:
            if ancestor is value:
                raise ModelError(
                    f"{ref.qualified_name}: containment cycle through {value.id}"
                )
            ancestor = ancestor._container
        old_container = value._container
        if old_container is not None and old_container is not self:
            old_ref = value._container_ref
            assert old_ref is not None
            old_container._unlink(old_ref, value)
        object.__setattr__(value, "_container", self)
        object.__setattr__(value, "_container_ref", ref)

    def _sync_opposite_add(self, ref: MetaReference, value: "MObject") -> None:
        opp = ref.opposite_ref
        if opp is None:
            return
        if opp.many:
            raw = value._ref_list(opp)
            if self not in raw:
                raw.append(self)
        else:
            slot = value._ref_slot(opp)
            current = value._store[slot.index]
            if current is self:
                return
            if current is not _MISSING and current is not None:
                current._quiet_remove(ref, value)
            value._store[slot.index] = self

    def _sync_opposite_remove(self, ref: MetaReference, value: "MObject") -> None:
        opp = ref.opposite_ref
        if opp is None:
            return
        if opp.many:
            slot = value._ref_slot(opp)
            raw = value._store[slot.index]
            if raw is not _MISSING and self in raw:
                raw.remove(self)
        else:
            slot = value._ref_slot(opp)
            if value._store[slot.index] is self:
                value._store[slot.index] = _MISSING

    def _quiet_remove(self, ref: MetaReference, value: "MObject") -> None:
        """Remove ``value`` from our side of ``ref`` without opposite sync."""
        if ref.many:
            slot = self._ref_slot(ref)
            raw = self._store[slot.index]
            if raw is not _MISSING and value in raw:
                raw.remove(value)
        else:
            slot = self._ref_slot(ref)
            if self._store[slot.index] is value:
                self._store[slot.index] = _MISSING

    # -- structure queries ---------------------------------------------

    def contents(self) -> Iterator["MObject"]:
        """Directly contained objects, in feature/insertion order."""
        # No migration: a stale table still indexes this store, and a
        # feature the class gained since holds no value until a write
        # migrates the instance.
        store = self._store
        for slot in self._table.containment:
            value = store[slot.index]
            if value is _MISSING or value is None:
                continue
            if slot.many:
                yield from value
            else:
                yield value

    def walk(self) -> Iterator["MObject"]:
        """This object and all (transitively) contained objects."""
        yield self
        for child in self.contents():
            yield from child.walk()

    def find(self, predicate: Callable[["MObject"], bool]) -> Iterator["MObject"]:
        return (obj for obj in self.walk() if predicate(obj))

    def find_by_class(self, class_name: str) -> Iterator["MObject"]:
        return self.find(lambda obj: obj.is_a(class_name))

    def root(self) -> "MObject":
        obj: MObject = self
        while obj._container is not None:
            obj = obj._container
        return obj

    def path(self) -> str:
        """A /-separated containment path of ids from the root."""
        parts: list[str] = []
        obj: MObject | None = self
        while obj is not None:
            parts.append(obj.id)
            obj = obj._container
        return "/".join(reversed(parts))

    def _require_feature(self, name: str) -> MetaAttribute | MetaReference:
        return self._require_slot(name).feature

    def __repr__(self) -> str:
        slot = self._table.slots.get("name")
        label = None
        if slot is not None and slot.is_attribute:
            value = self._store[slot.index]
            if value is not _MISSING:
                label = value
        suffix = f" name={label!r}" if label else ""
        return f"<{self._cls.name} {self._id}{suffix}>"


class Model:
    """A root container for a tree (forest) of MObjects.

    A model is bound to a metamodel; all roots must conform to it.
    """

    def __init__(
        self,
        metamodel: Metamodel,
        *,
        name: str = "model",
        space: ModelSpace | None = None,
    ) -> None:
        metamodel.resolve()
        self.metamodel = metamodel
        self.name = name
        self.space = space if space is not None else _default_space
        self.roots: list[MObject] = []

    def create(self, class_name: str, **features: Any) -> MObject:
        """Instantiate a class from this model's metamodel (not yet a root)."""
        cls = self.metamodel.require_class(class_name)
        return MObject(cls, space=self.space, **features)

    def add_root(self, obj: MObject) -> MObject:
        if obj.container is not None:
            raise ModelError(f"{obj!r} is contained and cannot be a root")
        if obj in self.roots:
            return obj
        self.roots.append(obj)
        return obj

    def create_root(self, class_name: str, **features: Any) -> MObject:
        return self.add_root(self.create(class_name, **features))

    def remove_root(self, obj: MObject) -> None:
        self.roots.remove(obj)

    def walk(self) -> Iterator[MObject]:
        for root in self.roots:
            yield from root.walk()

    def objects_by_class(self, class_name: str) -> list[MObject]:
        return [obj for obj in self.walk() if obj.is_a(class_name)]

    def by_id(self, object_id: str) -> MObject | None:
        for obj in self.walk():
            if obj.id == object_id:
                return obj
        return None

    def index(self) -> dict[str, MObject]:
        """id -> object map over the whole model."""
        return {obj.id: obj for obj in self.walk()}

    def __len__(self) -> int:
        return sum(1 for _ in self.walk())

    def __repr__(self) -> str:
        return (
            f"Model({self.name!r}, metamodel={self.metamodel.name!r}, "
            f"objects={len(self)})"
        )
