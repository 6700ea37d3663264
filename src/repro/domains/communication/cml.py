"""CML — the Communication Modeling Language (paper Sec. IV-A).

CML models describe user-to-user communication scenarios.  Following
Deng et al. [9] / Wu et al. [10], a model has a *control* part — the
configuration of the communication (who talks to whom) — and a *data*
part — the media and media structures used.

Metamodel:

* ``CommSchema`` (root) — a scenario; ``isInstance`` distinguishes
  instances from reusable schemas (paper: "CML may be used to create
  two types of models: schema and instance").
* ``Person`` — a communication party (contained in the schema).
* ``Connection`` — the control schema: references participating
  ``Person`` objects and contains its data schema.
* ``Medium`` — the data schema: one media stream specification
  (kind + quality) within a connection.

Plus OCL-style invariants (a connection needs ≥2 participants, media
kinds are unique per connection, exactly one initiator, ...).
"""

from __future__ import annotations

from typing import Iterable

from repro.modeling.constraints import ConstraintRegistry, Severity
from repro.modeling.meta import Metamodel
from repro.modeling.model import Model, MObject

__all__ = [
    "cml_metamodel",
    "cml_constraints",
    "CmlBuilder",
    "parse_cml",
]

_METAMODEL: Metamodel | None = None
_CONSTRAINTS: ConstraintRegistry | None = None


def cml_metamodel() -> Metamodel:
    """Build (once) and return the CML metamodel."""
    global _METAMODEL
    if _METAMODEL is not None:
        return _METAMODEL
    mm = Metamodel("cml")
    mm.new_enum("MediumKind", ["audio", "video", "text", "file"])
    mm.new_enum("Quality", ["low", "standard", "high"])
    mm.new_enum("Role", ["initiator", "participant"])

    schema = mm.new_class("CommSchema")
    schema.attribute("name", "string", required=True)
    schema.attribute("isInstance", "bool", default=True)
    schema.reference("persons", "Person", containment=True, many=True)
    schema.reference("connections", "Connection", containment=True, many=True)

    person = mm.new_class("Person")
    person.attribute("userId", "string", required=True)
    person.attribute("name", "string")
    person.attribute("role", "Role", default="participant")

    connection = mm.new_class("Connection")
    connection.attribute("name", "string", required=True)
    connection.reference("participants", "Person", many=True, required=True)
    connection.reference("media", "Medium", containment=True, many=True)

    medium = mm.new_class("Medium")
    medium.attribute("kind", "MediumKind", required=True)
    medium.attribute("quality", "Quality", default="standard")

    _METAMODEL = mm.resolve()
    return _METAMODEL


def cml_constraints() -> ConstraintRegistry:
    """CML well-formedness invariants (validated before synthesis)."""
    global _CONSTRAINTS
    if _CONSTRAINTS is not None:
        return _CONSTRAINTS
    registry = ConstraintRegistry()
    registry.invariant(
        "connection-min-parties",
        "Connection",
        lambda obj, _ctx: len(obj.get("participants")) >= 2,
        message="a connection needs at least two participants",
    )
    registry.invariant(
        "connection-unique-media",
        "Connection",
        lambda obj, _ctx: _unique(m.get("kind") for m in obj.get("media")),
        message="media kinds must be unique within a connection",
    )
    registry.invariant(
        "schema-one-initiator",
        "CommSchema",
        lambda obj, _ctx: (
            sum(1 for p in obj.get("persons") if p.get("role") == "initiator") <= 1
        ),
        message="a scenario has at most one initiator",
    )
    registry.invariant(
        "connection-participants-in-schema",
        "Connection",
        _participants_contained,
        message="connection participants must be persons of the same schema",
    )
    registry.invariant(
        "schema-named-connections",
        "CommSchema",
        lambda obj, _ctx: _unique(c.get("name") for c in obj.get("connections")),
        message="connection names must be unique within a schema",
        severity=Severity.WARNING,
    )
    _CONSTRAINTS = registry
    return _CONSTRAINTS


def _unique(values: Iterable[object]) -> bool:
    seen = set()
    for value in values:
        if value in seen:
            return False
        seen.add(value)
    return True


def _participants_contained(obj: MObject, _ctx: dict) -> bool:
    schema = obj.container
    if schema is None:
        return False
    # A participant held in the schema's persons list passes without
    # building the schema's id set: validating every connection must
    # stay linear in the model, not quadratic.  Any other participant
    # still passes when its id names one of the schema's persons.
    persons: set[str] | None = None
    for participant in obj.get("participants"):
        reference = participant.containing_reference
        if (
            participant.container is schema
            and reference is not None
            and reference.name == "persons"
        ):
            continue
        if persons is None:
            persons = {p.id for p in schema.get("persons")}
        if participant.id not in persons:
            return False
    return True


class CmlBuilder:
    """Fluent construction of CML instance models.

    >>> builder = CmlBuilder("standup")
    >>> alice = builder.person("alice", role="initiator")
    >>> bob = builder.person("bob")
    >>> builder.connection("daily", [alice, bob], media=["audio", "video"])
    <Connection ...>
    """

    def __init__(self, name: str) -> None:
        self.model = Model(cml_metamodel(), name=name)
        self.schema = self.model.create_root("CommSchema", name=name)

    def person(
        self, user_id: str, *, name: str = "", role: str = "participant"
    ) -> MObject:
        person = self.model.create(
            "Person", userId=user_id, name=name or user_id, role=role
        )
        self.schema.persons.append(person)
        return person

    def connection(
        self,
        name: str,
        participants: list[MObject],
        *,
        media: list[str | tuple[str, str]] = (),
    ) -> MObject:
        connection = self.model.create("Connection", name=name)
        for participant in participants:
            connection.participants.append(participant)
        for spec in media:
            kind, quality = (spec, "standard") if isinstance(spec, str) else spec
            connection.media.append(
                self.model.create("Medium", kind=kind, quality=quality)
            )
        self.schema.connections.append(connection)
        return connection

    def build(self) -> Model:
        return self.model


def parse_cml(text: str) -> Model:
    """Parse CML's tiny textual concrete syntax.

    ::

        scenario standup
        person alice initiator
        person bob
        connection daily alice bob : audio video/high

    Media are ``kind`` or ``kind/quality``.
    """
    builder: CmlBuilder | None = None
    persons: dict[str, MObject] = {}
    for raw_line in text.splitlines():
        line = raw_line.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        keyword = parts[0]
        if keyword == "scenario":
            builder = CmlBuilder(parts[1])
        elif keyword == "person":
            if builder is None:
                raise ValueError("'person' before 'scenario'")
            role = parts[2] if len(parts) > 2 else "participant"
            persons[parts[1]] = builder.person(parts[1], role=role)
        elif keyword == "connection":
            if builder is None:
                raise ValueError("'connection' before 'scenario'")
            if ":" in parts:
                split_at = parts.index(":")
                party_names = parts[2:split_at]
                media_specs = parts[split_at + 1:]
            else:
                party_names = parts[2:]
                media_specs = []
            try:
                participants = [persons[p] for p in party_names]
            except KeyError as exc:
                raise ValueError(f"unknown person {exc} in connection") from exc
            media: list[tuple[str, str]] = []
            for spec in media_specs:
                kind, _, quality = spec.partition("/")
                media.append((kind, quality or "standard"))
            builder.connection(parts[1], participants, media=media)
        else:
            raise ValueError(f"unknown CML keyword {keyword!r}")
    if builder is None:
        raise ValueError("empty CML document (no 'scenario' line)")
    return builder.build()
