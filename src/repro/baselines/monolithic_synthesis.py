"""Hand-written CML synthesis for the monolithic CVM baseline.

The original CVM's Synthesis Engine compared the running model with a
newly submitted one and generated control scripts, with the comparison
and generation logic written by hand for the communication domain
(Wu et al. [10]).  This module is that *before* artifact: a monolithic
model interpreter that re-implements, in plain Python and specifically
for CML, everything the MD-DSM stack expresses as data (the kernel
diff + LTS rules of the communication DSK).

It deliberately shares nothing with :mod:`repro.modeling.diff` — the
whole point of the E4 comparison is that the pre-separation
architecture wrote this machinery per domain.
"""

from __future__ import annotations

from typing import Any

from repro.middleware.synthesis.scripts import Command, ControlScript
from repro.modeling.model import Model, MObject

__all__ = ["MonolithicSynthesis"]


class MonolithicSynthesis:
    """Hand-rolled CML model comparison and script generation."""

    def __init__(self) -> None:
        # Snapshots of the previously accepted model, kept as plain
        # dictionaries (the hand-written runtime model).
        self._connections: dict[str, dict[str, Any]] = {}
        self._media: dict[str, dict[str, Any]] = {}
        self._persons: set[str] = set()
        self.cycles = 0

    # ------------------------------------------------------------------
    # Snapshot extraction (hand-written model navigation).
    # ------------------------------------------------------------------

    @staticmethod
    def _snapshot(model: Model) -> tuple[
        dict[str, dict[str, Any]], dict[str, dict[str, Any]], set[str]
    ]:
        connections: dict[str, dict[str, Any]] = {}
        media: dict[str, dict[str, Any]] = {}
        persons: set[str] = set()
        for root in model.roots:
            if not root.is_a("CommSchema"):
                continue
            for person in root.get("persons"):
                persons.add(person.id)
            for connection in root.get("connections"):
                connections[connection.id] = {
                    "name": connection.get("name"),
                    "participants": [p.id for p in connection.get("participants")],
                }
                for medium in connection.get("media"):
                    media[medium.id] = {
                        "connection": connection.id,
                        "kind": medium.get("kind"),
                        "quality": medium.get("quality"),
                    }
        return connections, media, persons

    # ------------------------------------------------------------------
    # The synthesis cycle.
    # ------------------------------------------------------------------

    def synthesize(self, model: Model) -> ControlScript:
        """Compare ``model`` against the running snapshot and emit the
        control script realizing the difference."""
        self._validate(model)
        new_connections, new_media, new_persons = self._snapshot(model)
        script = ControlScript(name=f"monolithic:{model.name}")

        # Removed media first (bottom-up teardown order).
        for medium_id, spec in self._media.items():
            if medium_id in new_media:
                continue
            if spec["connection"] in new_connections:
                script.add(Command(
                    operation="comm.stream.close",
                    args={"connection": spec["connection"],
                          "medium": medium_id},
                ))
        # Removed connections.
        for connection_id in self._connections:
            if connection_id not in new_connections:
                script.add(Command(
                    operation="comm.session.teardown",
                    args={"connection": connection_id},
                ))
        # Changed connections: participant churn.
        for connection_id, spec in new_connections.items():
            old_spec = self._connections.get(connection_id)
            if old_spec is None:
                continue
            old_parties = set(old_spec["participants"])
            new_parties = set(spec["participants"])
            for party in spec["participants"]:
                if party not in old_parties:
                    script.add(Command(
                        operation="comm.party.add",
                        args={"connection": connection_id, "party": party},
                    ))
            for party in old_spec["participants"]:
                if party not in new_parties:
                    script.add(Command(
                        operation="comm.party.remove",
                        args={"connection": connection_id, "party": party},
                    ))
        # Changed media: quality reconfiguration.
        for medium_id, spec in new_media.items():
            old_spec = self._media.get(medium_id)
            if old_spec is None:
                continue
            if old_spec["quality"] != spec["quality"]:
                script.add(Command(
                    operation="comm.stream.reconfigure",
                    args={"connection": spec["connection"],
                          "medium": medium_id,
                          "quality": spec["quality"]},
                ))
        # New connections: establish + parties.
        for connection_id, spec in new_connections.items():
            if connection_id in self._connections:
                continue
            script.add(Command(
                operation="comm.session.establish",
                args={"connection": connection_id},
                target=connection_id,
            ))
            for party in spec["participants"]:
                script.add(Command(
                    operation="comm.party.add",
                    args={"connection": connection_id, "party": party},
                ))
        # New media: open streams (after their sessions exist).
        for medium_id, spec in new_media.items():
            if medium_id in self._media:
                continue
            script.add(Command(
                operation="comm.stream.open",
                args={"connection": spec["connection"],
                      "medium": medium_id,
                      "kind": spec["kind"],
                      "quality": spec["quality"]},
            ))

        self._connections = new_connections
        self._media = new_media
        self._persons = new_persons
        self.cycles += 1
        return script

    def teardown(self) -> ControlScript:
        """Script tearing down everything currently running."""
        script = ControlScript(name="monolithic:teardown")
        for medium_id, spec in self._media.items():
            script.add(Command(
                operation="comm.stream.close",
                args={"connection": spec["connection"], "medium": medium_id},
            ))
        for connection_id in self._connections:
            script.add(Command(
                operation="comm.session.teardown",
                args={"connection": connection_id},
            ))
        self._connections = {}
        self._media = {}
        self._persons = set()
        self.cycles += 1
        return script

    # ------------------------------------------------------------------
    # Hand-written validation (the DSK gets this from constraints).
    # ------------------------------------------------------------------

    @staticmethod
    def _validate(model: Model) -> None:
        for root in model.roots:
            if not root.is_a("CommSchema"):
                raise ValueError(
                    f"monolithic synthesis only accepts CommSchema roots, "
                    f"got {root.meta.name}"
                )
            person_ids = {p.id for p in root.get("persons")}
            initiators = [
                p for p in root.get("persons")
                if p.get("role") == "initiator"
            ]
            if len(initiators) > 1:
                raise ValueError("a scenario has at most one initiator")
            seen_names: set[str] = set()
            for connection in root.get("connections"):
                name = connection.get("name")
                if name in seen_names:
                    raise ValueError(f"duplicate connection name {name!r}")
                seen_names.add(name)
                participants = list(connection.get("participants"))
                if len(participants) < 2:
                    raise ValueError(
                        f"connection {name!r} needs at least two participants"
                    )
                for participant in participants:
                    if participant.id not in person_ids:
                        raise ValueError(
                            f"connection {name!r} references a person "
                            f"outside the schema"
                        )
                kinds: set[str] = set()
                for medium in connection.get("media"):
                    kind = medium.get("kind")
                    if kind in kinds:
                        raise ValueError(
                            f"connection {name!r} duplicates medium {kind!r}"
                        )
                    kinds.add(kind)

    # ------------------------------------------------------------------
    # Runtime-model introspection (parity with the dispatcher).
    # ------------------------------------------------------------------

    def running_connections(self) -> list[str]:
        return sorted(self._connections)

    def running_media(self) -> list[str]:
        return sorted(self._media)
