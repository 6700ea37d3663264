"""CSVM — the Crowdsensing Virtual Machine (paper Sec. IV-D).

The provider-side CSVM runs the *bottom three* layers (Synthesis,
Controller, Broker): "creation and modification of user models only
happens in the mobile devices", which submit their models to the
provider.  :class:`CSVM` therefore exposes ``submit_model`` (models
arriving from devices) and ``collect`` (periodic query evaluation),
with no UI layer.
"""

from __future__ import annotations

from typing import Any

from repro.domains.assembly import assemble_middleware_model
from repro.domains.crowdsensing import dsk
from repro.domains.crowdsensing.csml import csml_constraints, csml_metamodel
from repro.middleware.loader import DomainKnowledge, load_platform
from repro.middleware.platform import Platform
from repro.middleware.synthesis.engine import SynthesisResult
from repro.middleware.synthesis.scripts import Command
from repro.modeling.model import Model, MObject
from repro.runtime.clock import Clock
from repro.sim.fleet import DeviceFleet

__all__ = ["build_middleware_model", "CSVM"]


def build_middleware_model(*, name: str = "csvm") -> Model:
    """The provider-side CSVM middleware model (no UI layer)."""
    return assemble_middleware_model(
        name,
        "crowdsensing",
        dsk,
        description="Mobile crowdsensing provider (CSML/CSVM, Sec. IV-D)",
        with_ui=False,
    )


class CSVM:
    """The provider-side crowdsensing platform."""

    def __init__(
        self,
        *,
        fleet: DeviceFleet | None = None,
        clock: Clock | None = None,
    ) -> None:
        self.fleet = fleet or DeviceFleet(dsk.RESOURCE_NAME)
        if self.fleet.name != dsk.RESOURCE_NAME:
            raise ValueError(
                f"fleet resource must be named {dsk.RESOURCE_NAME!r}"
            )
        knowledge = DomainKnowledge(
            dsml=csml_metamodel(),
            resources=[self.fleet],
            constraints=csml_constraints(),
        )
        self.platform: Platform = load_platform(
            build_middleware_model(), knowledge, clock=clock
        )
        assert self.platform.controller is not None
        self.platform.controller.context.update(
            {"fleet_battery": 100.0, "coverage_mode": "full"}
        )
        #: task id -> latest aggregated result (filled by result events).
        self.results: dict[str, list[dict[str, Any]]] = {}
        self.platform.controller.events.on(
            "controller.cs.result", self._on_result
        )

    # -- model path (models arrive from mobile devices) -----------------

    def submit_model(self, model: Model, **context: Any) -> SynthesisResult:
        """A device submitted a new/updated campaign model."""
        synthesis = self.platform.synthesis
        assert synthesis is not None
        report = synthesis.constraints.validate(model)
        report.raise_if_invalid()
        return synthesis.synthesize(model, context=context or None, report=report)

    def teardown(self) -> SynthesisResult:
        assert self.platform.synthesis is not None
        return self.platform.synthesis.teardown_script()

    # -- collection rounds ------------------------------------------------

    def collect(self, query: MObject | str) -> Any:
        """Run one collection + aggregation round for a query.

        Dynamically generates the Intent Model whose aggregation arm
        matches the query's ``aggregate`` and whose gathering arm is
        chosen by fleet-state policies.
        """
        query_obj = self._resolve_query(query)
        aggregate = query_obj.get("aggregate")
        command = Command(
            operation="cs.query.collect",
            args={"task": query_obj.id},
            classifier=f"cs.collect.{aggregate}",
        )
        assert self.platform.controller is not None
        outcome = self.platform.controller.execute_command(command)
        if outcome.result is not None and outcome.result.status == "guard_failed":
            return None  # no readings this round
        if not outcome.ok:
            error = outcome.result.error if outcome.result else "unknown"
            raise RuntimeError(f"collection round failed: {error}")
        return outcome.result.value if outcome.result else None

    def refresh_fleet_context(self) -> dict[str, Any]:
        """Update controller context from live fleet status (drives the
        battery-saver policy)."""
        status = self.fleet.op_fleet_status()
        assert self.platform.controller is not None
        self.platform.controller.context.set(
            "fleet_battery", status["mean_battery"]
        )
        return status

    # -- internals ------------------------------------------------------------

    def _resolve_query(self, query: MObject | str) -> MObject:
        if isinstance(query, MObject):
            return query
        assert self.platform.synthesis is not None
        runtime = self.platform.synthesis.dispatcher.runtime_model
        if runtime is None:
            raise LookupError("no campaign model is running")
        for candidate in runtime.objects_by_class("SensingQuery"):
            if candidate.id == query or candidate.get("name") == query:
                return candidate
        raise LookupError(f"no running query {query!r}")

    def _on_result(self, _topic: str, payload: dict[str, Any]) -> None:
        self.results.setdefault(payload.get("task", "?"), []).append(payload)

    def stats(self) -> dict[str, Any]:
        return self.platform.stats()

    def stop(self) -> None:
        self.platform.stop()
