"""The Broker layer façade (main Manager).

Paper Sec. V-A / Fig. 6: "the main Manager ... is responsible for
exposing the layer's interface and handling calls received from the
upper layer and events received from the underlying resources.  Calls
and events are handled by selecting and dispatching appropriate
actions."

:class:`BrokerLayer` composes the specialized managers — state, policy,
autonomic and resource — and exposes ``call_api`` (the
:class:`~repro.middleware.controller.stackmachine.BrokerPort` consumed
by the Controller) plus upward event forwarding.
"""

from __future__ import annotations

from typing import Any

from repro.middleware.broker.actions import (
    BrokerAction,
    BrokerActionError,
    BrokerActionTable,
    EventBindingTable,
)
from repro.middleware.broker.autonomic import AutonomicManager, ChangePlan, Symptom
from repro.middleware.broker.resource import (
    BreakerOpenError,
    Resource,
    ResourceManager,
)
from repro.runtime.faults import CircuitBreaker, InvocationOutcome, RetryPolicy
from repro.middleware.broker.state import StateManager
from repro.middleware.controller.policy import ContextStore, PolicyEngine
from repro.runtime.component import Component
from repro.runtime.events import Signal

__all__ = ["BrokerLayer"]


class BrokerLayer(Component):
    """Main manager of the Broker layer.

    Manager sub-structure follows the Broker metamodel (Fig. 6); any
    manager can be disabled through configuration metadata, which is
    how leaner configurations are modeled (the paper argues leaner
    layer configurations offset the model-based overhead, Sec. VII-A):

    * ``enable_autonomic`` (default true)
    * ``enable_policies`` (default true)
    * ``enable_state_snapshots`` (default true)
    """

    def __init__(self, name: str = "broker", **kwargs: Any) -> None:
        super().__init__(name, **kwargs)
        self.state = StateManager(name=f"{name}.state")
        self.resources = ResourceManager(
            self.bus,
            name=f"{name}.resources",
            clock=self.clock,
            metrics=self.metrics,
        )
        self.calls = BrokerActionTable(self.resources, self.state)
        self.events = EventBindingTable(self.resources, self.state)
        self.policies = PolicyEngine(ContextStore())
        self.autonomic = AutonomicManager(
            self.resources, self.state, now=lambda: self.clock.now()
        )
        self.api_calls = 0
        self.events_forwarded = 0
        self._subscription = None
        #: the upward port, resolved once per running window (on_start).
        self._upward: Any = None
        #: actions installed while running (reflection, autonomic
        #: plans) — the loader installs model-defined actions before
        #: start, so anything arriving later must travel with the
        #: session snapshot (PR 5).
        self._dynamic_actions: list[BrokerAction] = []
        #: Tier-3 generated call table (exact API -> fn) or None;
        #: dropped — all calls fall back to table dispatch — whenever
        #: an action is installed.
        self._aot_calls: dict[str, Any] | None = None
        #: pre-resolved per-topic instruments for the forwarded-events
        #: counter, valid for single-writer registries only (see
        #: MetricsRegistry.live_counter); the registry is fixed at
        #: construction, so no invalidation is needed.
        self._fwd_counters: dict[str, Any] = {}

    # -- lifecycle -------------------------------------------------------

    def on_configure(self) -> None:
        self.autonomic.enabled = _as_bool(self.metadata.get("enable_autonomic", True))
        self._policies_enabled = _as_bool(
            self.metadata.get("enable_policies", True)
        )
        self._snapshots_enabled = _as_bool(
            self.metadata.get("enable_state_snapshots", True)
        )

    def on_start(self) -> None:
        # Receive events from every registered resource — unless this
        # configuration has nobody to deliver them to (lean configs
        # with no bindings, no autonomic manager, and no upper layer
        # skip the whole event path).
        needs_events = (
            self.events.binding_count > 0
            or self.autonomic.enabled
            or self.port_or_none("upward") is not None
        )
        if needs_events:
            self._subscription = self.bus.subscribe(
                "resource.*", self._on_resource_event
            )
        # Ports cannot be rewired while running (Component.wire), so
        # the upward target is fixed for the whole running window.
        self._upward = self.port_or_none("upward")
        if self.autonomic.enabled:
            self.state.watch(lambda *_: self.autonomic.observe_state())

    def on_stop(self) -> None:
        if self._subscription is not None:
            self._subscription.cancel()
            self._subscription = None
        self._upward = None

    # -- the layer interface (BrokerPort) -------------------------------------

    def call_api(self, api: str, **args: Any) -> Any:
        """Handle a call from the Controller layer.

        An API in the generated call table runs its generated function,
        which has the action table's exact dispatch and step semantics
        minus the per-call env dict construction; any other API
        dispatches through the table.  Both sit inside the same
        counter, latency histogram and transactional bracket.
        """
        self.require_running()
        self.api_calls += 1
        self.metrics.count("broker.call_api", api)
        snapshot_taken = False
        if self._snapshots_enabled and args.pop("_transactional", False):
            self.state.snapshot()
            snapshot_taken = True
        generated = self._aot_calls.get(api) if self._aot_calls else None
        try:
            with self.metrics.time("broker.call_api", api, clock=self.clock):
                if generated is None:
                    result = self.calls.dispatch(api, **args)
                else:
                    self.calls.dispatched += 1
                    state = self.state
                    result = generated(self.resources, state, state._values, args)
        except Exception:
            # Any failure inside a transactional call rolls state back
            # (resource faults included, not just dispatch errors).
            if snapshot_taken:
                self.state.restore()
            raise
        if snapshot_taken:
            self.state.drop_snapshot()
        return result

    def call_api_guarded(self, api: str, **args: Any) -> InvocationOutcome:
        """Graceful-degradation variant of :meth:`call_api`: failures
        (breaker rejections included) come back as a typed outcome
        instead of an exception — the contract heavy-traffic callers
        use so one misbehaving resource cannot crash the caller."""
        try:
            value = self.call_api(api, **args)
        except BreakerOpenError as exc:
            return InvocationOutcome(
                status=InvocationOutcome.REJECTED, label=api, error=exc
            )
        except Exception as exc:  # noqa: BLE001 - typed-outcome contract
            return InvocationOutcome(
                status=InvocationOutcome.FAILED, label=api, error=exc
            )
        return InvocationOutcome(
            status=InvocationOutcome.OK, label=api, value=value, attempts=1
        )

    # -- installation API (used by the model loader and DSK modules) -----------

    def install_resource(self, resource: Resource) -> Resource:
        return self.resources.register(resource)

    def install_action(self, action: BrokerAction) -> BrokerAction:
        registered = self.calls.register(action)
        if self.running:
            self._dynamic_actions.append(registered)
        # The new action may displace a generated winner (priority,
        # wildcard overlap) and changes the DSK_HASH: drop the Tier-3
        # table; the synthesis-cycle refresh hook regenerates it from
        # the updated action list.
        self._aot_calls = None
        return registered

    def install_aot(self, calls: dict[str, Any] | None) -> None:
        """Install (or with ``None`` remove) a validated Tier-3 call
        table (``AotProgram.broker_calls``)."""
        self._aot_calls = dict(calls) if calls is not None else None

    def install_event_binding(
        self, topic_pattern: str, action: BrokerAction, *, guard: str | None = None
    ) -> None:
        self.events.bind(topic_pattern, action, guard=guard)

    def install_fault_policy(
        self,
        resource_name: str,
        policy: RetryPolicy | None = None,
        *,
        failure_threshold: int = 5,
        recovery_time: float = 30.0,
        half_open_trials: int = 1,
    ) -> CircuitBreaker:
        """Protect a resource with a retry policy + circuit breaker;
        breaker transitions surface as ``resource.<name>.breaker_*``
        events the autonomic manager can consume as symptoms."""
        return self.resources.protect(
            resource_name,
            policy,
            failure_threshold=failure_threshold,
            recovery_time=recovery_time,
            half_open_trials=half_open_trials,
        )

    def install_symptom(self, symptom: Symptom) -> Symptom:
        return self.autonomic.add_symptom(symptom)

    def install_plan(self, plan: ChangePlan) -> ChangePlan:
        return self.autonomic.add_plan(plan)

    # -- event path -----------------------------------------------------------------

    def _on_resource_event(self, signal: Signal) -> None:
        # 1. layer-local event bindings (model-defined reactions) and
        # 2. autonomic monitoring — both get a defensive payload copy,
        #    built only when at least one of them will look at it (the
        #    common resource event matches no binding pattern and the
        #    autonomic manager is disabled; the copy would be pure
        #    overhead).  The binding table's per-topic route cache
        #    makes the "any binding for this topic?" probe one dict hit.
        events = self.events
        if (events._bindings and events.routes(signal.topic)) or (
            self.autonomic.enabled
        ):
            payload = dict(signal.payload)
            events.dispatch(signal.topic, payload)
            self.autonomic.observe_event(signal.topic, payload)
        # 3. forward upward for the Controller's event handler
        self.events_forwarded += 1
        metrics = self.metrics
        if metrics.enabled:
            if metrics.thread_safe:
                metrics.count("broker.events_forwarded", signal.topic)
            else:
                counter = self._fwd_counters.get(signal.topic)
                if counter is None:
                    counter = self._fwd_counters[signal.topic] = (
                        metrics.live_counter("broker.events_forwarded", signal.topic)
                    )
                counter.value += 1
        upward = self._upward
        if upward is not None:
            upward.receive_signal(signal)

    # -- externalization (PR 5) -------------------------------------------------

    def externalize(self) -> dict[str, Any]:
        """Capture the broker's mutable surface for migration/recovery.

        Covered: the state manager (values + snapshot stack + model
        slot), per-resource circuit-breaker state, resource/dispatch
        counters, the autonomic manager's history, and *dynamic*
        action-table entries (actions installed after start — e.g. by
        reflection or autonomic plans).  Model-defined actions are
        rebuilt from the session model by the loader and are not
        duplicated here.  A dynamic action with a Python-callable
        implementation cannot travel as data; it is recorded as a named
        marker and must already exist on the restoring side.
        """
        breakers = {}
        for resource in self.resources:
            breaker = self.resources.breaker(resource.name)
            if breaker is not None:
                breakers[resource.name] = breaker.externalize()
        dynamic = []
        for action in self._dynamic_actions:
            entry: dict[str, Any] = {
                "name": action.name,
                "pattern": action.pattern,
                "guard": action.guard,
                "priority": action.priority,
            }
            if callable(action.implementation):
                entry["callable"] = True
            else:
                entry["steps"] = [dict(step) for step in action.implementation]
            dynamic.append(entry)
        return {
            "state": self.state.externalize(),
            "breakers": dict(sorted(breakers.items())),
            "dynamic_actions": dynamic,
            "autonomic": self.autonomic.externalize(),
            "api_calls": self.api_calls,
            "events_forwarded": self.events_forwarded,
            "invocations": self.resources.invocations,
            "retries": self.resources.retries,
            "dispatched": self.calls.dispatched,
        }

    def restore_external(self, doc: dict[str, Any], *, metamodel: Any = None) -> None:
        """Apply a captured document onto this (compatible) layer.

        Quiet restore: state values are written without watcher
        notification so the autonomic manager does not re-evaluate
        symptoms for history that already played out.  Dynamic actions
        whose name already exists in the table are skipped — the loader
        rebuilds reflective additions from the mirrored session model,
        and re-registering would raise a duplicate error.  ``metamodel``
        is only needed when the state manager carried a model slot.
        """
        self.state.restore_external(doc.get("state", {}), metamodel=metamodel)
        for name, breaker_doc in doc.get("breakers", {}).items():
            breaker = self.resources.breaker(name)
            if breaker is not None:
                breaker.restore_external(breaker_doc)
        existing = {action.name for action in self.calls._actions}
        for entry in doc.get("dynamic_actions", []):
            if entry["name"] in existing:
                continue
            if entry.get("callable"):
                raise BrokerActionError(
                    f"dynamic action {entry['name']!r} has a callable "
                    f"implementation and is not installed on the "
                    f"restoring side"
                )
            self.install_action(
                BrokerAction(
                    name=entry["name"],
                    pattern=entry["pattern"],
                    implementation=list(entry.get("steps", [])),
                    guard=entry.get("guard"),
                    priority=int(entry.get("priority", 0)),
                )
            )
        self.autonomic.restore_external(doc.get("autonomic", {}))
        self.api_calls = int(doc.get("api_calls", 0))
        self.events_forwarded = int(doc.get("events_forwarded", 0))
        self.resources.invocations = int(doc.get("invocations", 0))
        self.resources.retries = int(doc.get("retries", 0))
        self.calls.dispatched = int(doc.get("dispatched", 0))

    def stats(self) -> dict[str, Any]:
        stats: dict[str, Any] = {
            "api_calls": self.api_calls,
            "actions": self.calls.action_count,
            "resources": len(self.resources),
            "events_forwarded": self.events_forwarded,
            "autonomic_requests": len(self.autonomic.requests_raised),
            "autonomic_plans_executed": self.autonomic.plans_executed,
        }
        if self.resources.retries:
            stats["resource_retries"] = self.resources.retries
        breakers = {
            resource.name: breaker.state
            for resource in self.resources
            if (breaker := self.resources.breaker(resource.name)) is not None
        }
        if breakers:
            stats["breakers"] = breakers
        return stats


def _as_bool(value: Any) -> bool:
    if isinstance(value, str):
        return value.lower() in ("1", "true", "yes", "on")
    return bool(value)
