"""Resource management: the Broker's interface to the world below.

Paper Sec. V-A: the Broker metamodel defines a resource manager "to
interface with the underlying resources", and the layer is
"responsible for interacting with the underlying resources and
services for the actual execution of commands, considering systems
issues such as heterogeneity and concurrency" (Sec. III).

A :class:`Resource` is the uniform adapter contract every underlying
service implements (simulated network services, plant controllers,
smart objects, sensing devices).  :class:`ResourceManager` hides
heterogeneity behind name-based dispatch and forwards resource events
upward.
"""

from __future__ import annotations

import random
from typing import Any, Callable, Iterator, Mapping

from repro.runtime.clock import Clock
from repro.runtime.events import EventBus, mint_event
from repro.runtime.faults import (
    PASSTHROUGH as PASSTHROUGH_POLICY,
    CircuitBreaker,
    InvocationOutcome,
    RetryPolicy,
    call_guarded,
)
from repro.runtime.metrics import MetricsRegistry, default_registry

__all__ = [
    "ResourceError",
    "TransientResourceError",
    "BreakerOpenError",
    "Resource",
    "CallableResource",
    "ResourceManager",
]


class ResourceError(Exception):
    """Raised on unknown resources/operations or failed invocations."""


class TransientResourceError(ResourceError):
    """A fault worth retrying (network glitch, injected fault, busy
    device).  The default Broker fault policies retry only these."""


class BreakerOpenError(ResourceError):
    """An invocation was rejected by an open circuit breaker."""


class Resource:
    """Adapter contract for an underlying resource or service.

    Subclasses implement :meth:`invoke`; they emit asynchronous
    occurrences by calling :meth:`notify` (wired to the Broker's bus by
    the resource manager).
    """

    def __init__(self, name: str, *, kind: str = "generic") -> None:
        self.name = name
        self.kind = kind
        self._notify: Callable[[str, dict[str, Any]], None] | None = None

    def invoke(self, operation: str, **args: Any) -> Any:
        raise NotImplementedError

    def operations(self) -> list[str]:
        """Advertised operations (diagnostics; empty = unadvertised)."""
        return []

    def describe(self) -> dict[str, Any]:
        return {"name": self.name, "kind": self.kind, "operations": self.operations()}

    # -- event plumbing ---------------------------------------------------

    def attach(self, notify: Callable[[str, dict[str, Any]], None]) -> None:
        self._notify = notify

    def detach(self) -> None:
        self._notify = None

    def notify(self, topic: str, **payload: Any) -> None:
        if self._notify is not None:
            self._notify(topic, payload)

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self.name!r} kind={self.kind!r}>"


class CallableResource(Resource):
    """A resource backed by a mapping of operation name -> callable."""

    def __init__(
        self,
        name: str,
        operations: Mapping[str, Callable[..., Any]],
        *,
        kind: str = "callable",
    ) -> None:
        super().__init__(name, kind=kind)
        self._operations = dict(operations)

    def invoke(self, operation: str, **args: Any) -> Any:
        fn = self._operations.get(operation)
        if fn is None:
            raise ResourceError(
                f"resource {self.name!r} has no operation {operation!r}"
            )
        return fn(**args)

    def operations(self) -> list[str]:
        return sorted(self._operations)


class ResourceManager:
    """Registers resources and dispatches operations onto them.

    Resource events surface on the Broker's bus under
    ``resource.<resource-name>.<topic>``.

    Fault tolerance: :meth:`set_fault_policy` / :meth:`protect` install
    per-resource retry policies and circuit breakers (``"*"`` installs
    a default for every resource).  Unprotected resources keep the
    bare, zero-overhead invocation path.  Breaker state changes are
    published as ``resource.<name>.breaker_<state>`` events, which the
    Broker's autonomic manager observes as symptoms.
    """

    def __init__(
        self,
        bus: EventBus,
        *,
        name: str = "resources",
        clock: Clock | None = None,
        metrics: MetricsRegistry | None = None,
    ) -> None:
        self.bus = bus
        self.name = name
        self.clock = clock
        self.metrics = metrics if metrics is not None else default_registry()
        self._resources: dict[str, Resource] = {}
        self._policies: dict[str, RetryPolicy] = {}
        self._breakers: dict[str, CircuitBreaker] = {}
        #: resources confirmed unprotected (no policy, no breaker, no
        #: effect journal installed): one dict hit replaces the
        #: policy/breaker/journal lookups on every invocation.
        #: Invalidated whenever protection state can change.
        self._unguarded: dict[str, Resource] = {}
        #: deterministic jitter source (policies opt into jitter)
        self._rng = random.Random(0)
        #: exactly-once interceptor (see repro.runtime.wal.EffectJournal);
        #: None keeps the bare invocation paths untouched.
        self.effect_journal: Any = None
        self.invocations = 0
        self.retries = 0

    def install_effect_journal(self, journal: Any) -> None:
        """Route every resource invocation through
        ``journal.around_invoke``.

        While a journal entry is open, live operations are recorded
        for the entry's ``applied`` seal and replayed operations return
        their memoized outcome without touching the resource — the
        exactly-once half of WAL recovery.  Passing ``None``
        uninstalls.  The journal's ``error_factory`` is defaulted to
        the broker fault taxonomy so replayed error outcomes re-raise
        with their original types (retry policies and handlers behave
        identically on replay).
        """
        self.effect_journal = journal
        self._unguarded = {}
        if journal is not None and journal.error_factory is None:
            journal.error_factory = _replay_error

    def register(self, resource: Resource) -> Resource:
        if resource.name in self._resources:
            raise ResourceError(f"duplicate resource {resource.name!r}")
        self._resources[resource.name] = resource
        bus = self.bus
        name = resource.name
        prefix = f"resource.{name}."
        full_topics: dict[str, str] = {}

        def _notify(topic: str, payload: dict[str, Any]) -> None:
            # Flattened _resource_event: the full topic string is
            # built once per distinct op topic and reused, so every
            # downstream per-topic cache (bus routes, instruments,
            # binding/handler routes) keys on an interned string with
            # a cached hash.
            full = full_topics.get(topic)
            if full is None:
                full = full_topics[topic] = prefix + topic
            payload.setdefault("resource", name)
            bus.publish(mint_event(full, payload, name))

        resource.attach(_notify)
        return resource

    def deregister(self, name: str) -> Resource:
        resource = self._resources.pop(name, None)
        if resource is None:
            raise ResourceError(f"no resource {name!r}")
        self._unguarded.pop(name, None)
        resource.detach()
        return resource

    def get(self, name: str) -> Resource | None:
        return self._resources.get(name)

    def require(self, name: str) -> Resource:
        resource = self._resources.get(name)
        if resource is None:
            raise ResourceError(f"no resource {name!r}")
        return resource

    # -- fault policies ---------------------------------------------------

    def set_fault_policy(
        self,
        resource_name: str,
        policy: RetryPolicy | None = None,
        *,
        breaker: CircuitBreaker | None = None,
    ) -> None:
        """Install a retry policy and/or breaker for ``resource_name``
        (``"*"`` = default for every resource without its own)."""
        self._unguarded = {}
        if policy is not None:
            self._policies[resource_name] = policy
        if breaker is not None:
            breaker.name = breaker.name or resource_name
            previous = breaker.on_transition
            breaker.on_transition = (
                self._breaker_transition if previous is None
                else lambda b, old, new: (
                    previous(b, old, new), self._breaker_transition(b, old, new)
                )
            )
            self._breakers[resource_name] = breaker

    def protect(
        self,
        resource_name: str,
        policy: RetryPolicy | None = None,
        *,
        failure_threshold: int = 5,
        recovery_time: float = 30.0,
        half_open_trials: int = 1,
    ) -> CircuitBreaker:
        """Convenience: build a clock-aware breaker for a resource and
        install it together with ``policy``."""
        breaker = CircuitBreaker(
            resource_name,
            failure_threshold=failure_threshold,
            recovery_time=recovery_time,
            half_open_trials=half_open_trials,
            now=self._now,
        )
        self.set_fault_policy(resource_name, policy, breaker=breaker)
        return breaker

    def breaker(self, resource_name: str) -> CircuitBreaker | None:
        return self._breakers.get(resource_name)

    def fault_policy(self, resource_name: str) -> RetryPolicy | None:
        policy = self._policies.get(resource_name)
        return policy if policy is not None else self._policies.get("*")

    def _now(self) -> float:
        return self.clock.now() if self.clock is not None else 0.0

    def _breaker_transition(
        self, breaker: CircuitBreaker, old: str, new: str
    ) -> None:
        self.metrics.count(
            "faults.breaker_transition", f"{breaker.name}:{new}"
        )
        self.bus.publish(
            _resource_event(
                breaker.name,
                f"breaker_{new}",
                {"previous": old, "state": new,
                 "failures": breaker.consecutive_failures},
            )
        )

    # -- invocation -------------------------------------------------------

    def invoke(self, resource_name: str, operation: str, **args: Any) -> Any:
        fast = self._unguarded.get(resource_name)
        if fast is not None:
            # Confirmed unprotected on a previous invocation and no
            # protection change since: skip the policy/breaker lookups.
            # The journal check stays in the fast path — ``active``
            # toggles per entry, so it cannot be cached — but it is one
            # attribute read when no journal is installed, keeping the
            # undurable hot path effectively unchanged.
            self.invocations += 1
            journal = self.effect_journal
            if journal is not None and journal.active:
                return journal.around_invoke(
                    f"{resource_name}.{operation}",
                    fast.invoke,
                    operation,
                    args,
                )
            return fast.invoke(operation, **args)
        self.invocations += 1
        resource = self.require(resource_name)
        policy = self.fault_policy(resource_name)
        breaker = self._breakers.get(resource_name)
        if policy is None and breaker is None:
            self._unguarded[resource_name] = resource
            journal = self.effect_journal
            if journal is not None and journal.active:
                return journal.around_invoke(
                    f"{resource_name}.{operation}",
                    resource.invoke,
                    operation,
                    args,
                )
            # Unprotected fast path: semantics and overhead unchanged.
            return resource.invoke(operation, **args)
        outcome = self._guarded(resource, operation, args, policy, breaker)
        if outcome.ok:
            return outcome.value
        if outcome.status == InvocationOutcome.REJECTED:
            raise BreakerOpenError(str(outcome.error)) from outcome.error
        assert outcome.error is not None
        raise outcome.error

    def invoke_guarded(
        self, resource_name: str, operation: str, **args: Any
    ) -> InvocationOutcome:
        """Like :meth:`invoke`, but degrade gracefully: failures come
        back as a typed :class:`InvocationOutcome`, never an exception."""
        self.invocations += 1
        label = f"{resource_name}.{operation}"
        resource = self._resources.get(resource_name)
        if resource is None:
            return InvocationOutcome(
                status=InvocationOutcome.FAILED, label=label,
                error=ResourceError(f"no resource {resource_name!r}"),
            )
        return self._guarded(
            resource, operation, args,
            self.fault_policy(resource_name),
            self._breakers.get(resource_name),
        )

    def _guarded(
        self,
        resource: Resource,
        operation: str,
        args: Mapping[str, Any],
        policy: RetryPolicy | None,
        breaker: CircuitBreaker | None,
    ) -> InvocationOutcome:
        label = f"{resource.name}.{operation}"

        def on_retry(attempt: int, exc: BaseException, delay: float) -> None:
            self.retries += 1
            self.metrics.count("faults.retries", resource.name)

        # Each *attempt* passes through the journal separately, so on
        # replay the recorded attempt outcomes line up one-to-one with
        # the retry loop's calls (policy decisions are deterministic:
        # seeded rng, breaker state restored from the snapshot).
        journal = self.effect_journal
        if journal is not None and journal.active:
            attempt_call: Callable[[], Any] = lambda: journal.around_invoke(
                label, resource.invoke, operation, args
            )
        else:
            attempt_call = lambda: resource.invoke(operation, **args)

        outcome = call_guarded(
            attempt_call,
            policy=policy or PASSTHROUGH_POLICY,
            breaker=breaker,
            clock=self.clock,
            rng=self._rng,
            label=label,
            on_retry=on_retry,
        )
        self.metrics.count(f"faults.outcome.{outcome.status}", resource.name)
        if outcome.status == InvocationOutcome.REJECTED:
            self.metrics.count("faults.rejected", resource.name)
        return outcome

    def by_kind(self, kind: str) -> list[Resource]:
        return [r for r in self._resources.values() if r.kind == kind]

    def inventory(self) -> list[dict[str, Any]]:
        return [r.describe() for r in self._resources.values()]

    def __contains__(self, name: object) -> bool:
        return name in self._resources

    def __iter__(self) -> Iterator[Resource]:
        return iter(self._resources.values())

    def __len__(self) -> int:
        return len(self._resources)


#: replayed error outcomes re-raise with their original broker types so
#: retry policies (``retry_on=TransientResourceError``) and API error
#: handling behave identically during WAL replay.
_REPLAY_ERROR_TYPES: dict[str, type[Exception]] = {
    "ResourceError": ResourceError,
    "TransientResourceError": TransientResourceError,
    "BreakerOpenError": BreakerOpenError,
}


def _replay_error(type_name: str, message: str) -> Exception:
    cls = _REPLAY_ERROR_TYPES.get(type_name)
    if cls is not None:
        return cls(message)
    from repro.runtime.faults import ReplayedFault

    return ReplayedFault(f"{type_name}: {message}")


def _resource_event(resource_name: str, topic: str, payload: dict[str, Any]):
    """Build a ``resource.<name>.<topic>`` event from a *fresh* payload.

    Takes ownership of ``payload`` (every caller builds it per event —
    ``Resource.notify`` kwargs, breaker-transition literals), so the
    hot path skips a defensive copy and the dataclass constructor
    (see :func:`~repro.runtime.events.mint_event`).
    """
    payload.setdefault("resource", resource_name)
    return mint_event(
        f"resource.{resource_name}.{topic}", payload, resource_name
    )
