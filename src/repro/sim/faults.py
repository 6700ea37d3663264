"""Deterministic fault injection for simulated resources.

Wraps any :class:`~repro.middleware.broker.resource.Resource` in a
proxy that injects faults *before* the inner resource sees the
operation: probabilistic operation failures, latency spikes (charged
to the active clock), and *flaky windows* — intervals of simulated
time during which the failure rate is elevated (up to a hard outage).

Everything is driven by one seeded :class:`random.Random` and the
injected clock, so a given ``(seed, scenario)`` pair replays the exact
same fault sequence — the property that turns the paper's E5 recovery
demonstration into a reproducible benchmark (``repro bench faults``).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Any, Callable, Collection

from repro.middleware.broker.resource import Resource, TransientResourceError
from repro.runtime.clock import Clock

__all__ = ["InjectedFault", "FlakyWindow", "FaultInjector"]


class InjectedFault(TransientResourceError):
    """A synthetic, transient fault raised by the injector."""


@dataclass(frozen=True)
class FlakyWindow:
    """An interval of simulated time with an elevated failure rate."""

    start: float
    end: float
    failure_rate: float = 1.0

    def covers(self, now: float) -> bool:
        return self.start <= now < self.end


class FaultInjector(Resource):
    """A fault-injecting proxy around an underlying resource.

    Registered under the inner resource's name, so brokers dispatch to
    it transparently; event plumbing (``attach``/``notify``) is
    forwarded to the inner resource so its asynchronous occurrences
    still reach the bus.

    * ``failure_rate`` — baseline probability that an operation raises
      :class:`InjectedFault` instead of executing.
    * ``windows`` — :class:`FlakyWindow` s; inside a window the
      *maximum* of the baseline and window rate applies.
    * ``latency_spike_rate`` / ``latency_spike`` — probability and
      size (seconds) of a latency spike, charged via
      ``clock.advance`` (instant on a virtual clock, a no-op on a
      wall clock — real work takes real time).
    * ``only_operations`` — restrict injection to these operations
      (``None`` = all).
    """

    def __init__(
        self,
        inner: Resource,
        *,
        seed: int = 0,
        clock: Clock | None = None,
        failure_rate: float = 0.0,
        latency_spike_rate: float = 0.0,
        latency_spike: float = 0.25,
        windows: Collection[FlakyWindow] = (),
        only_operations: Collection[str] | None = None,
    ) -> None:
        super().__init__(inner.name, kind=inner.kind)
        if not 0.0 <= failure_rate <= 1.0:
            raise ValueError("failure_rate must be in [0, 1]")
        self.inner = inner
        self.seed = seed
        self.rng = random.Random(seed)
        self.clock = clock
        self.failure_rate = failure_rate
        self.latency_spike_rate = latency_spike_rate
        self.latency_spike = latency_spike
        self.windows = tuple(windows)
        self.only_operations = (
            frozenset(only_operations) if only_operations is not None else None
        )
        self.invocations = 0
        self.injected_faults = 0
        self.spikes = 0
        self.fault_log: list[str] = []

    # -- event plumbing: forward to the inner resource --------------------

    def attach(self, notify: Callable[[str, dict[str, Any]], None]) -> None:
        super().attach(notify)
        self.inner.attach(notify)

    def detach(self) -> None:
        super().detach()
        self.inner.detach()

    def operations(self) -> list[str]:
        return self.inner.operations()

    def describe(self) -> dict[str, Any]:
        doc = self.inner.describe()
        doc["fault_injector"] = {
            "seed": self.seed,
            "failure_rate": self.failure_rate,
            "injected_faults": self.injected_faults,
        }
        return doc

    # -- injection ---------------------------------------------------------

    def _now(self) -> float:
        return self.clock.now() if self.clock is not None else 0.0

    def current_failure_rate(self) -> float:
        rate = self.failure_rate
        now = self._now()
        for window in self.windows:
            if window.covers(now):
                rate = max(rate, window.failure_rate)
        return rate

    def _eligible(self, operation: str) -> bool:
        return (
            self.only_operations is None or operation in self.only_operations
        )

    def invoke(self, operation: str, **args: Any) -> Any:
        self.invocations += 1
        if self._eligible(operation):
            # One RNG draw per decision, in fixed order: replayable.
            if self.rng.random() < self.current_failure_rate():
                self.injected_faults += 1
                self.fault_log.append(operation)
                raise InjectedFault(
                    f"injected fault in {self.name}.{operation} "
                    f"(#{self.injected_faults}, t={self._now():.3f})"
                )
            if (
                self.latency_spike_rate
                and self.rng.random() < self.latency_spike_rate
            ):
                self.spikes += 1
                if self.clock is not None:
                    self.clock.advance(self.latency_spike)
        return self.inner.invoke(operation, **args)

    def stats(self) -> dict[str, Any]:
        return {
            "seed": self.seed,
            "invocations": self.invocations,
            "injected_faults": self.injected_faults,
            "spikes": self.spikes,
        }

    def __repr__(self) -> str:
        return (
            f"<FaultInjector {self.name!r} seed={self.seed} "
            f"rate={self.failure_rate} faults={self.injected_faults}>"
        )
