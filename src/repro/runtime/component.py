"""Component model: lifecycle, ports, and wiring.

Middleware models are realized as graphs of components (paper Sec. V-A:
"the runtime environment is used to generate and execute the
appropriate middleware components defined in the model").  A
:class:`Component` has a lifecycle (``CREATED → CONFIGURED → STARTED →
STOPPED``), named *ports* for explicit wiring to other components, and
access to the shared :class:`~repro.runtime.events.EventBus` and
:class:`~repro.runtime.clock.Clock`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Mapping, TYPE_CHECKING

from repro.runtime.clock import Clock, WallClock
from repro.runtime.events import EventBus
from repro.runtime.metrics import MetricsRegistry, default_registry

if TYPE_CHECKING:
    from repro.runtime.registry import Registry

__all__ = ["ComponentError", "LifecycleState", "Component", "Supervisor"]


class ComponentError(Exception):
    """Raised on lifecycle violations or bad wiring."""


class LifecycleState:
    CREATED = "created"
    CONFIGURED = "configured"
    STARTED = "started"
    STOPPED = "stopped"

    _TRANSITIONS = {
        CREATED: {CONFIGURED},
        CONFIGURED: {STARTED},
        STARTED: {STOPPED},
        STOPPED: {STARTED},  # restart allowed
    }

    @classmethod
    def check(cls, current: str, target: str) -> None:
        if target not in cls._TRANSITIONS.get(current, set()):
            raise ComponentError(
                f"illegal lifecycle transition {current!r} -> {target!r}"
            )


class Component:
    """Base class for all generated and handwritten middleware components.

    Subclasses override ``on_configure``, ``on_start``, ``on_stop``.
    Configuration arrives as a metadata mapping extracted from the
    middleware model by the component factory.
    """

    #: Port names this component requires before it can start.
    required_ports: tuple[str, ...] = ()

    def __init__(
        self,
        name: str,
        *,
        bus: EventBus | None = None,
        clock: Clock | None = None,
        metrics: MetricsRegistry | None = None,
    ) -> None:
        self.name = name
        self.clock = clock or WallClock()
        self.metrics = metrics if metrics is not None else default_registry()
        self.bus = bus or EventBus(
            name=f"{name}.bus", clock=self.clock, metrics=self.metrics
        )
        self.lifecycle = LifecycleState.CREATED
        self.metadata: dict[str, Any] = {}
        self._ports: dict[str, Any] = {}
        self.registry: "Registry | None" = None

    # -- lifecycle -------------------------------------------------------

    def configure(self, metadata: Mapping[str, Any] | None = None) -> "Component":
        LifecycleState.check(self.lifecycle, LifecycleState.CONFIGURED)
        self.metadata = dict(metadata or {})
        self.on_configure()
        self.lifecycle = LifecycleState.CONFIGURED
        return self

    def start(self) -> "Component":
        LifecycleState.check(self.lifecycle, LifecycleState.STARTED)
        missing = [p for p in self.required_ports if p not in self._ports]
        if missing:
            raise ComponentError(
                f"component {self.name!r} cannot start: unwired ports {missing!r}"
            )
        self.on_start()
        self.lifecycle = LifecycleState.STARTED
        return self

    def stop(self) -> "Component":
        LifecycleState.check(self.lifecycle, LifecycleState.STOPPED)
        self.on_stop()
        self.lifecycle = LifecycleState.STOPPED
        return self

    @property
    def running(self) -> bool:
        return self.lifecycle == LifecycleState.STARTED

    def require_running(self) -> None:
        if not self.running:
            raise ComponentError(f"component {self.name!r} is not started")

    # -- hooks -------------------------------------------------------------

    def on_configure(self) -> None:
        """Subclass hook: interpret ``self.metadata``."""

    def on_start(self) -> None:
        """Subclass hook: acquire resources, subscribe to topics."""

    def on_stop(self) -> None:
        """Subclass hook: release resources."""

    # -- ports ---------------------------------------------------------------

    def wire(self, port: str, target: Any) -> "Component":
        """Connect ``port`` to ``target`` (usually another component)."""
        if self.lifecycle == LifecycleState.STARTED:
            raise ComponentError(
                f"component {self.name!r}: cannot rewire port {port!r} while running"
            )
        self._ports[port] = target
        return self

    def port(self, name: str) -> Any:
        if name not in self._ports:
            raise ComponentError(f"component {self.name!r}: port {name!r} unwired")
        return self._ports[name]

    def port_or_none(self, name: str) -> Any:
        return self._ports.get(name)

    @property
    def ports(self) -> dict[str, Any]:
        return dict(self._ports)

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self.name!r} {self.lifecycle}>"


# -- supervision -----------------------------------------------------------


@dataclass
class _SupervisionEntry:
    component: Component
    restarts: int = 0
    last_crash: float = field(default=float("-inf"))
    gave_up: bool = False


class Supervisor:
    """Restarts crashed components with exponential backoff.

    A crash is *reported* (:meth:`report_crash`) by whatever detects
    it — a mailbox error handler, a layer catching an escaped
    exception — and the supervisor schedules a restart after
    ``base_delay * multiplier**n`` seconds (capped at ``max_delay``),
    where ``n`` counts crashes inside the current instability episode.
    ``reset_after`` seconds without a crash close the episode and
    restore the full restart budget; ``max_restarts`` crashes within
    one episode make the supervisor give up on the component.

    Scheduling uses the clock's timer queue when it has one
    (:class:`~repro.runtime.clock.VirtualClock`), so deterministic
    tests drive restarts by advancing virtual time; on a wall clock the
    supervisor sleeps the backoff inline.

    Lifecycle events are published on the bus (when one is wired) as
    ``supervisor.<component>.crashed`` / ``restarted`` / ``gave_up``.
    """

    def __init__(
        self,
        *,
        clock: Clock | None = None,
        bus: EventBus | None = None,
        metrics: MetricsRegistry | None = None,
        max_restarts: int = 5,
        base_delay: float = 0.1,
        multiplier: float = 2.0,
        max_delay: float = 30.0,
        reset_after: float = 60.0,
    ) -> None:
        self.clock = clock or WallClock()
        self.bus = bus
        self.metrics = metrics if metrics is not None else default_registry()
        self.max_restarts = max_restarts
        self.base_delay = base_delay
        self.multiplier = multiplier
        self.max_delay = max_delay
        self.reset_after = reset_after
        self._entries: dict[str, _SupervisionEntry] = {}
        self.restarts = 0
        self.crashes = 0

    # -- registration ------------------------------------------------------

    def watch(self, component: Component) -> Component:
        """Place a component under supervision."""
        self._entries[component.name] = _SupervisionEntry(component)
        return component

    def entry(self, name: str) -> _SupervisionEntry | None:
        return self._entries.get(name)

    def guard(self, component: Component):
        """An error callback (``exc -> None``) reporting crashes of
        ``component`` — plugs straight into ``Mailbox(on_error=...)``."""
        self.watch(component)
        return lambda exc: self.report_crash(component.name, exc)

    # -- crash handling ----------------------------------------------------

    def report_crash(self, name: str, error: BaseException) -> bool:
        """Handle a crash; returns True when a restart was scheduled."""
        entry = self._entries.get(name)
        if entry is None:
            raise ComponentError(f"component {name!r} is not supervised")
        now = self.clock.now()
        if now - entry.last_crash > self.reset_after:
            entry.restarts = 0          # quiet period: budget restored
            entry.gave_up = False
        entry.last_crash = now
        self.crashes += 1
        self.metrics.count("supervisor.crashes", name)
        self._emit(name, "crashed", error=str(error))
        if entry.restarts >= self.max_restarts:
            entry.gave_up = True
            self.metrics.count("supervisor.gave_up", name)
            self._emit(name, "gave_up", restarts=entry.restarts)
            return False
        delay = min(
            self.base_delay * self.multiplier ** entry.restarts, self.max_delay
        )
        entry.restarts += 1
        schedule = getattr(self.clock, "call_later", None)
        if callable(schedule):
            schedule(delay, lambda: self._restart(entry, delay))
        else:
            self.clock.sleep(delay)
            self._restart(entry, delay)
        return True

    def _restart(self, entry: _SupervisionEntry, delay: float) -> None:
        component = entry.component
        try:
            if component.lifecycle == LifecycleState.STARTED:
                component.stop()
            component.start()
        except Exception as exc:  # noqa: BLE001 - crash during restart
            self.report_crash(component.name, exc)
            return
        self.restarts += 1
        self.metrics.count("supervisor.restarts", component.name)
        self._emit(
            component.name, "restarted",
            restarts=entry.restarts, delay=delay,
        )

    def _emit(self, name: str, what: str, **payload: Any) -> None:
        if self.bus is None:
            return
        from repro.runtime.events import Event

        merged = dict(payload)
        merged.setdefault("component", name)
        self.bus.publish(
            Event(topic=f"supervisor.{name}.{what}", payload=merged,
                  origin="supervisor")
        )

    def stats(self) -> dict[str, Any]:
        return {
            "watched": len(self._entries),
            "crashes": self.crashes,
            "restarts": self.restarts,
            "gave_up": sorted(
                n for n, e in self._entries.items() if e.gave_up
            ),
        }
