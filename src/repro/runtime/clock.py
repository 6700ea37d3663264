"""Clock abstraction: wall time for benchmarks, virtual time for tests.

All latency-sensitive middleware paths take a :class:`Clock` so that
unit and integration tests run deterministically on a
:class:`VirtualClock` while the benchmark harness measures real wall
time on :class:`WallClock`.  Simulated substrates (network, plant,
fleet) charge their modeled service times to the active clock.
"""

from __future__ import annotations

import heapq
import itertools
import time
from typing import Callable

__all__ = [
    "Clock", "WallClock", "VirtualClock", "Timer", "TimerHandle",
    "PeriodicTask",
]


class TimerHandle:
    """A scheduled callback; ``cancel()`` prevents it from firing.

    Cancellation is lazy: the heap entry stays queued and is skipped
    when its timestamp is reached, so cancel is O(1) and never
    disturbs an in-flight ``advance``.
    """

    __slots__ = ("when", "cancelled")

    def __init__(self, when: float) -> None:
        self.when = when
        self.cancelled = False

    def cancel(self) -> None:
        self.cancelled = True


class Clock:
    """Abstract monotonic clock measured in seconds."""

    def now(self) -> float:
        raise NotImplementedError

    def sleep(self, seconds: float) -> None:
        raise NotImplementedError

    def advance(self, seconds: float) -> None:
        """Charge simulated work time.  Wall clocks ignore this."""
        raise NotImplementedError


class WallClock(Clock):
    """Real monotonic time.  ``advance`` is a no-op: real work takes
    real time, so simulated charges must not double-count."""

    def now(self) -> float:
        return time.monotonic()

    def sleep(self, seconds: float) -> None:
        if seconds > 0:
            time.sleep(seconds)

    def advance(self, seconds: float) -> None:
        return None


class VirtualClock(Clock):
    """Deterministic simulated time.

    ``sleep``/``advance`` move time forward instantly and fire any
    timers scheduled in the skipped interval, in timestamp order.
    """

    def __init__(self, *, start: float = 0.0) -> None:
        self._now = float(start)
        self._timers: list[
            tuple[float, int, TimerHandle, Callable[[], None]]
        ] = []
        self._seq = itertools.count()

    def now(self) -> float:
        return self._now

    def sleep(self, seconds: float) -> None:
        self.advance(seconds)

    def advance(self, seconds: float) -> None:
        if seconds < 0:
            raise ValueError("cannot advance a clock backwards")
        deadline = self._now + seconds
        while self._timers and self._timers[0][0] <= deadline:
            when, _seq, handle, callback = heapq.heappop(self._timers)
            if handle.cancelled:
                continue
            self._now = max(self._now, when)
            callback()
        # A timer callback may itself have advanced the clock past the
        # deadline (nested advance); never move time backwards.
        self._now = max(self._now, deadline)

    def call_at(self, when: float, callback: Callable[[], None]) -> TimerHandle:
        """Schedule ``callback`` to fire when time reaches ``when``."""
        if when < self._now:
            raise ValueError(f"cannot schedule in the past ({when} < {self._now})")
        handle = TimerHandle(when)
        heapq.heappush(self._timers, (when, next(self._seq), handle, callback))
        return handle

    def call_later(self, delay: float, callback: Callable[[], None]) -> TimerHandle:
        return self.call_at(self._now + delay, callback)

    @property
    def pending_timers(self) -> int:
        return sum(1 for timer in self._timers if not timer[2].cancelled)

    def run_until_idle(self, *, limit: float = float("inf")) -> None:
        """Fire all pending timers up to ``limit`` (absolute time)."""
        while self._timers and self._timers[0][0] <= limit:
            when, _seq, handle, callback = heapq.heappop(self._timers)
            if handle.cancelled:
                continue
            self._now = max(self._now, when)
            callback()


class Timer:
    """Measures elapsed time on a clock; usable as a context manager.

    >>> clock = VirtualClock()
    >>> with Timer(clock) as t:
    ...     clock.advance(1.5)
    >>> t.elapsed
    1.5
    """

    def __init__(self, clock: Clock | None = None) -> None:
        self.clock = clock or WallClock()
        self.started: float | None = None
        self.elapsed: float = 0.0

    def start(self) -> "Timer":
        self.started = self.clock.now()
        return self

    def stop(self) -> float:
        if self.started is None:
            raise RuntimeError("timer was never started")
        self.elapsed = self.clock.now() - self.started
        return self.elapsed

    def __enter__(self) -> "Timer":
        return self.start()

    def __exit__(self, *exc_info: object) -> None:
        self.stop()


class PeriodicTask:
    """Epoch-fenced periodic :meth:`tick` on a clock's timer queue.

    On clocks with a timer queue (:class:`VirtualClock`) ticks
    self-schedule through ``clock.call_later`` every ``interval``
    seconds; on plain wall clocks the owner drives :meth:`tick`
    explicitly, keeping the hot path free of timer threads.
    ``stop()``/``start()`` bump the epoch, so a timer armed by an
    earlier life of the task fires as a no-op instead of double-arming
    ticks.  A failing tick is counted in ``errors`` and the schedule
    chain keeps going.  Subclasses set ``interval`` and ``clock`` and
    implement :meth:`tick`.
    """

    interval: float
    clock: Clock
    errors = 0
    last_error: Exception | None = None
    _running = False
    _epoch = 0
    _timer: object = None

    def tick(self) -> object:
        raise NotImplementedError

    def start(self):
        if self._running:
            return self
        self._running = True
        self._epoch += 1
        self._schedule()
        return self

    def stop(self):
        self._running = False
        self._epoch += 1
        timer, self._timer = self._timer, None
        if timer is not None and hasattr(timer, "cancel"):
            timer.cancel()
        return self

    @property
    def running(self) -> bool:
        return self._running

    def _schedule(self) -> None:
        schedule = getattr(self.clock, "call_later", None)
        if callable(schedule):
            epoch = self._epoch
            self._timer = schedule(self.interval, lambda: self._fire(epoch))

    def _fire(self, epoch: int | None = None) -> None:
        if not self._running:
            return
        if epoch is not None and epoch != self._epoch:
            return  # stale timer from a previous start(); do not double-arm
        try:
            self.tick()
        except Exception as exc:  # noqa: BLE001 - one bad tick must not
            # kill the schedule chain; record and keep ticking.
            self.errors += 1
            self.last_error = exc
        finally:
            if self._running and (epoch is None or epoch == self._epoch):
                self._schedule()
