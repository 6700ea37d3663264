"""Closed-loop load generation from one process.

Each :class:`Client` sends its next step only after the previous one's
outcome resolved.  Completions come back through
``Future.add_done_callback`` into one queue, which the driver thread
drains: there is no per-completion scan over every in-flight future.
The driver records how long it sat blocked on that queue, so
``busy_frac`` shows whether the generator, not the fabric, set the pace.
"""

from __future__ import annotations

import queue
import time
from collections import Counter
from array import array
from typing import Any, Callable, Iterator

__all__ = ["Client", "ClosedLoop", "LoopResult"]

_clock = time.perf_counter_ns

#: a driver busier than this in the measured window was the bottleneck
DRIVER_BOUND_FRAC = 0.9
#: a run with no completion for this long has hung
STEP_TIMEOUT_S = 60.0


class Client:
    """One closed-loop caller walking its session keys round-robin."""

    __slots__ = ("keys", "streams", "cursor", "sent", "ops")

    def __init__(self, keys: list[str],
                 stream: Callable[[str], Iterator[dict]]) -> None:
        self.keys = keys
        self.streams = {key: stream(key) for key in keys}
        self.cursor = 0
        self.sent = {key: 0 for key in keys}
        self.ops: Counter = Counter()

    def next(self) -> tuple[str, dict]:
        key = self.keys[self.cursor]
        self.cursor = (self.cursor + 1) % len(self.keys)
        self.sent[key] += 1
        doc = next(self.streams[key])
        self.ops[doc["op"]] += 1
        return key, doc


class LoopResult:
    """What one closed-loop run measured."""

    def __init__(self) -> None:
        self.window_start = 0
        self.window_end = 0
        #: times the window's slice boundaries were crossed (first and
        #: last are the window's edges)
        self.marks: list[int] = []
        self.latencies_ns = array("q")   # completions inside the window
        self.finished_ns = array("q")    # ... and when each completed
        self.window_steps = 0
        self.attempted = 0
        self.failed = 0
        self.first_error = ""
        self.blocked_ns = 0
        #: ``(in_window, latency_ns, outcome)`` per step, when kept
        self.outcomes: list[tuple[bool, int, Any]] = []

    @property
    def window_s(self) -> float:
        return (self.window_end - self.window_start) / 1e9

    @property
    def busy_frac(self) -> float:
        window = self.window_end - self.window_start
        return 1.0 - self.blocked_ns / window if window else 0.0

    @property
    def driver_bound(self) -> bool:
        return self.busy_frac > DRIVER_BOUND_FRAC


class ClosedLoop:
    """Drive ``clients`` against ``submit(key, doc) -> Future``.

    The measured window is cut into ``slices`` equal slices.
    ``on_mark(index)`` runs on the driver thread as each slice boundary
    passes (``0`` opens the window, ``slices`` closes it): the place for
    CPU, WAL and migration bookkeeping that must bracket exactly the
    measured steps.
    ``keep_outcomes`` retains every step's outcome (the traced run reads
    worker-side timings and call counts from them).
    """

    def __init__(self, submit: Callable[[str, dict], Any],
                 clients: list[Client], *,
                 slices: int,
                 on_mark: Callable[[int], None],
                 keep_outcomes: bool) -> None:
        self.submit = submit
        self.clients = clients
        self.slices = slices
        self.on_mark = on_mark
        self.keep_outcomes = keep_outcomes

    def run(self, warmup_s: float, window_s: float) -> LoopResult:
        done: queue.SimpleQueue = queue.SimpleQueue()
        submit = self.submit
        result = LoopResult()

        def launch(client: Client) -> None:
            key, doc = client.next()
            started = _clock()
            future = submit(key, doc)
            future.add_done_callback(
                lambda f, c=client, s=started: done.put((c, s, _clock(), f)))

        for client in self.clients:
            launch(client)
        in_flight = len(self.clients)
        opens_at = _clock() + int(warmup_s * 1e9)
        marks_at = [opens_at + int(window_s * 1e9 * index / self.slices)
                    for index in range(self.slices + 1)]
        marks = result.marks
        latencies, finishes = result.latencies_ns, result.finished_ns
        while in_flight:
            waited = _clock()
            try:
                client, started, finished, future = done.get(
                    timeout=STEP_TIMEOUT_S)
            except queue.Empty:
                raise RuntimeError(
                    f"no step completed within {STEP_TIMEOUT_S}s "
                    f"({in_flight} in flight)") from None
            now = _clock()
            measuring = 0 < len(marks) <= self.slices
            if measuring:
                result.blocked_ns += now - waited
            outcome = future.result()
            result.attempted += 1
            if not outcome.ok:
                result.failed += 1
                if not result.first_error:
                    result.first_error = outcome.summary()
            in_window = measuring and finished >= marks[0]
            if in_window:
                latencies.append(finished - started)
                finishes.append(finished)
            if self.keep_outcomes:
                result.outcomes.append((in_window, finished - started,
                                        outcome))
            while len(marks) <= self.slices and now >= marks_at[len(marks)]:
                self.on_mark(len(marks))
                marks.append(_clock())
                now = marks[-1]
            if len(marks) <= self.slices:
                launch(client)
            else:
                in_flight -= 1
        result.window_start, result.window_end = marks[0], marks[-1]
        result.window_steps = len(latencies)
        return result
