"""Sharded multi-session runtime: a parallel event fabric.

The paper's runtime environment owns "threads (and the underlying
concurrency model)" for the middleware components (Sec. V-A); the
ROADMAP's north star asks for a platform that serves heavy traffic from
many concurrent users.  One DSVM session is fast (its generated
module), but every session used to share a single-threaded
:class:`~repro.runtime.events.EventBus` and
:class:`~repro.runtime.metrics.MetricsRegistry` — two sessions could
not safely run at once.

:class:`ShardedRuntime` partitions platform sessions across N worker
shards by session-key affinity.  Each :class:`Shard` owns its own
event bus, metrics registry, and mailbox, and (in threaded mode) a
dedicated pump thread — so everything *inside* a shard remains
single-threaded and lock-free, exactly the hot path PR 3 optimized.
Concurrency exists only *between* shards:

* work enters through :meth:`ShardedRuntime.submit`, which posts it
  to the owning shard's mailbox (strict FIFO per shard, so
  per-session ordering holds);
* signals that must cross shards go through the batched
  :class:`ForwardingChannel`, which buffers per destination and
  flushes with :meth:`EventBus.publish_batch` on the *destination*
  shard's thread — buses are never touched from a foreign thread;
* observability crosses shards only on read:
  :meth:`ShardedRuntime.merged_metrics` folds the per-shard registries
  into one thread-safe view, and the process-wide
  :class:`~repro.runtime.trace.TraceRecorder` (itself mutex-guarded)
  sees signals from every shard, with ``trace_id``/``parent_seq``
  chains surviving the forwarding channel because forwarded signals
  are causal children (:meth:`Signal.derive`) of their originals.

Affinity hashing uses CRC-32 of the key, not Python's randomized
``hash()``, so a session maps to the same shard in every process —
required for replayable benchmarks and cross-process routing tables.

A session never leaves its shard.  Each shard runs one platform that
holds the state of every session the shard hosts, so there is no
per-session state to carry to another shard: sessions move only
between worker processes
(:meth:`~repro.runtime.cluster.ProcessCluster.migrate`).
"""

from __future__ import annotations

import threading
import zlib
from concurrent.futures import Future
from typing import Any, Callable

from repro.runtime.clock import Clock, WallClock
from repro.runtime.events import EventBus, Signal
from repro.runtime.executor import Mailbox
from repro.runtime.metrics import MetricsRegistry

__all__ = [
    "ShardedRuntimeError",
    "shard_index_for",
    "current_shard",
    "Shard",
    "ForwardingChannel",
    "ShardedRuntime",
]

#: the shard whose task the current thread is executing (if any).
_active = threading.local()


def current_shard() -> "Shard | None":
    """The shard executing on the calling thread, or None outside one."""
    return getattr(_active, "shard", None)


class ShardedRuntimeError(Exception):
    """Raised on fabric misuse (bad shard count, submit after stop, ...)."""


def shard_index_for(key: str, shards: int) -> int:
    """Deterministic session-key -> shard affinity (CRC-32 based).

    Stable across processes and Python versions — ``hash(str)`` is
    salted per process and would re-partition every restart.
    """
    return zlib.crc32(str(key).encode("utf-8")) % shards


class Shard:
    """One worker partition: bus + metrics + mailbox (+ pump thread).

    The shard's registry is single-writer (``thread_safe=False``): only
    the shard's own thread records into it, which keeps counter bumps
    and histogram observations at PR 3 cost.  All external interaction
    goes through :meth:`post` / :meth:`call`.
    """

    def __init__(
        self,
        index: int,
        *,
        fabric_name: str = "fabric",
        clock: Clock | None = None,
        inline: bool = False,
    ) -> None:
        self.index = index
        self.name = f"{fabric_name}.shard{index}"
        self.inline = inline
        self.clock = clock or WallClock()
        self.metrics = MetricsRegistry(clock=self.clock)
        self.bus = EventBus(
            name=f"{self.name}.bus", clock=self.clock, metrics=self.metrics
        )
        self.mailbox = Mailbox(self.name, on_error=self._on_task_error)
        self.task_errors: list[Exception] = []
        #: optional ShardDurability (see ShardedRuntime.attach_durability):
        #: the fabric's DurabilityPolicy applied to this shard — its
        #: write-ahead log plus the per-session effect journals.
        self.durability: Any = None
        self.started = False

    # -- lifecycle --------------------------------------------------------

    def start(self) -> "Shard":
        if self.started:
            return self
        self.started = True
        if not self.inline:
            self.mailbox.start_pump()
        return self

    def stop(self, *, timeout: float = 5.0) -> "Shard":
        if not self.started:
            return self
        self.started = False
        if self.inline:
            self.mailbox.drain()
            return self
        if not self.mailbox.stop_pump(timeout=timeout):
            raise ShardedRuntimeError(
                f"shard {self.name!r}: pump thread did not stop within "
                f"{timeout}s (wedged task?)"
            )
        # Tasks posted while the pump was winding down still run —
        # deterministic drain, nothing silently dropped.
        self.mailbox.drain()
        return self

    # -- work -------------------------------------------------------------

    def post(self, task: Callable[[], None]) -> None:
        """Enqueue fire-and-forget work on this shard (FIFO).

        Tasks execute with this shard marked as :func:`current_shard`,
        which is how the fabric distinguishes same-shard publishes
        (direct, lock-free) from cross-shard ones (batched channel).
        """
        if not self.started:
            raise ShardedRuntimeError(f"shard {self.name!r} is not started")

        def scoped() -> None:
            previous = getattr(_active, "shard", None)
            _active.shard = self
            try:
                task()
            finally:
                _active.shard = previous

        self.mailbox.post(scoped)

    def call(self, fn: Callable[..., Any], *args: Any, **kwargs: Any) -> Future:
        """Enqueue ``fn`` and expose its result as a Future."""
        future: Future = Future()

        def run() -> None:
            if not future.set_running_or_notify_cancel():
                return
            try:
                future.set_result(fn(*args, **kwargs))
            except BaseException as exc:  # noqa: BLE001 - captured in future
                future.set_exception(exc)

        self.post(run)
        return future

    def _on_task_error(self, exc: Exception) -> None:
        # Future-wrapped tasks capture their own exceptions; anything
        # arriving here came from a raw ``post`` and must not kill the
        # pump thread (the shard equivalent of mailbox error routing).
        self.task_errors.append(exc)
        self.metrics.count("fabric.task_errors", self.name)

    def drain(self, *, max_tasks: int | None = None) -> int:
        """Inline mode: synchronously run queued tasks on the caller."""
        return self.mailbox.drain(max_tasks=max_tasks)

    def __repr__(self) -> str:
        return (
            f"Shard({self.index}, started={self.started}, "
            f"pending={self.mailbox.pending})"
        )


class ForwardingChannel:
    """Batched cross-shard signal forwarding.

    Producers on any shard thread call :meth:`forward`; signals are
    buffered per destination shard and flushed as one
    :meth:`EventBus.publish_batch` task posted to the destination's
    mailbox, so the destination bus is only ever touched by its own
    shard thread and a burst of M cross-shard signals to one shard
    costs one mailbox hop and one batched routing pass instead of M.

    Forwarded signals are causal children of the originals
    (``Signal.derive``), so ``trace_id``/``parent_seq`` chains span
    shard boundaries.
    """

    def __init__(self, runtime: "ShardedRuntime", *, batch_size: int = 64) -> None:
        if batch_size < 1:
            raise ShardedRuntimeError("batch_size must be >= 1")
        self.runtime = runtime
        self.batch_size = batch_size
        self._lock = threading.Lock()
        self._buffers: dict[int, list[Signal]] = {}
        self.forwarded = 0
        self.batches = 0

    def forward(
        self, signal: Signal, *, to_shard: int, origin: str | None = None
    ) -> None:
        """Buffer a causal copy of ``signal`` for ``to_shard``."""
        shards = len(self.runtime.shards)
        if not 0 <= to_shard < shards:
            raise ShardedRuntimeError(
                f"no shard {to_shard} (fabric has {shards})"
            )
        child = signal.derive(
            origin=origin if origin is not None else signal.origin
        )
        flush: list[Signal] | None = None
        with self._lock:
            buffer = self._buffers.setdefault(to_shard, [])
            buffer.append(child)
            self.forwarded += 1
            if len(buffer) >= self.batch_size:
                flush = self._buffers.pop(to_shard)
        if flush is not None:
            self._dispatch(to_shard, flush)

    def flush(self) -> int:
        """Dispatch every buffered signal; returns how many were
        flushed."""
        with self._lock:
            drained = self._buffers
            self._buffers = {}
        total = 0
        for index, batch in drained.items():
            total += len(batch)
            self._dispatch(index, batch)
        return total

    @property
    def pending(self) -> int:
        with self._lock:
            return sum(len(b) for b in self._buffers.values())

    def _dispatch(self, to_shard: int, batch: list[Signal]) -> None:
        shard = self.runtime.shards[to_shard]
        self.batches += 1
        shard.post(lambda: self._deliver(shard, batch))

    @staticmethod
    def _deliver(shard: Shard, batch: list[Signal]) -> None:
        shard.metrics.count("fabric.forwarded_in", shard.name, len(batch))
        shard.bus.publish_batch(batch)

    def stats(self) -> dict[str, Any]:
        return {
            "forwarded": self.forwarded,
            "batches": self.batches,
            "pending": self.pending,
            "batch_size": self.batch_size,
        }


class ShardedRuntime:
    """N worker shards plus the cross-shard forwarding channel.

    ``inline=True`` builds a deterministic single-thread fabric: tasks
    queue in the shard mailboxes and run on the caller inside
    :meth:`drain` — the mode tests and golden-trace benchmark baselines
    use.  Threaded mode (default) pumps every mailbox on its own
    consumer thread.
    """

    def __init__(
        self,
        shards: int = 4,
        *,
        name: str = "fabric",
        inline: bool = False,
        clock_factory: Callable[[], Clock] | None = None,
        batch_size: int = 64,
    ) -> None:
        if shards < 1:
            raise ShardedRuntimeError("a fabric needs at least one shard")
        self.name = name
        self.inline = inline
        self.shards = [
            Shard(
                index,
                fabric_name=name,
                clock=clock_factory() if clock_factory is not None else None,
                inline=inline,
            )
            for index in range(shards)
        ]
        self.channel = ForwardingChannel(self, batch_size=batch_size)
        self.started = False

    # -- lifecycle --------------------------------------------------------

    def start(self) -> "ShardedRuntime":
        if self.started:
            return self
        for shard in self.shards:
            shard.start()
        self.started = True
        return self

    def stop(self, *, timeout: float = 5.0) -> "ShardedRuntime":
        """Flush the channel, drain every mailbox, join every pump.

        Deterministic: after ``stop`` returns, all submitted work and
        all forwarded signals have executed and no fabric thread is
        left behind (``threading.enumerate()``-clean).
        """
        if not self.started:
            return self
        # Forwarded batches may enqueue further work; loop until the
        # whole fabric is quiescent.
        if not self.inline:
            self._barrier(timeout=timeout)
        while self.channel.flush() or self._pending:
            if self.inline:
                self.drain()
            else:
                self._barrier(timeout=timeout)
        for shard in self.shards:
            shard.stop(timeout=timeout)
        for shard in self.shards:
            if shard.durability is not None:
                shard.durability.wal.sync()
        self.started = False
        return self

    # -- durability --------------------------------------------------------

    def attach_durability(self, policy: Any = None) -> list[Any]:
        """Apply a :class:`~repro.runtime.durability.DurabilityPolicy`
        to every shard (PR 10).

        Each shard gets a :class:`~repro.runtime.durability.ShardDurability`
        — its own ``wal-shard-NN/`` log under the policy's root plus
        per-session effect journals — so every hosted session is
        durable without opting in, and :meth:`route_signal` write-aheads
        fabric signals into the same per-shard log.  Returns the
        shard-ordered durability runtimes (empty when the policy is
        ``"off"``).
        """
        from repro.runtime.durability import DurabilityPolicy

        resolved = DurabilityPolicy.resolve(policy)
        if not resolved.enabled:
            return []
        durables = []
        for shard in self.shards:
            durability = resolved.open_shard(
                shard.index, name=f"{self.name}-s{shard.index}"
            )
            shard.durability = durability
            durables.append(durability)
        return durables

    def close_wals(self) -> None:
        for shard in self.shards:
            if shard.durability is not None:
                shard.durability.close()
                shard.durability = None

    def __enter__(self) -> "ShardedRuntime":
        return self.start()

    def __exit__(self, *exc_info: object) -> None:
        self.stop()

    @property
    def _pending(self) -> int:
        return sum(shard.mailbox.pending for shard in self.shards)

    def _barrier(self, *, timeout: float = 5.0) -> None:
        """Wait until every task posted so far has executed."""
        futures = [shard.call(lambda: None) for shard in self.shards]
        for future in futures:
            future.result(timeout=timeout)

    # -- routing ----------------------------------------------------------

    def shard_for(self, key: str) -> Shard:
        """The shard owning session ``key``: its CRC-32 affinity shard."""
        return self.shards[shard_index_for(key, len(self.shards))]

    def dispatch(self, key: str, send: Callable[[Shard], Any]) -> Any:
        """``send(shard)`` for one submission to the shard owning
        ``key``."""
        if not self.started:
            raise ShardedRuntimeError(f"fabric {self.name!r} is not started")
        return send(self.shard_for(key))

    def submit(
        self, key: str, fn: Callable[..., Any], *args: Any, **kwargs: Any
    ) -> Future:
        """Run ``fn`` on the shard owning ``key``; FIFO per shard."""
        return self.dispatch(
            str(key), lambda shard: shard.call(fn, *args, **kwargs)
        )

    def post(self, key: str, task: Callable[[], None]) -> None:
        """Fire-and-forget variant of :meth:`submit`."""
        self.dispatch(str(key), lambda shard: shard.post(task))

    def route_signal(
        self, signal: Signal, *, key: str, origin: str | None = None
    ) -> None:
        """Publish ``signal`` on the bus of the shard owning ``key``.

        Same-shard signals (the common case under affinity routing)
        publish directly and stay on the lock-free intra-shard path;
        signals whose topic targets another shard go through the
        batched forwarding channel.  The channel keeps causal chains
        intact either way.
        """
        target = self.shard_for(key)
        if target.durability is not None:
            # Write-ahead: the signal frame (with its causal chain) is
            # durable before any subscriber observes it.  Tolerant
            # encoding — fabric payloads may hold non-JSON values; the
            # fabric log is for recovery *scoping* and time-travel
            # replay, while entry-level exactly-once goes through
            # ShardDurability.execute.
            target.durability.wal.append_entry(
                signal, session=str(key), strict=False
            )
        if current_shard() is target:
            target.bus.publish(signal)
            return
        self.channel.forward(signal, to_shard=target.index, origin=origin)

    def drain(self) -> int:
        """Inline mode: run queued tasks (and flushed batches) to
        quiescence on the calling thread; returns tasks executed."""
        if not self.inline:
            raise ShardedRuntimeError(
                "drain() is for inline fabrics; threaded shards pump "
                "their own mailboxes"
            )
        ran = 0
        while True:
            self.channel.flush()
            step = sum(shard.drain() for shard in self.shards)
            if step == 0 and self.channel.pending == 0:
                return ran
            ran += step

    # -- aggregation ------------------------------------------------------

    def merged_metrics(self) -> MetricsRegistry:
        """A thread-safe merged view of every shard's registry."""
        return MetricsRegistry.merged(shard.metrics for shard in self.shards)

    def metrics_snapshot(self) -> dict[str, Any]:
        return self.merged_metrics().snapshot()

    def stats(self) -> dict[str, Any]:
        return {
            "name": self.name,
            "shards": len(self.shards),
            "inline": self.inline,
            "started": self.started,
            "pending": self._pending,
            "processed": sum(s.mailbox.processed for s in self.shards),
            "task_errors": sum(len(s.task_errors) for s in self.shards),
            "published": sum(s.bus.published for s in self.shards),
            "delivered": sum(s.bus.delivered for s in self.shards),
            "channel": self.channel.stats(),
        }

    def __repr__(self) -> str:
        return (
            f"ShardedRuntime({self.name!r}, shards={len(self.shards)}, "
            f"inline={self.inline}, started={self.started})"
        )

