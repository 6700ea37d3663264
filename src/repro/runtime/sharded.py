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

* work enters through :meth:`ShardedRuntime.submit`, which the
  :class:`SessionRouter` posts to the owning shard's mailbox (strict
  FIFO per shard, so per-session ordering holds, moves included);
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
"""

from __future__ import annotations

import threading
import zlib
from concurrent.futures import Future
from functools import partial
from typing import Any, Callable, Iterable, Sequence

from repro.runtime.clock import Clock, PeriodicTask, WallClock
from repro.runtime.events import EventBus, Signal
from repro.runtime.executor import Mailbox
from repro.runtime.metrics import MetricsRegistry

__all__ = [
    "ShardedRuntimeError",
    "shard_index_for",
    "current_shard",
    "Shard",
    "ForwardingChannel",
    "SessionRouter",
    "ShardedRuntime",
    "ShardRebalancer",
    "RebalanceTrigger",
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
        #: orders routed submissions against holds (SessionRouter)
        self.lock = threading.Lock()
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

    def flush(self, to_shard: int | None = None) -> int:
        """Dispatch buffered signals (all shards by default); returns
        how many signals were flushed."""
        with self._lock:
            if to_shard is None:
                drained = self._buffers
                self._buffers = {}
            else:
                batch = self._buffers.pop(to_shard, None)
                drained = {to_shard: batch} if batch else {}
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


class SessionRouter:
    """Session-key routing and the one session-transfer protocol,
    owned by :class:`ShardedRuntime` (over shards) and
    :class:`~repro.runtime.cluster.ProcessCluster` (over worker handles).

    An owner is any object with an ``index`` and a ``lock`` that orders
    what enters its FIFO; lock order is owner, then router.  A route may
    point at an owner outside :attr:`owners` — a session moved out of
    the fabric — whose ``index`` is None.  ``_epoch`` counts route
    writes, so a dispatch that resolved an owner before a re-point
    resolves again.
    """

    def __init__(self, owners: Sequence[Any]) -> None:
        self.owners = list(owners)
        #: session-key -> owner overrides written by moves.  Read
        #: lock-free on the hot path (CPython dict reads are atomic;
        #: the common case is an empty dict), written under ``_lock``.
        self._routes: dict[str, Any] = {}
        self._held: dict[str, list[tuple[Callable[[Any], Any], Future]]] = {}
        self._lock = threading.Lock()
        self._epoch = 0
        self.migrations = 0

    def owner(self, key: str) -> Any:
        """The owner of ``key``: its route override, else its affinity
        owner."""
        if self._routes:
            owner = self._routes.get(str(key))
            if owner is not None:
                return owner
        return self.owners[shard_index_for(key, len(self.owners))]

    def point(self, key: str, owner: Any) -> None:
        """Route ``key`` to ``owner``.  The affinity owner needs no
        override, so pointing a key home drops its entry."""
        with self._lock:
            if owner is self.owners[shard_index_for(key, len(self.owners))]:
                self._routes.pop(key, None)
            else:
                self._routes[key] = owner
            self._epoch += 1

    def forget(self, key: str) -> bool:
        """Drop ``key``'s override; True if one existed."""
        with self._lock:
            self._epoch += 1
            return self._routes.pop(key, None) is not None

    def dispatch(self, key: str, send: Callable[[Any], Any]) -> Any:
        """Enqueue one submission: ``send(owner)`` under the owner's lock,
        or, while ``key`` is held, a Future resolved once the flush has
        sent it.  A hold starts under the source's lock, so a submission
        lands on the source's FIFO ahead of the capture or waits."""
        while True:
            owner = self._lock_owner(key)
            try:
                if key not in self._held:
                    return send(owner)
                with self._lock:
                    held = self._held.get(key)
                    if held is not None:
                        future: Future = Future()
                        future.set_running_or_notify_cancel()
                        held.append((send, future))
                        return future
                # flushed since: a re-point moved the key, resolve again
            finally:
                owner.lock.release()

    def settled(self, key: str, owner: Any) -> bool:
        """Whether ``key`` routes to ``owner`` and no move holds it.
        Asked under ``owner.lock``, the answer stands until the lock is
        released: a hold starts under its source's lock, and a move
        re-points the route only while it holds the key."""
        return key not in self._held and self.owner(key) is owner

    def _lock_owner(self, key: str) -> Any:
        """``key``'s owner with its lock taken, resolved again if a
        route write landed before the lock was."""
        while True:
            epoch = self._epoch
            owner = self.owner(key)
            owner.lock.acquire()
            if epoch == self._epoch:
                return owner
            owner.lock.release()

    def transfer(
        self,
        key: str,
        target: Any,
        *,
        capture: Callable[[Any], Any],
        restore: Callable[[Any, Any], Any],
        release: Callable[[Any, Any], None],
    ) -> Any:
        """Move ``key`` to ``target``: the one session-transfer protocol.

        1. Hold new submissions for ``key`` (:meth:`dispatch` queues them).
        2. ``capture(source)`` runs behind the source's FIFO.
        3. ``restore(target, snapshot)`` rebuilds the session there.
        4. The route re-points to ``target``.
        5. ``release(source, target)`` lets the source let go.
        6. The held submissions flush to the owner in arrival order.

        If a step before the re-point fails, the route stays unchanged
        (unless the failed restore re-homed the session itself) and
        held work flushes to the owner it names.  Transports differ
        only in how they run capture, restore and release.  Returns
        restore's result, or None when ``key`` already lives on
        ``target``.
        """
        source = self._lock_owner(key)
        try:
            if source is target:
                return None
            with self._lock:
                if key in self._held:
                    raise ShardedRuntimeError(
                        f"a move of session {key!r} is already in progress"
                    )
                self._held[key] = []
        finally:
            source.lock.release()
        try:
            snapshot = capture(source)
            result = restore(target, snapshot)
            self.point(key, target)
            release(source, target)
            with self._lock:
                self.migrations += 1
            return result
        finally:
            self._flush(key)

    def _flush(self, key: str) -> None:
        """Enqueue ``key``'s held work on its owner, in arrival order."""
        owner = self._lock_owner(key)
        try:
            with self._lock:
                held = self._held.pop(key)
            for send, future in held:
                try:
                    inner = send(owner)
                except BaseException as exc:  # noqa: BLE001 - to future
                    future.set_exception(exc)
                    continue
                if isinstance(inner, Future):
                    inner.add_done_callback(partial(_copy_result, future))
                else:
                    future.set_result(inner)
        finally:
            owner.lock.release()

    def overrides(self) -> dict[str, Any]:
        """A copy of the route overrides (key -> owner index)."""
        with self._lock:
            return {key: owner.index for key, owner in self._routes.items()}

    def stats(self) -> dict[str, Any]:
        """The migrations counter and the hold gauge."""
        with self._lock:
            queued = sum(len(held) for held in self._held.values())
            return {"migrations": self.migrations,
                    "held": {"sessions": len(self._held), "queued": queued},
                    "route_overrides": len(self._routes)}


def _copy_result(outer: Future, done: Future) -> None:
    error = done.exception()
    if error is not None:
        outer.set_exception(error)
    else:
        outer.set_result(done.result())


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
        self.router = SessionRouter(self.shards)
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
        """The shard owning session ``key`` (:meth:`SessionRouter.owner`)."""
        return self.router.owner(key)

    def dispatch(self, key: str, send: Callable[[Shard], Any]) -> Any:
        """``send(owner)`` for one submission, through the router's
        hold (:meth:`SessionRouter.dispatch`)."""
        if not self.started:
            raise ShardedRuntimeError(f"fabric {self.name!r} is not started")
        return self.router.dispatch(key, send)

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
        if target.index is None:
            raise ShardedRuntimeError(
                f"session {key!r} was moved out of fabric {self.name!r}"
            )
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

    # -- live migration ----------------------------------------------------

    def migrate(
        self,
        key: str,
        to_shard: int,
        *,
        capture: Callable[[], Any] | None = None,
        restore: Callable[[Any], Any] | None = None,
        timeout: float = 30.0,
    ) -> Any:
        """Move session ``key`` to ``to_shard`` without losing state.

        ``capture()`` returns the state that travels (typically a
        :class:`~repro.middleware.snapshot.SessionSnapshot`);
        ``restore(snapshot)`` rebuilds the session on the target
        shard's thread, against the target's bus/clock/metrics, and its
        result is returned (see :meth:`transfer`).  If it raises, the
        session stays on its source and the error propagates.

        Causal trace chains survive because the snapshot carries model
        documents, not live signals — signals forwarded post-migration
        derive children exactly as before, now toward the new shard.
        """
        if not self.started:
            raise ShardedRuntimeError(f"fabric {self.name!r} is not started")
        if capture is None or restore is None:
            raise ShardedRuntimeError(
                f"fabric {self.name!r}: migrate needs capture and restore hooks"
            )
        if not 0 <= to_shard < len(self.shards):
            raise ShardedRuntimeError(
                f"no shard {to_shard} (fabric has {len(self.shards)})"
            )
        return self.transfer(
            str(key), self.shards[to_shard], capture=capture,
            restore=lambda target, snapshot: self._call_on(
                target, restore, snapshot, timeout=timeout
            ),
            timeout=timeout,
        )

    def transfer(
        self,
        key: str,
        target: Any,
        *,
        capture: Callable[[], Any],
        restore: Callable[[Any, Any], Any],
        timeout: float,
    ) -> Any:
        """One :meth:`SessionRouter.transfer` from a shard of this
        fabric, over the thread transport: ``capture`` runs on the
        source's thread behind the session's queued tasks, then the
        cross-shard signals buffered for the source reach its bus; the
        release hands the session's log tail (latest full checkpoint +
        later frames) to a durable target and the source forgets it.
        """

        def capture_on(source: Shard) -> Any:
            if source.index is None:
                raise ShardedRuntimeError(
                    f"session {key!r} was moved out of fabric {self.name!r}"
                )
            snapshot = self._call_on(source, capture, timeout=timeout)
            if self.channel.flush(source.index):
                self._call_on(source, lambda: None, timeout=timeout)
            return snapshot

        def hand_off(source: Shard, target: Any) -> None:
            if source.durability is None:
                return
            if target.durability is not None:
                frames = source.durability.wal.export_session(key)
                if frames:
                    target.durability.wal.import_session(frames, session=key)
            source.durability.forget(key)

        return self.router.transfer(
            key, target, capture=capture_on, restore=restore, release=hand_off
        )

    def _call_on(
        self, shard: Shard, fn: Callable[..., Any], *args: Any,
        timeout: float,
    ) -> Any:
        """Run ``fn`` on ``shard``'s thread (FIFO) and wait for it."""
        future = shard.call(fn, *args)
        if self.inline:
            self.drain()
        return future.result(timeout=timeout)

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
            **self.router.stats(),
        }

    def __repr__(self) -> str:
        return (
            f"ShardedRuntime({self.name!r}, shards={len(self.shards)}, "
            f"inline={self.inline}, started={self.started})"
        )


class ShardRebalancer:
    """Moves hot sessions between shards to even out load (PR 5).

    CRC-32 affinity balances session *counts*, not session *costs*: a
    few heavy sessions can pin one shard at 100% while the rest idle.
    The rebalancer consumes per-session cost estimates (the caller
    derives them from per-shard metrics — e.g. API-call counters or
    mailbox task counts), plans greedy hottest-to-coolest moves until
    the max/min shard load ratio drops under ``imbalance_threshold``,
    and applies the moves with the fabric's ``migrate``
    (:meth:`ShardedRuntime.migrate`):
    ``capture(key)`` runs on the session's source shard and returns the
    travelling state, ``restore(key, snapshot)`` runs on the target
    shard.  Planning reads only the fabric's ``router``, so the same
    planner serves :class:`~repro.runtime.cluster.ProcessCluster`.
    """

    def __init__(
        self,
        runtime: ShardedRuntime,
        *,
        capture: Callable[[str], Any] | None = None,
        restore: Callable[[str, Any], Any] | None = None,
        imbalance_threshold: float = 1.25,
        max_moves: int = 64,
    ) -> None:
        if imbalance_threshold < 1.0:
            raise ShardedRuntimeError("imbalance_threshold must be >= 1.0")
        self.runtime = runtime
        self.capture = capture
        self.restore = restore
        self.imbalance_threshold = imbalance_threshold
        self.max_moves = max_moves
        self.moves_applied = 0

    # -- observation --------------------------------------------------------

    def shard_loads(self) -> list[int]:
        """Tasks processed per shard — the fabric-level load signal."""
        return [shard.mailbox.processed for shard in self.runtime.shards]

    def imbalance(self, loads: "Iterable[float]") -> float:
        """max/min load ratio (min clamped to 1 to stay defined)."""
        values = list(loads)
        return max(values) / max(min(values), 1) if values else 1.0

    # -- planning -----------------------------------------------------------

    def plan_from_metrics(
        self,
        sessions: "Iterable[str]",
        *,
        queue_weight: float = 1e-3,
    ) -> list[tuple[str, int]]:
        """Plan moves from *observed* per-shard load instead of
        caller-supplied costs (ROADMAP follow-on from PR 5).

        Per-shard load is read from the shard's own registry — the sum
        of observed latency seconds across its histograms (broker
        call/cycle timings land there through the per-shard platform) —
        plus ``queue_weight`` per pending mailbox task, so a shard with
        a deep backlog counts as hot even before those tasks execute.
        Each shard's load is attributed evenly to the sessions homed on
        it (per-shard registries cannot see individual sessions): under
        the greedy planner that still moves sessions off hot shards
        first, which is the signal that matters.  The explicit
        :meth:`plan` path remains for callers with exact costs (tests,
        cost-model experiments).
        """
        router = self.runtime.router
        loads = self.observed_loads(queue_weight)
        homed: dict[int, list[str]] = {i: [] for i in range(len(router.owners))}
        for key in sorted(set(sessions)):
            index = router.owner(key).index
            if index is not None:  # moved out of the fabric: not planned
                homed[index].append(key)
        costs: dict[str, float] = {}
        for index, keys in homed.items():
            if not keys:
                continue
            share = loads[index] / len(keys)
            for key in keys:
                costs[key] = share
        return self.plan(costs)

    def observed_loads(self, queue_weight: float) -> list[float]:
        """Per-shard load: observed latency seconds plus
        ``queue_weight`` per pending mailbox task."""
        loads: list[float] = []
        for shard in self.runtime.shards:
            observed = sum(
                histogram.total
                for _name, _label, histogram in shard.metrics.histograms()
            )
            loads.append(observed + queue_weight * shard.mailbox.pending)
        return loads

    def plan(self, session_costs: dict[str, float]) -> list[tuple[str, int]]:
        """Greedy hottest-to-coolest move plan.

        ``session_costs`` maps session keys to a load estimate in any
        consistent unit.  Repeatedly moves the most expensive session
        off the most loaded shard onto the least loaded one, as long as
        the move strictly shrinks the max-min spread and the fabric is
        above the imbalance threshold.  Deterministic: ties break on
        session key.
        """
        router = self.runtime.router
        shards = len(router.owners)
        if shards < 2 or not session_costs:
            return []
        loads = [0.0] * shards
        by_shard: dict[int, list[str]] = {i: [] for i in range(shards)}
        for key in sorted(session_costs):
            index = router.owner(key).index
            if index is None:  # moved out of the fabric: not planned
                continue
            loads[index] += session_costs[key]
            by_shard[index].append(key)
        moves: list[tuple[str, int]] = []
        while len(moves) < self.max_moves:
            hottest = max(range(shards), key=lambda i: (loads[i], -i))
            coolest = min(range(shards), key=lambda i: (loads[i], i))
            spread = loads[hottest] - loads[coolest]
            if (
                hottest == coolest
                or not by_shard[hottest]
                or loads[hottest] <= self.imbalance_threshold * max(loads[coolest], 1e-12)
            ):
                break
            candidate = max(
                by_shard[hottest], key=lambda k: (session_costs[k], k)
            )
            cost = session_costs[candidate]
            if cost >= spread:
                # Moving it would overshoot; try the cheapest instead.
                candidate = min(
                    by_shard[hottest], key=lambda k: (session_costs[k], k)
                )
                cost = session_costs[candidate]
                if cost >= spread:
                    break  # no move improves the spread
            by_shard[hottest].remove(candidate)
            by_shard[coolest].append(candidate)
            loads[hottest] -= cost
            loads[coolest] += cost
            moves.append((candidate, coolest))
        return moves

    # -- execution ---------------------------------------------------------

    def apply(
        self, moves: "Iterable[tuple[str, int]]", *, timeout: float = 30.0
    ) -> int:
        """Execute a plan via live migration; returns the number of
        sessions moved."""
        capture, restore = self.capture, self.restore
        applied = 0
        for key, to_shard in moves:
            hooks = {} if capture is None or restore is None else {
                "capture": lambda k=key: capture(k),
                "restore": lambda snapshot, k=key: restore(k, snapshot),
            }
            self.runtime.migrate(key, to_shard, timeout=timeout, **hooks)
            applied += 1
        self.moves_applied += applied
        return applied


class RebalanceTrigger(PeriodicTask):
    """Periodic load-driven rebalancing (PR 9, folded PR 5 follow-on).

    Every ``interval`` seconds: plan moves from *live* observed load
    (:meth:`ShardRebalancer.plan_from_metrics` — per-shard latency
    histogram totals plus mailbox queue depth) over the caller's
    current session set, and apply them through the migration protocol.
    No caller-supplied cost model: the metrics registry *is* the cost
    model.

    Timer discipline is :class:`~repro.runtime.clock.PeriodicTask`'s,
    shared with ``CheckpointScheduler``: epoch-fenced self-scheduling
    on clocks with a timer queue; on plain wall clocks the owner drives
    :meth:`tick` explicitly between workload steps.
    """

    def __init__(
        self,
        rebalancer: ShardRebalancer,
        *,
        sessions: Callable[[], "Iterable[str]"],
        clock: Clock,
        interval: float = 1.0,
        queue_weight: float = 1e-3,
        min_moves: int = 1,
        timeout: float = 30.0,
    ) -> None:
        if interval <= 0:
            raise ShardedRuntimeError("rebalance interval must be > 0")
        self.rebalancer = rebalancer
        self.sessions = sessions
        self.clock = clock
        self.interval = interval
        self.queue_weight = queue_weight
        self.min_moves = min_moves
        self.timeout = timeout
        self.ticks = 0
        self.moves_applied = 0
        self.last_plan: list[tuple[str, int]] = []

    # -- one rebalance round ----------------------------------------------

    def tick(self) -> list[tuple[str, int]]:
        """Plan from live metrics and apply; returns the moves made."""
        self.ticks += 1
        moves = self.rebalancer.plan_from_metrics(
            list(self.sessions()), queue_weight=self.queue_weight
        )
        if len(moves) < self.min_moves:
            moves = []  # not worth paying migration cost this round
        self.last_plan = list(moves)
        if moves:
            self.moves_applied += self.rebalancer.apply(
                moves, timeout=self.timeout
            )
        return moves

    def stats(self) -> dict[str, Any]:
        return {
            "running": self._running,
            "interval": self.interval,
            "ticks": self.ticks,
            "moves_applied": self.moves_applied,
            "errors": self.errors,
            "last_plan": list(self.last_plan),
        }
