"""Async ingress tier: admission control, priorities, load shedding.

The ROADMAP's north star is heavy open-loop traffic from millions of
users; the sharded fabric (PR 4) scales the *inside* of the system but
still accepts work unconditionally — under overload, shard mailboxes
grow without bound and every request's latency diverges together.
This module is the missing edge between callers and
:class:`~repro.runtime.sharded.ShardedRuntime`: a front door that
polices admission *before* work reaches the shard mailboxes, sheds
excess load with typed outcomes instead of unbounded queueing, and
hands admitted work to the fabric in batches without breaking the
per-session FIFO contract that keeps op_logs deterministic.

Architecture (DESIGN §10):

* :class:`IngressTier` is the synchronous, loop-agnostic core —
  deterministic under a :class:`~repro.runtime.clock.VirtualClock`,
  which is how the seeded shedding tests and the benchmark's
  determinism check drive it.  It owns bounded per-session FIFO
  queues, two priority classes (``INTERACTIVE`` beats ``BATCH``), an
  :class:`AdmissionPolicy` evaluated at offer time, and a batched
  handoff that mirrors the ForwardingChannel discipline: admitted
  requests buffer per destination shard and flush as **one** mailbox
  task per shard per pump, so a burst of M admitted requests costs one
  mailbox hop, not M.  Per-shard in-flight caps close the backpressure
  loop between the fabric and the edge.
* Rejections are *typed*, reusing the PR 2 fault vocabulary:
  :meth:`IngressTier.submit` resolves its future with an
  :class:`~repro.runtime.faults.InvocationOutcome` whose status is
  ``REJECTED`` and whose ``error`` is an :class:`IngressRejected`
  (a :class:`~repro.runtime.faults.FaultError`) carrying the shed
  reason — exactly what :func:`~repro.runtime.faults.call_guarded`
  returns when a circuit breaker refuses a call.
* Shed decisions are *fed back* from the running system: per-shard
  queue depth (in-flight plus mailbox backlog) gates entry admission,
  and the PR 2 breaker transitions (``resource.<name>.breaker_open``
  events, the same signals the autonomic manager consumes as
  symptoms) observed via :meth:`IngressTier.watch_bus` shed traffic at
  the edge instead of queueing work a broken resource will reject
  anyway.
* :class:`AsyncIngress` is the asyncio facade: ``await submit(...)``
  from any coroutine, with a dispatcher task pumping admitted work
  into the fabric and waking on both arrivals and freed capacity.

Admission distinguishes *entry* requests (the first call of a session,
``entry=True``) from continuation requests.  Entry requests face the
headroom thresholds, breaker state, and shard-depth checks; admitted
sessions' continuations are only bounded by the hard per-session and
global limits.  That is classic session admission control: shed at the
door, protect what you let in — it keeps goodput high (no half-run
sessions wasting shard time) and admitted-request latency bounded.
"""

from __future__ import annotations

import asyncio
import contextlib
import threading
from collections import deque
from concurrent.futures import Future
from dataclasses import dataclass
from typing import Any, Callable

from repro.runtime.clock import Clock, WallClock
from repro.runtime.events import Signal
from repro.runtime.faults import FaultError, InvocationOutcome
from repro.runtime.metrics import MetricsRegistry
from repro.runtime.sharded import ShardedRuntime

__all__ = [
    "INTERACTIVE",
    "BATCH",
    "PRIORITIES",
    "ShedReason",
    "IngressError",
    "IngressRejected",
    "AdmissionPolicy",
    "IngressRequest",
    "IngressTier",
    "AsyncIngress",
]

#: priority classes, in strict scheduling order.
INTERACTIVE = "interactive"
BATCH = "batch"
PRIORITIES = (INTERACTIVE, BATCH)


class IngressError(Exception):
    """Raised on ingress misuse (bad policy, submit after close, ...)."""


class ShedReason:
    """Why a request was shed (the ``reason`` of :class:`IngressRejected`)."""

    QUEUE_FULL = "session_queue_full"
    OVERLOAD = "overload"
    ENTRY_HEADROOM = "entry_headroom"
    SHARD_BACKLOG = "shard_backlog"
    BREAKER_OPEN = "breaker_open"
    CLOSED = "ingress_closed"
    SESSION_CLOSED = "session_closed"
    #: the worker process hosting the session died (socket EOF/reset);
    #: pending and subsequent submissions resolve as typed REJECTED
    #: outcomes until the supervisor restarts the worker and the
    #: session is restored (see repro.runtime.cluster).
    WORKER_DEAD = "worker_dead"


class IngressRejected(FaultError):
    """A request was shed at the ingress edge (typed reject outcome)."""

    def __init__(
        self, reason: str, *, session: str = "", priority: str = INTERACTIVE
    ) -> None:
        super().__init__(
            f"ingress shed {priority} request for session {session!r}: "
            f"{reason}"
        )
        self.reason = reason
        self.session = session
        self.priority = priority


@dataclass(frozen=True)
class AdmissionPolicy:
    """Shedding thresholds for the ingress tier.

    * ``session_queue_limit`` — hard cap on one session's queued (not
      yet dispatched) requests; hit it and the request is shed with
      ``QUEUE_FULL`` regardless of priority.
    * ``max_pending`` — hard cap on total outstanding requests (queued
      plus in flight on shards); beyond it everything is shed with
      ``OVERLOAD``.
    * ``entry_interactive_headroom`` / ``entry_batch_headroom`` —
      fractions of ``max_pending`` above which *entry* requests of the
      given class are shed (``ENTRY_HEADROOM``).  Batch headroom is
      lower: batch sessions are turned away first, interactive entry
      survives further into the overload, continuations of admitted
      sessions survive to the hard cap.
    * ``shard_backlog_limit`` — per-shard depth (in-flight + mailbox
      backlog) above which entry requests targeting that shard are
      shed (``SHARD_BACKLOG``); 0 disables the check.
    * ``shed_batch_on_breaker`` / ``shed_interactive_on_breaker`` —
      whether an open downstream circuit breaker sheds entry requests
      of the class (``BREAKER_OPEN``).
    * ``max_inflight_per_shard`` — backpressure between the tier and
      the fabric: at most this many admitted requests are outstanding
      on one shard's mailbox at a time; the rest wait in the tier's
      queues where priorities still apply.
    """

    session_queue_limit: int = 32
    max_pending: int = 4096
    entry_interactive_headroom: float = 0.75
    entry_batch_headroom: float = 0.35
    shard_backlog_limit: int = 0
    shed_batch_on_breaker: bool = True
    shed_interactive_on_breaker: bool = False
    max_inflight_per_shard: int = 64

    def __post_init__(self) -> None:
        if self.session_queue_limit < 1:
            raise IngressError("session_queue_limit must be >= 1")
        if self.max_pending < 1:
            raise IngressError("max_pending must be >= 1")
        for name in ("entry_interactive_headroom", "entry_batch_headroom"):
            value = getattr(self, name)
            if not 0.0 < value <= 1.0:
                raise IngressError(f"{name} must be in (0, 1]")
        if self.shard_backlog_limit < 0:
            raise IngressError("shard_backlog_limit must be >= 0")
        if self.max_inflight_per_shard < 1:
            raise IngressError("max_inflight_per_shard must be >= 1")

    def entry_headroom(self, priority: str) -> float:
        return (
            self.entry_batch_headroom
            if priority == BATCH
            else self.entry_interactive_headroom
        )

    def sheds_on_breaker(self, priority: str) -> bool:
        return (
            self.shed_batch_on_breaker
            if priority == BATCH
            else self.shed_interactive_on_breaker
        )


class IngressRequest:
    """One admitted-or-pending unit of work bound for a shard."""

    __slots__ = (
        "key", "shard", "run", "priority", "entry", "enqueued_at", "future",
    )

    def __init__(
        self,
        key: str,
        shard: int,
        run: Callable[[], Any],
        priority: str,
        entry: bool,
        enqueued_at: float,
    ) -> None:
        self.key = key
        self.shard = shard
        self.run = run
        self.priority = priority
        self.entry = entry
        self.enqueued_at = enqueued_at
        self.future: Future = Future()

    def __repr__(self) -> str:
        return (
            f"IngressRequest({self.key!r}, shard={self.shard}, "
            f"priority={self.priority}, entry={self.entry})"
        )


class IngressTier:
    """The synchronous ingress core in front of a sharded runtime.

    ``submit`` performs admission control and either resolves the
    returned future immediately with a ``REJECTED`` outcome (shed) or
    queues the request; ``pump`` hands queued requests to their shard
    mailboxes in priority order, batched per destination shard, under
    the per-shard in-flight cap.  Everything is guarded by one small
    lock, so any thread (or an asyncio loop via :class:`AsyncIngress`)
    may submit concurrently with shard threads completing batches.

    Per-session FIFO: a session's requests queue in one deque, only
    the head is ever dispatched, and a session always maps to the same
    shard whose mailbox is itself FIFO — so for admitted requests the
    execution order per session is exactly submission order, and
    op_logs match the synchronous ``PlatformPool.submit`` path byte
    for byte.

    ``resolve(key)`` supplies the positional arguments admitted
    callables receive (the PlatformPool integration binds the owning
    platform); the default supplies none.
    """

    def __init__(
        self,
        runtime: ShardedRuntime,
        *,
        policy: AdmissionPolicy | None = None,
        clock: Clock | None = None,
        resolve: Callable[[str], tuple[Any, ...]] | None = None,
        name: str = "ingress",
    ) -> None:
        self.runtime = runtime
        self.policy = policy or AdmissionPolicy()
        self.clock = clock or WallClock()
        self.name = name
        self._resolve = resolve
        self.metrics = MetricsRegistry(clock=self.clock, thread_safe=True)
        self._lock = threading.Lock()
        self._queues: dict[str, deque[IngressRequest]] = {}
        self._ready: dict[str, deque[str]] = {
            priority: deque() for priority in PRIORITIES
        }
        self._inflight = [0] * len(runtime.shards)
        self._queued = 0
        self._open_breakers: set[str] = set()
        self._watched: list[Any] = []
        self._closed = False
        #: invoked (from any thread) when queued work or shard capacity
        #: appears — the async facade wires this to its wakeup event.
        self.on_work: Callable[[], None] | None = None
        #: invoked as ``on_shed(key, reason)`` for every shed decision
        #: (admission rejects and close_session victims) — a durable
        #: fabric hooks this to land typed shed frames in the owning
        #: shard's write-ahead log (PR 10).  Must not raise.
        self.on_shed: Callable[[str, str], None] | None = None
        self.admitted = 0
        self.shed = 0
        self.dispatched = 0
        self.completed = 0

    # -- feedback inputs --------------------------------------------------

    def watch_bus(self, bus: Any) -> None:
        """Observe breaker transitions published on ``bus``.

        Subscribes to ``resource.*`` and tracks
        ``resource.<name>.breaker_open`` / ``..._half_open`` /
        ``..._closed`` events — the same PR 2 signals the autonomic
        manager consumes as symptoms.  While any watched breaker is
        open, entry requests of the configured classes are shed.
        """
        self._watched.append(bus.subscribe("resource.*", self._on_resource_event))

    def _on_resource_event(self, signal: Signal) -> None:
        topic = signal.topic
        marker = ".breaker_"
        index = topic.rfind(marker)
        if index < 0:
            return
        resource = topic[len("resource."):index]
        state = topic[index + len(marker):]
        with self._lock:
            if state == "open":
                self._open_breakers.add(resource)
            else:
                self._open_breakers.discard(resource)
        self.metrics.count("ingress.breaker_feedback", f"{resource}:{state}")

    def note_breaker(self, resource: str, open_: bool) -> None:
        """Manually feed breaker state (callers without a bus)."""
        with self._lock:
            if open_:
                self._open_breakers.add(resource)
            else:
                self._open_breakers.discard(resource)

    def shard_depth(self, index: int) -> int:
        """Depth feedback for one shard: tier-dispatched in-flight work
        plus whatever else is backed up in the shard's mailbox."""
        return self._inflight[index] + self.runtime.shards[index].mailbox.pending

    # -- admission --------------------------------------------------------

    def submit(
        self,
        key: str,
        fn: Callable[..., Any],
        *,
        priority: str = INTERACTIVE,
        entry: bool = False,
    ) -> Future:
        """Admit-or-shed ``fn`` for session ``key``.

        Always returns a future resolving to an
        :class:`InvocationOutcome`: ``REJECTED`` immediately when shed,
        otherwise ``ok``/``failed`` once the owning shard ran the
        request.  ``fn`` receives ``resolve(key)``'s arguments.
        ``entry=True`` marks the session-opening request, which faces
        the stricter entry-admission checks.
        """
        if priority not in PRIORITIES:
            raise IngressError(f"unknown priority {priority!r}")
        key = str(key)
        shard = self.runtime.shard_for(key).index
        now = self.clock.now()
        request = IngressRequest(key, shard, self._bind(key, fn), priority, entry, now)
        with self._lock:
            reason = self._admission_locked(request)
            if reason is None:
                queue = self._queues.get(key)
                if queue is None:
                    queue = self._queues[key] = deque()
                    self._ready[priority].append(key)
                elif not queue:
                    self._ready[priority].append(key)
                queue.append(request)
                self._queued += 1
                self.admitted += 1
            else:
                self.shed += 1
        if reason is not None:
            self._reject(request, reason)
            return request.future
        self.metrics.count("ingress.admitted", priority)
        notify = self.on_work
        if notify is not None:
            notify()
        return request.future

    def _bind(self, key: str, fn: Callable[..., Any]) -> Callable[[], Any]:
        if self._resolve is None:
            return fn
        # Resolve lazily, on the shard thread at run time: a session
        # migrated while its request sat queued must execute against
        # the platform that owns it *now*, not a stale submit-time one.
        resolve = self._resolve
        return lambda: fn(*resolve(key))

    def _admission_locked(self, request: IngressRequest) -> str | None:
        """The shed decision; None admits.  Caller holds the lock."""
        if self._closed:
            return ShedReason.CLOSED
        policy = self.policy
        queue = self._queues.get(request.key)
        if queue is not None and len(queue) >= policy.session_queue_limit:
            return ShedReason.QUEUE_FULL
        pending = self._queued + sum(self._inflight)
        if pending >= policy.max_pending:
            return ShedReason.OVERLOAD
        if request.entry:
            if self._open_breakers and policy.sheds_on_breaker(request.priority):
                return ShedReason.BREAKER_OPEN
            if pending >= policy.entry_headroom(request.priority) * policy.max_pending:
                return ShedReason.ENTRY_HEADROOM
            if (
                policy.shard_backlog_limit
                and self.shard_depth(request.shard) >= policy.shard_backlog_limit
            ):
                return ShedReason.SHARD_BACKLOG
        return None

    # -- handoff ----------------------------------------------------------

    def pump(self) -> int:
        """Hand dispatchable requests to their shard mailboxes.

        Collects in strict priority order (all dispatchable interactive
        heads before any batch head), round-robin across sessions
        within a class, honoring the per-shard in-flight cap; then
        posts **one** batch task per destination shard.  A request
        whose session a move holds goes through the router instead
        (:meth:`SessionRouter.dispatch`): it waits for the flush and
        runs on the new owner, in order.  Returns the number of
        requests handed off.
        """
        batches: dict[int, list[IngressRequest]] = {}
        cap = self.policy.max_inflight_per_shard
        with self._lock:
            stalled: dict[str, list[str]] = {p: [] for p in PRIORITIES}
            for priority in PRIORITIES:
                ready = self._ready[priority]
                while ready:
                    key = ready.popleft()
                    queue = self._queues.get(key)
                    if not queue:
                        continue  # emptied by an earlier pass
                    head = queue[0]
                    # Re-resolve shard ownership at dispatch time: a
                    # migrate() that landed while the request was
                    # queued re-pointed the session's affinity, and
                    # dispatching to the submit-time shard would break
                    # the one-shard-per-session ordering contract.
                    owner = self.runtime.shard_for(key).index
                    if owner != head.shard:
                        head.shard = owner
                    taken = batches.get(head.shard)
                    if self._inflight[head.shard] >= cap:
                        stalled[priority].append(key)
                        continue
                    request = queue.popleft()
                    self._queued -= 1
                    self._inflight[request.shard] += 1
                    if taken is None:
                        taken = batches[request.shard] = []
                    taken.append(request)
                    if queue:
                        self._ready[queue[0].priority].append(key)
                    else:
                        del self._queues[key]
            # Stalled sessions go back to the *front* so freed capacity
            # serves them before newer arrivals of the same class.
            for priority in PRIORITIES:
                if stalled[priority]:
                    self._ready[priority].extendleft(
                        reversed(stalled[priority])
                    )
        handed = 0
        held: list[IngressRequest] = []
        router = self.runtime.router
        for index, requests in sorted(batches.items()):
            handed += len(requests)
            shard = self.runtime.shards[index]
            # A hold starts under its source's lock, so under this lock
            # a session routed here and not held stays so until the
            # batch is posted; any other request waits for its move.
            with shard.lock:
                batch: list[IngressRequest] = []
                for request in requests:
                    settled = router.settled(request.key, shard)
                    (batch if settled else held).append(request)
                if batch:
                    shard.post(lambda r=batch: self._deliver(r))
            self.metrics.count("ingress.handoff_batches", shard.name)
            self.metrics.count("ingress.handoff_requests", shard.name, len(requests))
        for request in held:
            # posted to the session's owner once its move released it
            self.runtime.dispatch(
                request.key,
                lambda owner, r=request: owner.post(lambda: self._deliver([r])),
            )
        self.dispatched += handed
        return handed

    def _deliver(self, requests: list[IngressRequest]) -> None:
        """Run a handed-off batch on its shard thread, FIFO."""
        clock = self.clock
        for request in requests:
            future = request.future
            if not future.set_running_or_notify_cancel():
                continue
            started = clock.now()
            try:
                value = request.run()
            except Exception as exc:  # noqa: BLE001 - typed outcome
                outcome = InvocationOutcome(
                    status=InvocationOutcome.FAILED,
                    label=request.key,
                    error=exc,
                    attempts=1,
                    elapsed=clock.now() - request.enqueued_at,
                )
            else:
                outcome = InvocationOutcome(
                    status=InvocationOutcome.OK,
                    label=request.key,
                    value=value,
                    attempts=1,
                    elapsed=clock.now() - request.enqueued_at,
                )
            self.metrics.observe(
                "ingress.wait", request.priority, started - request.enqueued_at
            )
            self.metrics.observe(
                "ingress.sojourn", request.priority, outcome.elapsed
            )
            self.metrics.count("ingress.completed", outcome.status)
            future.set_result(outcome)
        with self._lock:
            for request in requests:
                # the shard pump charged, wherever the request ran
                self._inflight[request.shard] -= 1
            self.completed += len(requests)
        notify = self.on_work
        if notify is not None:
            notify()

    # -- lifecycle / introspection ---------------------------------------

    @property
    def backlog(self) -> int:
        """Requests accepted but not yet completed (queued + in flight)."""
        with self._lock:
            return self._queued + sum(self._inflight)

    @property
    def queued(self) -> int:
        with self._lock:
            return self._queued

    def close(self) -> None:
        """Stop admitting; queued work still pumps and completes."""
        with self._lock:
            self._closed = True
        for subscription in self._watched:
            subscription.cancel()
        self._watched.clear()

    def close_session(self, key: str) -> int:
        """Shed everything still queued for a closing session.

        Entries queued when their session closes must not dispatch into
        a released session (or hang forever on a queue nobody pumps):
        each one resolves immediately as a typed ``REJECTED`` outcome
        with ``ShedReason.SESSION_CLOSED``.  Requests already handed to
        a shard mailbox are past the point of no return and complete
        normally.  Returns the number of requests shed.
        """
        key = str(key)
        with self._lock:
            queue = self._queues.pop(key, None)
            victims = list(queue) if queue else []
            self._queued -= len(victims)
            self.shed += len(victims)
            # The key may still sit in a ready deque; pump() skips keys
            # with no queue, so no further bookkeeping is needed.
        for request in victims:
            self._reject(request, ShedReason.SESSION_CLOSED)
        return len(victims)

    def _reject(self, request: IngressRequest, reason: str) -> None:
        """Resolve a shed request as a typed ``REJECTED`` outcome."""
        self.metrics.count("ingress.shed", reason)
        on_shed = self.on_shed
        if on_shed is not None:
            on_shed(request.key, reason)
        request.future.set_result(
            InvocationOutcome(
                status=InvocationOutcome.REJECTED,
                label=request.key,
                error=IngressRejected(
                    reason, session=request.key, priority=request.priority
                ),
                attempts=0,
                elapsed=0.0,
            )
        )

    def stats(self) -> dict[str, Any]:
        with self._lock:
            return {
                "name": self.name,
                "closed": self._closed,
                "queued": self._queued,
                "inflight": list(self._inflight),
                "sessions_queued": len(self._queues),
                "admitted": self.admitted,
                "shed": self.shed,
                "dispatched": self.dispatched,
                "completed": self.completed,
                "open_breakers": sorted(self._open_breakers),
            }

    def __repr__(self) -> str:
        return (
            f"IngressTier({self.name!r}, queued={self.queued}, "
            f"admitted={self.admitted}, shed={self.shed})"
        )


class AsyncIngress:
    """asyncio facade over an :class:`IngressTier`.

    A dispatcher task pumps the tier whenever work arrives or shard
    capacity frees up (with a short poll as a safety net), so
    coroutines simply ``await submit(...)`` and receive the typed
    :class:`InvocationOutcome`.  Shard completions land on fabric
    threads; the wakeup crosses back into the loop via
    ``call_soon_threadsafe``.
    """

    def __init__(self, tier: IngressTier, *, poll_interval: float = 0.005) -> None:
        self.tier = tier
        self.poll_interval = poll_interval
        self._loop: asyncio.AbstractEventLoop | None = None
        self._event: asyncio.Event | None = None
        self._task: asyncio.Task | None = None
        self._stopping = False

    async def start(self) -> "AsyncIngress":
        if self._task is not None:
            return self
        self._loop = asyncio.get_running_loop()
        self._event = asyncio.Event()
        self._stopping = False
        self.tier.on_work = self._wake
        self._task = self._loop.create_task(
            self._dispatch(), name=f"{self.tier.name}-dispatcher"
        )
        return self

    def _wake(self) -> None:
        loop = self._loop
        if loop is None or loop.is_closed():
            return
        try:
            loop.call_soon_threadsafe(self._set_event)
        except RuntimeError:
            pass  # loop shut down mid-notification

    def _set_event(self) -> None:
        if self._event is not None:
            self._event.set()

    async def _dispatch(self) -> None:
        # Exits via the ``_stopping`` flag, not task cancellation:
        # ``asyncio.wait_for`` can swallow a cancellation that races a
        # concurrent event-set (the wrapped wait already finished), so
        # a cancelled dispatcher could keep looping forever.
        assert self._event is not None
        while not self._stopping:
            with contextlib.suppress(asyncio.TimeoutError):
                await asyncio.wait_for(
                    self._event.wait(), timeout=self.poll_interval
                )
            self._event.clear()
            self.tier.pump()

    async def submit(
        self,
        key: str,
        fn: Callable[..., Any],
        *,
        priority: str = INTERACTIVE,
        entry: bool = False,
    ) -> InvocationOutcome:
        """Admit-or-shed ``fn``; awaits the typed outcome."""
        future = self.tier.submit(key, fn, priority=priority, entry=entry)
        return await asyncio.wrap_future(future)

    async def drain(self, *, timeout: float = 30.0) -> None:
        """Wait until every accepted request completed."""
        assert self._loop is not None, "start() first"
        deadline = self._loop.time() + timeout
        while self.tier.backlog:
            if self._loop.time() >= deadline:
                raise IngressError(
                    f"ingress did not drain within {timeout}s "
                    f"(backlog={self.tier.backlog})"
                )
            self.tier.pump()
            await asyncio.sleep(self.poll_interval)

    async def stop(self, *, timeout: float = 30.0) -> None:
        """Close admission, drain accepted work, stop the dispatcher."""
        self.tier.close()
        if self._task is None:
            return
        await self.drain(timeout=timeout)
        self._stopping = True
        self._set_event()  # wake the dispatcher so it sees the flag
        with contextlib.suppress(asyncio.CancelledError):
            await self._task
        self._task = None
        self.tier.on_work = None

    async def __aenter__(self) -> "AsyncIngress":
        return await self.start()

    async def __aexit__(self, *exc_info: object) -> None:
        await self.stop()
