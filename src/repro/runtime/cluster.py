"""Multi-process session fabric: process shards behind a frame protocol.

The cluster generalises :mod:`repro.runtime.sharded` from threads to
processes.  A coordinator spawns N worker processes (``spawn`` context —
never ``fork``, so workers start from a clean interpreter), each hosting a
full middleware backend for its shard of the session space.  Coordinator
and workers exchange length-prefixed CRC-checked frames over localhost
sockets — the exact framing discipline of the write-ahead log
(:mod:`repro.runtime.wal`), reused via its public helpers so a corrupt or
truncated frame is detected the same way a torn WAL record is.

Layering: this module knows nothing about the middleware.  Workers resolve
their backend from a ``"module:attr"`` spec string at startup, so the
runtime package never imports :mod:`repro.middleware`.  A backend is any
object with::

    open(session, doc)      -> value      # build session state
    apply(session, doc)     -> value      # run one operation
    capture(session)        -> doc        # portable snapshot (migration)
    restore(session, doc)   -> value      # rebuild from a captured doc
    drop(session)           -> value      # forget after migrate-out
    close(session)          -> value      # orderly teardown
    describe(session)       -> doc        # introspection (op_log etc.)

Worker death is a first-class event: every pending future on a dead
worker's socket resolves immediately with a typed REJECTED
:class:`~repro.runtime.faults.InvocationOutcome` carrying
``IngressRejected(ShedReason.WORKER_DEAD)`` — never a hung future, never a
raw ``ConnectionError`` — and the supervisor respawns the process.
"""

from __future__ import annotations

import importlib
import json
import multiprocessing
import os
import queue
import shutil
import socket
import tempfile
import threading
import time
from concurrent.futures import Future
from dataclasses import dataclass, field
from pathlib import Path

from repro.runtime.faults import InvocationOutcome
from repro.runtime.ingress import IngressRejected, IngressTier, ShedReason
from repro.runtime.sharded import (
    RebalanceTrigger,
    ShardRebalancer,
    shard_index_for,
)
from repro.runtime.wal import (
    FRAME_HEADER_SIZE,
    WalError,
    WriteAheadLog,
    decode_frame_header,
    decode_frame_payload,
    encode_frame_doc,
)

__all__ = [
    "ClusterError",
    "RemoteWorkerError",
    "ProcessCluster",
    "ClusterFabric",
    "ClusterRebalancer",
    "LogShipper",
    "worker_main",
]

_HANDSHAKE_TIMEOUT = 15.0


class ClusterError(RuntimeError):
    """Coordinator-side cluster failure."""


class RemoteWorkerError(ClusterError):
    """A workload operation raised inside a worker process."""

    def __init__(self, kind: str, message: str):
        super().__init__(f"{kind}: {message}")
        self.kind = kind
        self.remote_message = message


# ---------------------------------------------------------------------------
# Frame transport
# ---------------------------------------------------------------------------


def _read_exactly(sock: socket.socket, size: int) -> bytes:
    chunks = []
    remaining = size
    while remaining:
        chunk = sock.recv(remaining)
        if not chunk:
            raise ConnectionError("socket closed mid-frame")
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


def _read_frame(sock: socket.socket) -> dict:
    header = _read_exactly(sock, FRAME_HEADER_SIZE)
    length, crc = decode_frame_header(header)
    payload = _read_exactly(sock, length)
    return decode_frame_payload(payload, crc)


def _send_frame(sock: socket.socket, doc: dict) -> None:
    sock.sendall(encode_frame_doc(doc, lenient=True))


# ---------------------------------------------------------------------------
# Worker process
# ---------------------------------------------------------------------------


def _resolve_backend(spec: str):
    module_name, _, attr = spec.partition(":")
    module = importlib.import_module(module_name)
    target = getattr(module, attr or "backend")
    return target() if callable(target) else target


def worker_main(worker_id: int, port: int, token: str, backend_spec: str,
                options_json: str) -> None:
    """Entry point executed in each spawned worker process."""
    backend = _resolve_backend(backend_spec)
    options = json.loads(options_json) if options_json else {}
    configure = getattr(backend, "configure", None)
    if configure is not None:
        configure(worker_id, options)

    sock = socket.create_connection(("127.0.0.1", port), timeout=_HANDSHAKE_TIMEOUT)
    sock.settimeout(None)
    _send_frame(sock, {"k": "hello", "worker": worker_id, "token": token,
                       "pid": os.getpid()})

    inbox: queue.Queue = queue.Queue()

    def _reader() -> None:
        try:
            while True:
                inbox.put(_read_frame(sock))
        except (ConnectionError, OSError, WalError):
            inbox.put(None)

    threading.Thread(target=_reader, name=f"cluster-worker-{worker_id}-rx",
                     daemon=True).start()

    send_lock = threading.Lock()
    while True:
        frame = inbox.get()
        if frame is None:  # coordinator went away
            break
        op = frame.get("op")
        session = frame.get("session", "")
        doc = frame.get("doc")
        reply: dict = {"k": "res", "id": frame.get("id"), "ok": True}
        try:
            if op == "call":
                reply["value"] = backend.apply(session, doc)
            elif op == "open":
                reply["value"] = backend.open(session, doc)
            elif op == "capture":
                reply["value"] = backend.capture(session)
            elif op == "restore":
                reply["value"] = backend.restore(session, doc)
            elif op == "drop":
                reply["value"] = backend.drop(session)
            elif op == "close":
                reply["value"] = backend.close(session)
            elif op == "describe":
                reply["value"] = backend.describe(session)
            elif op == "adopt":
                adopt = getattr(backend, "adopt", None)
                if adopt is None:
                    raise ClusterError(
                        "backend does not support session adoption")
                reply["value"] = adopt(session, frame.get("frames") or [])
            elif op == "ping":
                reply["value"] = {"pong": True, "worker": worker_id,
                                  "pid": os.getpid()}
            elif op == "stop":
                reply["value"] = {"stopped": True}
            else:
                raise ClusterError(f"unknown cluster op {op!r}")
        except BaseException as exc:  # workload errors never kill the worker
            reply = {"k": "res", "id": frame.get("id"), "ok": False,
                     "error": {"type": type(exc).__name__, "message": str(exc)}}
        # Log shipping (PR 10): piggyback the backend's new WAL frames
        # on this reply.  The entry for this very op was write-aheaded
        # before its effects ran and sealed after, so a resolved future
        # implies its frames are in the coordinator's warm copy.
        ship = getattr(backend, "ship_tail", None)
        if ship is not None:
            try:
                frames = ship()
            except Exception:
                frames = []
            if frames:
                reply["ship"] = frames
        reply["backlog"] = inbox.qsize()
        with send_lock:
            try:
                _send_frame(sock, reply)
            except OSError:
                break
        if op == "stop":
            break
    shutdown = getattr(backend, "shutdown", None)
    if shutdown is not None:
        try:
            shutdown()
        except Exception:
            pass
    try:
        sock.close()
    except OSError:
        pass


# ---------------------------------------------------------------------------
# Coordinator-side worker handle
# ---------------------------------------------------------------------------


def _dead_outcome(session: str, started: float) -> InvocationOutcome:
    return InvocationOutcome(
        status=InvocationOutcome.REJECTED,
        label=session,
        error=IngressRejected(ShedReason.WORKER_DEAD, session=session),
        attempts=1,
        elapsed=time.monotonic() - started,
    )


class _WorkerHandle:
    """Coordinator-side view of one worker process."""

    def __init__(self, cluster: "ProcessCluster", index: int):
        self.cluster = cluster
        self.index = index
        self.name = f"{cluster.name}-w{index}"
        self.process = None
        self.pid = 0
        self.generation = 0
        self.alive = False
        self.restarts = 0
        self.sessions: set[str] = set()
        self.reported_backlog = 0
        self._sock: socket.socket | None = None
        self._lock = threading.Lock()
        self._req_seq = 0
        self._pending: dict[int, tuple[str, float, Future]] = {}
        self._ready = threading.Event()

    # -- lifecycle ---------------------------------------------------------

    def attach(self, sock: socket.socket, pid: int) -> None:
        with self._lock:
            self.generation += 1
            generation = self.generation
            self._sock = sock
            self.pid = pid
            self.alive = True
            self.reported_backlog = 0
        threading.Thread(target=self._reader, args=(sock, generation),
                         name=f"cluster-{self.name}-rx", daemon=True).start()
        self._ready.set()

    def wait_ready(self, timeout: float) -> bool:
        return self._ready.wait(timeout)

    @property
    def depth(self) -> int:
        """Outstanding work attributed to this worker (backpressure feed)."""
        with self._lock:
            return len(self._pending) + self.reported_backlog

    # -- request/response --------------------------------------------------

    def request(self, op: str, session: str, doc=None, **extra) -> Future:
        future: Future = Future()
        future.set_running_or_notify_cancel()
        started = time.monotonic()
        with self._lock:
            if not self.alive or self._sock is None:
                future.set_result(_dead_outcome(session, started))
                return future
            self._req_seq += 1
            request_id = self._req_seq
            self._pending[request_id] = (session, started, future)
            sock = self._sock
            frame = {"k": "req", "id": request_id, "op": op, "session": session}
            if doc is not None:
                frame["doc"] = doc
            frame.update(extra)
            try:
                sock.sendall(encode_frame_doc(frame, lenient=True))
            except OSError as exc:
                self._die_locked(exc)
                return future
        return future

    def _reader(self, sock: socket.socket, generation: int) -> None:
        try:
            while True:
                frame = _read_frame(sock)
                self._resolve(frame, generation)
        except (ConnectionError, OSError, WalError) as exc:
            with self._lock:
                if self.generation == generation and self.alive:
                    self._die_locked(exc)
                    return
        # stale reader for a superseded socket: nothing to do

    def _resolve(self, frame: dict, generation: int) -> None:
        with self._lock:
            if self.generation != generation:
                return
            self.reported_backlog = int(frame.get("backlog", 0))
            entry = self._pending.pop(frame.get("id"), None)
        ship = frame.get("ship")
        if ship:
            # Append to the warm copy *before* resolving the future:
            # once a caller observes an op's outcome, the op's WAL
            # frames are already adoptable.
            shipper = self.cluster.shipper
            if shipper is not None:
                try:
                    shipper.receive(self.index, ship)
                except Exception:
                    pass
        if entry is None:
            return
        session, started, future = entry
        elapsed = time.monotonic() - started
        if frame.get("ok"):
            outcome = InvocationOutcome(status=InvocationOutcome.OK,
                                        label=session,
                                        value=frame.get("value"),
                                        attempts=1, elapsed=elapsed)
        else:
            error = frame.get("error") or {}
            outcome = InvocationOutcome(
                status=InvocationOutcome.FAILED,
                label=session,
                error=RemoteWorkerError(error.get("type", "Error"),
                                        error.get("message", "")),
                attempts=1, elapsed=elapsed)
        future.set_result(outcome)

    # -- death -------------------------------------------------------------

    def _die_locked(self, exc: BaseException) -> None:
        """Caller holds ``self._lock``."""
        self.alive = False
        self._ready.clear()
        self._sock = None
        pending = list(self._pending.items())
        self._pending.clear()
        self.reported_backlog = 0
        for _, (session, started, future) in pending:
            if not future.done():
                future.set_result(_dead_outcome(session, started))
        lost = set(self.sessions)
        self.sessions.clear()
        # Notify outside the lock would be nicer, but the callback only
        # touches cluster-level state guarded by its own lock.
        threading.Thread(target=self.cluster._on_worker_death,
                         args=(self, lost, exc), daemon=True).start()

    def kill(self) -> None:
        process = self.process
        if process is not None and process.is_alive():
            process.kill()


# ---------------------------------------------------------------------------
# Log shipping / standby adoption
# ---------------------------------------------------------------------------


class LogShipper:
    """Warm standby copies of each worker's write-ahead log (PR 10).

    Durable workers piggyback their freshly appended WAL frames on
    every reply (``reply["ship"]``); the coordinator lands them here in
    one standby :class:`WriteAheadLog` per worker — same CRC frame
    protocol end to end — *before* the caller's future resolves.  On
    ``WORKER_DEAD``, :meth:`adopt` replays each lost session's shipped
    tail (latest checkpoint frame + later entries) into a surviving
    worker through the backend's idempotent ``adopt`` op, re-pointing
    the coordinator's routes.  Operations that died unshipped were also
    unacknowledged — their futures resolved REJECTED — so the caller's
    resubmit keeps delivery exactly-once.
    """

    def __init__(self, cluster: "ProcessCluster",
                 directory: "str | os.PathLike | None" = None, *,
                 standby: int | None = None):
        self.cluster = cluster
        if directory is None:
            self._ephemeral: str | None = tempfile.mkdtemp(
                prefix="repro-ship-")
            directory = self._ephemeral
        else:
            self._ephemeral = None
        self.directory = Path(directory)
        self.standby = standby
        self.frames_received = 0
        self.adoptions: list[dict] = []
        self._logs: dict[int, WriteAheadLog] = {}
        self._lock = threading.Lock()

    def log_for(self, index: int) -> WriteAheadLog:
        with self._lock:
            log = self._logs.get(index)
            if log is None:
                log = self._logs[index] = WriteAheadLog(
                    self.directory / f"ship-w{index:02d}",
                    name=f"ship-w{index:02d}",
                    fsync=False,
                )
            return log

    def receive(self, index: int, frames: list) -> None:
        """Land one reply's shipped frames in worker ``index``'s copy."""
        log = self.log_for(index)
        for doc in frames:
            log.append(doc, strict=False)
        self.frames_received += len(frames)

    # -- adoption ----------------------------------------------------------

    def adoption_target(self, dead_index: int) -> int | None:
        """The worker that adopts: the configured standby when it is
        alive, otherwise the least-loaded surviving worker."""
        handles = self.cluster.handles
        if (self.standby is not None and self.standby != dead_index
                and handles[self.standby].alive):
            return self.standby
        alive = [h for h in handles if h.alive and h.index != dead_index]
        if not alive:
            return None
        return min(alive, key=lambda h: (h.depth, h.index)).index

    def adopt(self, dead_index: int, sessions: "set[str] | list[str]", *,
              timeout: float = 60.0) -> dict:
        """Adopt every lost session from the dead worker's shipped log."""
        target = self.adoption_target(dead_index)
        report: dict = {"worker": dead_index, "target": target,
                        "sessions": {}}
        if target is None:
            report["error"] = "no surviving worker to adopt into"
            self.adoptions.append(report)
            return report
        log = self.log_for(dead_index)
        handle = self.cluster.handles[target]
        for key in sorted(sessions):
            frames = log.export_session(key)
            if not any(doc.get("k") == "checkpoint" and not doc.get("delta")
                       for doc in frames):
                report["sessions"][key] = {"skipped": "no shipped checkpoint"}
                continue
            outcome = handle.request(
                "adopt", key, None, frames=frames).result(timeout)
            if outcome.status == InvocationOutcome.OK:
                with self.cluster._lock:
                    if target == shard_index_for(
                            key, len(self.cluster.handles)):
                        self.cluster._routes.pop(key, None)
                    else:
                        self.cluster._routes[key] = target
                handle.sessions.add(key)
                report["sessions"][key] = outcome.value
            else:
                report["sessions"][key] = {"error": str(outcome.error)}
        self.adoptions.append(report)
        return report

    def close(self) -> None:
        with self._lock:
            logs, self._logs = dict(self._logs), {}
        for log in logs.values():
            log.close()
        if self._ephemeral is not None:
            shutil.rmtree(self._ephemeral, ignore_errors=True)
            self._ephemeral = None


# ---------------------------------------------------------------------------
# Coordinator
# ---------------------------------------------------------------------------


@dataclass
class _ClusterStats:
    migrations: int = 0
    deaths: int = 0
    restarts: int = 0
    lost_sessions: list = field(default_factory=list)


class ProcessCluster:
    """Coordinator for a fleet of worker processes hosting session shards.

    ``backend`` is a ``"module:attr"`` spec resolved inside each worker —
    the attr may be a backend instance or a zero-arg factory.  ``options``
    (JSON-serialisable) are passed to the backend's ``configure`` hook.
    """

    def __init__(self, workers: int = 2, *, backend: str,
                 name: str = "cluster", options: dict | None = None,
                 restart: bool = True, start_timeout: float = 60.0):
        if workers < 1:
            raise ValueError("workers must be >= 1")
        self.name = name
        self.backend_spec = backend
        self.options = dict(options or {})
        self.restart = restart
        self.start_timeout = start_timeout
        self.handles = [_WorkerHandle(self, i) for i in range(workers)]
        self.stats_ = _ClusterStats()
        self.shipper: LogShipper | None = None
        self._adoption_event = threading.Event()
        self._routes: dict[str, int] = {}
        self._held: dict[str, list] = {}
        self._lock = threading.Lock()
        self._listener: socket.socket | None = None
        self._port = 0
        self._token = ""
        self._closed = False
        self._ctx = multiprocessing.get_context("spawn")

    # -- lifecycle ---------------------------------------------------------

    def start(self) -> "ProcessCluster":
        self._listener = socket.create_server(("127.0.0.1", 0))
        self._port = self._listener.getsockname()[1]
        self._token = f"{self.name}-{os.getpid()}-{id(self):x}"
        threading.Thread(target=self._accept_loop,
                         name=f"cluster-{self.name}-accept",
                         daemon=True).start()
        for handle in self.handles:
            self._spawn(handle)
        deadline = time.monotonic() + self.start_timeout
        for handle in self.handles:
            remaining = deadline - time.monotonic()
            if remaining <= 0 or not handle.wait_ready(remaining):
                self.stop()
                raise ClusterError(f"worker {handle.index} failed to start")
        return self

    def _spawn(self, handle: _WorkerHandle) -> None:
        process = self._ctx.Process(
            target=worker_main,
            args=(handle.index, self._port, self._token, self.backend_spec,
                  json.dumps(self.options)),
            name=f"{self.name}-worker-{handle.index}",
            daemon=True)
        process.start()
        handle.process = process

    def _accept_loop(self) -> None:
        listener = self._listener
        while not self._closed:
            try:
                sock, _ = listener.accept()
            except OSError:
                return
            try:
                sock.settimeout(_HANDSHAKE_TIMEOUT)
                hello = _read_frame(sock)
                sock.settimeout(None)
                if (hello.get("k") != "hello"
                        or hello.get("token") != self._token):
                    sock.close()
                    continue
                index = int(hello.get("worker", -1))
                if not 0 <= index < len(self.handles):
                    sock.close()
                    continue
                self.handles[index].attach(sock, int(hello.get("pid", 0)))
            except (ConnectionError, OSError, WalError):
                try:
                    sock.close()
                except OSError:
                    pass

    def stop(self) -> None:
        self._closed = True
        futures = [handle.request("stop", "") for handle in self.handles
                   if handle.alive]
        for future in futures:
            try:
                future.result(timeout=5.0)
            except Exception:
                pass
        for handle in self.handles:
            process = handle.process
            if process is not None and process.is_alive():
                process.join(timeout=5.0)
                if process.is_alive():
                    process.kill()
                    process.join(timeout=5.0)
        if self._listener is not None:
            try:
                self._listener.close()
            except OSError:
                pass
            self._listener = None
        if self.shipper is not None:
            self.shipper.close()

    def __enter__(self) -> "ProcessCluster":
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()

    # -- routing -----------------------------------------------------------

    def worker_for(self, key: str) -> int:
        with self._lock:
            override = self._routes.get(key)
        if override is not None:
            return override
        return shard_index_for(key, len(self.handles))

    def backlogs(self) -> list[int]:
        return [handle.depth for handle in self.handles]

    # -- session operations ------------------------------------------------

    def open_session(self, key: str, doc: dict | None = None, *,
                     worker: int | None = None) -> Future:
        if worker is not None:
            with self._lock:
                if worker == shard_index_for(key, len(self.handles)):
                    self._routes.pop(key, None)
                else:
                    self._routes[key] = worker
        handle = self.handles[self.worker_for(key)]
        handle.sessions.add(key)
        return handle.request("open", key, doc or {})

    def submit(self, key: str, doc: dict) -> Future:
        """Route one operation to the owning worker.  Returns a Future that
        always resolves with an :class:`InvocationOutcome` — REJECTED with
        ``ShedReason.WORKER_DEAD`` if the worker is (or dies while) serving it.
        """
        with self._lock:
            held = self._held.get(key)
            if held is not None:  # live migration in progress for this key
                future: Future = Future()
                future.set_running_or_notify_cancel()
                held.append((doc, future))
                return future
        return self.handles[self.worker_for(key)].request("call", key, doc)

    def call(self, key: str, doc: dict, timeout: float = 60.0):
        """Blocking submit: returns the value or raises the typed error."""
        outcome = self.submit(key, doc).result(timeout)
        return outcome.unwrap()

    def capture(self, key: str, timeout: float = 60.0) -> dict:
        handle = self.handles[self.worker_for(key)]
        return handle.request("capture", key).result(timeout).unwrap()

    def restore_session(self, key: str, doc: dict, *,
                        worker: int | None = None,
                        timeout: float = 60.0):
        """Cold-restore ``key`` on ``worker`` from a captured doc (snapshot +
        DSK hash); the worker rebuilds the platform via its DSK registry.

        Routing re-points to ``worker`` only once the restore succeeded:
        a failed restore leaves the session reachable where it was."""
        target = self.worker_for(key) if worker is None else worker
        handle = self.handles[target]
        result = handle.request("restore", key, doc).result(timeout).unwrap()
        with self._lock:
            if target == shard_index_for(key, len(self.handles)):
                self._routes.pop(key, None)
            else:
                self._routes[key] = target
        handle.sessions.add(key)
        return result

    def close_session(self, key: str, timeout: float = 60.0):
        handle = self.handles[self.worker_for(key)]
        outcome = handle.request("close", key).result(timeout)
        handle.sessions.discard(key)
        with self._lock:
            self._routes.pop(key, None)
        return outcome

    def describe(self, key: str, timeout: float = 60.0) -> dict:
        handle = self.handles[self.worker_for(key)]
        return handle.request("describe", key).result(timeout).unwrap()

    def ping(self, index: int, timeout: float = 10.0) -> dict:
        return self.handles[index].request("ping", "").result(timeout).unwrap()

    # -- live migration ----------------------------------------------------

    def migrate(self, key: str, to_worker: int, *, timeout: float = 30.0):
        """Live-migrate ``key`` across the process boundary.

        Quiesce -> capture -> restore -> drop, per the thread-fabric
        sequence in :meth:`ShardedRuntime.migrate`: new submissions for the
        key are held at the coordinator, the capture frame drains behind
        every in-flight operation on the source worker's FIFO, the portable
        doc is restored on the target, and held submissions are flushed to
        the new owner in arrival order.  If the restore fails, the source
        keeps the session and its route, and held submissions flush there.
        """
        source = self.worker_for(key)
        if source == to_worker:
            return None
        with self._lock:
            if key in self._held:
                raise ClusterError(f"migration already in progress for {key!r}")
            self._held[key] = []
        try:
            source_handle = self.handles[source]
            snapshot = source_handle.request("capture", key).result(timeout).unwrap()
            self.restore_session(key, snapshot, worker=to_worker,
                                 timeout=timeout)
            source_handle.request("drop", key).result(timeout)
            source_handle.sessions.discard(key)
            self.stats_.migrations += 1
        finally:
            with self._lock:
                held = self._held.pop(key, [])
            owner = self.handles[self.worker_for(key)]
            for doc, future in held:
                inner = owner.request("call", key, doc)
                inner.add_done_callback(
                    lambda f, fut=future: fut.set_result(f.result()))
        return snapshot

    # -- supervision -------------------------------------------------------

    def _on_worker_death(self, handle: _WorkerHandle, lost: set,
                         exc: BaseException) -> None:
        self.stats_.deaths += 1
        if lost:
            self.stats_.lost_sessions.append(
                {"worker": handle.index, "sessions": sorted(lost)})
        shipper = self.shipper
        if shipper is not None and not self._closed:
            try:
                if lost:
                    shipper.adopt(handle.index, lost)
            except Exception:
                pass
            finally:
                self._adoption_event.set()
        if self.restart and not self._closed:
            process = handle.process
            if process is not None:
                process.join(timeout=5.0)
            handle.restarts += 1
            self.stats_.restarts += 1
            self._spawn(handle)

    def kill_worker(self, index: int, *, wait: bool = True,
                    timeout: float = 10.0) -> None:
        """Hard-kill a worker (fault injection for tests and the bench).

        With ``wait`` (the default), blocks until the coordinator has
        *observed* the death — pending futures are already resolved as
        typed REJECTED outcomes and ``wait_worker`` waits for the
        respawn rather than racing the not-yet-detected EOF.
        """
        handle = self.handles[index]
        handle.kill()
        if wait:
            deadline = time.monotonic() + timeout
            while handle.alive and time.monotonic() < deadline:
                time.sleep(0.005)

    def wait_worker(self, index: int, timeout: float = 30.0) -> bool:
        return self.handles[index].wait_ready(timeout)

    # -- durability / adoption ---------------------------------------------

    def build_shipper(self, directory=None, *,
                      standby: int | None = None) -> LogShipper:
        """Attach warm-standby log shipping (idempotent).

        From the next reply on, every durable worker's WAL frames land
        in a coordinator-held copy; when a worker dies its sessions are
        adopted onto ``standby`` (or the least-loaded survivor).
        """
        if self.shipper is None:
            self.shipper = LogShipper(self, directory, standby=standby)
        return self.shipper

    def wait_adoption(self, timeout: float = 30.0) -> dict | None:
        """Block until the supervisor finished an adoption pass after a
        worker death; returns its report (None on timeout)."""
        if not self._adoption_event.wait(timeout):
            return None
        self._adoption_event.clear()
        shipper = self.shipper
        if shipper is not None and shipper.adoptions:
            return shipper.adoptions[-1]
        return None

    def stats(self) -> dict:
        return {
            "workers": len(self.handles),
            "alive": sum(1 for h in self.handles if h.alive),
            "backlogs": self.backlogs(),
            "migrations": self.stats_.migrations,
            "deaths": self.stats_.deaths,
            "restarts": self.stats_.restarts,
            "lost_sessions": list(self.stats_.lost_sessions),
            "adoptions": (len(self.shipper.adoptions)
                          if self.shipper is not None else 0),
            "routes": dict(self._routes),
        }

    # -- ingress adapter ---------------------------------------------------

    def build_ingress(self, *, policy=None, clock=None,
                      name: str | None = None) -> IngressTier:
        """Build an :class:`IngressTier` whose shards are remote workers.

        The fabric duck-types the sharded runtime surface the tier uses
        (``shards``, ``shard_for``); per-worker backlog frames feed the
        tier's admission and backpressure gates through ``mailbox.pending``.
        """
        fabric = ClusterFabric(self)
        kwargs = {}
        if policy is not None:
            kwargs["policy"] = policy
        if clock is not None:
            kwargs["clock"] = clock
        return IngressTier(fabric, name=name or f"{self.name}-ingress",
                           **kwargs)

    # -- rebalancing -------------------------------------------------------

    def build_rebalancer(self, *, interval: float = 1.0, clock=None,
                         queue_weight: float = 1.0, min_moves: int = 1,
                         imbalance_threshold: float = 1.25,
                         max_moves: int = 8,
                         timeout: float = 30.0) -> RebalanceTrigger:
        """Periodic backlog-driven rebalancing at the coordinator.

        Every tick plans greedy moves from the per-worker backlog
        frames piggybacked on each reply (``_WorkerHandle.depth``:
        in-flight requests plus the worker's reported queue) and
        applies them with cross-process live migration.  Clocks without
        a timer queue leave the caller driving ``trigger.tick()``.
        """
        rebalancer = ClusterRebalancer(
            self, imbalance_threshold=imbalance_threshold,
            max_moves=max_moves)
        return RebalanceTrigger(
            rebalancer,
            sessions=lambda: [key for handle in self.handles
                              for key in list(handle.sessions)],
            clock=clock if clock is not None else time,
            interval=interval,
            queue_weight=queue_weight,
            min_moves=min_moves,
            timeout=timeout,
        )


class _ClusterShardView:
    """The sliver of the sharded-runtime surface the greedy planner
    reads: ``shards`` (for the count) and ``shard_for(key).index``."""

    def __init__(self, cluster: ProcessCluster):
        self.cluster = cluster

    @property
    def shards(self):
        return self.cluster.handles

    def shard_for(self, key: str):
        return self.cluster.handles[self.cluster.worker_for(key)]


class ClusterRebalancer(ShardRebalancer):
    """Greedy session moves across worker processes.

    Reuses :class:`ShardRebalancer`'s planner, cost attribution and
    apply loop; only the load read and the move primitive differ.  The
    load signal is the coordinator's own per-worker depth (pending
    futures + the backlog every reply frame reports) and the move
    primitive is :meth:`ProcessCluster.migrate` — quiesce, portable
    capture, restore, drop — instead of an in-process shard hop.
    """

    def __init__(self, cluster: ProcessCluster, *,
                 imbalance_threshold: float = 1.25, max_moves: int = 64):
        super().__init__(_ClusterShardView(cluster),
                         imbalance_threshold=imbalance_threshold,
                         max_moves=max_moves)
        self.cluster = cluster

    def shard_loads(self) -> list[int]:
        return [handle.depth for handle in self.cluster.handles]

    def observed_loads(self, queue_weight: float) -> list[float]:
        return [float(depth) * queue_weight for depth in self.shard_loads()]

    def move(self, key: str, to_shard: int, *, timeout: float) -> None:
        self.cluster.migrate(key, to_shard, timeout=timeout)


# ---------------------------------------------------------------------------
# Ingress fabric adapter
# ---------------------------------------------------------------------------

_PORT_STOP = object()


class _PortMailbox:
    """Depth feed for the ingress tier: local dispatch queue plus the
    worker's reported backlog and in-flight frames."""

    def __init__(self, handle: _WorkerHandle):
        self._handle = handle
        self.queue: queue.Queue = queue.Queue()

    @property
    def pending(self) -> int:
        return self.queue.qsize() + self._handle.depth


class _WorkerPort:
    """Shard-shaped adapter over a remote worker for :class:`IngressTier`."""

    def __init__(self, handle: _WorkerHandle):
        self.index = handle.index
        self.name = handle.name
        self.mailbox = _PortMailbox(handle)
        self._thread: threading.Thread | None = None
        self._lock = threading.Lock()

    def post(self, task) -> None:
        self.mailbox.queue.put(task)
        with self._lock:
            if self._thread is None or not self._thread.is_alive():
                self._thread = threading.Thread(
                    target=self._loop, name=f"{self.name}-port", daemon=True)
                self._thread.start()

    def _loop(self) -> None:
        while True:
            task = self.mailbox.queue.get()
            if task is _PORT_STOP:
                return
            try:
                task()
            except Exception:
                pass

    def stop(self) -> None:
        with self._lock:
            thread = self._thread
        if thread is not None and thread.is_alive():
            self.mailbox.queue.put(_PORT_STOP)
            thread.join(timeout=5.0)


class ClusterFabric:
    """Duck-typed ``ShardedRuntime`` surface over a :class:`ProcessCluster`.

    Exposes exactly what :class:`IngressTier` consumes: a fixed ``shards``
    list whose entries have ``index``/``name``/``mailbox.pending``/``post``,
    and ``shard_for(key)`` honouring the cluster's route overrides.
    """

    def __init__(self, cluster: ProcessCluster):
        self.cluster = cluster
        self.shards = [_WorkerPort(handle) for handle in cluster.handles]

    def shard_for(self, key: str) -> _WorkerPort:
        return self.shards[self.cluster.worker_for(key)]

    def stop(self) -> None:
        for port in self.shards:
            port.stop()
