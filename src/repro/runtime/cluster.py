"""Multi-process session fabric: process shards behind a frame protocol.

The cluster generalises :mod:`repro.runtime.sharded` from threads to
processes.  A coordinator spawns N worker processes (``spawn`` context —
never ``fork``, so workers start from a clean interpreter), each hosting a
full middleware backend for its shard of the session space.  Coordinator
and workers exchange length-prefixed CRC-checked frames over localhost
sockets — the exact framing discipline of the write-ahead log
(:mod:`repro.runtime.wal`), reused via its public helpers so a corrupt or
truncated frame is detected the same way a torn WAL record is.  Both ends
set ``TCP_NODELAY``: with Nagle on, a small frame sent while an earlier
one is unacknowledged waits for the peer's delayed ACK (~40 ms on Linux).
Each socket's inbound frames are read through one buffered
:class:`_FrameReader`, created at connect or accept time.

Layering: this module knows nothing about the middleware.  Workers resolve
their backend from a ``"module:attr"`` spec string at startup, so the
runtime package never imports :mod:`repro.middleware`.  A backend is any
object with::

    open(session, doc)      -> value      # build session state
    apply(session, doc)     -> value      # run one operation
    drop(session)           -> capture    # forget; return the portable doc
    adopt(session, frames)  -> value      # rebuild from checkpoint + tail
    close(session)          -> value      # orderly teardown
    describe(session)       -> doc        # introspection (op_log etc.)

A session arrives only by ``open``, or by ``adopt`` when moved or lost.

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
import traceback
import zlib
from concurrent.futures import Future
from dataclasses import dataclass, field
from pathlib import Path

from repro.runtime.faults import InvocationOutcome
from repro.runtime.ingress import IngressRejected, ShedReason
from repro.runtime.sharded import SessionRouter
from repro.runtime.wal import (
    FRAME_HEADER_SIZE,
    WalError,
    WriteAheadLog,
    decode_frame_header,
    decode_frame_payload,
    encode_frame,
    encode_frame_doc,
    session_tail,
    split_frames,
)

__all__ = [
    "ClusterError",
    "RemoteWorkerError",
    "ProcessCluster",
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


#: Bytes asked of the kernel per receive when the buffer runs short.
_RECV_SIZE = 1 << 16


def _no_delay(sock: socket.socket) -> socket.socket:
    """Switch Nagle off: a reply, or a request sent while an earlier
    reply is unacknowledged, must not wait for a delayed ACK."""
    sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    return sock


class _FrameReader:
    """Every inbound frame of one socket, read through one buffer.

    A receive takes whatever the kernel holds — a reply and the batch
    shipped behind it, or several queued requests — so most frames are
    cut from the buffer without a syscall of their own.  EOF before a
    frame is whole raises :class:`ConnectionError`.
    """

    def __init__(self, sock: socket.socket):
        self.sock = sock
        self._data = b""  # received, unread from ``_start`` on
        self._start = 0

    def _take(self, size: int) -> bytes:
        data, start = self._data, self._start
        end = start + size
        if end <= len(data):
            self._start = end
            return data[start:end]
        parts = [memoryview(data)[start:]]
        short = end - len(data)
        while short > 0:
            chunk = self.sock.recv(max(_RECV_SIZE, short))
            if not chunk:
                raise ConnectionError("socket closed mid-frame")
            parts.append(chunk)
            short -= len(chunk)
        data = b"".join(parts)
        if short == 0:  # nothing past this frame: keep no copy
            self._data, self._start = b"", 0
            return data
        self._data, self._start = data, size
        return data[:size]

    def _payload(self) -> tuple[bytes, int]:
        length, crc = decode_frame_header(self._take(FRAME_HEADER_SIZE))
        return self._take(length), crc

    def frame(self) -> dict:
        return decode_frame_payload(*self._payload())

    def batch(self) -> list[bytes]:
        """A shipped batch: one raw transport frame holding WAL frames
        back to back, CRC-checked as a whole and split (not decoded)."""
        payload, crc = self._payload()
        if zlib.crc32(payload) != crc:
            raise WalError("shipped batch CRC mismatch")
        return split_frames(payload)


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

    sock = _no_delay(socket.create_connection(("127.0.0.1", port),
                                              timeout=_HANDSHAKE_TIMEOUT))
    sock.settimeout(None)
    sock.sendall(encode_frame_doc({"k": "hello", "worker": worker_id,
                                   "token": token, "pid": os.getpid()},
                                  lenient=True))

    inbox: queue.SimpleQueue = queue.SimpleQueue()

    def _reader() -> None:
        reader = _FrameReader(sock)
        try:
            while True:
                inbox.put(reader.frame())
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
            elif op == "adopt":
                reply["value"] = backend.adopt(session, frame.get("frames"))
            elif op == "drop":
                reply["value"] = backend.drop(session)
            elif op == "close":
                reply["value"] = backend.close(session)
            elif op == "describe":
                reply["value"] = backend.describe(session)
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
        # Log shipping: the backend's new WAL frames follow this reply
        # as one raw transport frame, byte for byte as on disk, and
        # ``reply["ship"]`` says how many.  The entry for this very op
        # was write-aheaded before its effects ran and sealed after, so
        # a resolved future implies its frames are in the coordinator's
        # warm copy.  A ship that fails ends the worker unanswered, as a
        # broken socket does: the op's future resolves WORKER_DEAD and
        # its session is adopted from what did ship, never acknowledged
        # with frames the standby lacks.
        ship = getattr(backend, "ship_tail", None)
        frames: list[bytes] = []
        if ship is not None:
            try:
                frames = ship()
            except Exception:
                traceback.print_exc()
                break
            if frames:
                reply["ship"] = len(frames)
        reply["backlog"] = inbox.qsize()
        data = encode_frame_doc(reply, lenient=True)
        if frames:
            data += encode_frame(b"".join(frames))
        with send_lock:
            try:
                sock.sendall(data)
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
        #: guards the socket and the pending table; the cluster's router
        #: also holds it to order submissions against a session hold.
        self.lock = threading.Lock()
        self._req_seq = 0
        self._pending: dict[int, tuple[str, float, Future]] = {}
        self._ready = threading.Event()

    # -- lifecycle ---------------------------------------------------------

    def attach(self, reader: _FrameReader, pid: int) -> None:
        """Serve the worker behind ``reader``, the one that read its
        hello: bytes it buffered past the hello belong to this worker."""
        with self.lock:
            self.generation += 1
            generation = self.generation
            self._sock = reader.sock
            self.pid = pid
            self.alive = True
            self.reported_backlog = 0
        threading.Thread(target=self._reader, args=(reader, generation),
                         name=f"cluster-{self.name}-rx", daemon=True).start()
        self._ready.set()

    def wait_ready(self, timeout: float) -> bool:
        return self._ready.wait(timeout)

    @property
    def depth(self) -> int:
        """Outstanding work attributed to this worker (backpressure feed)."""
        with self.lock:
            return len(self._pending) + self.reported_backlog

    # -- request/response --------------------------------------------------

    def request(self, op: str, session: str, doc=None, **extra) -> Future:
        with self.lock:
            return self.request_locked(op, session, doc, **extra)

    def request_locked(self, op: str, session: str, doc=None,
                       **extra) -> Future:
        """:meth:`request` for a caller that holds ``self.lock``."""
        future: Future = Future()
        future.set_running_or_notify_cancel()
        started = time.monotonic()
        if not self.alive or self._sock is None:
            future.set_result(_dead_outcome(session, started))
            return future
        self._req_seq += 1
        request_id = self._req_seq
        self._pending[request_id] = (session, started, future)
        frame = {"k": "req", "id": request_id, "op": op, "session": session}
        if doc is not None:
            frame["doc"] = doc
        frame.update(extra)
        try:
            self._sock.sendall(encode_frame_doc(frame, lenient=True))
        except OSError as exc:
            self._die_locked(exc)
        return future

    def _reader(self, reader: _FrameReader, generation: int) -> None:
        try:
            while True:
                frame = reader.frame()
                batch = reader.batch() if frame.get("ship") else None
                self._resolve(frame, generation, batch)
        except (ConnectionError, OSError, WalError) as exc:
            with self.lock:
                if self.generation == generation and self.alive:
                    self._die_locked(exc)
                    return
        # stale reader for a superseded socket: nothing to do

    def _resolve(self, frame: dict, generation: int,
                 batch: list[bytes] | None) -> None:
        with self.lock:
            if self.generation != generation:
                return
            self.reported_backlog = int(frame.get("backlog", 0))
            entry = self._pending.pop(frame.get("id"), None)
        if batch:
            # Land in the warm copy *before* resolving the future: once
            # a caller observes an op's outcome, the op's WAL frames are
            # already adoptable (a refused batch is counted there).
            shipper = self.cluster.shipper
            if shipper is not None:
                shipper.receive(self.index, batch)
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
        """Caller holds ``self.lock``."""
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
    """Warm standby copies of each worker's write-ahead log.

    Durable workers send their freshly appended WAL frames right after
    every reply, byte for byte as on disk; the coordinator lands them
    here unchanged in one standby :class:`WriteAheadLog` per worker —
    same CRC frame protocol end to end — *before* the caller's future
    resolves.  A batch the standby refuses lands nothing and is counted
    per worker (:meth:`stats`), beside the frames and bytes landed.  On
    ``WORKER_DEAD``, :meth:`adopt` replays each lost session's shipped
    tail (latest checkpoint frame + later entries) into a surviving
    worker through :meth:`ProcessCluster.adopt`, the call a live move
    uses, re-pointing the coordinator's routes.  Operations that died
    unshipped were also unacknowledged — their futures resolved
    REJECTED — so the caller's resubmit keeps delivery exactly-once.
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
        #: per worker: frames and bytes landed, batches refused.
        self.landed: dict[int, dict] = {}
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

    def receive(self, index: int, frames: list[bytes]) -> bool:
        """Land one reply's shipped frames, one item per whole frame, in
        worker ``index``'s copy (:meth:`WriteAheadLog.land` checks every
        CRC and truncates what checkpoints cover).

        A batch that fails to land — a bad frame, a failed write — lands
        nothing and is counted as refused with its error; returns
        whether the batch landed.
        """
        error = None
        try:
            self.log_for(index).land(frames)
        except Exception as exc:  # the reader thread must keep running
            error = f"{type(exc).__name__}: {exc}"
        with self._lock:
            counts = self.landed.setdefault(
                index, {"frames": 0, "bytes": 0, "refused": 0})
            if error is None:
                counts["frames"] += len(frames)
                counts["bytes"] += sum(map(len, frames))
            else:
                counts["refused"] += 1
                counts["last_error"] = error
        return error is None

    @property
    def frames_received(self) -> int:
        return sum(counts["frames"] for counts in self.stats().values())

    def stats(self) -> dict:
        """Per worker index: frames and bytes landed, batches refused
        (and the last refusal's error)."""
        with self._lock:
            return {index: dict(counts)
                    for index, counts in sorted(self.landed.items())}

    # -- adoption ----------------------------------------------------------

    def adopt(self, dead_index: int, sessions: "set[str] | list[str]", *,
              timeout: float = 60.0) -> dict:
        """Adopt every lost session from the dead worker's shipped log
        (then forgotten there: the adopter's copy covers it).  The copy
        is read once; each session gets its :func:`session_tail`."""
        started = time.monotonic()
        target = self.cluster.adoption_target(dead_index)
        report: dict = {"worker": dead_index, "target": target,
                        "sessions": {}}
        if target is None:
            report["error"] = "no surviving worker to adopt into"
            self.adoptions.append(report)
            return report
        log = self.log_for(dead_index)
        docs = list(log.replay())
        for key in sorted(sessions):
            frames = session_tail(docs, key)
            if not frames or frames[0].get("k") != "checkpoint":
                report["sessions"][key] = {"skipped": "no shipped checkpoint"}
                continue
            try:
                report["sessions"][key] = self.cluster.adopt(
                    key, frames, worker=target, timeout=timeout)
            except Exception as exc:  # reported per session
                report["sessions"][key] = {"error": str(exc)}
                continue
            log.forget_session(key)
        report["adopt_ms"] = (time.monotonic() - started) * 1e3
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
        self.router = SessionRouter(self.handles)
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
                _no_delay(sock).settimeout(_HANDSHAKE_TIMEOUT)
                reader = _FrameReader(sock)
                hello = reader.frame()
                sock.settimeout(None)
                if (hello.get("k") != "hello"
                        or hello.get("token") != self._token):
                    sock.close()
                    continue
                index = int(hello.get("worker", -1))
                if not 0 <= index < len(self.handles):
                    sock.close()
                    continue
                self.handles[index].attach(reader, int(hello.get("pid", 0)))
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
        return self.router.owner(key).index

    def backlogs(self) -> list[int]:
        return [handle.depth for handle in self.handles]

    # -- session operations ------------------------------------------------

    def open_session(self, key: str, doc: dict | None = None, *,
                     worker: int | None = None) -> Future:
        if worker is not None:
            self.router.point(key, self.handles[worker])
        handle = self.router.owner(key)
        handle.sessions.add(key)
        return handle.request("open", key, doc or {})

    def submit(self, key: str, doc: dict) -> Future:
        """Route one operation to the owning worker.  Returns a Future that
        always resolves with an :class:`InvocationOutcome` — REJECTED with
        ``ShedReason.WORKER_DEAD`` if the worker is (or dies while) serving it.
        """
        return self.router.dispatch(
            key, lambda handle: handle.request_locked("call", key, doc))

    def call(self, key: str, doc: dict, timeout: float = 60.0):
        """Blocking submit: returns the value or raises the typed error."""
        outcome = self.submit(key, doc).result(timeout)
        return outcome.unwrap()

    def close_session(self, key: str, timeout: float = 60.0):
        handle = self.router.owner(key)
        outcome = handle.request("close", key).result(timeout)
        handle.sessions.discard(key)
        self.router.forget(key)
        return outcome

    def describe(self, key: str, timeout: float = 60.0) -> dict:
        return self.router.owner(key).request(
            "describe", key).result(timeout).unwrap()

    def ping(self, index: int, timeout: float = 10.0) -> dict:
        return self.handles[index].request("ping", "").result(timeout).unwrap()

    # -- moves and adoption ------------------------------------------------

    def adoption_target(self, *lost: int) -> int | None:
        """The adopter for sessions of the workers in ``lost``: a live
        standby outside them, else the least-loaded other live worker."""
        alive = [h for h in self.handles if h.alive and h.index not in lost]
        standby = self.shipper.standby if self.shipper is not None else None
        if any(h.index == standby for h in alive):
            return standby
        if not alive:
            return None
        return min(alive, key=lambda h: (h.depth, h.index)).index

    def adopt(self, key: str, frames: list[dict], *, worker: int,
              timeout: float = 60.0) -> dict:
        """Adopt ``key`` on ``worker`` from decoded WAL frame docs (a
        capture checkpoint, then any later entries) and route it there.
        Raises, leaving the route as it was, if the worker refuses,
        dies or already hosts ``key``."""
        handle = self.handles[worker]
        value = handle.request("adopt", key, None, frames=frames).result(
            timeout).unwrap()
        if value.get("already"):
            raise ClusterError(
                f"worker {worker} already hosts session {key!r}")
        self.router.point(key, handle)
        handle.sessions.add(key)
        return value

    def migrate(self, key: str, to_worker: int, *, timeout: float = 30.0):
        """Move ``key`` to worker ``to_worker`` as a planned adoption: a
        :meth:`SessionRouter.transfer` that drops it at the source (the
        reply is its capture) and hands that to :meth:`adopt` on the
        target.  On failure the capture is adopted back on the source, or
        with it dead on :meth:`adoption_target`'s pick, before held work
        flushes.  Returns the capture, or None if ``key`` is already
        there."""

        def drop(source: _WorkerHandle) -> tuple[_WorkerHandle, list[dict]]:
            capture = source.request("drop", key).result(timeout).unwrap()
            source.sessions.discard(key)
            return source, [{"k": "checkpoint", "session": key,
                             "snapshot": capture}]

        def adopt(target: _WorkerHandle, dropped: tuple) -> dict:
            source, frames = dropped
            try:
                self.adopt(key, frames, worker=target.index, timeout=timeout)
            except Exception as refused:
                home = (source.index if source.alive
                        else self.adoption_target(source.index, target.index))
                if home is None:
                    raise ClusterError(f"session {key!r} lost: no worker "
                                       f"left to adopt it") from refused
                self.adopt(key, frames, worker=home, timeout=timeout)
                raise
            return frames[0]["snapshot"]

        return self.router.transfer(
            key, self.handles[to_worker], capture=drop, restore=adopt,
            release=lambda _source, _target: None)

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
            **self.router.stats(),
            "deaths": self.stats_.deaths,
            "restarts": self.stats_.restarts,
            "lost_sessions": list(self.stats_.lost_sessions),
            "adoptions": (len(self.shipper.adoptions)
                          if self.shipper is not None else 0),
            "shipping": (self.shipper.stats()
                         if self.shipper is not None else {}),
        }
