"""Durable write-ahead signal log with exactly-once replay.

Checkpoints (PR 5) are point-in-time and in-memory: a crash between
checkpoints silently drops every signal applied since the last
snapshot, and supervised restart (PR 2) re-runs whatever the caller
retries — at-least-once at best.  This module adds the missing
durability tier, shaped after orchestrator-core's "persist every step,
resume from the store" discipline:

* :class:`WriteAheadLog` — an append-only, segmented, length-prefixed
  and CRC-32-checked log of JSON frames.  Every segment opens with a
  versioned ``repro-wal`` header envelope (same tolerant-reader
  contract as ``serialize.py``), appends are group-committed (fsync
  once per ``sync_every`` frames, and always on checkpoint), and an
  interrupted write leaves a *torn tail* that the reader detects by
  CRC/length and truncates on the next open — the classic
  torn-write-tolerant WAL recovery rule.

* Frame kinds: ``entry`` (a :class:`~repro.runtime.events.Signal`
  with its PR 1 ``trace_id``/``parent_seq`` causal chain, written
  *before* the work it names is dispatched), ``applied`` (the entry
  completed, carrying the memoized outcomes of every external resource
  operation it performed), and ``checkpoint`` (a full
  ``SessionSnapshot`` document embedded in the log, covering every
  frame before it).  Effects ride inside the ``applied`` frame: one
  locked write seals an entry, and an entry whose seal was lost before
  the last fsync simply re-executes on recovery.  Snapshot-then-truncate
  compaction: a checkpoint rotates to a fresh segment first, so every
  older segment is wholly covered and can be deleted.

* :class:`EffectJournal` — the exactly-once mechanism.  Replaying an
  entry through the middleware re-runs the deterministic layers, but
  external resource operations must not execute twice (the simulated
  services append to ``op_log``; a duplicate invoke is observable).
  The journal buffers each operation's outcome (value or typed error)
  while live and seals them into the entry's ``applied`` frame; during
  replay it *intercepts* the same operations and returns the memoized
  outcome (or re-raises a reconstructed typed error) without touching
  the resource.  Recovery is therefore restore-latest-snapshot +
  replay-tail with delivery deduplicated by ``(trace_id, seq)`` —
  exactly-once end to end.

* Log shipping moves bytes, not documents, and never reads the log
  back: a shipped log keeps every non-header frame it writes in an
  outbox, and :meth:`WriteAheadLog.take_outbox` hands them over in
  write order, CRC-checked again and never decoded.
  :meth:`WriteAheadLog.land` writes such frames into a standby copy
  unchanged, after checking every CRC again.  The log lists its
  directory once, at open, and keeps its live segment indexes in
  memory.

* Reading a log back is one loop over segments, shared by
  :meth:`WriteAheadLog.replay` (a log this process holds open) and
  :func:`read_log_directory` (any log directory, read-only: it opens
  nothing for writing and repairs nothing, so callers read the
  original).  :func:`session_tail` is the one "latest checkpoint +
  tail" rule every recovery reader applies to the frame docs.

Binary frame format (all integers big-endian)::

    [u32 length][u32 crc32-of-payload][payload: UTF-8 JSON, length bytes]

A frame whose length field runs past end-of-file, or whose CRC does
not match, terminates a *final* segment cleanly (torn tail from a
crash mid-write); anywhere else it raises :class:`WalError` because it
means corruption rather than interruption.
"""

from __future__ import annotations

import bisect
import contextlib
import json
import os
import struct
import threading
import zlib
from collections import deque
from pathlib import Path
from typing import Any, Callable, Iterable, Iterator

from repro.runtime.events import Call, Event, Signal, mint_call

try:  # optional accelerator: dumps straight to bytes, ~10x stdlib.
    import orjson as _orjson
except ImportError:  # pragma: no cover - stdlib fallback
    _orjson = None  # type: ignore[assignment]

if _orjson is not None:
    import functools

    _ORJSON_OPTS = _orjson.OPT_NON_STR_KEYS
    # partial, not a def: orjson is called straight from the hot path,
    # and a C-level partial skips one Python frame per frame encoded.
    _dumps = functools.partial(_orjson.dumps, option=_ORJSON_OPTS)
    _dumps_lenient = functools.partial(
        _orjson.dumps, default=repr, option=_ORJSON_OPTS
    )
    _loads = _orjson.loads
else:  # pragma: no cover - exercised only without orjson

    def _dumps(doc: Any) -> bytes:
        return json.dumps(doc, separators=(",", ":")).encode("utf-8")

    def _dumps_lenient(doc: Any) -> bytes:
        return json.dumps(
            doc, separators=(",", ":"), default=repr
        ).encode("utf-8")

    _loads = json.loads

__all__ = [
    "WAL_FORMAT",
    "WAL_VERSION",
    "WalError",
    "WalReplayDivergence",
    "WriteAheadLog",
    "EffectJournal",
    "signal_to_doc",
    "signal_from_doc",
    "FRAME_HEADER_SIZE",
    "encode_frame",
    "encode_frame_doc",
    "decode_frame",
    "decode_frame_header",
    "decode_frame_payload",
    "split_frames",
    "read_log_directory",
    "session_tail",
]

#: envelope identifying WAL segment headers (serialize.py discipline).
WAL_FORMAT = "repro-wal"
#: current writer version; readers accept any version up to this one.
WAL_VERSION = 1

_HEADER = struct.Struct(">II")  # (length, crc32)

_SIGNAL_KINDS: dict[str, type[Signal]] = {
    "signal": Signal,
    "call": Call,
    "event": Event,
}


class WalError(Exception):
    """Corrupt log, unsupported format, or unserializable frame."""


class WalReplayDivergence(WalError):
    """Replayed execution requested a different effect sequence than
    the log recorded — the apply function is not deterministic."""


def signal_to_doc(signal: Signal) -> dict[str, Any]:
    """The replayable projection of a signal (causal fields included).

    The payload is aliased, not copied — the doc is encoded immediately
    on the append path, and replayed docs come from :func:`_loads`.
    """
    return {
        "kind": signal.kind,
        "topic": signal.topic,
        "payload": signal.payload,
        "origin": signal.origin,
        "seq": signal.seq,
        "trace_id": signal.trace_id,
        "parent_seq": signal.parent_seq,
    }


def signal_from_doc(doc: dict[str, Any]) -> Signal:
    """Reconstruct a signal with its original seq and causal chain."""
    cls = _SIGNAL_KINDS.get(doc.get("kind", "signal"), Signal)
    return cls(
        topic=doc["topic"],
        payload=doc.get("payload", {}),
        origin=doc.get("origin", ""),
        seq=int(doc["seq"]),
        trace_id=int(doc.get("trace_id", 0)),
        parent_seq=doc.get("parent_seq"),
    )


def encode_frame(payload: bytes) -> bytes:
    """Frame raw payload bytes: ``[u32 length][u32 crc32][payload]``."""
    return _HEADER.pack(len(payload), zlib.crc32(payload)) + payload


def _frame_spans(data: bytes) -> Iterator[tuple[int, int]]:
    """Yield ``(start, end)`` per whole, CRC-valid frame of ``data``,
    stopping at the first short or corrupt one: a torn tail, or
    corruption the caller judges (the last end falls short of
    ``len(data)``)."""
    view = memoryview(data)
    start, size = 0, len(data)
    while size - start >= _HEADER.size:
        length, crc = _HEADER.unpack_from(data, start)
        end = start + _HEADER.size + length
        if end > size or zlib.crc32(view[start + _HEADER.size:end]) != crc:
            return
        yield start, end
        start = end


#: Size of the ``[u32 length][u32 crc32]`` frame header in bytes —
#: streaming readers (the cluster socket transport) read exactly this
#: many bytes before the payload.
FRAME_HEADER_SIZE = _HEADER.size


def encode_frame_doc(doc: Any, *, lenient: bool = False) -> bytes:
    """Encode one JSON document as a length-prefixed CRC-checked frame.

    The exact WAL wire discipline (``[u32 length][u32 crc32][payload]``,
    big-endian, UTF-8 JSON payload) exposed for other transports — the
    multi-process cluster protocol frames its control and batch
    messages identically so corruption detection and the tolerant-
    reader contract are shared.  ``lenient=True`` stringifies
    unserializable leaves instead of raising.
    """
    try:
        payload = _dumps_lenient(doc) if lenient else _dumps(doc)
    except (TypeError, ValueError) as exc:
        raise WalError(f"unserializable frame: {exc}") from exc
    return encode_frame(payload)


def decode_frame_header(header: bytes) -> tuple[int, int]:
    """Unpack a frame header into ``(payload_length, expected_crc)``."""
    if len(header) != _HEADER.size:
        raise WalError(
            f"short frame header: {len(header)} bytes, need {_HEADER.size}"
        )
    length, crc = _HEADER.unpack(header)
    return length, crc


def decode_frame_payload(payload: bytes, expected_crc: int) -> Any:
    """CRC-verify and decode one frame payload read off a stream."""
    if zlib.crc32(payload) != expected_crc:
        raise WalError("frame CRC mismatch")
    try:
        return _loads(payload)
    except ValueError as exc:
        raise WalError(f"undecodable frame payload: {exc}") from exc


def decode_frame(frame: bytes) -> Any:
    """CRC-verify and decode one whole frame (header included)."""
    if len(frame) < _HEADER.size:
        raise WalError(f"short frame: {len(frame)} bytes")
    length, crc = _HEADER.unpack_from(frame)
    if len(frame) - _HEADER.size != length:
        raise WalError(
            f"frame holds {len(frame) - _HEADER.size} payload bytes, "
            f"its header says {length}"
        )
    return decode_frame_payload(frame[_HEADER.size:], crc)


def split_frames(blob: bytes) -> list[bytes]:
    """Cut back-to-back frames apart by their length fields alone.

    Nothing is checked or decoded: a blob that does not end on a frame
    boundary yields its ragged remainder as a last, short frame, which
    :func:`decode_frame` (and so :meth:`WriteAheadLog.land`) refuses.
    """
    frames = []
    offset, size = 0, len(blob)
    while offset < size:
        if size - offset < _HEADER.size:
            frames.append(blob[offset:])
            break
        end = offset + _HEADER.size + _HEADER.unpack_from(blob, offset)[0]
        frames.append(blob[offset:end])
        offset = end
    return frames


def _segment_file(directory: Path, name: str, segment: int) -> Path:
    return directory / f"{name}-{segment:08d}.log"


def _list_logs(directory: Path) -> dict[str, list[int]]:
    """Segment indexes per log name (``{name}-NNNNNNNN.log``) found in
    ``directory``, ascending: one directory listing."""
    logs: dict[str, list[int]] = {}
    for path in directory.glob("*.log"):
        name, _, index = path.name[:-4].rpartition("-")
        if name and index.isdigit():
            logs.setdefault(name, []).append(int(index))
    for segments in logs.values():
        segments.sort()
    return logs


def _segment_docs(
    data: bytes, segment: int, *, final: bool
) -> Iterator[dict[str, Any]]:
    """Yield the doc of every frame of one segment's bytes after its
    header, whose envelope is checked.

    A short or corrupt frame ends a ``final`` segment cleanly (torn
    tail: crash mid-append); in any other segment it is damage and
    raises :class:`WalError`.
    """
    from repro.modeling.serialize import SerializationError, check_envelope

    end = 0
    for offset, end in _frame_spans(data):
        try:
            doc = _loads(data[offset + _HEADER.size:end])
        except ValueError as exc:
            raise WalError(
                f"undecodable frame in segment {segment} at "
                f"offset {offset}: {exc}"
            ) from exc
        if offset == 0:
            if doc.get("k") == "header":
                try:
                    check_envelope(
                        doc,
                        expected_format=WAL_FORMAT,
                        max_version=WAL_VERSION,
                    )
                except SerializationError as exc:
                    raise WalError(str(exc)) from exc
                continue
            raise WalError(
                f"segment {segment} does not open with a "
                f"{WAL_FORMAT!r} header frame"
            )
        yield doc
    if not final and end < len(data):
        raise WalError(
            f"corrupt frame mid-log in segment {segment} at offset {end}"
        )


def _log_docs(
    directory: Path, name: str, segments: list[int]
) -> Iterator[tuple[int, dict[str, Any]]]:
    """Yield ``(segment, doc)`` for every frame of log ``name`` in
    ``directory``, over its ascending ``segments``: the one read-back
    loop.  A segment deleted since it was listed was truncated behind a
    checkpoint and is skipped."""
    for segment in segments:
        try:
            data = _segment_file(directory, name, segment).read_bytes()
        except FileNotFoundError:
            continue
        for doc in _segment_docs(data, segment, final=segment == segments[-1]):
            yield segment, doc


def read_log_directory(
    directory: str | os.PathLike[str],
) -> dict[str, list[dict[str, Any]]]:
    """Every log in ``directory``, read-only: log name (the segment
    file prefix) to its frame docs in log order.

    Each segment's header envelope is checked, a torn final segment
    ends its log cleanly, and a bad frame anywhere else raises
    :class:`WalError` (:meth:`WriteAheadLog.replay` reads the same
    way); it opens nothing for writing and repairs nothing, so the
    directory is left byte for byte as it was.
    """
    directory = Path(directory)
    return {
        name: [doc for _segment, doc in _log_docs(directory, name, segments)]
        for name, segments in sorted(_list_logs(directory).items())
    }


def session_tail(
    docs: Iterable[dict[str, Any]], session: str
) -> list[dict[str, Any]]:
    """``session``'s frames from its latest checkpoint on, in log order:
    what recovering the session needs (every frame of the session when
    it never checkpointed).

    A ``covers_all`` checkpoint counts as the session's own: it is a
    pool shard's platform snapshot, which embeds every session the
    shard hosts.  Restoring it rolls all of them back, so its tail is
    *every* frame after it, whichever session wrote it.
    """
    tail: list[dict[str, Any]] = []
    shared = False
    for doc in docs:
        owner = str(doc.get("session", ""))
        if doc.get("k") == "checkpoint" and (
            owner == session or doc.get("covers_all")
        ):
            tail = [doc]
            shared = bool(doc.get("covers_all"))
        elif shared or owner == session:
            tail.append(doc)
    return tail


class WriteAheadLog:
    """Append-only segmented log of JSON frames for one shard.

    ``directory`` holds numbered segment files (``wal-00000000.log``,
    ``wal-00000001.log``, ...).  Opening an existing directory resumes
    the highest segment, validating its header and truncating any torn
    tail left by a crash mid-append.

    Durability knobs: ``fsync=False`` trusts the OS page cache (tests,
    benches measuring CPU overhead); otherwise appends are
    group-committed — ``flush()+fsync()`` once every ``sync_every``
    frames and always on :meth:`sync`/:meth:`checkpoint`/:meth:`close`.

    Thread safety: all mutating calls serialize on one lock, so shard
    pump threads and an ingress producer can share a log.

    The directory is listed once, at open; from then on the log keeps
    its live segment indexes in memory (:meth:`segments`), so replay
    and truncation never list it again.
    """

    def __init__(
        self,
        directory: str | os.PathLike[str],
        *,
        name: str = "wal",
        sync_every: int = 64,
        fsync: bool = True,
        segment_max_bytes: int = 8 * 1024 * 1024,
    ) -> None:
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.name = name
        self.sync_every = max(1, int(sync_every))
        self.fsync = bool(fsync)
        self.segment_max_bytes = int(segment_max_bytes)
        # a plain Lock (not RLock): public methods never nest — locked
        # sections call only the _*_locked helpers — and it is a shade
        # cheaper on the two acquisitions every logged entry pays.
        self._lock = threading.Lock()
        self._file: Any = None
        self._segment = 0
        self._offset = 0
        self._unsynced = 0
        self._closed = False
        #: live segment indexes, ascending (see :meth:`segments`).
        self._segments: list[int] = []
        # truncation floor bookkeeping: last checkpointed segment per
        # session, and every session seen appending since open.
        self._checkpoint_segment: dict[str, int] = {}
        self._active_sessions: set[str] = set()
        #: frame bytes of each session's latest checkpoint.
        self.checkpoint_bytes: dict[str, int] = {}
        self.appends = 0
        self.syncs = 0
        self.rotations = 0
        self.truncated_segments = 0
        self.torn_tail_repaired = False
        #: frames written since the last :meth:`take_outbox`, kept only
        #: by a shipped log (see :meth:`enable_outbox`).
        self._outbox: list[bytes] | None = None
        self._open_latest()

    # -- segment management -------------------------------------------

    def _segment_path(self, segment: int) -> Path:
        return _segment_file(self.directory, self.name, segment)

    def segments(self) -> list[int]:
        """Live segment indexes, ascending: listed from the directory
        at open, then kept where segments start and are truncated."""
        with self._lock:
            return list(self._segments)

    def _open_latest(self) -> None:
        existing = _list_logs(self.directory).get(self.name, [])
        if not existing:
            self._start_segment(0)
            return
        self._segments = existing
        self._segment = existing[-1]
        path = self._segment_path(self._segment)
        valid = self._scan_valid_length(path)
        size = path.stat().st_size
        if valid < size:
            # torn tail from a crash mid-append: truncate to the last
            # whole frame so the log ends on a clean boundary.
            with open(path, "r+b") as handle:
                handle.truncate(valid)
            self.torn_tail_repaired = True
        self._file = open(path, "ab")
        self._offset = valid
        # rebuild truncation-floor bookkeeping from the surviving log.
        for segment, doc in _log_docs(self.directory, self.name, existing):
            self._track_locked(doc, segment)

    def _start_segment(self, segment: int) -> None:
        self._segment = segment
        self._file = open(self._segment_path(segment), "ab")
        self._segments.append(segment)
        self._offset = 0
        header = {
            "format": WAL_FORMAT,
            "version": WAL_VERSION,
            "k": "header",
            "segment": segment,
            "log": self.name,
        }
        frame = encode_frame(_dumps(header))
        self._file.write(frame)
        self._offset = len(frame)
        self._sync_locked()

    def _scan_valid_length(self, path: Path) -> int:
        """Byte length of the longest valid frame prefix of ``path``."""
        valid = 0
        for _start, valid in _frame_spans(path.read_bytes()):
            pass
        return valid

    # -- appending ----------------------------------------------------

    def _encode(self, doc: dict[str, Any], *, strict: bool) -> bytes:
        """Serialize a frame payload (outside the lock: encoding does
        not touch writer state, so it should not extend lock hold)."""
        try:
            return _dumps(doc)
        except (TypeError, ValueError) as exc:
            if strict:
                raise WalError(
                    f"frame {doc.get('k')!r} is not JSON-serializable: {exc}"
                ) from exc
            return _dumps_lenient(doc)

    def _write_locked(self, payload: bytes) -> None:
        """The one framed write (hot path)."""
        if self._closed:
            raise WalError(f"log {self.name!r} is closed")
        if self._offset >= self.segment_max_bytes:
            self._rotate_locked()
        frame = _HEADER.pack(len(payload), zlib.crc32(payload)) + payload
        self._file.write(frame)
        if self._outbox is not None:
            self._outbox.append(frame)
        self._offset += len(frame)
        self.appends += 1
        self._unsynced += 1
        if self._unsynced >= self.sync_every:
            self._sync_locked()

    def append(self, doc: dict[str, Any], *, strict: bool = True) -> None:
        """Append one raw frame.

        ``strict=False`` falls back to ``repr`` for non-JSON values —
        used by the fabric tier logging arbitrary signal payloads for
        observability, never for frames the recovery path replays.
        """
        payload = self._encode(doc, strict=strict)
        with self._lock:
            self._write_locked(payload)

    def append_entry(
        self,
        signal: Signal,
        *,
        session: str = "",
        strict: bool = True,
    ) -> None:
        """Write-ahead record of a signal about to be dispatched
        (encoded outside the lock)."""
        payload = self._encode(
            {"k": "entry", "session": session, "sig": signal_to_doc(signal)},
            strict=strict,
        )
        with self._lock:
            self._active_sessions.add(session)
            self._write_locked(payload)

    def sync(self) -> None:
        with self._lock:
            self._sync_locked()

    def _sync_locked(self) -> None:
        if self._file is None:
            return
        self._file.flush()
        if self.fsync:
            os.fsync(self._file.fileno())
        self._unsynced = 0
        self.syncs += 1

    def _rotate_locked(self) -> None:
        if self._closed:
            raise WalError(f"log {self.name!r} is closed")
        self._sync_locked()
        self._file.close()
        self.rotations += 1
        self._start_segment(self._segment + 1)

    def rotate(self) -> int:
        """Seal the current segment and start the next; returns its index."""
        with self._lock:
            self._rotate_locked()
            return self._segment

    # -- checkpointing ------------------------------------------------

    def checkpoint(
        self,
        snapshot_doc: dict[str, Any],
        *,
        session: str = "",
        cover_all: bool = False,
    ) -> None:
        """Embed a snapshot covering everything logged so far.

        Rotates first so the checkpoint opens a fresh segment: every
        earlier segment is then wholly covered by *some* checkpoint and
        is deleted, subject to the truncation floor — a shard log shared
        by several sessions only drops segments older than the oldest
        session's last checkpoint (a session that never checkpointed
        pins the whole log until it does or is :meth:`forget_session`-ed).

        ``cover_all=True`` marks this checkpoint as covering *every*
        session active in the log — the shard-level snapshot case,
        where one platform snapshot embeds the state of all hosted
        sessions and their older entry frames are no longer needed for
        recovery.  Each active session's truncation floor advances to
        this checkpoint's segment.
        """
        doc: dict[str, Any] = {
            "k": "checkpoint",
            "session": session,
            "snapshot": snapshot_doc,
        }
        if cover_all:
            doc["covers_all"] = True
        payload = self._encode(doc, strict=True)
        with self._lock:
            self._rotate_locked()
            self._write_locked(payload)
            self._sync_locked()
            self._track_locked(doc, self._segment)
            self.checkpoint_bytes[session] = _HEADER.size + len(payload)
            self._truncate_locked()

    def _track_locked(self, doc: dict[str, Any], segment: int) -> None:
        """Truncation-floor bookkeeping for a frame at ``segment``."""
        kind = doc.get("k")
        session = str(doc.get("session", ""))
        if kind == "checkpoint":
            self._checkpoint_segment[session] = segment
            self._active_sessions.add(session)
            if doc.get("covers_all"):
                for active in self._active_sessions:
                    self._checkpoint_segment[active] = segment
        elif kind in ("dropped", "closed"):
            self._forget_locked(session)
        elif kind == "entry":
            self._active_sessions.add(session)

    def _truncation_floor(self) -> int:
        floor = self._segment
        for session in self._active_sessions:
            floor = min(floor, self._checkpoint_segment.get(session, 0))
        return floor

    def _truncate_locked(self) -> int:
        floor = self._truncation_floor()
        dropped = bisect.bisect_left(self._segments, floor)
        for segment in self._segments[:dropped]:
            self._segment_path(segment).unlink(missing_ok=True)
        del self._segments[:dropped]
        self.truncated_segments += dropped
        return dropped

    def truncate(self) -> int:
        """Delete segments below the truncation floor; returns count."""
        with self._lock:
            return self._truncate_locked()

    def forget_session(self, session: str) -> None:
        """Drop a closed session from the truncation floor."""
        with self._lock:
            self._forget_locked(session)

    def _forget_locked(self, session: str) -> None:
        self._active_sessions.discard(session)
        self._checkpoint_segment.pop(session, None)
        self.checkpoint_bytes.pop(session, None)

    def land(self, frames: list[bytes]) -> None:
        """Append whole frames shipped from another log (a standby
        copy), byte for byte.

        Every frame's CRC is checked, and its payload decoded for the
        truncation-floor bookkeeping, before any is written: a batch
        holding a short, corrupt or undecodable frame raises
        :class:`WalError` and lands nothing.  A landed checkpoint
        advances its session's floor to the segment it landed in and a
        landed ``dropped``/``closed`` forgets the session (as in
        :meth:`checkpoint`); when landing rotates the log, the segments
        below the floor are deleted.
        """
        with self._lock:
            rotations = self.rotations
            self._land_locked(frames)
            if self.rotations != rotations:
                self._truncate_locked()

    def _land_locked(self, frames: list[bytes]) -> None:
        """The one landing routine: verify all, then write each frame
        unchanged (:meth:`_write_locked`'s steps, minus the framing)."""
        docs = [decode_frame(frame) for frame in frames]
        if self._closed:
            raise WalError(f"log {self.name!r} is closed")
        outbox = self._outbox
        for frame, doc in zip(frames, docs):
            if self._offset >= self.segment_max_bytes:
                self._rotate_locked()
            self._file.write(frame)
            if outbox is not None:
                outbox.append(frame)
            self._offset += len(frame)
            self.appends += 1
            self._unsynced += 1
            if self._unsynced >= self.sync_every:
                self._sync_locked()
            self._track_locked(doc, self._segment)

    def enable_outbox(self) -> None:
        """Keep every frame written from now on for :meth:`take_outbox`
        (idempotent).  Only a log whose frames are shipped turns this
        on; every other log pays one ``is None`` check per write."""
        with self._lock:
            if self._outbox is None:
                self._outbox = []

    def take_outbox(self) -> list[bytes]:
        """Log shipping's take: every frame written since the last take,
        byte for byte, in write order (segment headers never enter the
        outbox); ``[]`` for a log without one.

        Flushes first, so a shipped frame has reached the OS, and checks
        each frame's length and CRC again in memory (:class:`WalError`
        on damage); nothing is read back or decoded.  Frames of segments
        a checkpoint has since truncated are included: harmless, since
        adoption starts from the latest checkpoint.
        """
        with self._lock:
            frames = self._outbox
            if not frames:
                return []
            if self._file is not None:
                self._file.flush()
            self._outbox = []
        for frame in frames:
            length, crc = _HEADER.unpack_from(frame)
            if (len(frame) - _HEADER.size != length
                    or zlib.crc32(memoryview(frame)[_HEADER.size:]) != crc):
                raise WalError(f"log {self.name!r}: damaged outbox frame")
        return frames

    # -- reading ------------------------------------------------------

    def replay(self) -> Iterator[dict[str, Any]]:
        """Yield every frame doc of the live segments in log order
        (flushed first), read as :func:`read_log_directory` reads."""
        with self._lock:
            if self._file is not None:
                self._file.flush()
            segments = list(self._segments)
        for _segment, doc in _log_docs(self.directory, self.name, segments):
            yield doc

    def close(self) -> None:
        with self._lock:
            if self._closed:
                return
            self._sync_locked()
            self._file.close()
            self._file = None
            self._closed = True

    def __enter__(self) -> "WriteAheadLog":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()

    def __repr__(self) -> str:
        return (
            f"WriteAheadLog({str(self.directory)!r}, segment={self._segment}, "
            f"appends={self.appends})"
        )


def _discard_frame(frame: bytes) -> None:
    """The write of a journal with no log."""


class EffectJournal:
    """Exactly-once interceptor for external resource operations.

    While an entry is being applied *live*, :meth:`around_invoke`
    invokes the operation and buffers its outcome (value or typed
    error); when the entry completes, :meth:`end_entry` seals the
    buffered outcomes into the entry's ``applied`` frame with a single
    locked write.  While an entry is being *replayed* during recovery,
    :meth:`around_invoke` pops the next recorded effect and returns (or
    re-raises) it without invoking the operation — the middleware
    layers re-run deterministically, the external world does not.

    An entry whose ``applied`` frame never made it to disk (crash
    mid-entry, or after the entry frame but before the seal) replays
    its operations live against the restored resource state.

    ``error_factory(type_name, message)`` rebuilds a typed exception
    for replayed error outcomes; the broker installs one mapping its
    resource fault taxonomy (see ``ResourceManager.install_effect_journal``).

    A journal with no ``wal`` discards its seals: a replay of frames
    read from elsewhere, whose re-executed entries have no log to be
    sealed into.
    """

    def __init__(
        self, wal: WriteAheadLog | None, *, session: str = ""
    ) -> None:
        self.wal = wal
        self.session = session
        self.error_factory: Callable[[str, str], Exception] | None = None
        #: whether an entry is open — a plain attribute, not a
        #: property: the resource manager consults it on every
        #: invocation, journal installed or not.
        self.active = False
        self._entry_seq: int | None = None
        self._op_index = 0
        self._effects: list[list[Any]] = []
        self._replay_queue: deque[list[Any]] | None = None
        self._already_applied = False
        self.recorded = 0
        self.replayed = 0
        #: frame bytes (entries and seals, effects included) logged
        #: since the session's last checkpoint, which resets it.
        self.tail_bytes = 0
        # hot-path bindings: the per-entry writes go straight at the
        # log's lock and lean write (same module; see log_call).
        if wal is None:
            self._wal_lock: Any = contextlib.nullcontext()
            self._wal_write: Callable[[bytes], None] = _discard_frame
            self._session_registered = True
        else:
            self._wal_lock = wal._lock
            self._wal_write = wal._write_locked
            self._session_registered = False
        # Precomputed frame fragments: the per-step entry and applied
        # frames are assembled by byte concatenation around the only
        # variable parts (topic, payload, seq), which beats serializing
        # a freshly-built nested dict on every step.  The concatenated
        # bytes parse to exactly the documented frame docs.
        session_json = _dumps(session)
        self._entry_prefix = (
            b'{"k":"entry","session":' + session_json
            + b',"sig":{"kind":"call","origin":' + session_json
            + b',"topic":'
        )
        self._seal_prefix = (
            b'{"k":"applied","session":' + session_json + b',"entry_seq":'
        )
        self._topic_json: dict[str, bytes] = {}

    @property
    def replaying(self) -> bool:
        return self._replay_queue is not None and bool(self._replay_queue)

    def log_call(self, topic: str, payload: dict[str, Any]) -> Call:
        """Fused hot path: mint a chain-rooting :class:`Call`,
        write-ahead its entry frame, open the entry.

        Equivalent to ``Call(topic=..., payload=..., origin=session)``
        + ``wal.append_entry(...)`` + :meth:`begin_entry` — this is the
        per-step front half of ``ShardDurability.execute``.  The logged
        payload aliases ``payload``; the returned call is what
        ``apply_entry`` should receive.
        """
        if self.active:
            raise WalError("EffectJournal entries do not nest")
        call = mint_call(topic, payload, self.session)
        seq = call.seq
        topic_json = self._topic_json.get(topic)
        if topic_json is None:
            topic_json = self._topic_json[topic] = _dumps(topic)
        try:
            frame = (
                self._entry_prefix + topic_json
                + b',"payload":' + _dumps(payload)
                + b',"seq":%d,"trace_id":%d,"parent_seq":null}}'
                % (seq, seq)
            )
        except (TypeError, ValueError) as exc:
            raise WalError(
                f"entry seq={seq} is not JSON-serializable: {exc}"
            ) from exc
        if not self._session_registered:
            with self._wal_lock:
                self.wal._active_sessions.add(self.session)
            self._session_registered = True
        with self._wal_lock:
            self._wal_write(frame)
        self.tail_bytes += _HEADER.size + len(frame)
        self._entry_seq = seq
        self._effects = []
        self._already_applied = False
        self._replay_queue = None
        self.active = True
        return call

    def begin_entry(
        self,
        signal: Signal,
        *,
        recorded_effects: list[list[Any]] | None = None,
        already_applied: bool = False,
    ) -> None:
        if self.active:
            raise WalError("EffectJournal entries do not nest")
        self._entry_seq = signal.seq
        self._op_index = 0
        self._effects = []
        self._already_applied = already_applied
        # sealed effects are in execution order: no sort is needed.
        self._replay_queue = (
            deque(recorded_effects) if recorded_effects else None
        )
        self.active = True

    def end_entry(self) -> None:
        if not self.active:
            return
        entry_seq = self._entry_seq
        assert entry_seq is not None
        leftover = self._replay_queue
        effects = self._effects
        self.active = False
        self._entry_seq = None
        self._replay_queue = None
        self._effects = []
        # live effects are counted here in one batch rather than one
        # increment per operation in around_invoke().
        self.recorded += len(effects)
        if leftover:
            raise WalReplayDivergence(
                f"entry seq={entry_seq} replayed fewer effects than "
                f"recorded ({len(leftover)} left over)"
            )
        if not self._already_applied:
            # the ``applied`` seal: byte concat around the precomputed
            # prefix, one locked write.
            if effects:
                try:
                    frame = (
                        self._seal_prefix + b"%d" % entry_seq
                        + b',"effects":' + _dumps(effects) + b"}"
                    )
                except (TypeError, ValueError) as exc:
                    raise WalError(
                        f"entry seq={entry_seq} effects are not "
                        f"JSON-serializable: {exc}"
                    ) from exc
            else:
                frame = self._seal_prefix + b"%d}" % entry_seq
            with self._wal_lock:
                self._wal_write(frame)
            self.tail_bytes += _HEADER.size + len(frame)

    def _replay_next(self, label: str) -> Any:
        """Pop the next recorded effect and return/raise its outcome.

        Records are ``[label, "ok", value]`` or ``[label, "error",
        error_type, message]`` (see :meth:`around_invoke`).
        """
        queue = self._replay_queue
        assert queue is not None
        record = queue.popleft()
        if record[0] != label:
            raise WalReplayDivergence(
                f"entry seq={self._entry_seq} effect {self._op_index} "
                f"recorded {record[0]!r} but replay requested {label!r}"
            )
        self._op_index += 1
        self.replayed += 1
        if record[1] == "ok":
            return record[2]
        factory = self.error_factory
        message = str(record[3])
        if factory is not None:
            raise factory(str(record[2]), message)
        raise WalError(f"replayed error effect {record[2]}: {message}")

    def around_invoke(
        self,
        label: str,
        fn: Callable[..., Any],
        operation: str,
        args: dict[str, Any],
    ) -> Any:
        """Run ``fn(operation, **args)`` exactly once across
        crash/recovery.

        Takes the callable and its arguments directly so the resource
        manager's hot path does not build a closure per operation.
        """
        if not self.active:
            return fn(operation, **args)
        if self._replay_queue:
            return self._replay_next(label)
        try:
            value = fn(operation, **args)
        except Exception as exc:
            self._effects.append(
                [label, "error", type(exc).__name__, str(exc)]
            )
            raise
        self._effects.append([label, "ok", value])
        return value
