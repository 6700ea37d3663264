"""Multi-process session fabric: frames, workers, migration, faults."""

import contextlib
import itertools
import socket
import struct
import threading
import time

import pytest
from hypothesis import given, settings, strategies as st

import repro.runtime.cluster as runtime_cluster
from repro.runtime.cluster import (
    ProcessCluster,
    RemoteWorkerError,
    _FrameReader,
    worker_main,
)
from repro.runtime.faults import InvocationOutcome
from repro.runtime.ingress import IngressRejected, ShedReason
from repro.runtime.wal import (
    FRAME_HEADER_SIZE,
    WalError,
    decode_frame_header,
    decode_frame_payload,
    encode_frame,
    encode_frame_doc,
)

#: backend specs the clusters in this file use (see bottom of file).
ECHO_SPEC = "tests.runtime.test_cluster:echo_backend"
SHIP_FAILING_SPEC = "tests.runtime.test_cluster:ship_failing_backend"


# -- frame helpers -----------------------------------------------------------


class TestFrameProtocol:
    def test_roundtrip(self):
        doc = {"k": "req", "id": 7, "op": "call", "doc": {"x": [1, 2, 3]}}
        frame = encode_frame_doc(doc)
        length, crc = decode_frame_header(frame[:FRAME_HEADER_SIZE])
        payload = frame[FRAME_HEADER_SIZE:]
        assert len(payload) == length
        assert decode_frame_payload(payload, crc) == doc

    def test_crc_corruption_detected(self):
        frame = encode_frame_doc({"a": 1})
        length, crc = decode_frame_header(frame[:FRAME_HEADER_SIZE])
        payload = bytearray(frame[FRAME_HEADER_SIZE:])
        payload[0] ^= 0xFF
        with pytest.raises(WalError, match="CRC"):
            decode_frame_payload(bytes(payload), crc)

    def test_short_header_rejected(self):
        with pytest.raises(WalError):
            decode_frame_header(b"\x00\x01")

    def test_header_layout_matches_wal(self):
        frame = encode_frame_doc({"a": 1})
        length, _crc = struct.unpack(">II", frame[:FRAME_HEADER_SIZE])
        assert length == len(frame) - FRAME_HEADER_SIZE


# -- the buffered frame reader over a socket pair ----------------------------

_json = st.recursive(
    st.none() | st.booleans() | st.integers(-2**40, 2**40) | st.text(max_size=12),
    lambda inner: (st.lists(inner, max_size=4)
                   | st.dictionaries(st.text(max_size=6), inner, max_size=4)),
    max_leaves=12,
)
_request = st.builds(
    lambda i, op, doc: {"k": "req", "id": i, "op": op, "session": "s",
                        "doc": doc},
    st.integers(0, 10**6), st.sampled_from(["call", "open", "adopt", "drop"]),
    _json)
_wal_docs = st.lists(
    st.builds(lambda kind, doc: {"k": kind, "session": "s", "doc": doc},
              st.sampled_from(["entry", "seal", "checkpoint"]), _json),
    min_size=1, max_size=4)
#: a reply, with the WAL docs shipped behind it (or None)
_reply = st.tuples(
    st.builds(lambda i, value, backlog: {"k": "res", "id": i, "ok": True,
                                         "value": value, "backlog": backlog},
              st.integers(0, 10**6), _json, st.integers(0, 50)),
    st.none() | _wal_docs)
_messages = st.lists(st.one_of(st.tuples(_request, st.none()), _reply),
                     min_size=1, max_size=8)


def _wire(doc, shipped) -> bytes:
    """A message's bytes as a peer sends them: one frame, then the
    shipped WAL frames as one batch frame when there are any."""
    if not shipped:
        return encode_frame_doc(doc)
    frames = [encode_frame_doc(wal_doc) for wal_doc in shipped]
    return (encode_frame_doc({**doc, "ship": len(frames)})
            + encode_frame(b"".join(frames)))


class _Trickle:
    """A socket whose receives return at most the next drawn size, so
    the reader sees that chunking even where the kernel would coalesce
    the sends."""

    def __init__(self, sock, sizes):
        self._sock = sock
        self._sizes = itertools.cycle(sizes)

    def recv(self, size):
        return self._sock.recv(min(size, next(self._sizes)))


@contextlib.contextmanager
def _reader_over(data: bytes, sizes=(1 << 16,)):
    """A reader of ``data``, sent in ``sizes`` chunks by a peer thread
    that closes its end after the last one."""
    ours, theirs = socket.socketpair()

    def send():
        with theirs:
            chunks = itertools.cycle(sizes)
            offset = 0
            while offset < len(data):
                end = offset + next(chunks)
                theirs.sendall(data[offset:end])
                offset = end

    threading.Thread(target=send, daemon=True).start()
    with ours:
        yield _FrameReader(_Trickle(ours, sizes))


class TestFrameReader:
    @settings(max_examples=60, deadline=None)
    @given(_messages, st.lists(st.integers(1, 600), min_size=1, max_size=6))
    def test_any_chunking_reads_the_same_frames(self, messages, sizes):
        data = b"".join(_wire(doc, shipped) for doc, shipped in messages)
        with _reader_over(data, sizes) as reader:
            for doc, shipped in messages:
                frame = reader.frame()
                assert frame == ({**doc, "ship": len(shipped)} if shipped
                                 else doc)
                if frame.get("ship"):
                    assert reader.batch() == [encode_frame_doc(wal_doc)
                                              for wal_doc in shipped]
            with pytest.raises(ConnectionError):
                reader.frame()

    @settings(max_examples=40, deadline=None)
    @given(_request, st.data())
    def test_eof_inside_a_header_or_payload_raises(self, doc, data):
        frame = encode_frame_doc(doc)
        in_header = data.draw(st.booleans())
        cut = data.draw(st.integers(1, FRAME_HEADER_SIZE - 1) if in_header
                        else st.integers(FRAME_HEADER_SIZE, len(frame) - 1))
        with _reader_over(frame[:cut]) as reader, \
                pytest.raises(ConnectionError):
            reader.frame()

    @settings(max_examples=40, deadline=None)
    @given(_reply.filter(lambda reply: reply[1]), st.data())
    def test_a_flipped_batch_byte_raises_wal_error(self, reply, data):
        doc, shipped = reply
        wire = bytearray(_wire(doc, shipped))
        batch_at = len(encode_frame_doc({**doc, "ship": len(shipped)}))
        # anywhere past the batch's length field: its CRC or its payload
        index = data.draw(st.integers(batch_at + 4, len(wire) - 1))
        wire[index] ^= data.draw(st.integers(1, 255))
        with _reader_over(bytes(wire)) as reader:
            assert reader.frame()["ship"] == len(shipped)
            with pytest.raises(WalError):
                reader.batch()

    def test_headers_go_through_the_module_hook(self, monkeypatch):
        """Every frame header, batches included, is decoded through the
        module's ``decode_frame_header``: the traced benchmark counts
        transport bytes by patching that name."""
        headers = []
        decode = runtime_cluster.decode_frame_header

        def counting(header):
            headers.append(header)
            return decode(header)

        monkeypatch.setattr(runtime_cluster, "decode_frame_header", counting)
        with _reader_over(_wire({"k": "res", "id": 1}, [{"k": "entry"}])
                          + _wire({"k": "req", "id": 2}, None)) as reader:
            reader.frame()
            reader.batch()
            reader.frame()
        assert len(headers) == 3


# -- TCP_NODELAY on both ends of the wire ------------------------------------


def _no_delay(sock) -> bool:
    return bool(sock.getsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY))


class TestNoDelay:
    def test_coordinator_sockets_across_a_respawn(self):
        with ProcessCluster(2, backend=ECHO_SPEC, name="test-nodelay") as c:
            c.start()
            assert all(_no_delay(handle._sock) for handle in c.handles)
            c.kill_worker(0)
            assert c.wait_worker(0, timeout=30)
            assert c.handles[0].generation == 2
            assert all(_no_delay(handle._sock) for handle in c.handles)

    def test_worker_socket(self, monkeypatch):
        connected = []
        create_connection = socket.create_connection

        def recording(*args, **kwargs):
            sock = create_connection(*args, **kwargs)
            connected.append(sock)
            return sock

        monkeypatch.setattr(runtime_cluster.socket, "create_connection",
                            recording)
        with socket.create_server(("127.0.0.1", 0)) as listener:
            worker = threading.Thread(
                target=worker_main,
                args=(0, listener.getsockname()[1], "tok", ECHO_SPEC, ""),
                daemon=True)
            worker.start()
            listener.settimeout(30)
            conn, _ = listener.accept()
            with conn:
                conn.settimeout(30)
                reader = _FrameReader(conn)
                assert reader.frame()["token"] == "tok"
                assert len(connected) == 1 and _no_delay(connected[0])
                conn.sendall(encode_frame_doc(
                    {"k": "req", "id": 1, "op": "stop", "session": ""}))
                assert reader.frame()["value"] == {"stopped": True}
            worker.join(timeout=30)
            assert not worker.is_alive()


# -- cluster lifecycle over a real spawn-context worker ----------------------


@pytest.fixture(scope="module")
def cluster():
    with ProcessCluster(2, backend=ECHO_SPEC, name="test-cluster") as c:
        c.start()
        yield c


class TestProcessCluster:
    def test_open_call_describe_close(self, cluster):
        assert cluster.open_session("s-basic", {"tag": "t"}).result(30).ok
        outcome = cluster.submit("s-basic", {"add": 5}).result(30)
        assert outcome.ok and outcome.value == {"total": 5}
        assert cluster.call("s-basic", {"add": 2}) == {"total": 7}
        assert cluster.describe("s-basic")["ops"] == [5, 2]
        assert cluster.close_session("s-basic").ok

    def test_workload_error_is_typed_not_fatal(self, cluster):
        cluster.open_session("s-err", {}).result(30).unwrap()
        outcome = cluster.submit("s-err", {"boom": True}).result(30)
        assert outcome.status == InvocationOutcome.FAILED
        assert "deliberate" in str(outcome.error)
        # The worker survived the workload exception.
        assert cluster.call("s-err", {"add": 1}) == {"total": 1}
        cluster.close_session("s-err")

    def test_unknown_session_is_remote_error(self, cluster):
        outcome = cluster.submit("s-nowhere", {"add": 1}).result(30)
        assert outcome.status == InvocationOutcome.FAILED

    def test_routing_is_stable_hash(self, cluster):
        from repro.runtime.sharded import shard_index_for

        for key in ("a", "b", "session-0001", "zz"):
            assert cluster.worker_for(key) == shard_index_for(key, 2)

    def test_capture_restore_migrate(self, cluster):
        key = "s-migrate"
        cluster.open_session(key, {}).result(30).unwrap()
        cluster.call(key, {"add": 10})
        source = cluster.worker_for(key)
        target = 1 - source
        capture = cluster.migrate(key, target)
        assert capture["ops"] == [10]
        assert cluster.worker_for(key) == target
        # State continued across the process boundary.
        assert cluster.call(key, {"add": 5}) == {"total": 15}
        assert cluster.describe(key)["ops"] == [10, 5]
        # The source genuinely dropped it: migrating back adopts anew.
        cluster.migrate(key, source)
        assert cluster.worker_for(key) == source
        assert cluster.call(key, {"add": 1}) == {"total": 16}
        cluster.close_session(key)

    def test_failed_restore_keeps_the_session_on_its_source(self, cluster):
        # Regression: the route used to re-point at the target before
        # the restore, so a refused restore stranded the session.  The
        # source dropped it, so it comes back by adopting the capture.
        key = "s-fail-restore"
        source = cluster.worker_for(key)
        cluster.open_session(key, {"refuse_on": 1 - source}).result(
            30).unwrap()
        cluster.call(key, {"add": 3})
        with pytest.raises(RemoteWorkerError, match="adopt refused"):
            cluster.migrate(key, 1 - source)
        assert cluster.worker_for(key) == source
        assert key in cluster.handles[source].sessions
        assert key not in cluster.handles[1 - source].sessions
        assert cluster.call(key, {"add": 4}) == {"total": 7}
        cluster.close_session(key)

    def test_migrate_holds_then_flushes_submissions(self, cluster):
        key = "s-hold"
        cluster.open_session(key, {}).result(30).unwrap()
        target = 1 - cluster.worker_for(key)
        # Start a migration, race submissions against it.
        done = threading.Event()
        futures = []

        def migrate():
            cluster.migrate(key, target)
            done.set()

        thread = threading.Thread(target=migrate)
        thread.start()
        for i in range(20):
            futures.append(cluster.submit(key, {"add": 1}))
        thread.join(timeout=30)
        assert done.is_set()
        for future in futures:
            assert future.result(30).ok
        assert cluster.describe(key)["ops"] == [1] * 20
        cluster.close_session(key)

    def test_backlog_feeds_depth(self, cluster):
        key = "s-backlog"
        cluster.open_session(key, {}).result(30).unwrap()
        futures = [cluster.submit(key, {"add": 1, "sleep": 0.02})
                   for _ in range(10)]
        assert max(cluster.backlogs()) > 0
        for future in futures:
            future.result(30).unwrap()
        cluster.close_session(key)


# -- worker death ------------------------------------------------------------


class TestWorkerDeath:
    def test_kill_rejects_typed_and_respawns(self):
        with ProcessCluster(2, backend=ECHO_SPEC, name="test-kill") as c:
            c.start()
            keys = [f"kill-{i}" for i in range(8)]
            for key in keys:
                c.open_session(key, {}).result(30).unwrap()
            homes = [c.worker_for(key) for key in keys]
            victim = max(set(homes), key=homes.count)
            victim_keys = [k for k, h in zip(keys, homes) if h == victim]

            futures = [c.submit(key, {"add": 1, "sleep": 0.05})
                       for key in victim_keys for _ in range(5)]
            c.kill_worker(victim)

            rejected = 0
            for future in futures:
                outcome = future.result(30)  # never hangs
                if outcome.status == InvocationOutcome.REJECTED:
                    assert isinstance(outcome.error, IngressRejected)
                    assert outcome.error.reason == ShedReason.WORKER_DEAD
                    rejected += 1
            assert rejected > 0

            # Supervisor respawned the worker; dead-worker sessions are
            # gone but the worker serves fresh opens.
            assert c.wait_worker(victim, timeout=30)
            stats = c.stats()
            assert stats["deaths"] == 1 and stats["restarts"] == 1
            assert any(set(entry["sessions"]) & set(victim_keys)
                       for entry in stats["lost_sessions"])
            key = victim_keys[0]
            c.open_session(key, {}).result(30).unwrap()
            assert c.call(key, {"add": 3}) == {"total": 3}

    def test_submit_to_dead_worker_rejected_immediately(self):
        with ProcessCluster(1, backend=ECHO_SPEC, name="test-dead",
                            restart=False) as c:
            c.start()
            c.open_session("d1", {}).result(30).unwrap()
            c.kill_worker(0)
            deadline = time.monotonic() + 10
            while c.handles[0].alive and time.monotonic() < deadline:
                time.sleep(0.01)
            assert not c.handles[0].alive
            outcome = c.submit("d1", {"add": 1}).result(5)
            assert outcome.status == InvocationOutcome.REJECTED
            assert outcome.error.reason == ShedReason.WORKER_DEAD

    def test_failed_ship_ends_the_worker_unacknowledged(self):
        """An op whose frames could not ship never resolves OK: the
        worker ends as on a broken socket and the op's future resolves
        REJECTED (WORKER_DEAD)."""
        with ProcessCluster(1, backend=SHIP_FAILING_SPEC, name="test-ship",
                            restart=False) as c:
            c.start()
            c.open_session("f1", {}).result(30).unwrap()
            assert c.call("f1", {"add": 1}) == {"total": 1}
            outcome = c.submit("f1", {"add": 2, "unshipped": True}).result(30)
            assert outcome.status == InvocationOutcome.REJECTED
            assert outcome.error.reason == ShedReason.WORKER_DEAD
            assert not c.handles[0].alive
            assert c.stats()["deaths"] == 1

    def test_restore_after_restart(self):
        """A capture taken before a worker died rebuilds the session on
        the respawned worker through ``adopt``."""
        with ProcessCluster(1, backend=ECHO_SPEC, name="test-restore") as c:
            c.start()
            c.open_session("r1", {}).result(30).unwrap()
            c.call("r1", {"add": 4})
            capture = c.handles[0].request("drop", "r1").result(30).unwrap()
            c.kill_worker(0)
            assert c.wait_worker(0, timeout=30)
            c.adopt("r1", [{"k": "checkpoint", "session": "r1",
                            "snapshot": capture}], worker=0)
            assert c.call("r1", {"add": 1}) == {"total": 5}


# -- echo backend (spawn target: must be importable, module-level) -----------


class EchoBackend:
    """Minimal in-worker backend: per-session op list + running total.
    A session opened with ``{"refuse_on": N}`` refuses adoption on
    worker N."""

    def __init__(self):
        self.sessions = {}
        self.worker_id = -1

    def configure(self, worker_id, options):
        self.worker_id = worker_id

    def open(self, session, doc):
        self.sessions[session] = {"ops": [], "meta": dict(doc or {})}
        return {"opened": session}

    def apply(self, session, doc):
        if doc.get("boom"):
            raise RuntimeError("deliberate workload failure")
        state = self.sessions[session]
        if doc.get("sleep"):
            time.sleep(doc["sleep"])
        state["ops"].append(doc["add"])
        return {"total": sum(state["ops"])}

    def drop(self, session):
        state = self.sessions.pop(session)
        return {"ops": state["ops"], "meta": state["meta"]}

    def adopt(self, session, frames):
        if session in self.sessions:
            return {"already": True}
        capture = frames[0]["snapshot"]
        if capture["meta"].get("refuse_on") == self.worker_id:
            raise RuntimeError("adopt refused")
        self.sessions[session] = {"ops": list(capture["ops"]),
                                  "meta": dict(capture["meta"])}
        return {"adopted": session}

    def close(self, session):
        self.sessions.pop(session, None)
        return {"closed": session}

    def describe(self, session):
        return {"ops": list(self.sessions[session]["ops"])}


def echo_backend():
    return EchoBackend()


class ShipFailingBackend(EchoBackend):
    """Ships nothing, and fails the ship after an op marked
    ``unshipped``."""

    def __init__(self):
        super().__init__()
        self.unshipped = False

    def apply(self, session, doc):
        self.unshipped = bool(doc.get("unshipped"))
        return super().apply(session, doc)

    def ship_tail(self):
        if self.unshipped:
            raise OSError("deliberate ship failure")
        return []


def ship_failing_backend():
    return ShipFailingBackend()
