"""Log shipping and standby adoption under failure (PR 10).

Three layers, cheapest first:

- the ``WriteAheadLog`` outbox — the frames a shipped log wrote, kept
  in memory and taken as bytes — under rotation, checkpoint truncation,
  landing and close, checked against a raw read of the segment files;
- ``RegistryBackend.ship_tail`` / ``adopt`` driven entirely in-process,
  so the failure properties (truncated tails, crash mid-ship, double
  adoption, duplicate delivery) are deterministic;
- real two-process clusters: SIGKILL a worker, or fail its ship, and
  the standby adopts; the session's op_logs are byte-identical to the
  record the standby holds.
"""

import json
import struct
from pathlib import Path
from types import SimpleNamespace

import pytest

import repro.runtime.wal as wal_module
from repro.middleware.cluster import (
    ClusterBackendError,
    RegistryBackend,
    default_backend,
)
from repro.runtime.durability import DurabilityPolicy
from repro.runtime.wal import (
    WalError,
    WriteAheadLog,
    decode_frame,
    encode_frame_doc,
    session_tail,
    split_frames,
)

OPEN_DOC = {"domain": "communication", "autonomic": False}

OPS = [
    {"op": "api", "api": "ncb.open_session", "args": {"connection": "c1"}},
    {"op": "api", "api": "ncb.add_party",
     "args": {"connection": "c1", "party": "alice"}},
    {"op": "api", "api": "ncb.add_party",
     "args": {"connection": "c1", "party": "bob"}},
]


def _ship(backend):
    """The backend's shipped tail, decoded (adoption consumes docs)."""
    return [decode_frame(frame) for frame in backend.ship_tail()]


def _seqs(frames):
    return [decode_frame(frame)["sig"]["seq"] for frame in frames]


# ---------------------------------------------------------------------------
# The outbox: what a shipped log hands over
# ---------------------------------------------------------------------------


def _raw_frames(wal):
    """Every non-header frame in ``wal``'s segment files, in segment and
    offset order, cut apart by a reader that shares no code with the
    log: the oracle the shipped frames are checked against."""
    wal.sync()
    prefix = f"{wal.name}-"
    paths = sorted(path for path in Path(wal.directory).iterdir()
                   if path.name.startswith(prefix))
    frames = []
    for path in paths:
        data = path.read_bytes()
        offset, first = 0, True
        while offset < len(data):
            (length,) = struct.unpack_from(">I", data, offset)
            end = offset + 8 + length
            if not first:
                frames.append(data[offset:end])
            offset, first = end, False
    return frames


class TestShipOutbox:
    def _docs(self, n, start=0):
        return [{"k": "entry", "session": "s",
                 "sig": {"kind": "call", "topic": "t", "payload": {"i": i},
                         "origin": "o", "seq": start + i,
                         "trace_id": start + i, "parent_seq": None}}
                for i in range(n)]

    def test_take_returns_new_frames_only(self, tmp_path):
        wal = WriteAheadLog(tmp_path, name="ship", fsync=False)
        try:
            wal.enable_outbox()
            for doc in self._docs(3):
                wal.append(doc)
            assert _seqs(wal.take_outbox()) == [0, 1, 2]
            assert wal._outbox == []  # each take empties the buffer
            assert wal.take_outbox() == []
            for doc in self._docs(2, start=10):
                wal.append(doc)
            assert _seqs(wal.take_outbox()) == [10, 11]
            assert wal._outbox == []
        finally:
            wal.close()

    def test_take_crosses_segment_rotation(self, tmp_path):
        wal = WriteAheadLog(tmp_path, name="ship", fsync=False,
                            segment_max_bytes=256)
        try:
            wal.enable_outbox()
            for doc in self._docs(20):
                wal.append(doc)
            assert len(wal.segments()) > 1  # rotation actually happened
            frames = wal.take_outbox()
            assert _seqs(frames) == list(range(20))
            assert frames == _raw_frames(wal)  # no segment header shipped
        finally:
            wal.close()

    def test_damaged_outbox_frame_raises(self, tmp_path):
        """The take re-checks every frame's length and CRC in memory: a
        frame damaged after it was written is refused, not shipped."""
        wal = WriteAheadLog(tmp_path, name="ship", fsync=False)
        try:
            wal.enable_outbox()
            for doc in self._docs(2):
                wal.append(doc)
            frame = wal._outbox[1]
            wal._outbox[1] = frame[:-1] + bytes([frame[-1] ^ 0xFF])
            with pytest.raises(WalError, match="damaged outbox frame"):
                wal.take_outbox()
        finally:
            wal.close()

    def test_logs_that_do_not_ship_hold_no_buffer(self, tmp_path):
        from repro.runtime.cluster import LogShipper

        plain = WriteAheadLog(tmp_path / "plain", name="plain", fsync=False)
        shipper = LogShipper(_fake_cluster((True, 0)), tmp_path / "ship")
        backend = _durable_backend(tmp_path, 0)
        try:
            for doc in self._docs(3):
                plain.append(doc)
            plain.checkpoint({"snapshot": True}, session="s")
            assert plain._outbox is None
            assert plain.take_outbox() == []
            standby = shipper.log_for(0)
            assert shipper.receive(0, _shipped_frames(tmp_path / "src",
                                                      _ENTRY))
            assert standby._outbox is None
            assert backend.durability.wal._outbox == []  # shipped: kept
        finally:
            plain.close()
            shipper.close()
            backend.shutdown()

    def test_shipped_frames_equal_a_raw_read_of_the_segments(
            self, tmp_path, monkeypatch):
        """Every non-header frame the worker writes ships once, in write
        order: across size rotations, full checkpoints, an imported
        session, an adoption and a close, the concatenated takes equal
        the worker's segment files read raw (truncation off, so the
        files keep every frame)."""
        policy = DurabilityPolicy(mode="wal", log_root=str(tmp_path / "w0"),
                                  fsync=False, segment_max_bytes=4096)
        worker = RegistryBackend(durability=policy)
        worker.worker_id = 0
        worker.enable_durability()
        wal = worker.durability.wal
        monkeypatch.setattr(wal, "_truncate_locked", lambda: 0)
        donor = _durable_backend(tmp_path, 1)
        shipped: list[bytes] = []
        try:
            worker.open("s1", OPEN_DOC)
            shipped += worker.ship_tail()
            for doc in _comm_ops(120):
                worker.apply("s1", doc)
                shipped += worker.ship_tail()
            donor.open("s2", OPEN_DOC)
            for doc in OPS:
                donor.apply("s2", doc)
            worker.adopt("s2", _ship(donor))
            wal.land([encode_frame_doc(
                {"k": "checkpoint", "session": "moved", "snapshot": {}})])
            shipped += worker.ship_tail()
            worker.close("s1")
            worker.apply("s2", {"op": "api", "api": "ncb.add_party",
                                "args": {"connection": "c1",
                                         "party": "carol"}})
            shipped += worker.ship_tail()
            kinds = [decode_frame(frame)["k"] for frame in shipped]
            assert wal.rotations > 0
            assert kinds.count("checkpoint") >= 4  # base, cadence, adopt
            assert "closed" in kinds
            assert shipped == _raw_frames(wal)
            assert len(shipped) == wal.appends
        finally:
            for backend in (worker, donor):
                for session in list(backend.sessions):
                    backend.close(session)
                backend.shutdown()

    def test_ship_path_opens_no_file_for_reading(self, tmp_path,
                                                 monkeypatch):
        backend = _durable_backend(tmp_path, 0)
        opened: list[str] = []
        real_open, real_path_open = open, Path.open

        def spy_open(file, mode="r", *args, **kwargs):
            opened.append(mode)
            return real_open(file, mode, *args, **kwargs)

        def spy_path_open(self, mode="r", *args, **kwargs):
            opened.append(mode)
            return real_path_open(self, mode, *args, **kwargs)

        try:
            backend.open("s1", OPEN_DOC)
            for doc in _comm_ops(40):
                backend.apply("s1", doc)
                monkeypatch.setattr(wal_module, "open", spy_open,
                                    raising=False)
                monkeypatch.setattr(Path, "open", spy_path_open)
                assert backend.ship_tail()
                monkeypatch.undo()
            assert opened == []
        finally:
            monkeypatch.undo()
            backend.close("s1")
            backend.shutdown()


# ---------------------------------------------------------------------------
# RegistryBackend ship/adopt, in-process
# ---------------------------------------------------------------------------


def _durable_backend(tmp_path, worker_id, **backend_kwargs):
    policy = DurabilityPolicy(
        mode="wal", log_root=str(tmp_path / f"wal-{worker_id}"),
        fsync=False,
    )
    backend = RegistryBackend(durability=policy, **backend_kwargs)
    backend.worker_id = worker_id
    backend.enable_durability()
    return backend


@pytest.fixture()
def shipped(tmp_path):
    """A source backend with one session worked and shipped, an empty
    adopter, and the golden op_logs the adopter must reproduce."""
    source = _durable_backend(tmp_path, 0)
    adopter = _durable_backend(tmp_path, 1)
    try:
        source.open("s1", OPEN_DOC)
        frames = _ship(source)
        for doc in OPS:
            source.apply("s1", doc)
        frames += _ship(source)
        golden = source.describe("s1")["op_logs"]
        yield SimpleNamespace(source=source, adopter=adopter,
                              frames=frames, golden=golden)
    finally:
        for backend in (source, adopter):
            for session in list(backend.sessions):
                backend.close(session)
            backend.shutdown()


class TestShipAdopt:
    def test_adoption_reproduces_op_logs_exactly(self, shipped):
        report = shipped.adopter.adopt("s1", shipped.frames)
        assert report["adopted"] == "s1"
        assert report["replayed"] == len(OPS)
        assert report["errors"] == []
        assert shipped.adopter.describe("s1")["op_logs"] == shipped.golden

    def test_ship_cursor_is_incremental(self, shipped):
        assert shipped.frames  # the worked tail shipped something
        assert shipped.source.ship_tail() == []  # nothing new since
        shipped.source.apply("s1", OPS[1])
        tail = _ship(shipped.source)
        kinds = [doc["k"] for doc in tail]
        assert "entry" in kinds and "applied" in kinds
        assert all(doc["session"] == "s1" for doc in tail)

    def test_double_adoption_is_a_noop(self, shipped):
        shipped.adopter.adopt("s1", shipped.frames)
        again = shipped.adopter.adopt("s1", shipped.frames)
        assert again == {"already": True, "session": "s1", "worker": 1}
        assert shipped.adopter.describe("s1")["op_logs"] == shipped.golden

    def test_truncated_tail_adopts_the_shipped_prefix(self, shipped):
        """Crash mid-ship: the coordinator holds a prefix of the tail.
        Adoption replays what shipped; resubmitting the lost suffix
        converges on the golden record (exactly-once end to end)."""
        frames = list(shipped.frames)
        dropped = []
        while frames and frames[-1]["k"] in ("entry", "applied"):
            dropped.append(frames.pop())
        lost_entries = [doc for doc in reversed(dropped)
                        if doc["k"] == "entry"]
        assert lost_entries  # the cut actually lost work
        report = shipped.adopter.adopt("s1", frames)
        assert report["replayed"] == len(OPS) - len(lost_entries)
        for doc in lost_entries:
            shipped.adopter.apply("s1", doc["sig"]["payload"])
        assert shipped.adopter.describe("s1")["op_logs"] == shipped.golden

    def test_unsealed_entry_replays_live(self, shipped):
        """The tail ends with an entry whose seal never shipped: the
        op was write-ahead logged but unacknowledged.  Adoption re-runs
        it against the rebuilt services, landing on the golden record."""
        frames = list(shipped.frames)
        assert frames[-1]["k"] == "applied"
        frames.pop()  # entry now unsealed
        report = shipped.adopter.adopt("s1", frames)
        assert report["replayed"] == len(OPS)
        assert report["errors"] == []
        assert shipped.adopter.describe("s1")["op_logs"] == shipped.golden

    def test_duplicate_frames_deduplicated(self, shipped):
        """Log shipping can double-deliver (retry after a lost ack);
        ``(trace_id, seq)`` dedup keeps replay exactly-once."""
        entries = [doc for doc in shipped.frames if doc["k"] == "entry"]
        report = shipped.adopter.adopt("s1", shipped.frames + entries)
        assert report["deduplicated"] == len(entries)
        assert shipped.adopter.describe("s1")["op_logs"] == shipped.golden

    def test_adopt_without_checkpoint_refused(self, shipped):
        tail_only = [doc for doc in shipped.frames
                     if doc["k"] != "checkpoint"]
        with pytest.raises(ClusterBackendError, match="no shipped checkpoint"):
            shipped.adopter.adopt("s1", tail_only)

    def test_adopt_ignores_other_sessions_frames(self, shipped):
        noise = [{"k": "entry", "session": "other",
                  "sig": {"kind": "call", "topic": "t", "payload": OPS[0],
                          "origin": "o", "seq": 999, "trace_id": 999,
                          "parent_seq": None}}]
        report = shipped.adopter.adopt("s1", noise + shipped.frames)
        assert report["replayed"] == len(OPS)
        assert "other" not in shipped.adopter.sessions

    def test_adoption_rebases_the_local_log(self, shipped):
        """Adopt checkpoints once into the adopter's own WAL, after the
        replay, so the adopter's shipped copy covers the session from
        here on."""
        report = shipped.adopter.adopt("s1", shipped.frames)
        assert report["replayed"] == len(OPS)
        tail = _ship(shipped.adopter)
        assert [(doc["k"], doc["session"]) for doc in tail] == [
            ("checkpoint", "s1")]
        services = tail[0]["snapshot"]["services"]
        assert {name: len(state["op_log"]) for name, state in
                services.items()} == {name: len(log) for name, log in
                                      shipped.golden.items()}


class TestBackendDurabilityModes:
    def test_off_keeps_the_undurable_path(self):
        backend = RegistryBackend(durability="off")
        backend.configure(0, {})
        assert backend.durability is None
        backend.open("s1", OPEN_DOC)
        try:
            for doc in OPS:
                backend.apply("s1", doc)
            assert backend.ship_tail() == []
        finally:
            backend.close("s1")

    def test_durable_and_undurable_records_match(self, tmp_path):
        durable = _durable_backend(tmp_path, 0)
        bare = RegistryBackend(durability="off")
        bare.configure(0, {})
        try:
            for backend in (durable, bare):
                backend.open("s1", OPEN_DOC)
                for doc in OPS:
                    backend.apply("s1", doc)
            assert (durable.describe("s1")["op_logs"]
                    == bare.describe("s1")["op_logs"])
        finally:
            for backend in (durable, bare):
                backend.close("s1")
            durable.shutdown()



# ---------------------------------------------------------------------------
# Size-driven checkpoints: the cadence rule and adoption at every kill point
# ---------------------------------------------------------------------------


def _comm_ops(n):
    """``n`` deterministic communication API steps (party churn)."""
    ops = [OPS[0]]
    for i in range(n - 1):
        api = "ncb.add_party" if i % 2 == 0 else "ncb.remove_party"
        ops.append({"op": "api", "api": api,
                    "args": {"connection": "c1", "party": f"p{i // 2 % 5}"}})
    return ops


def _model_ops(n):
    """``n`` microgrid ``run_model`` steps alternating its two phases."""
    from repro.domains.assembly import domain_cases
    from repro.modeling.serialize import model_to_dict

    (case,) = [c for c in domain_cases() if c.name == "microgrid"]
    phases = [{"op": "run_model", "model": model_to_dict(model)}
              for model in (case.phase1(), case.phase2())]
    return [phases[i % 2] for i in range(n)]


def _frame_bytes(doc):
    return len(encode_frame_doc(doc))


class TestSizeDrivenCheckpoints:
    def test_checkpoint_ships_exactly_when_tail_reaches_its_size(
            self, tmp_path):
        backend = _durable_backend(tmp_path, 0)
        backend.open("s1", OPEN_DOC)
        try:
            (base,) = _ship(backend)
            assert base["k"] == "checkpoint"
            last_checkpoint, tail = _frame_bytes(base), 0
            checkpoints = 0
            for doc in _comm_ops(250):
                backend.apply("s1", doc)
                frames = _ship(backend)
                for frame in frames:
                    if frame["k"] == "checkpoint":
                        assert tail >= last_checkpoint
                        last_checkpoint, tail = _frame_bytes(frame), 0
                        checkpoints += 1
                    else:
                        assert frame["k"] in ("entry", "applied")
                        tail += _frame_bytes(frame)
                # no checkpoint this step: the tail is still lighter
                assert tail < last_checkpoint
                shipped = [f["k"] for f in frames]
                assert shipped[-1] == ("checkpoint" if tail == 0
                                       else "applied")
                described = backend.describe("s1")
                assert described["tail_bytes"] == tail
                assert described["checkpoint_bytes"] == last_checkpoint
            assert checkpoints >= 2
        finally:
            backend.close("s1")
            backend.shutdown()

    @pytest.mark.parametrize("ops", [_comm_ops, _model_ops],
                             ids=["communication", "microgrid"])
    def test_checkpoint_bytes_bounded_by_log_bytes(self, tmp_path, ops):
        backend = _durable_backend(tmp_path, 0)
        open_doc = ({"domain": "microgrid", "autonomic": False}
                    if ops is _model_ops else OPEN_DOC)
        backend.open("s1", open_doc)
        try:
            frames = _ship(backend)
            for doc in ops(200):
                backend.apply("s1", doc)
                frames += _ship(backend)
        finally:
            backend.close("s1")
            backend.shutdown()
        sizes = [_frame_bytes(f) for f in frames if f["k"] == "checkpoint"]
        logged = sum(_frame_bytes(f) for f in frames
                     if f["k"] in ("entry", "applied"))
        assert len(sizes) >= 3  # the base plus periodic checkpoints
        assert sum(sizes) <= logged + max(sizes)


def _inline_op_logs(open_doc, ops):
    """Undurable golden run: op_logs after each prefix of ``ops``."""
    bare = RegistryBackend(durability="off")
    bare.configure(0, {})
    bare.open("s1", open_doc)
    try:
        logs = [bare.describe("s1")["op_logs"]]
        for doc in ops:
            bare.apply("s1", doc)
            logs.append(bare.describe("s1")["op_logs"])
        return logs
    finally:
        bare.close("s1")


@pytest.mark.parametrize("domain", ["communication", "microgrid"])
def test_adoption_at_every_kill_point_matches_inline(tmp_path, domain):
    """Kill the worker after every k from just before one periodic
    checkpoint through the next: a fresh backend adopting the shipped
    prefix reproduces the inline op_logs byte for byte."""
    open_doc = {"domain": domain, "autonomic": False}
    source = _durable_backend(tmp_path, 0)
    source.open("s1", open_doc)
    shipped = _ship(source)
    prefixes = [list(shipped)]
    checkpoints_at = []
    ops = _comm_ops(200) if domain == "communication" else _model_ops(60)
    try:
        for k, doc in enumerate(ops, start=1):
            source.apply("s1", doc)
            tail = _ship(source)
            if any(frame["k"] == "checkpoint" for frame in tail):
                checkpoints_at.append(k)
            shipped += tail
            prefixes.append(list(shipped))
            if len(checkpoints_at) == 2:
                break
    finally:
        source.close("s1")
        source.shutdown()
    assert len(checkpoints_at) == 2  # one full interval was crossed
    golden = _inline_op_logs(open_doc, ops[:len(prefixes) - 1])
    for k in range(checkpoints_at[0] - 1, len(prefixes)):
        adopter = _durable_backend(tmp_path, 100 + k)
        try:
            report = adopter.adopt("s1", prefixes[k])
            assert report["errors"] == []
            assert report["tail_bytes"] < report["checkpoint_bytes"]
            adopted = adopter.describe("s1")["op_logs"]
            assert json.dumps(adopted) == json.dumps(golden[k]), k
        finally:
            adopter.close("s1")
            adopter.shutdown()


# ---------------------------------------------------------------------------
# LogShipper: standby copies and adoption targeting
# ---------------------------------------------------------------------------


_ENTRY = {"k": "entry", "session": "s1",
          "sig": {"kind": "call", "topic": "t", "payload": {},
                  "origin": "o", "seq": 1, "trace_id": 1,
                  "parent_seq": None}}


def _shipped_frames(directory, *docs):
    """``docs`` written to a shipped source log and taken from its
    outbox: the frames a worker sends, byte for byte."""
    wal = WriteAheadLog(directory, name="source", fsync=False)
    try:
        wal.enable_outbox()
        for doc in docs:
            wal.append(doc)
        return wal.take_outbox()
    finally:
        wal.close()


def _segment_frames(wal):
    """Every non-header frame of ``wal``'s live segments, read raw."""
    wal.sync()
    frames = []
    for segment in wal.segments():
        frames += split_frames(wal._segment_path(segment).read_bytes())[1:]
    return frames


def _fake_cluster(*handles):
    """An unstarted ProcessCluster over stand-in worker handles."""
    from repro.runtime.cluster import ProcessCluster
    from repro.runtime.cluster import SessionRouter

    cluster = ProcessCluster(len(handles), backend="unused:backend")
    cluster.handles = [SimpleNamespace(index=i, alive=alive, depth=depth,
                                       sessions=set())
                       for i, (alive, depth) in enumerate(handles)]
    cluster.router = SessionRouter(cluster.handles)
    return cluster


class TestLogShipper:
    def test_receive_lands_frames_in_per_worker_logs(self, tmp_path):
        from repro.runtime.cluster import LogShipper

        shipper = LogShipper(_fake_cluster((True, 0), (True, 0)),
                             tmp_path / "ship")
        try:
            checkpoint, entry = _shipped_frames(
                tmp_path / "source",
                {"k": "checkpoint", "session": "s1",
                 "snapshot": {"domain": "d"}},
                _ENTRY)
            assert shipper.receive(0, [checkpoint, entry])
            assert shipper.receive(1, [checkpoint])
            assert shipper.frames_received == 3
            exported = session_tail(shipper.log_for(0).replay(), "s1")
            assert [doc["k"] for doc in exported] == ["checkpoint", "entry"]
            assert len(session_tail(shipper.log_for(1).replay(), "s1")) == 1
        finally:
            shipper.close()

    def test_refused_batch_lands_nothing_and_is_counted(self, tmp_path):
        """The standby re-checks every CRC: a batch holding one bad
        frame lands none of its frames and is counted as refused, and
        the next good batch lands."""
        from repro.runtime.cluster import LogShipper

        shipper = LogShipper(_fake_cluster((True, 0)), tmp_path / "ship")
        try:
            checkpoint, entry = _shipped_frames(
                tmp_path / "source",
                {"k": "checkpoint", "session": "s1",
                 "snapshot": {"domain": "d"}},
                _ENTRY)
            standby = shipper.log_for(0)
            flipped = entry[:-2] + bytes([entry[-2] ^ 0xFF]) + entry[-1:]
            ragged = split_frames(checkpoint + entry[:-3])
            for bad in ([checkpoint, flipped], ragged):
                assert not shipper.receive(0, bad)
            assert standby.appends == 0
            assert session_tail(standby.replay(), "s1") == []
            counts = shipper.stats()[0]
            assert (counts["frames"], counts["bytes"], counts["refused"]) \
                == (0, 0, 2)
            assert "WalError" in counts["last_error"]
            assert shipper.receive(0, [checkpoint, entry])
            counts = shipper.stats()[0]
            assert (counts["frames"], counts["bytes"], counts["refused"]) \
                == (2, len(checkpoint) + len(entry), 2)
            tail = session_tail(standby.replay(), "s1")
            assert [doc["k"] for doc in tail] == ["checkpoint", "entry"]
        finally:
            shipper.close()

    def test_concurrent_receives_count_every_frame(self, tmp_path):
        """Reader threads of several workers land at once; the
        per-worker counters lose no update."""
        import sys
        import threading

        from repro.runtime.cluster import LogShipper

        shipper = LogShipper(_fake_cluster((True, 0), (True, 0)),
                             tmp_path / "ship")
        frames = _shipped_frames(tmp_path / "source", *[_ENTRY] * 4)

        def land(index):
            for _ in range(50):
                assert shipper.receive(index, frames)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=land, args=(i % 2,))
                       for i in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
                assert not thread.is_alive()
        finally:
            sys.setswitchinterval(interval)
            shipper.close()
        per_worker = 4 * 50 * len(frames)
        assert shipper.stats() == {
            index: {"frames": per_worker,
                    "bytes": per_worker * len(frames[0]), "refused": 0}
            for index in (0, 1)}
        assert shipper.frames_received == 2 * per_worker

    def test_standby_frames_are_the_workers_bytes(self, tmp_path):
        """Shipping copies bytes: every frame in the standby copy is
        the frame the worker wrote, byte for byte, and the worker's
        live log is a suffix of the standby's."""
        from repro.runtime.cluster import LogShipper

        shipper = LogShipper(_fake_cluster((True, 0)), tmp_path / "ship")
        source = _durable_backend(tmp_path, 0)
        try:
            source.open("s1", OPEN_DOC)
            sent = source.ship_tail()
            assert shipper.receive(0, sent)
            for doc in _comm_ops(250):
                source.apply("s1", doc)
                frames = source.ship_tail()
                assert shipper.receive(0, frames)
                sent += frames
            kinds = [decode_frame(frame)["k"] for frame in sent]
            assert kinds.count("checkpoint") >= 2  # the worker truncated
            worker = _segment_frames(source.durability.wal)
            standby = _segment_frames(shipper.log_for(0))
            assert standby == sent
            assert worker and standby[-len(worker):] == worker
            assert len(worker) < len(standby)
        finally:
            source.close("s1")
            source.shutdown()
            shipper.close()

    def test_standby_log_truncates_behind_shipped_checkpoints(
            self, tmp_path):
        """The standby copy drops segments every session's shipped
        checkpoint covers, so it stays bounded over many checkpoints;
        adoption from the truncated copy still matches the inline run."""
        from repro.runtime.cluster import LogShipper

        shipper = LogShipper(_fake_cluster((True, 0), (True, 0)),
                             tmp_path / "ship")
        source = _durable_backend(tmp_path, 0)
        adopter = _durable_backend(tmp_path, 1)
        ops = _comm_ops(600)
        try:
            standby = shipper.log_for(0)
            standby.segment_max_bytes = 4096
            for key in ("s1", "gone"):
                source.open(key, OPEN_DOC)
            source.apply("gone", OPS[0])
            source.close("gone")  # its shipped close releases its floor
            checkpoints = largest = most_segments = 0
            for doc in ops:
                source.apply("s1", doc)
                frames = source.ship_tail()
                for frame in frames:
                    if decode_frame(frame)["k"] == "checkpoint":
                        checkpoints += 1
                        largest = max(largest, len(frame))
                assert shipper.receive(0, frames)
                most_segments = max(most_segments, len(standby.segments()))
            assert checkpoints >= 6
            assert standby.truncated_segments > 0
            # the segment holding the floor checkpoint, a tail lighter
            # than it, and the segment being filled
            assert most_segments <= largest // 4096 + 3
            assert standby.rotations > most_segments  # it did rotate past
            report = adopter.adopt("s1", session_tail(standby.replay(), "s1"))
            assert report["errors"] == []
            golden = _inline_op_logs(OPEN_DOC, ops)[-1]
            assert adopter.describe("s1")["op_logs"] == golden
        finally:
            for backend in (source, adopter):
                for session in list(backend.sessions):
                    backend.close(session)
                backend.shutdown()
            shipper.close()

    def test_adoption_reads_the_standby_copy_once(self, tmp_path,
                                                  monkeypatch):
        """Adopting K sessions reads each segment of the dead worker's
        standby copy once, not once per session, and hands each session
        its own checkpoint and tail."""
        from concurrent.futures import Future

        from repro.runtime.cluster import LogShipper
        from repro.runtime.faults import InvocationOutcome

        cluster = _fake_cluster((True, 0), (True, 0))
        requests = []

        def request(op, key, doc, **extra):
            requests.append((op, key, extra["frames"]))
            future = Future()
            future.set_result(InvocationOutcome(
                InvocationOutcome.OK, value={"adopted": key}))
            return future

        cluster.handles[1].request = request
        shipper = LogShipper(cluster, tmp_path / "ship")
        sessions = ["s1", "s2", "s3", "s4"]
        try:
            docs = []
            for key in sessions:
                docs += [{"k": "checkpoint", "session": key,
                          "snapshot": {"domain": "d"}},
                         {**_ENTRY, "session": key}]
            standby = shipper.log_for(0)
            standby.segment_max_bytes = 128  # a few frames per segment
            assert shipper.receive(
                0, _shipped_frames(tmp_path / "source", *docs))
            segments = [standby._segment_path(index)
                        for index in standby.segments()]
            assert len(segments) >= 3

            reads = []
            read_bytes = wal_module.Path.read_bytes

            def counted(path):
                if path.parent == standby.directory:
                    reads.append(path)
                return read_bytes(path)

            monkeypatch.setattr(wal_module.Path, "read_bytes", counted)
            report = shipper.adopt(0, sessions)
            monkeypatch.undo()

            assert sorted(reads) == sorted(segments)
            assert [key for _op, key, _frames in requests] == sessions
            for op, key, frames in requests:
                assert op == "adopt"
                assert [doc["k"] for doc in frames] == ["checkpoint", "entry"]
                assert {doc["session"] for doc in frames} == {key}
            assert sorted(report["sessions"]) == sessions
        finally:
            shipper.close()

    def test_adoption_target_prefers_live_standby(self, tmp_path):
        cluster = _fake_cluster((True, 9), (True, 0), (True, 3))
        shipper = cluster.build_shipper(tmp_path, standby=0)
        assert cluster.adoption_target(2) == 0
        assert cluster.adoption_target(0) == 1  # least loaded
        assert cluster.adoption_target(0, 1) == 2  # both excluded
        shipper.close()

    def test_adoption_target_falls_back_when_standby_dead(self, tmp_path):
        cluster = _fake_cluster((False, 0), (True, 5), (True, 2))
        shipper = cluster.build_shipper(tmp_path, standby=0)
        assert cluster.adoption_target(1) == 2
        assert cluster.adoption_target(1, 2) is None
        shipper.close()

    def test_no_survivor_reports_error(self, tmp_path):
        from repro.runtime.cluster import LogShipper

        cluster = _fake_cluster((True, 0), (False, 0))
        shipper = LogShipper(cluster, tmp_path)
        report = shipper.adopt(0, {"s1"})
        assert report["error"] == "no surviving worker to adopt into"
        assert shipper.adoptions == [report]
        shipper.close()

    def test_ephemeral_directory_reclaimed_on_close(self, tmp_path):
        from repro.runtime.cluster import LogShipper

        shipper = LogShipper(_fake_cluster((True, 0)))
        directory = shipper.directory
        assert shipper.receive(0, _shipped_frames(tmp_path, _ENTRY))
        assert directory.exists()
        shipper.close()
        assert not directory.exists()


# ---------------------------------------------------------------------------
# End to end: SIGKILL a worker, the standby adopts
# ---------------------------------------------------------------------------


class TestStandbyAdoptionEndToEnd:
    def test_killed_workers_sessions_adopted_byte_identical(self):
        from repro.runtime.cluster import ProcessCluster

        cluster = ProcessCluster(
            2, backend="repro.middleware.cluster:default_backend",
            name="ship-e2e",
        )
        cluster.build_shipper()
        cluster.start()
        try:
            keys = []
            index = 0
            while len({cluster.worker_for(k) for k in keys}) < 2:
                key = f"ship-{index:03d}"
                index += 1
                if cluster.worker_for(key) not in {
                    cluster.worker_for(k) for k in keys
                }:
                    keys.append(key)
            for key in keys:
                cluster.open_session(key, OPEN_DOC).result(60)
                for doc in OPS:
                    cluster.call(key, doc, timeout=60)
            victim = cluster.worker_for(keys[0])
            survivor_key = keys[1]
            golden = cluster.describe(keys[0])["op_logs"]
            cluster.kill_worker(victim)
            report = cluster.wait_adoption(60)
            assert report is not None
            row = report["sessions"][keys[0]]
            assert row.get("adopted") == keys[0]
            assert row["errors"] == []
            # lost session: state reproduced exactly on the survivor
            assert cluster.describe(keys[0])["op_logs"] == golden
            # ...and no longer pins the dead worker's standby log
            standby = cluster.shipper.log_for(victim)
            assert keys[0] not in standby._active_sessions
            # both sessions still serve operations after the failover
            for key in (keys[0], survivor_key):
                cluster.call(key, {"op": "api", "api": "ncb.add_party",
                                   "args": {"connection": "c1",
                                            "party": "carol"}}, timeout=60)
            stats = cluster.stats()
            assert stats["deaths"] == 1
            assert stats["adoptions"] == 1
            shipping = stats["shipping"]
            assert sorted(shipping) == [0, 1]
            for counts in shipping.values():
                assert counts["refused"] == 0
                assert counts["frames"] > 0 and counts["bytes"] > 0
        finally:
            cluster.stop()

    def test_failed_ship_is_adopted_from_what_shipped(self):
        """A worker whose ship fails ends unanswered: the op resolves
        REJECTED (WORKER_DEAD) rather than OK, and the standby adopts
        the session from the frames that did ship."""
        from repro.runtime.cluster import ProcessCluster
        from repro.runtime.faults import InvocationOutcome
        from repro.runtime.ingress import ShedReason

        cluster = ProcessCluster(
            2, backend="tests.integration.test_log_shipping:"
                       "ship_failing_backend",
            name="ship-fail",
        )
        cluster.build_shipper()
        cluster.start()
        try:
            key = "ship-fail-0"
            cluster.open_session(key, OPEN_DOC).result(60)
            for doc in OPS:
                cluster.call(key, doc, timeout=60)
            golden = cluster.describe(key)["op_logs"]
            victim = cluster.worker_for(key)
            outcome = cluster.submit(key, UNSHIPPED_OP).result(60)
            assert outcome.status == InvocationOutcome.REJECTED
            assert outcome.error.reason == ShedReason.WORKER_DEAD
            report = cluster.wait_adoption(60)
            assert report is not None
            row = report["sessions"][key]
            assert row.get("adopted") == key
            assert row["replayed"] == len(OPS)
            assert row["errors"] == []
            assert cluster.worker_for(key) != victim
            assert cluster.describe(key)["op_logs"] == golden
        finally:
            cluster.stop()


#: an op the :class:`ShipFailingBackend` fails to ship.
UNSHIPPED_OP = {"op": "api", "api": "ncb.add_party",
                "args": {"connection": "c1", "party": "carol"},
                "unshipped": True}


class ShipFailingBackend(RegistryBackend):
    """The stock backend, except that the ship after an op marked
    ``unshipped`` raises (spawn target: module-level)."""

    unshipped = False

    def apply(self, session, doc):
        self.unshipped = bool(doc.get("unshipped"))
        return super().apply(session, doc)

    def ship_tail(self):
        if self.unshipped:
            raise OSError("deliberate ship failure")
        return super().ship_tail()


def ship_failing_backend():
    return ShipFailingBackend()
