"""Unit tests for the write-ahead signal log (PR 7 tentpole).

Covers the binary frame format (length prefix + CRC-32), the versioned
segment header envelope, torn-tail repair on reopen, segment rotation
and snapshot-then-truncate compaction, the read-only directory reader
and the session-tail rule, and the
:class:`~repro.runtime.wal.EffectJournal` exactly-once contract: live
effect memoization into the ``applied`` seal, replay without touching
the callable, typed error reconstruction, and divergence detection.
"""

import struct
import zlib

import pytest

from repro.runtime.events import Call, Event, Signal
from repro.runtime.wal import (
    WAL_FORMAT,
    WAL_VERSION,
    EffectJournal,
    WalError,
    WalReplayDivergence,
    WriteAheadLog,
    encode_frame_doc,
    read_log_directory,
    session_tail,
    signal_from_doc,
    signal_to_doc,
)

_HEADER = struct.Struct(">II")


def open_wal(tmp_path, **kwargs):
    kwargs.setdefault("fsync", False)
    return WriteAheadLog(tmp_path / "wal", **kwargs)


def frames(wal):
    return list(wal.replay())


def around(journal, label, call):
    """Run ``call`` through the journal's resource-invoke bracket."""
    return journal.around_invoke(label, lambda _operation: call(), "op", {})


class TestFrameFormat:
    def test_append_replay_roundtrip(self, tmp_path):
        with open_wal(tmp_path) as wal:
            wal.append({"k": "a", "n": 1})
            wal.append({"k": "b", "nested": {"x": [1, 2]}})
            docs = frames(wal)
        assert docs == [{"k": "a", "n": 1}, {"k": "b", "nested": {"x": [1, 2]}}]

    def test_segment_opens_with_header_envelope(self, tmp_path):
        wal = open_wal(tmp_path)
        path = wal._segment_path(0)
        wal.close()
        raw = path.read_bytes()
        length, crc = _HEADER.unpack(raw[: _HEADER.size])
        payload = raw[_HEADER.size:_HEADER.size + length]
        assert zlib.crc32(payload) == crc
        import json

        header = json.loads(payload)
        assert header["format"] == WAL_FORMAT
        assert header["version"] == WAL_VERSION
        assert header["k"] == "header"

    def test_unserializable_strict_frame_rejected(self, tmp_path):
        with open_wal(tmp_path) as wal:
            with pytest.raises(WalError, match="not JSON-serializable"):
                wal.append({"k": "bad", "value": object()})
            # lenient mode degrades to repr instead (observability frames)
            wal.append({"k": "ok", "value": object()}, strict=False)
            docs = frames(wal)
        assert len(docs) == 1 and docs[0]["k"] == "ok"

    def test_closed_log_rejects_appends(self, tmp_path):
        """Every writer refuses a closed log with the same error and
        writes nothing: append, land and checkpoint."""
        wal = open_wal(tmp_path)
        wal.append({"k": "kept"})
        wal.close()
        for write in (
            lambda: wal.append({"k": "late"}),
            lambda: wal.land([encode_frame_doc({"k": "late"})]),
            lambda: wal.checkpoint({"state": 1}, session="s"),
        ):
            with pytest.raises(WalError, match="log 'wal' is closed"):
                write()
        wal.close()  # idempotent
        assert [d["k"] for d in read_log_directory(wal.directory)["wal"]] \
            == ["kept"]


class TestCrashRecoveryRules:
    def test_torn_tail_repaired_on_reopen(self, tmp_path):
        wal = open_wal(tmp_path)
        wal.append({"k": "kept"})
        wal.close()
        path = wal._segment_path(0)
        intact = path.stat().st_size
        # simulate a crash mid-append: half a frame at the tail
        with open(path, "ab") as handle:
            handle.write(_HEADER.pack(1000, 0) + b"torn")
        reopened = open_wal(tmp_path)
        assert reopened.torn_tail_repaired
        assert path.stat().st_size == intact
        assert [d["k"] for d in frames(reopened)] == ["kept"]
        # and the repaired log appends cleanly after the cut
        reopened.append({"k": "after"})
        assert [d["k"] for d in frames(reopened)] == ["kept", "after"]
        reopened.close()

    def test_torn_tail_in_final_segment_ends_replay_cleanly(self, tmp_path):
        wal = open_wal(tmp_path)
        wal.append({"k": "kept"})
        wal.sync()
        path = wal._segment_path(0)
        with open(path, "ab") as handle:
            handle.write(b"\x00\x00")  # not even a whole header
        assert [d["k"] for d in frames(wal)] == ["kept"]
        read = read_log_directory(wal.directory)
        assert [d["k"] for d in read["wal"]] == ["kept"]
        wal.close()

    def test_corruption_mid_log_raises(self, tmp_path):
        wal = open_wal(tmp_path)
        wal.append({"k": "a"})
        wal.rotate()
        wal.append({"k": "b"})
        wal.close()
        # flip payload bytes in the *non-final* segment: corruption,
        # not interruption, so the reader must refuse rather than skip.
        path = wal._segment_path(0)
        raw = bytearray(path.read_bytes())
        raw[-2] ^= 0xFF
        path.write_bytes(bytes(raw))
        with pytest.raises(WalError, match="corrupt frame mid-log"):
            read_log_directory(wal.directory)
        # reopen rebuilds truncation bookkeeping by replaying the log,
        # so the corruption is refused at open time already
        with pytest.raises(WalError, match="corrupt frame mid-log"):
            open_wal(tmp_path)

    def test_bad_header_envelope_rejected(self, tmp_path):
        wal = open_wal(tmp_path)
        wal.close()
        path = wal._segment_path(0)
        payload = (
            b'{"format":"repro-wal","version":99,"k":"header","segment":0}'
        )
        path.write_bytes(
            _HEADER.pack(len(payload), zlib.crc32(payload)) + payload
        )
        with pytest.raises(WalError, match="version"):
            read_log_directory(wal.directory)
        with pytest.raises(WalError, match="version"):
            open_wal(tmp_path)

    def test_missing_header_frame_rejected(self, tmp_path):
        wal = open_wal(tmp_path)
        wal.close()
        path = wal._segment_path(0)
        payload = b'{"k":"entry","session":"s"}'
        path.write_bytes(
            _HEADER.pack(len(payload), zlib.crc32(payload)) + payload
        )
        with pytest.raises(WalError, match="header frame"):
            read_log_directory(wal.directory)
        with pytest.raises(WalError, match="header frame"):
            open_wal(tmp_path)


class TestReadingBack:
    def test_reader_finds_every_log_and_changes_nothing(self, tmp_path):
        directory = tmp_path / "wal"
        one = WriteAheadLog(directory, name="shard-00", fsync=False,
                            segment_max_bytes=64)
        for i in range(4):
            one.append({"k": "entry", "session": "s", "i": i})
        one.close()
        two = WriteAheadLog(directory, name="ship-w01", fsync=False)
        two.append({"k": "applied", "session": "t"})
        two.close()
        with open(two._segment_path(0), "ab") as handle:
            handle.write(_HEADER.pack(1000, 0) + b"torn")
        before = {path: path.read_bytes() for path in directory.iterdir()}

        logs = read_log_directory(directory)

        assert sorted(logs) == ["shard-00", "ship-w01"]
        assert len(one.segments()) > 1
        assert [d["i"] for d in logs["shard-00"]] == [0, 1, 2, 3]
        assert [d["k"] for d in logs["ship-w01"]] == ["applied"]
        after = {path: path.read_bytes() for path in directory.iterdir()}
        assert after == before  # no repair, no new segment

    def test_session_tail_starts_at_the_latest_checkpoint(self):
        docs = [
            {"k": "entry", "session": "s", "n": 1},
            {"k": "checkpoint", "session": "s", "n": 2},
            {"k": "entry", "session": "s", "n": 3},
            {"k": "entry", "session": "other", "n": 4},
            {"k": "checkpoint", "session": "other", "n": 5},
            {"k": "applied", "session": "s", "n": 6},
        ]
        assert [d["n"] for d in session_tail(docs, "s")] == [2, 3, 6]
        assert [d["n"] for d in session_tail(docs, "other")] == [5]
        assert [d["n"] for d in session_tail(docs[:1], "s")] == [1]
        assert session_tail(docs, "nobody") == []

    def test_covers_all_checkpoint_counts_as_every_sessions_own(self):
        """A shard checkpoint starts every session's tail, and that tail
        is every frame after it: restoring it rolls back them all."""
        docs = [
            {"k": "checkpoint", "session": "s", "n": 1},
            {"k": "entry", "session": "s", "n": 2},
            {"k": "checkpoint", "session": "shard", "covers_all": True,
             "n": 3},
            {"k": "entry", "session": "s", "n": 4},
            {"k": "entry", "session": "other", "n": 5},
            {"k": "applied", "session": "other", "n": 6},
        ]
        assert [d["n"] for d in session_tail(docs, "s")] == [3, 4, 5, 6]
        assert [d["n"] for d in session_tail(docs, "fresh")] == [3, 4, 5, 6]
        # the session's own later checkpoint is its base again
        own = docs + [{"k": "checkpoint", "session": "s", "n": 7},
                      {"k": "entry", "session": "other", "n": 8},
                      {"k": "entry", "session": "s", "n": 9}]
        assert [d["n"] for d in session_tail(own, "s")] == [7, 9]

    def test_replay_and_the_directory_reader_agree(self, tmp_path):
        """On a log that rotated, truncated behind a checkpoint, was
        reopened and ends in a torn tail, ``replay()`` yields exactly
        the docs :func:`read_log_directory` reads."""
        def fill(wal, numbers):
            for n in numbers:
                wal.append({"k": "entry", "session": "s", "n": n,
                            "pad": "x" * 32})

        wal = open_wal(tmp_path, segment_max_bytes=128)
        fill(wal, range(4))
        wal.checkpoint({"state": 1}, session="s")
        fill(wal, range(4, 6))
        assert wal.rotations > 1 and wal.truncated_segments > 0
        wal.close()
        wal = open_wal(tmp_path, segment_max_bytes=128)
        fill(wal, range(6, 8))
        wal.sync()
        with open(wal._segment_path(wal.segments()[-1]), "ab") as handle:
            handle.write(_HEADER.pack(1000, 0) + b"torn")
        docs = list(wal.replay())
        assert [d["k"] for d in docs[:1]] == ["checkpoint"]
        assert [d["n"] for d in docs[1:]] == [4, 5, 6, 7]
        assert docs == read_log_directory(wal.directory)["wal"]
        wal.close()
        reopened = open_wal(tmp_path, segment_max_bytes=128)
        assert reopened.torn_tail_repaired
        assert list(reopened.replay()) == docs
        assert read_log_directory(reopened.directory)["wal"] == docs
        reopened.close()


class TestSegmentsAndTruncation:
    def test_rotation_on_segment_size(self, tmp_path):
        wal = open_wal(tmp_path, segment_max_bytes=256)
        for i in range(32):
            wal.append({"k": "fill", "i": i, "pad": "x" * 32})
        assert wal.rotations > 0
        assert len(wal.segments()) == wal.rotations + 1
        # every frame survives across the rotation boundary
        assert [d["i"] for d in frames(wal)] == list(range(32))
        wal.close()

    def test_checkpoint_rotates_and_truncates(self, tmp_path):
        wal = open_wal(tmp_path)
        sig = Signal(topic="t", payload={}, origin="s")
        wal.append_entry(sig, session="s")
        wal.checkpoint({"state": 1}, session="s")
        # the pre-checkpoint segment is wholly covered and dropped
        assert wal.truncated_segments == 1
        kinds = [d["k"] for d in frames(wal)]
        assert kinds[0] == "checkpoint"
        wal.close()

    def test_unconverged_session_pins_truncation_floor(self, tmp_path):
        wal = open_wal(tmp_path)
        laggard = Signal(topic="t", payload={}, origin="lag")
        wal.append_entry(laggard, session="lag")  # never checkpoints
        wal.checkpoint({"state": 1}, session="fast")
        assert wal.truncated_segments == 0  # pinned by "lag"
        wal.forget_session("lag")
        assert wal.truncate() == 1
        wal.close()

    def test_landed_frames_truncate_on_rotation(self, tmp_path):
        """A standby copy: a shipped full checkpoint advances its
        session's floor, a shipped ``dropped`` releases it, and the
        rotation that follows drops what the floor covers."""
        wal = open_wal(tmp_path, segment_max_bytes=256)

        def land(*docs):
            wal.land([encode_frame_doc(doc) for doc in docs])

        entry = signal_to_doc(Signal(topic="t", payload={}, origin="lag"))
        land({"k": "checkpoint", "session": "lag", "snapshot": {}},
             {"k": "entry", "session": "lag", "sig": entry})
        for i in range(8):
            land({"k": "checkpoint", "session": "s",
                  "snapshot": {"pad": "x" * 256, "i": i}})
        assert wal.truncated_segments == 0  # pinned by "lag"
        land({"k": "dropped", "session": "lag"})
        land({"k": "checkpoint", "session": "s",
              "snapshot": {"pad": "x" * 256, "i": 8}})
        assert wal.truncated_segments > 0
        assert [d["snapshot"]["i"] for d in frames(wal)
                if d["k"] == "checkpoint"][0] >= 7
        assert session_tail(wal.replay(), "s")[0]["snapshot"]["i"] == 8
        wal.close()

    def test_floor_bookkeeping_survives_reopen(self, tmp_path):
        wal = open_wal(tmp_path)
        laggard = Signal(topic="t", payload={}, origin="lag")
        wal.append_entry(laggard, session="lag")
        wal.checkpoint({"state": 1}, session="fast")
        assert wal.truncated_segments == 0  # "lag" pins segment 0
        wal.close()
        reopened = open_wal(tmp_path)
        assert reopened.truncate() == 0  # ... and still does after reopen
        reopened.forget_session("lag")
        assert reopened.truncate() == 1
        reopened.close()

    def test_reopen_resumes_highest_segment(self, tmp_path):
        wal = open_wal(tmp_path)
        wal.append({"k": "a"})
        wal.rotate()
        wal.append({"k": "b"})
        wal.close()
        reopened = open_wal(tmp_path)
        reopened.append({"k": "c"})
        assert [d["k"] for d in frames(reopened)] == ["a", "b", "c"]
        assert reopened._segment == 1
        reopened.close()


class TestSignalDocs:
    @pytest.mark.parametrize("cls", [Signal, Call, Event])
    def test_roundtrip_preserves_causal_chain(self, cls):
        original = cls(
            topic="conn.setup", payload={"x": 1}, origin="ctl",
            seq=41, trace_id=7, parent_seq=3,
        )
        doc = signal_to_doc(original)
        restored = signal_from_doc(doc)
        assert type(restored) is cls
        assert restored.kind == original.kind
        assert (restored.seq, restored.trace_id, restored.parent_seq) == (
            41, 7, 3
        )
        assert restored.topic == original.topic
        assert restored.payload == original.payload

    def test_entry_frame_shape(self, tmp_path):
        wal = open_wal(tmp_path)
        sig = Call(topic="t", payload={"a": 1}, origin="s",
                   seq=5, trace_id=5, parent_seq=None)
        wal.append_entry(sig, session="s")
        journal = EffectJournal(wal, session="s")
        journal.begin_entry(sig)
        around(journal, "net.send", lambda: True)
        journal.end_entry()
        entry, applied = frames(wal)
        assert entry == {"k": "entry", "session": "s",
                         "sig": signal_to_doc(sig)}
        assert applied == {"k": "applied", "session": "s", "entry_seq": 5,
                           "effects": [["net.send", "ok", True]]}
        wal.close()


class TestEffectJournal:
    def test_log_call_mints_chain_root_and_logs_documented_frame(
        self, tmp_path
    ):
        wal = open_wal(tmp_path)
        journal = EffectJournal(wal, session="sess")
        call = journal.log_call("session.entry", {"op": "api", "n": 1})
        assert isinstance(call, Call)
        assert call.kind == "call"
        assert call.trace_id == call.seq and call.parent_seq is None
        assert call.origin == "sess"
        journal.end_entry()
        entry, applied = frames(wal)
        # the concat-encoded frame parses to exactly the documented doc
        assert entry == {
            "k": "entry",
            "session": "sess",
            "sig": {
                "kind": "call",
                "origin": "sess",
                "topic": "session.entry",
                "payload": {"op": "api", "n": 1},
                "seq": call.seq,
                "trace_id": call.seq,
                "parent_seq": None,
            },
        }
        assert applied == {"k": "applied", "session": "sess",
                           "entry_seq": call.seq}
        wal.close()

    def test_entries_do_not_nest(self, tmp_path):
        wal = open_wal(tmp_path)
        journal = EffectJournal(wal, session="s")
        journal.log_call("t", {})
        with pytest.raises(WalError, match="nest"):
            journal.log_call("t", {})
        journal.end_entry()
        wal.close()

    def test_live_effects_seal_and_replay_memoized(self, tmp_path):
        wal = open_wal(tmp_path)
        journal = EffectJournal(wal, session="s")
        calls = []

        def op(value):
            calls.append(value)
            return value * 2

        entry = journal.log_call("t", {})
        assert around(journal, "res.op", lambda: op(21)) == 42
        journal.end_entry()
        assert journal.recorded == 1
        applied = [d for d in frames(wal) if d["k"] == "applied"]
        assert applied[0]["effects"] == [["res.op", "ok", 42]]

        # replay: the memoized outcome comes back, the callable does not run
        replayed = signal_from_doc(signal_to_doc(entry))
        journal.begin_entry(replayed, recorded_effects=applied[0]["effects"],
                            already_applied=True)
        assert journal.replaying
        assert around(journal, "res.op", lambda: op(999)) == 42
        journal.end_entry()
        assert calls == [21]
        assert journal.replayed == 1
        wal.close()

    def test_error_effects_reraise_via_factory(self, tmp_path):
        wal = open_wal(tmp_path)
        journal = EffectJournal(wal, session="s")

        def boom():
            raise KeyError("missing")

        journal.log_call("t", {})
        with pytest.raises(KeyError):
            around(journal, "res.op", boom)
        journal.end_entry()
        applied = [d for d in frames(wal) if d["k"] == "applied"]
        label, status, error_type, message = applied[0]["effects"][0]
        assert (label, status, error_type) == ("res.op", "error", "KeyError")

        class Rebuilt(Exception):
            pass

        journal.error_factory = lambda t, m: Rebuilt(f"{t}:{m}")
        journal.begin_entry(
            Signal(topic="t", payload={}, origin="s"),
            recorded_effects=applied[0]["effects"], already_applied=True,
        )
        with pytest.raises(Rebuilt, match="KeyError"):
            around(journal, "res.op", lambda: None)
        journal.end_entry()
        wal.close()

    def test_error_replay_without_factory_raises_walerror(self, tmp_path):
        wal = open_wal(tmp_path)
        journal = EffectJournal(wal, session="s")
        journal.begin_entry(
            Signal(topic="t", payload={}, origin="s"),
            recorded_effects=[["res.op", "error", "ValueError", "bad"]],
            already_applied=True,
        )
        with pytest.raises(WalError, match="replayed error effect"):
            around(journal, "res.op", lambda: None)
        journal.end_entry()
        wal.close()

    def test_label_divergence_detected(self, tmp_path):
        wal = open_wal(tmp_path)
        journal = EffectJournal(wal, session="s")
        journal.begin_entry(
            Signal(topic="t", payload={}, origin="s"),
            recorded_effects=[["res.a", "ok", 1]], already_applied=True,
        )
        with pytest.raises(WalReplayDivergence, match="res.a"):
            around(journal, "res.b", lambda: 1)
        wal.close()

    def test_leftover_effects_divergence_at_end(self, tmp_path):
        wal = open_wal(tmp_path)
        journal = EffectJournal(wal, session="s")
        journal.begin_entry(
            Signal(topic="t", payload={}, origin="s"),
            recorded_effects=[["res.a", "ok", 1], ["res.b", "ok", 2]],
            already_applied=True,
        )
        around(journal, "res.a", lambda: None)
        with pytest.raises(WalReplayDivergence, match="left over"):
            journal.end_entry()
        # the divergence still closed the entry
        assert not journal.active
        wal.close()

    def test_already_applied_entry_writes_no_second_seal(self, tmp_path):
        wal = open_wal(tmp_path)
        journal = EffectJournal(wal, session="s")
        journal.begin_entry(
            Signal(topic="t", payload={}, origin="s", seq=9),
            already_applied=True,
        )
        journal.end_entry()
        assert frames(wal) == []
        wal.close()

    def test_around_invoke_live_and_replay(self, tmp_path):
        wal = open_wal(tmp_path)
        journal = EffectJournal(wal, session="s")
        invoked = []

        def invoke(operation, **args):
            invoked.append((operation, args))
            return {"op": operation}

        entry = journal.log_call("t", {})
        value = journal.around_invoke("net.open", invoke, "open", {"a": 1})
        assert value == {"op": "open"}
        journal.end_entry()
        applied = [d for d in frames(wal) if d["k"] == "applied"]
        journal.begin_entry(entry, recorded_effects=applied[0]["effects"],
                            already_applied=True)
        assert journal.around_invoke(
            "net.open", invoke, "open", {"a": 1}
        ) == {"op": "open"}
        journal.end_entry()
        assert invoked == [("open", {"a": 1})]
        wal.close()

    def test_inactive_journal_passes_through(self, tmp_path):
        wal = open_wal(tmp_path)
        journal = EffectJournal(wal, session="s")
        assert journal.around_invoke(
            "x", lambda op, **a: (op, a), "go", {"k": 1}
        ) == ("go", {"k": 1})
        assert wal.appends == 0  # pass-through logs nothing
        wal.close()

    def test_journal_without_a_log_discards_its_seals(self):
        journal = EffectJournal(None, session="s")
        entry = journal.log_call("t", {})
        assert around(journal, "res.op", lambda: 7) == 7
        journal.end_entry()
        assert journal.recorded == 1
        journal.begin_entry(entry)
        assert around(journal, "res.op", lambda: 8) == 8  # live redo
        journal.end_entry()
        assert journal.recorded == 2

    def test_unserializable_payload_rejected_at_log_call(self, tmp_path):
        wal = open_wal(tmp_path)
        journal = EffectJournal(wal, session="s")
        with pytest.raises(WalError, match="not JSON-serializable"):
            journal.log_call("t", {"bad": object()})
        wal.close()

    def test_unserializable_effects_rejected_at_seal(self, tmp_path):
        wal = open_wal(tmp_path)
        journal = EffectJournal(wal, session="s")
        journal.log_call("t", {})
        around(journal, "res.op", lambda: object())
        with pytest.raises(WalError, match="effects are not"):
            journal.end_entry()
        wal.close()
