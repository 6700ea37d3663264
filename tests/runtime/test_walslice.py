"""Causal-slice extraction across per-shard WALs: unit tests.

These tests build small synthetic log fabrics (hand-written entry and
checkpoint frames appended through the real :class:`WriteAheadLog`
framing) and exercise reading, census, slice collection, replay-frame
selection, and the structural verifier without spawning any
processes.
"""

from types import SimpleNamespace

import pytest

from repro.middleware.snapshot import recover_session
from repro.runtime.wal import WriteAheadLog, session_tail
from repro.runtime.walslice import (
    SliceNode,
    StagedLog,
    collect_slice,
    dag_label,
    render_slice,
    stage_logs,
    trace_census,
    verify_slice,
)


def _entry(session, *, seq, trace_id, parent_seq=None, kind="call",
           topic="session.entry", origin="shard-0", payload=None):
    return {
        "k": "entry",
        "session": session,
        "sig": {
            "kind": kind,
            "topic": topic,
            "payload": payload or {},
            "origin": origin,
            "seq": seq,
            "trace_id": trace_id,
            "parent_seq": parent_seq,
        },
    }


def _write_log(directory, name, frames):
    wal = WriteAheadLog(directory, name=name, fsync=False)
    try:
        for doc in frames:
            wal.append(doc, strict=False)
    finally:
        wal.close()


@pytest.fixture()
def fabric(tmp_path):
    """Two shard logs + one shipped copy under a single fabric root.

    Trace 7 is cross-shard: root #1 in shard 0, derived event #2 routed
    into shard 1.  Trace 9 stays home in shard 1.  The ship directory
    duplicates shard 0's frames (log shipping copies frames verbatim).
    """
    root = tmp_path / "fabric"
    shard0 = [
        _entry("alpha", seq=1, trace_id=7),
        {"k": "applied", "session": "alpha", "entry_seq": 1},
    ]
    shard1 = [
        _entry("beta", seq=2, trace_id=7, parent_seq=1, kind="event",
               topic="fabric.session.done", origin="alpha"),
        _entry("beta", seq=5, trace_id=9),
        {"k": "applied", "session": "beta", "entry_seq": 5},
    ]
    _write_log(root / "wal-shard-00", "shard-00", shard0)
    _write_log(root / "wal-shard-01", "shard-01", shard1)
    _write_log(root / "ship-w00", "ship-w00", shard0)
    return root


class TestStageLogs:
    def test_discovers_every_log_under_root(self, fabric):
        staged = stage_logs(fabric)
        assert sorted(log.label for log in staged) == [
            "ship-w00", "wal-shard-00", "wal-shard-01",
        ]
        for log in staged:
            assert log.frames, f"{log.label} staged with no frames"

    def test_originals_left_untouched(self, fabric):
        """Reading leaves the directory byte-identical: no torn-tail
        repair, no new segment, no file added or removed."""
        torn = fabric / "wal-shard-01" / "shard-01-00000000.log"
        with open(torn, "ab") as handle:
            handle.write(b"\x00\x00\x01")  # a crash mid-append
        before = {
            path: path.read_bytes() for path in fabric.rglob("*")
            if path.is_file()
        }
        staged = stage_logs(fabric)
        after = {
            path: path.read_bytes() for path in fabric.rglob("*")
            if path.is_file()
        }
        assert before == after
        assert [len(log.frames) for log in staged
                if log.label == "wal-shard-01"] == [3]

    def test_shared_directory_splits_by_prefix(self, tmp_path):
        shared = tmp_path / "logs"
        _write_log(shared, "one", [_entry("a", seq=1, trace_id=1)])
        _write_log(shared, "two", [_entry("b", seq=2, trace_id=2),
                                   _entry("b", seq=3, trace_id=2)])
        staged = stage_logs(shared)
        frames = {log.label: len(log.frames) for log in staged}
        assert frames == {"logs/one": 1, "logs/two": 2}

    def test_root_may_be_a_single_log_directory(self, tmp_path):
        single = tmp_path / "only"
        _write_log(single, "only", [_entry("a", seq=1, trace_id=1)])
        staged = stage_logs(single)
        assert len(staged) == 1
        assert staged[0].label == "only"


class TestCensusAndCollect:
    def test_census_counts_nodes_and_logs(self, fabric, tmp_path):
        staged = stage_logs(fabric)
        census = trace_census(staged)
        # trace 7 spans shard 0 (plus its shipped copy) and shard 1;
        # the duplicated root frame counts once.
        assert census[7]["nodes"] == 2
        assert census[7]["logs"] == 3
        assert census[9] == {"nodes": 1, "logs": 1}

    def test_collect_slice_dedupes_and_orders(self, fabric, tmp_path):
        staged = stage_logs(fabric)
        nodes = collect_slice(staged, 7)
        assert [node.seq for node in nodes] == [1, 2]
        assert nodes[0].session == "alpha"
        assert nodes[1].parent_seq == 1
        assert collect_slice(staged, 999) == []

    def test_non_entry_frames_ignored(self, fabric, tmp_path):
        staged = stage_logs(fabric)
        seqs = {node.seq for trace in (7, 9)
                for node in collect_slice(staged, trace)}
        assert seqs == {1, 2, 5}  # "applied" seals never become nodes


class TestSessionReplayFrames:
    """A slice replay hands ``recover_session`` its session's
    :func:`session_tail` of the home log."""

    def _staged(self, frames):
        return StagedLog(label="home", frames=frames)

    def test_keeps_calls_and_seals_drops_events(self):
        home = self._staged([
            _entry("s1", seq=1, trace_id=1),
            _entry("s1", seq=2, trace_id=1, parent_seq=1, kind="event",
                   topic="routed.event"),
            {"k": "applied", "session": "s1", "entry_seq": 1},
            _entry("s2", seq=3, trace_id=2),
        ])
        replayed = []
        report = recover_session(
            session_tail(home.frames, "s1"), session="s1",
            apply_entry=lambda _platform, signal: replayed.append(
                (signal.kind, signal.seq)),
            platform=SimpleNamespace(broker=None))
        # the routed event records a delivery: never re-applied
        assert replayed == [("call", 1)]
        assert (report.replayed_entries, report.errors) == (1, [])

    def test_plain_checkpoints_pass_through(self):
        inner = {"name": "p", "layers": {}}
        home = self._staged([
            {"k": "checkpoint", "session": "s1", "snapshot": inner},
        ])
        assert session_tail(home.frames, "s1")[0]["snapshot"] == inner

    def test_covers_all_checkpoint_kept_for_any_session(self):
        home = self._staged([
            _entry("s1", seq=1, trace_id=1),
            {"k": "checkpoint", "session": "other", "covers_all": True,
             "snapshot": {"name": "p", "layers": {}}},
            {"k": "checkpoint", "session": "other",
             "snapshot": {"name": "p", "layers": {}}},
            _entry("other", seq=2, trace_id=2),
            _entry("s1", seq=3, trace_id=3),
        ])
        frames = session_tail(home.frames, "s1")
        # the tail starts at the shard checkpoint: the entry before it
        # is covered, and every frame after it replays, since
        # restoring the shard snapshot rolls back every session.
        assert [doc["k"] for doc in frames] == [
            "checkpoint", "checkpoint", "entry", "entry"]
        assert frames[0]["covers_all"]
        assert [doc["sig"]["seq"] for doc in frames[2:]] == [2, 3]


def _node(seq, *, trace_id=7, parent_seq=None, kind="call",
          topic="session.entry", origin="shard-0"):
    return SliceNode(seq=seq, trace_id=trace_id, parent_seq=parent_seq,
                     kind=kind, topic=topic, origin=origin,
                     session="s", log="l")


def _record(seq, *, trace_id=7, parent_seq=None, kind="call",
            topic="session.entry", origin="shard-0"):
    return SimpleNamespace(seq=seq, trace_id=trace_id,
                           parent_seq=parent_seq, kind=kind, topic=topic,
                           origin=origin)


class TestDagLabel:
    def test_roots_keep_their_seq(self):
        assert dag_label(_node(4), roots=set()) == "#4"
        assert dag_label(_node(4, parent_seq=1), roots={4}) == "#4"

    def test_derived_nodes_are_structural(self):
        label = dag_label(
            _node(9, parent_seq=4, kind="event", topic="t", origin="o"),
            roots={4},
        )
        assert label == "event:t@o"


class TestVerifySlice:
    def test_exact_reproduction_ok(self):
        nodes = [_node(1), _node(2, parent_seq=1, kind="event", topic="t")]
        # replay re-mints the derived seq; structure is what must match.
        records = [_record(1),
                   _record(40, parent_seq=1, kind="event", topic="t")]
        verdict = verify_slice(nodes, records)
        assert verdict.ok
        assert verdict.logged_nodes == 2
        assert verdict.replayed_nodes == 2
        assert verdict.surplus == 0

    def test_missing_root_fails(self):
        verdict = verify_slice([_node(1)], [])
        assert not verdict.ok
        assert verdict.missing == ["root #1 did not replay"]

    def test_missing_edge_fails(self):
        nodes = [_node(1), _node(2, parent_seq=1, kind="event", topic="t")]
        verdict = verify_slice(nodes, [_record(1)])
        assert not verdict.ok
        assert any("not replayed" in miss for miss in verdict.missing)

    def test_surplus_derivations_do_not_fail(self):
        nodes = [_node(1)]
        records = [_record(1),
                   _record(50, parent_seq=1, kind="event", topic="extra")]
        verdict = verify_slice(nodes, records)
        assert verdict.ok
        assert verdict.surplus == 1

    def test_duplicate_derived_edges_need_distinct_counterparts(self):
        nodes = [
            _node(1),
            _node(2, parent_seq=1, kind="event", topic="t"),
            _node(3, parent_seq=1, kind="event", topic="t"),
        ]
        records = [_record(1),
                   _record(41, parent_seq=1, kind="event", topic="t")]
        verdict = verify_slice(nodes, records)
        assert not verdict.ok  # one replayed edge cannot cover two logged

    def test_other_trace_records_filtered(self):
        verdict = verify_slice(
            [_node(1)], [_record(1), _record(8, trace_id=99)]
        )
        assert verdict.ok
        assert verdict.replayed_nodes == 1


class TestRenderSlice:
    def test_empty_slice(self):
        assert render_slice([]) == "(empty slice)"

    def test_tree_shows_provenance(self):
        nodes = [_node(1),
                 _node(2, parent_seq=1, kind="event", topic="t")]
        text = render_slice(nodes)
        lines = text.splitlines()
        assert "call:session.entry#1" in lines[0]
        assert lines[1].startswith("  ")  # child indented under root
        assert "session=s" in lines[0] and "log=l" in lines[0]
