"""Segment bookkeeping of the write-ahead log.

The log lists its directory once, at open, and afterwards keeps its
live segment indexes in memory.  Two properties pin that down:

- the cost property, counted rather than timed: shipping, landing,
  checkpointing, replay and truncation list no directory after open;
- the correctness property, generated: across random sequences of
  appends, checkpoints of every kind, landings, forgets, rotations,
  outbox takes and reopens, :meth:`WriteAheadLog.segments` equals the
  directory listing, :meth:`WriteAheadLog.replay` reads what
  :func:`read_log_directory` reads, a reopened log replays the docs it
  held before closing, and the frames taken from the outbox are every
  frame the log wrote, once each, with the live segments holding their
  suffix.
"""

import os
import shutil
import tempfile
from pathlib import Path

from hypothesis import settings, strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from repro.runtime.events import Signal
from repro.runtime.wal import (
    EffectJournal,
    WriteAheadLog,
    encode_frame_doc,
    read_log_directory,
    signal_to_doc,
    split_frames,
)


def _listed(wal):
    """Segment indexes as the directory lists them (the oracle)."""
    prefix = f"{wal.name}-"
    return sorted(
        int(name[len(prefix):-4])
        for name in os.listdir(wal.directory)
        if name.startswith(prefix) and name.endswith(".log")
    )


def test_ship_and_checkpoint_list_no_directory(tmp_path, monkeypatch):
    wal = WriteAheadLog(tmp_path / "worker", name="w", fsync=False)
    wal.enable_outbox()
    standby = WriteAheadLog(tmp_path / "standby", name="s", fsync=False)
    # a session that never checkpoints pins the truncation floor, so
    # every full checkpoint's rotation leaves one more live segment.
    wal.append_entry(Signal(topic="t", origin="lag"), session="lag")
    sessions = [f"s{i}" for i in range(32)]
    for session in sessions:
        wal.checkpoint({"session": session}, session=session)
    assert len(wal.segments()) > len(sessions)

    listings: list[str] = []

    def counting(owner, attr):
        original = getattr(owner, attr)

        def counted(*args, **kwargs):
            listings.append(attr)
            return original(*args, **kwargs)

        monkeypatch.setattr(owner, attr, counted)

    for owner, attr in ((Path, "glob"), (Path, "rglob"), (Path, "iterdir"),
                        (os, "scandir"), (os, "listdir")):
        counting(owner, attr)

    standby.land(wal.take_outbox())
    for cycle in range(24):
        session = sessions[cycle % len(sessions)]
        journal = EffectJournal(wal, session=session)
        journal.log_call("t", {"cycle": cycle})
        journal.end_entry()
        standby.land(wal.take_outbox())
        wal.checkpoint({"cycle": cycle}, session=session)
        standby.land(wal.take_outbox())
    wal.checkpoint({"all": True}, session="shard", cover_all=True)
    standby.land(wal.take_outbox())
    assert list(wal.replay())
    standby.truncate()
    standby.land([encode_frame_doc(
        {"k": "checkpoint", "session": "moved", "snapshot": {}})])
    assert listings == []
    monkeypatch.undo()

    assert wal.truncated_segments > len(sessions)  # cover_all released
    assert wal.segments() == _listed(wal)
    assert standby.segments() == _listed(standby)
    wal.close()
    standby.close()


_SESSIONS = st.sampled_from(["a", "b", "c"])


class SegmentBookkeeping(RuleBasedStateMachine):
    """Random log traffic over small segments, shipped from the
    outbox; the in-memory segment list must track the directory through
    every step."""

    def __init__(self) -> None:
        super().__init__()
        self.root = tempfile.mkdtemp(prefix="repro-wal-segments-")
        #: every frame taken from the outbox, across reopens.
        self.shipped: list[bytes] = []
        self.wal = self._open()

    def _open(self) -> WriteAheadLog:
        wal = WriteAheadLog(Path(self.root) / "log", name="w",
                            fsync=False, segment_max_bytes=256)
        wal.enable_outbox()
        #: frames taken from the current log instance.
        self.taken = 0
        return wal

    def _take(self) -> None:
        frames = self.wal.take_outbox()
        self.taken += len(frames)
        self.shipped += frames

    @rule(session=_SESSIONS, pad=st.integers(0, 96))
    def append(self, session, pad):
        journal = EffectJournal(self.wal, session=session)
        journal.log_call("t", {"pad": "x" * pad})
        journal.end_entry()

    @rule(session=_SESSIONS,
          kind=st.sampled_from(["full", "cover_all"]))
    def checkpoint(self, session, kind):
        self.wal.checkpoint({"pad": "y" * 64}, session=session,
                            cover_all=kind == "cover_all")

    @rule(session=_SESSIONS,
          kinds=st.lists(st.sampled_from(["entry", "checkpoint", "dropped"]),
                         min_size=1, max_size=4))
    def land(self, session, kinds):
        docs = []
        for kind in kinds:
            doc = {"k": kind, "session": session}
            if kind == "entry":
                doc["sig"] = signal_to_doc(Signal(topic="t", origin=session))
            elif kind == "checkpoint":
                doc["snapshot"] = {"pad": "z" * 64}
            docs.append(doc)
        self.wal.land([encode_frame_doc(doc) for doc in docs])

    @rule(session=_SESSIONS)
    def forget_session(self, session):
        self.wal.forget_session(session)

    @rule()
    def rotate(self):
        self.wal.rotate()

    @rule()
    def truncate(self):
        self.wal.truncate()

    @rule()
    def ship(self):
        self._take()
        assert self.wal.take_outbox() == []  # the take emptied it
        # exactly once: one shipped frame per frame written ...
        assert self.taken == self.wal.appends
        # ... in write order: the live segments hold a suffix of them.
        self.wal.sync()
        live = []
        for segment in self.wal.segments():
            data = self.wal._segment_path(segment).read_bytes()
            live += split_frames(data)[1:]
        assert self.shipped[len(self.shipped) - len(live):] == live

    @rule()
    def reopen(self):
        before = list(self.wal.replay())
        self.wal.close()
        self._take()  # a closed log still hands over what it wrote
        assert self.taken == self.wal.appends
        self.wal = self._open()
        assert list(self.wal.replay()) == before

    @invariant()
    def segments_match_the_directory(self):
        assert self.wal.segments() == _listed(self.wal)

    @invariant()
    def replay_reads_what_the_directory_reader_reads(self):
        self.wal.sync()
        assert list(self.wal.replay()) == (
            read_log_directory(self.wal.directory)[self.wal.name])

    def teardown(self):
        self.wal.close()
        shutil.rmtree(self.root, ignore_errors=True)


SegmentBookkeeping.TestCase.settings = settings(
    max_examples=40, stateful_step_count=30, deadline=None)
TestSegmentBookkeeping = SegmentBookkeeping.TestCase
