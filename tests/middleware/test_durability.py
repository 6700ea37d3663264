"""Durable sessions end to end (PR 7): WAL + exactly-once recovery.

Kills a durable communication session mid-workload and checks the
recovered run against an uninterrupted golden run by comparing the
simulated service's ``op_log`` — the externally observable effect
sequence.  Also covers delivery dedup, per-entry error containment,
and the hardened :class:`CheckpointScheduler` (self-scheduling,
epoch-fenced timers, error-contained checkpoint chains).
"""

import pytest

from repro.domains.communication.cml import CmlBuilder, cml_metamodel
from repro.domains.communication.cvm import (
    build_middleware_model,
    default_context,
)
from repro.middleware.loader import DomainKnowledge, load_platform
from repro.middleware.platform import apply_entry
from repro.middleware.snapshot import (
    CheckpointScheduler,
    capture_snapshot,
    recover_session,
)
from repro.modeling.serialize import model_to_dict
from repro.runtime.clock import VirtualClock
from repro.runtime.durability import ShardDurability
from repro.runtime.events import Call
from repro.runtime.wal import WalError, WriteAheadLog


SESSION = "conf-1"


def fresh_session(*, clock=None):
    from repro.sim.network import CommService

    service = CommService("net0", op_cost=0.0)
    dsk = DomainKnowledge(dsml=cml_metamodel(), resources=[service])
    platform = load_platform(build_middleware_model(), dsk, clock=clock)
    platform.controller.context.update(default_context())
    return service, dsk, platform


def conference_model(*, extended=False):
    builder = CmlBuilder("conference")
    alice = builder.person("alice", role="initiator")
    bob = builder.person("bob")
    builder.connection("c1", [alice, bob], media=["audio"])
    if extended:
        carol = builder.person("carol")
        builder.connection("c2", [alice, carol], media=["text"])
    return builder.build()


def entry_docs():
    """The durable workload: one model dispatch, then API steps."""
    return [
        {"op": "run_model", "model": model_to_dict(conference_model())},
        {"op": "api", "api": "ncb.open_session",
         "args": {"connection": "x1"}},
        {"op": "api", "api": "ncb.close_session",
         "args": {"connection": "x1"}},
    ]


def golden_op_log():
    service, _dsk, platform = fresh_session()
    platform.run_model(conference_model())
    platform.broker.call_api("ncb.open_session", connection="x1")
    platform.broker.call_api("ncb.close_session", connection="x1")
    platform.stop()
    return list(service.op_log)


def open_wal(tmp_path, **kwargs):
    kwargs.setdefault("fsync", False)
    return WriteAheadLog(tmp_path / "wal", **kwargs)


def recover(wal, **kwargs):
    """Recover SESSION from ``wal``'s frames, sealing into ``wal``."""
    return recover_session(
        list(wal.replay()), session=SESSION,
        apply_entry=apply_entry, wal=wal, **kwargs,
    )


def execute(durability, platform, doc):
    """One durable entry for ``platform``'s session: write-ahead,
    apply with the effect journal installed, seal."""
    return durability.execute(
        SESSION, doc, lambda signal: apply_entry(platform, signal),
        resources=platform.broker.resources,
    )


def checkpoint(durability, platform):
    durability.checkpoint(SESSION, capture_snapshot(platform).to_dict())


class TestDurableSession:
    def test_execute_logs_entry_before_and_seal_after(self, tmp_path):
        _service, _dsk, platform = fresh_session()
        wal = open_wal(tmp_path)
        durable = ShardDurability(wal)
        docs = entry_docs()
        execute(durable, platform, docs[0])
        kinds = [doc["k"] for doc in wal.replay()]
        assert kinds == ["entry", "applied"]
        platform.stop()
        wal.close()

    def test_kill_then_recover_matches_golden(self, tmp_path):
        golden = golden_op_log()
        service, dsk, platform = fresh_session()
        wal = open_wal(tmp_path)
        durable = ShardDurability(wal)
        docs = entry_docs()
        execute(durable, platform, docs[0])
        checkpoint(durable, platform)
        execute(durable, platform, docs[1])  # the unsnapshotted tail
        log_at_kill = list(service.op_log)
        wal.close()
        platform.stop()  # the kill

        reopened = open_wal(tmp_path)
        report = recover(reopened, dsk=dsk)
        # the tail entry replayed with memoized effects: the external
        # world was not touched a second time
        assert service.op_log == log_at_kill
        assert report.replayed_entries == 1
        assert report.effects_memoized > 0
        assert report.effects_live == 0
        assert report.errors == []

        # the recovered session finishes the workload live
        execute(ShardDurability(reopened), report.platform, docs[2])
        report.platform.stop()
        reopened.close()
        assert service.op_log == golden

    def test_double_recovery_is_idempotent(self, tmp_path):
        service, dsk, platform = fresh_session()
        wal = open_wal(tmp_path)
        durable = ShardDurability(wal)
        docs = entry_docs()
        execute(durable, platform, docs[0])
        checkpoint(durable, platform)
        execute(durable, platform, docs[1])
        log_at_kill = list(service.op_log)
        wal.close()
        platform.stop()

        for _round in range(2):
            reopened = open_wal(tmp_path)
            report = recover(reopened, dsk=dsk)
            report.platform.stop()
            reopened.close()
            assert service.op_log == log_at_kill
            assert report.errors == []

    def test_crash_before_seal_replays_live(self, tmp_path):
        """An entry frame without its ``applied`` seal re-executes on
        recovery — redo against the restored world, not memoized."""
        service, dsk, platform = fresh_session()
        wal = open_wal(tmp_path)
        durable = ShardDurability(wal)
        docs = entry_docs()
        execute(durable, platform, docs[0])
        checkpoint(durable, platform)
        # crash between the entry frame and its application: log the
        # frame the way log_call does, then die before apply/seal
        journal = durable.journal(SESSION)
        journal.log_call("session.entry", docs[1])
        journal.active = False  # the crash drops the open entry
        log_at_kill = list(service.op_log)
        wal.close()
        platform.stop()

        reopened = open_wal(tmp_path)
        report = recover(reopened, dsk=dsk)
        report.platform.stop()
        reopened.close()
        assert report.replayed_entries == 1
        assert report.effects_memoized == 0
        assert report.effects_live > 0  # re-executed for real
        assert len(service.op_log) > len(log_at_kill)

        # the re-execution was sealed into the log it was read from, so
        # a second recovery memoizes it instead of running it again
        log_after_first = list(service.op_log)
        reopened = open_wal(tmp_path)
        again = recover(reopened, dsk=dsk)
        again.platform.stop()
        reopened.close()
        assert again.effects_live == 0
        assert again.effects_memoized == report.effects_live
        assert service.op_log == log_after_first

    def test_capture_doc_checkpoint_restores_its_snapshot(self, tmp_path):
        """A worker checkpoints its portable capture doc (snapshot,
        exported services, DSK hash); recovery restores the snapshot it
        embeds and replays the tail memoized."""
        service, dsk, platform = fresh_session()
        wal = open_wal(tmp_path)
        durable = ShardDurability(wal)
        docs = entry_docs()
        execute(durable, platform, docs[0])
        durable.checkpoint(SESSION, {
            "domain": "communication", "dsk_hash": "h", "services": {},
            "snapshot": capture_snapshot(platform).to_dict(),
        })
        execute(durable, platform, docs[1])
        log_at_kill = list(service.op_log)
        wal.close()
        platform.stop()

        reopened = open_wal(tmp_path)
        report = recover(reopened, dsk=dsk)
        report.platform.stop()
        reopened.close()
        assert report.snapshot.name == platform.name
        assert report.replayed_entries == 1
        assert report.effects_memoized > 0
        assert report.errors == []
        assert service.op_log == log_at_kill

    def test_duplicate_entries_deduplicated(self, tmp_path):
        _service, dsk, platform = fresh_session()
        wal = open_wal(tmp_path)
        durable = ShardDurability(wal)
        execute(durable, platform, entry_docs()[0])
        checkpoint(durable, platform)
        journal = durable.journal(SESSION)
        signal = journal.log_call("session.entry", entry_docs()[1])
        journal.active = False
        # at-least-once writer: the same signal logged twice
        wal.append_entry(signal, session=SESSION)
        wal.close()
        platform.stop()

        reopened = open_wal(tmp_path)
        report = recover(reopened, dsk=dsk)
        report.platform.stop()
        reopened.close()
        assert report.replayed_entries == 1
        assert report.deduplicated == 1

    def test_failing_entry_contained_in_report(self, tmp_path):
        _service, dsk, platform = fresh_session()
        wal = open_wal(tmp_path)
        durable = ShardDurability(wal)
        execute(durable, platform, entry_docs()[0])
        checkpoint(durable, platform)
        bad = {"op": "no-such-op"}
        with pytest.raises(ValueError):
            execute(durable, platform, bad)
        execute(durable, platform, {
            "op": "api", "api": "ncb.open_session",
            "args": {"connection": "y1"},
        })
        wal.close()
        platform.stop()

        reopened = open_wal(tmp_path)
        report = recover(reopened, dsk=dsk)
        report.platform.stop()
        reopened.close()
        # the bad entry fails identically on replay but does not wedge
        # the entries behind it
        assert report.replayed_entries == 2
        assert len(report.errors) == 1
        assert isinstance(report.errors[0][1], ValueError)

    def test_recovery_without_checkpoint_needs_warm_platform(self, tmp_path):
        wal = open_wal(tmp_path)
        with pytest.raises(WalError, match="no checkpoint"):
            recover(wal)
        wal.close()

    def test_cold_recovery_without_dsk_rejected(self, tmp_path):
        _service, _dsk, platform = fresh_session()
        wal = open_wal(tmp_path)
        durable = ShardDurability(wal)
        checkpoint(durable, platform)
        wal.close()
        platform.stop()
        reopened = open_wal(tmp_path)
        with pytest.raises(WalError, match="DSK"):
            recover(reopened)
        reopened.close()


class TestCheckpointSchedulerHardening:
    def test_one_long_advance_fires_every_interval(self):
        clock = VirtualClock()
        _service, _dsk, platform = fresh_session(clock=clock)
        scheduler = CheckpointScheduler(platform, interval=5.0, clock=clock)
        scheduler.start()
        clock.advance(5.0)
        assert scheduler.checkpoints_taken == 1
        clock.advance(15.0)
        assert scheduler.checkpoints_taken == 4  # re-armed after each fire
        scheduler.stop()
        clock.advance(25.0)
        assert scheduler.checkpoints_taken == 4  # stopped: nothing armed
        platform.stop()

    def test_negative_interval_rejected(self):
        # test_snapshot.py checks interval=0
        _service, _dsk, platform = fresh_session()
        with pytest.raises(ValueError, match="interval"):
            CheckpointScheduler(platform, interval=-1.0)
        platform.stop()

    def test_stop_start_does_not_double_arm(self):
        clock = VirtualClock()
        _service, _dsk, platform = fresh_session(clock=clock)
        scheduler = CheckpointScheduler(platform, interval=5.0, clock=clock)
        scheduler.start()
        clock.advance(5.0)
        assert scheduler.checkpoints_taken == 1
        scheduler.stop()
        scheduler.start()  # a second life of the scheduler
        clock.advance(5.0)
        clock.advance(5.0)
        # one tick per interval — a stale timer from the first life
        # must not produce a second chain
        assert scheduler.checkpoints_taken == 3
        scheduler.stop()
        platform.stop()

    def test_stale_epoch_timer_fires_as_noop(self):
        clock = VirtualClock()
        _service, _dsk, platform = fresh_session(clock=clock)
        scheduler = CheckpointScheduler(platform, interval=5.0, clock=clock)
        scheduler.start()
        stale_epoch = scheduler._epoch - 1
        scheduler._fire(stale_epoch)  # timer armed by a previous start()
        assert scheduler.checkpoints_taken == 0
        clock.advance(5.0)
        assert scheduler.checkpoints_taken == 1
        scheduler.stop()
        platform.stop()

    def test_failing_tick_keeps_the_chain_alive(self):
        clock = VirtualClock()
        _service, _dsk, platform = fresh_session(clock=clock)
        failures = {"left": 2}

        def flaky(_snapshot):
            if failures["left"]:
                failures["left"] -= 1
                raise RuntimeError("checkpoint store unavailable")

        scheduler = CheckpointScheduler(
            platform, interval=5.0, clock=clock, on_checkpoint=flaky
        )
        scheduler.start()
        clock.advance(5.0)
        clock.advance(5.0)
        assert scheduler.checkpoint_errors == 2
        assert isinstance(scheduler.last_error, RuntimeError)
        # the chain survived both bad ticks and the next one lands clean
        clock.advance(5.0)
        assert scheduler.checkpoints_taken == 3
        assert scheduler.checkpoint_errors == 2
        scheduler.stop()
        platform.stop()


class TestLogCallChainRoot:
    def test_log_call_signal_matches_dataclass_call(self, tmp_path):
        """The fused fast path mints signals indistinguishable from
        ``Call(...)`` construction (same fields, same seq stream)."""
        _service, _dsk, platform = fresh_session()
        wal = open_wal(tmp_path)
        journal = ShardDurability(wal).journal(SESSION)
        minted = journal.log_call("session.entry", {"op": "x"})
        journal.active = False
        built = Call(topic="session.entry", payload={"op": "x"},
                     origin=SESSION)
        assert isinstance(minted, Call)
        assert built.seq == minted.seq + 1  # same global seq stream
        assert minted.trace_id == minted.seq
        assert minted.parent_seq is None and built.parent_seq is None
        assert minted.kind == built.kind == "call"
        platform.stop()
        wal.close()
