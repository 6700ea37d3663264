"""Unit tests for the sharded session fabric (PR 4 tentpole).

Covers key-affinity partitioning, the inline deterministic mode, the
threaded mode (pump threads joined on stop — no orphans), the batched
cross-shard forwarding channel, merged metrics aggregation, and causal
trace chains surviving a shard hop.
"""

import threading

import pytest

from repro.runtime.events import Event
from repro.runtime.sharded import (
    ForwardingChannel,
    Shard,
    ShardedRuntime,
    ShardedRuntimeError,
    current_shard,
    shard_index_for,
)
from repro.runtime.trace import TraceRecorder


def fabric_threads():
    return [
        t for t in threading.enumerate() if t.name.startswith("mailbox-")
    ]


class TestAffinity:
    def test_deterministic_and_stable(self):
        # CRC-32 affinity must not depend on hash randomization: these
        # pins fail if the partition function ever changes.
        assert shard_index_for("session-0001", 4) == 1
        assert shard_index_for("aggregator", 4) == 3
        for key in ("a", "b", "session-42"):
            assert shard_index_for(key, 4) == shard_index_for(key, 4)

    def test_all_keys_land_in_range(self):
        for shards in (1, 2, 4, 8):
            for i in range(100):
                assert 0 <= shard_index_for(f"k{i}", shards) < shards

    def test_spread(self):
        hit = {shard_index_for(f"k{i}", 4) for i in range(64)}
        assert hit == {0, 1, 2, 3}

    def test_shard_for_uses_affinity(self):
        runtime = ShardedRuntime(4, inline=True)
        key = "session-7"
        assert runtime.shard_for(key).index == shard_index_for(key, 4)


class TestConstruction:
    def test_needs_at_least_one_shard(self):
        with pytest.raises(ShardedRuntimeError):
            ShardedRuntime(0)

    def test_bad_batch_size(self):
        with pytest.raises(ShardedRuntimeError):
            ShardedRuntime(2, batch_size=0)

    def test_shards_own_disjoint_infrastructure(self):
        runtime = ShardedRuntime(4, inline=True)
        buses = {id(s.bus) for s in runtime.shards}
        registries = {id(s.metrics) for s in runtime.shards}
        assert len(buses) == len(registries) == 4
        # Per-shard registries stay on the single-writer lock-free path.
        assert all(not s.metrics.thread_safe for s in runtime.shards)

    def test_submit_requires_started_fabric(self):
        runtime = ShardedRuntime(2, inline=True)
        with pytest.raises(ShardedRuntimeError):
            runtime.submit("k", lambda: None)
        with pytest.raises(ShardedRuntimeError):
            runtime.post("k", lambda: None)


class TestInlineFabric:
    def test_submit_runs_on_owning_shard(self):
        with ShardedRuntime(4, inline=True) as runtime:
            seen = []
            runtime.post("k1", lambda: seen.append(current_shard().index))
            runtime.drain()
            assert seen == [runtime.shard_for("k1").index]

    def test_per_key_fifo(self):
        with ShardedRuntime(4, inline=True) as runtime:
            order = []
            for i in range(10):
                runtime.post("same-key", lambda i=i: order.append(i))
            runtime.drain()
            assert order == list(range(10))

    def test_drain_rejects_threaded_fabric(self):
        runtime = ShardedRuntime(2)
        with pytest.raises(ShardedRuntimeError):
            runtime.drain()

    def test_submit_future_result(self):
        with ShardedRuntime(2, inline=True) as runtime:
            future = runtime.submit("k", lambda: 41 + 1)
            runtime.drain()
            assert future.result(timeout=1) == 42

    def test_task_errors_are_captured_not_raised(self):
        with ShardedRuntime(2, inline=True) as runtime:
            def boom():
                raise ValueError("bad task")

            runtime.post("k", boom)
            runtime.drain()
            shard = runtime.shard_for("k")
            assert [type(e) for e in shard.task_errors] == [ValueError]
            assert shard.metrics.counter_value(
                "fabric.task_errors", shard.name
            ) == 1

    def test_route_signal_same_shard_publishes_directly(self):
        with ShardedRuntime(4, inline=True) as runtime:
            key = "session-1"
            shard = runtime.shard_for(key)
            received = []
            shard.bus.subscribe("s.*", received.append)

            def task():
                runtime.route_signal(Event(topic="s.done"), key=key)

            runtime.post(key, task)
            runtime.drain()
            assert [s.topic for s in received] == ["s.done"]
            # Same-shard: the forwarding channel was not involved.
            assert runtime.channel.forwarded == 0

    def test_route_signal_cross_shard_uses_channel(self):
        runtime = ShardedRuntime(4, inline=True)
        keys = [f"k{i}" for i in range(32)]
        src = next(
            k for k in keys
            if runtime.shard_for(k) is not runtime.shard_for("dest")
        )
        with runtime:
            received = []
            runtime.shard_for("dest").bus.subscribe("x", received.append)
            runtime.post(
                src,
                lambda: runtime.route_signal(Event(topic="x"), key="dest"),
            )
            runtime.drain()
            assert [s.topic for s in received] == ["x"]
            assert runtime.channel.forwarded == 1
            assert runtime.channel.batches == 1

    def test_route_signal_from_outside_any_shard_goes_through_channel(self):
        with ShardedRuntime(2, inline=True) as runtime:
            received = []
            runtime.shard_for("k").bus.subscribe("t", received.append)
            assert current_shard() is None
            runtime.route_signal(Event(topic="t"), key="k")
            runtime.drain()
            assert len(received) == 1
            assert runtime.channel.forwarded == 1


class TestForwardingChannel:
    def test_batches_flush_at_batch_size(self):
        with ShardedRuntime(2, inline=True, batch_size=4) as runtime:
            dest = runtime.shards[0]
            received = []
            dest.bus.subscribe("b.*", received.append)
            for i in range(4):
                runtime.channel.forward(
                    Event(topic=f"b.{i}"), to_shard=0
                )
            # Auto-flush fired at the 4th forward: batch already posted.
            assert runtime.channel.pending == 0
            assert runtime.channel.batches == 1
            runtime.drain()
            assert [s.topic for s in received] == [f"b.{i}" for i in range(4)]
            assert dest.metrics.counter_value(
                "fabric.forwarded_in", dest.name
            ) == 4

    def test_partial_buffer_needs_explicit_flush(self):
        with ShardedRuntime(2, inline=True, batch_size=64) as runtime:
            runtime.channel.forward(Event(topic="t"), to_shard=1)
            assert runtime.channel.pending == 1
            assert runtime.channel.flush() == 1
            assert runtime.channel.pending == 0

    def test_forward_to_unknown_shard(self):
        with ShardedRuntime(2, inline=True) as runtime:
            with pytest.raises(ShardedRuntimeError):
                runtime.channel.forward(Event(topic="t"), to_shard=7)

    def test_one_batch_per_destination_per_flush(self):
        with ShardedRuntime(4, inline=True) as runtime:
            for i in range(6):
                runtime.channel.forward(Event(topic="t"), to_shard=i % 2)
            assert runtime.channel.flush() == 6
            assert runtime.channel.batches == 2

    def test_stats(self):
        with ShardedRuntime(2, inline=True, batch_size=8) as runtime:
            runtime.channel.forward(Event(topic="t"), to_shard=0)
            stats = runtime.channel.stats()
            assert stats == {
                "forwarded": 1, "batches": 0, "pending": 1, "batch_size": 8,
            }


class TestThreadedFabric:
    def test_stop_joins_all_pump_threads(self):
        before = fabric_threads()
        runtime = ShardedRuntime(4, name="t4")
        runtime.start()
        assert len(fabric_threads()) == len(before) + 4
        runtime.stop()
        assert fabric_threads() == before

    def test_stop_is_deterministic_drain(self):
        runtime = ShardedRuntime(4, name="t4drain")
        counts = {"n": 0}
        lock = threading.Lock()

        def bump():
            with lock:
                counts["n"] += 1

        with runtime:
            for i in range(500):
                runtime.post(f"k{i % 17}", bump)
        # stop() returned => every posted task has executed.
        assert counts["n"] == 500

    def test_cross_shard_forwarding_under_threads(self):
        runtime = ShardedRuntime(4, name="t4fwd", batch_size=16)
        received = []
        recv_lock = threading.Lock()

        def sink(signal):
            with recv_lock:
                received.append(signal.topic)

        runtime.shard_for("dest").bus.subscribe("done.*", sink)
        with runtime:
            for i in range(100):
                key = f"k{i}"
                runtime.post(
                    key,
                    lambda i=i: runtime.route_signal(
                        Event(topic=f"done.{i}"), key="dest"
                    ),
                )
        assert sorted(received) == sorted(f"done.{i}" for i in range(100))

    def test_merged_metrics_aggregates_all_shards(self):
        runtime = ShardedRuntime(4, name="t4agg")
        with runtime:
            for i in range(40):
                runtime.post(
                    f"k{i}",
                    lambda: current_shard().metrics.count("work.done", "x"),
                )
        merged = runtime.merged_metrics()
        assert merged.thread_safe
        assert merged.counter_value("work.done", "x") == 40
        # Per-shard registries were not mutated by the merge.
        total = sum(
            s.metrics.counter_value("work.done", "x") for s in runtime.shards
        )
        assert total == 40

    def test_per_session_fifo_under_contention(self):
        runtime = ShardedRuntime(2, name="t2fifo")
        order = {"a": [], "b": []}
        lock = threading.Lock()

        def step(key, i):
            with lock:
                order[key].append(i)

        with runtime:
            for i in range(200):
                runtime.post("a", lambda i=i: step("a", i))
                runtime.post("b", lambda i=i: step("b", i))
        assert order["a"] == list(range(200))
        assert order["b"] == list(range(200))

    def test_stats_shape(self):
        runtime = ShardedRuntime(2, name="t2stats")
        with runtime:
            runtime.post("k", lambda: None)
        stats = runtime.stats()
        assert stats["shards"] == 2
        assert stats["processed"] >= 1
        assert stats["pending"] == 0
        assert stats["task_errors"] == 0


class TestCrossShardTracing:
    def test_trace_chain_survives_forwarding_channel(self):
        """A signal forwarded across shards stays in its root's causal
        chain: same trace_id, parent_seq pointing at the original."""
        runtime = ShardedRuntime(4, inline=True)
        src_key = next(
            f"k{i}" for i in range(32)
            if runtime.shard_for(f"k{i}") is not runtime.shard_for("dest")
        )
        delivered = []
        runtime.shard_for("dest").bus.subscribe("hop.done", delivered.append)
        with TraceRecorder() as recorder:
            with runtime:
                root = Event(topic="hop.start", origin="test")

                def task():
                    child = root.derive(topic="hop.done")
                    runtime.route_signal(child, key="dest")

                runtime.post(src_key, task)
                runtime.drain()
        assert len(delivered) == 1
        forwarded = delivered[0]
        # Chain: root -> child (derived in the task) -> forwarded copy.
        assert forwarded.trace_id == root.trace_id
        chain = recorder.chain_for(root.trace_id)
        assert [r.topic for r in chain] == ["hop.start", "hop.done", "hop.done"]
        child_record = chain[1]
        assert child_record.parent_seq == root.seq
        assert chain[2].parent_seq == child_record.seq

    def test_trace_chain_across_two_threaded_shards(self):
        """Same property under real pump threads: the recorder (mutex
        guarded) sees a coherent parent chain across both shards."""
        runtime = ShardedRuntime(2, name="t2trace", batch_size=1)
        keys = [f"k{i}" for i in range(16)]
        src = next(
            k for k in keys
            if runtime.shard_for(k) is not runtime.shard_for("dest")
        )
        delivered = []
        lock = threading.Lock()

        def sink(signal):
            with lock:
                delivered.append(signal)

        runtime.shard_for("dest").bus.subscribe("leg.*", sink)
        with TraceRecorder() as recorder:
            with runtime:
                root = Event(topic="leg.origin", origin="test")
                runtime.post(
                    src,
                    lambda: runtime.route_signal(
                        root.derive(topic="leg.arrive"), key="dest"
                    ),
                )
        assert [s.topic for s in delivered] == ["leg.arrive"]
        chain = recorder.chain_for(root.trace_id)
        by_seq = {r.seq: r for r in chain}
        arrival = delivered[0]
        # Walk parents from the forwarded copy back to the root.
        hops = []
        cursor = by_seq[arrival.seq]
        while cursor is not None:
            hops.append(cursor.topic)
            cursor = (
                by_seq[cursor.parent_seq]
                if cursor.parent_seq is not None else None
            )
        assert hops == ["leg.arrive", "leg.arrive", "leg.origin"]


class TestShardLifecycle:
    def test_shard_restart(self):
        shard = Shard(0, fabric_name="solo")
        shard.start()
        ran = []
        shard.post(lambda: ran.append(1))
        shard.stop()
        assert ran == [1]
        # Restart gets a fresh pump; stale sentinels must not wedge it.
        shard.start()
        shard.post(lambda: ran.append(2))
        shard.stop()
        assert ran == [1, 2]
        assert not fabric_threads() or all(
            "solo" not in t.name for t in fabric_threads()
        )

    def test_post_to_stopped_shard_rejected(self):
        shard = Shard(0)
        with pytest.raises(ShardedRuntimeError):
            shard.post(lambda: None)

    def test_call_propagates_exception_via_future(self):
        shard = Shard(0, inline=True)
        shard.start()

        def boom():
            raise RuntimeError("nope")

        future = shard.call(boom)
        shard.drain()
        with pytest.raises(RuntimeError, match="nope"):
            future.result(timeout=1)
        # Future-wrapped failures are not double-counted as task errors.
        assert shard.task_errors == []
