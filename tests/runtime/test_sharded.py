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


def keys_on_shard(index, *, shards, count, prefix="mig"):
    """Deterministic keys that CRC-hash to the given shard."""
    found, i = [], 0
    while len(found) < count:
        key = f"{prefix}-{i:04d}"
        if shard_index_for(key, shards) == index:
            found.append(key)
        i += 1
    return found


class TestMigration:
    def test_migrate_moves_state_and_repoints_route(self):
        runtime = ShardedRuntime(2, name="mig", inline=True)
        runtime.start()
        try:
            key = "session-x"
            source = runtime.shard_for(key).index
            target = 1 - source
            state = {"counter": 3}
            landed = {}

            result = runtime.migrate(
                key, target,
                capture=lambda: dict(state),
                restore=lambda snap: landed.update(snap) or "ok",
            )
            assert result == "ok"
            assert landed == state
            assert runtime.shard_for(key).index == target
            assert runtime.router.overrides() == {key: target}
            assert runtime.stats()["migrations"] == 1
            assert runtime.stats()["route_overrides"] == 1
        finally:
            runtime.stop()

    def test_migrate_to_home_shard_is_a_noop(self):
        runtime = ShardedRuntime(2, name="mig-noop", inline=True)
        runtime.start()
        try:
            key = "session-x"
            home = runtime.shard_for(key).index
            result = runtime.migrate(
                key, home,
                capture=lambda: {},
                restore=lambda snap: "moved",
            )
            assert result is None
            assert runtime.router.overrides() == {}
            assert runtime.stats()["migrations"] == 0
        finally:
            runtime.stop()

    def test_migrate_requires_started_fabric_and_valid_shard(self):
        runtime = ShardedRuntime(2, name="mig-err", inline=True)
        with pytest.raises(ShardedRuntimeError, match="not started"):
            runtime.migrate("k", 1, capture=dict, restore=lambda s: s)
        runtime.start()
        try:
            with pytest.raises(ShardedRuntimeError, match="no shard"):
                runtime.migrate("k", 9, capture=dict, restore=lambda s: s)
        finally:
            runtime.stop()

    def test_capture_and_restore_run_on_their_shard_threads(self):
        runtime = ShardedRuntime(2, name="mig-threads")
        runtime.start()
        try:
            key = "session-x"
            source = runtime.shard_for(key).index
            target = 1 - source
            seen = {}

            def capture():
                seen["capture"] = current_shard().index
                return {}

            def restore(_snap):
                seen["restore"] = current_shard().index
                return True

            runtime.migrate(key, target, capture=capture, restore=restore)
            assert seen == {"capture": source, "restore": target}
        finally:
            runtime.stop()

    def test_capture_is_fifo_ordered_behind_pending_work(self):
        # The capture is the quiesce point: every task posted before the
        # migration must be visible in the captured state.
        runtime = ShardedRuntime(2, name="mig-fifo")
        runtime.start()
        try:
            key = "session-x"
            target = 1 - runtime.shard_for(key).index
            state = {"count": 0}
            for _ in range(50):
                runtime.post(key, lambda: state.update(
                    count=state["count"] + 1
                ))
            captured = runtime.migrate(
                key, target,
                capture=lambda: dict(state),
                restore=lambda snap: snap,
            )
            assert captured == {"count": 50}
        finally:
            runtime.stop()

    def test_post_after_migration_lands_on_target(self):
        runtime = ShardedRuntime(2, name="mig-post")
        runtime.start()
        try:
            key = "session-x"
            target = 1 - runtime.shard_for(key).index
            runtime.migrate(
                key, target, capture=dict, restore=lambda s: s
            )
            where = []
            runtime.post(key, lambda: where.append(current_shard().index))
            runtime.shards[target].call(lambda: None).result(timeout=5)
            assert where == [target]
        finally:
            runtime.stop()


    def test_failed_restore_keeps_the_session_on_its_source(self):
        # Regression: the route used to stay re-pointed at a target
        # whose restore raised, stranding the session on its source.
        runtime = ShardedRuntime(2, name="mig-fail", inline=True)
        runtime.start()
        try:
            key = "session-x"
            home = runtime.shard_for(key).index
            away = 1 - home

            def restore(snapshot):
                if snapshot.get("fail_restore"):
                    raise RuntimeError("restore refused")
                return True

            with pytest.raises(RuntimeError, match="restore refused"):
                runtime.migrate(key, away, restore=restore,
                                capture=lambda: {"fail_restore": True})
            assert runtime.router.overrides() == {}
            assert runtime.stats()["migrations"] == 0
            where = []
            runtime.post(key, lambda: where.append(current_shard().index))
            runtime.drain()
            assert where == [home]

            # a failed move back home keeps the existing override too
            runtime.migrate(key, away, capture=dict, restore=restore)
            with pytest.raises(RuntimeError, match="restore refused"):
                runtime.migrate(key, home, restore=restore,
                                capture=lambda: {"fail_restore": True})
            assert runtime.router.overrides() == {key: away}
            assert runtime.stats()["migrations"] == 1
        finally:
            runtime.stop()


class TestRoutePruning:
    """Regression: the migration route-override table must stay bounded
    (it used to grow one entry per migrated session, forever)."""

    def test_migrate_back_home_prunes_the_override(self):
        runtime = ShardedRuntime(2, name="prune", inline=True)
        runtime.start()
        try:
            key = "session-x"
            home = runtime.shard_for(key).index
            away = 1 - home
            runtime.migrate(key, away, capture=dict, restore=lambda s: s)
            assert runtime.router.overrides() == {key: away}
            # Migrating back to the affinity shard must *remove* the
            # entry, not overwrite it with the affinity index.
            runtime.migrate(key, home, capture=dict, restore=lambda s: s)
            assert runtime.router.overrides() == {}
            assert runtime.stats()["route_overrides"] == 0
            assert runtime.shard_for(key).index == home
        finally:
            runtime.stop()

    def test_release_drops_override_for_closed_session(self):
        runtime = ShardedRuntime(2, name="prune-close", inline=True)
        runtime.start()
        try:
            key = "session-x"
            away = 1 - runtime.shard_for(key).index
            runtime.migrate(key, away, capture=dict, restore=lambda s: s)
            assert runtime.router.forget(key) is True
            assert runtime.router.overrides() == {}
            # Routing falls back to CRC affinity after release.
            assert runtime.shard_for(key).index == 1 - away
            # Idempotent, and safe for never-migrated keys.
            assert runtime.router.forget(key) is False
            assert runtime.router.forget("never-migrated") is False
        finally:
            runtime.stop()

    def test_churn_does_not_grow_the_table(self):
        runtime = ShardedRuntime(4, name="prune-churn", inline=True)
        runtime.start()
        try:
            for i in range(64):
                key = f"churn-{i:03d}"
                home = runtime.shard_for(key).index
                away = (home + 1) % 4
                runtime.migrate(key, away, capture=dict, restore=lambda s: s)
                if i % 2:
                    runtime.migrate(
                        key, home, capture=dict, restore=lambda s: s
                    )  # migrated back home
                else:
                    runtime.router.forget(key)  # closed
            assert runtime.router.overrides() == {}
        finally:
            runtime.stop()


class TestShardRebalancer:
    def test_threshold_validated(self):
        from repro.runtime.sharded import ShardRebalancer

        runtime = ShardedRuntime(2, inline=True)
        with pytest.raises(ShardedRuntimeError, match="threshold"):
            ShardRebalancer(runtime, imbalance_threshold=0.5)

    def test_balanced_fabric_plans_no_moves(self):
        from repro.runtime.sharded import ShardRebalancer

        runtime = ShardedRuntime(2, inline=True)
        rebalancer = ShardRebalancer(runtime)
        costs = {}
        for index in (0, 1):
            for key in keys_on_shard(index, shards=2, count=3):
                costs[key] = 1.0
        assert rebalancer.plan(costs) == []

    def test_plan_spreads_packed_shard(self):
        from repro.runtime.sharded import ShardRebalancer

        runtime = ShardedRuntime(2, inline=True)
        rebalancer = ShardRebalancer(runtime)
        costs = {key: 1.0 for key in keys_on_shard(0, shards=2, count=6)}
        moves = rebalancer.plan(costs)
        assert moves  # the packed shard sheds sessions
        assert all(to_shard == 1 for _key, to_shard in moves)
        # moving half evens a uniform-cost fabric
        assert len(moves) == 3
        # deterministic: same inputs, same plan
        assert rebalancer.plan(dict(costs)) == moves

    def test_plan_is_threshold_gated(self):
        from repro.runtime.sharded import ShardRebalancer

        runtime = ShardedRuntime(2, inline=True)
        rebalancer = ShardRebalancer(runtime, imbalance_threshold=10.0)
        costs = {key: 1.0 for key in keys_on_shard(0, shards=2, count=4)}
        costs.update(
            {key: 1.0 for key in keys_on_shard(1, shards=2, count=1)}
        )
        # 4:1 imbalance is under the (lax) 10x threshold: nothing moves.
        assert rebalancer.plan(costs) == []

    def test_plan_avoids_overshooting_moves(self):
        from repro.runtime.sharded import ShardRebalancer

        runtime = ShardedRuntime(2, inline=True)
        rebalancer = ShardRebalancer(runtime)
        k1, k2 = keys_on_shard(0, shards=2, count=2)
        (k3,) = keys_on_shard(1, shards=2, count=1)
        # Loads 110 vs 60 (spread 50): moving the giant (100) would just
        # flip the imbalance, so the plan falls back to the small session.
        moves = rebalancer.plan({k1: 100.0, k2: 10.0, k3: 60.0})
        assert (k1, 1) not in moves
        assert (k2, 1) in moves

    def test_shard_loads_and_imbalance(self):
        from repro.runtime.sharded import ShardRebalancer

        runtime = ShardedRuntime(2, name="rb-loads", inline=True)
        runtime.start()
        try:
            rebalancer = ShardRebalancer(runtime)
            for key in keys_on_shard(0, shards=2, count=4):
                runtime.post(key, lambda: None)
            runtime.drain()
            loads = rebalancer.shard_loads()
            assert loads[0] >= 4
            assert rebalancer.imbalance(loads) >= 4.0
            assert rebalancer.imbalance([]) == 1.0
        finally:
            runtime.stop()

    def test_apply_migrates_planned_sessions(self):
        from repro.runtime.sharded import ShardRebalancer

        runtime = ShardedRuntime(2, name="rb-apply", inline=True)
        runtime.start()
        try:
            keys = keys_on_shard(0, shards=2, count=4)
            sessions = {key: {"home": 0} for key in keys}

            def capture(key):
                return dict(sessions[key])

            def restore(key, snap):
                sessions[key] = dict(snap, home=current_shard().index)
                return True

            rebalancer = ShardRebalancer(
                runtime, capture=capture, restore=restore
            )
            moves = rebalancer.plan({key: 1.0 for key in keys})
            assert moves
            applied = rebalancer.apply(moves)
            assert applied == len(moves)
            assert rebalancer.moves_applied == len(moves)
            for key, to_shard in moves:
                assert sessions[key]["home"] == to_shard
                assert runtime.shard_for(key).index == to_shard
        finally:
            runtime.stop()

    def test_apply_without_hooks_is_refused(self):
        from repro.runtime.sharded import ShardRebalancer

        runtime = ShardedRuntime(2, name="rb-nohooks", inline=True)
        runtime.start()
        try:
            rebalancer = ShardRebalancer(runtime)
            keys = keys_on_shard(0, shards=2, count=4)
            moves = rebalancer.plan({key: 1.0 for key in keys})
            assert moves
            with pytest.raises(ShardedRuntimeError, match="hooks"):
                rebalancer.apply(moves)
            assert rebalancer.moves_applied == 0
            assert runtime.router.overrides() == {}
        finally:
            runtime.stop()
