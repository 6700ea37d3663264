"""Load-driven rebalance trigger."""

import pytest

from repro.runtime.clock import VirtualClock
from repro.runtime.sharded import (
    RebalanceTrigger,
    ShardedRuntime,
    ShardedRuntimeError,
    ShardRebalancer,
)


def _skewed_runtime(sessions):
    """A 2-shard runtime with every session homed (and hot) on shard 0."""
    runtime = ShardedRuntime(2, name="trigger-test")
    runtime.start()
    hot = runtime.shards[0]
    for _ in range(50):
        hot.metrics.observe("broker.call", "step", 0.01)
    return runtime


class _StubRebalancer:
    """Records plan/apply calls; configurable plan output."""

    def __init__(self, moves):
        self.moves = moves
        self.plans = []
        self.applies = []

    def plan_from_metrics(self, sessions, *, queue_weight):
        self.plans.append((list(sessions), queue_weight))
        return list(self.moves)

    def apply(self, moves, *, timeout):
        self.applies.append(list(moves))
        return len(moves)


class TestRebalanceTrigger:
    def _trigger(self, stub, clock, **kwargs):
        return RebalanceTrigger(
            stub,
            sessions=lambda: ["a", "b"],
            clock=clock,
            interval=1.0,
            **kwargs,
        )

    def test_tick_plans_and_applies(self):
        stub = _StubRebalancer([("a", 1)])
        trigger = self._trigger(stub, VirtualClock())
        moves = trigger.tick()
        assert moves == [("a", 1)]
        assert stub.plans[0][0] == ["a", "b"]
        assert stub.applies == [[("a", 1)]]
        assert trigger.moves_applied == 1

    def test_min_moves_suppresses_small_plans(self):
        stub = _StubRebalancer([("a", 1)])
        trigger = self._trigger(stub, VirtualClock(), min_moves=2)
        assert trigger.tick() == []
        assert stub.applies == []  # plan below min_moves: nothing migrates

    def test_virtual_clock_self_schedules(self):
        clock = VirtualClock()
        stub = _StubRebalancer([])
        trigger = self._trigger(stub, clock).start()
        assert trigger.ticks == 0
        clock.advance(1.0)
        assert trigger.ticks == 1
        clock.advance(3.0)
        assert trigger.ticks == 4  # re-armed after every fire
        trigger.stop()
        clock.advance(5.0)
        assert trigger.ticks == 4  # epoch fence: stale timers are no-ops

    def test_restart_bumps_epoch(self):
        clock = VirtualClock()
        stub = _StubRebalancer([])
        trigger = self._trigger(stub, clock).start()
        trigger.stop()
        trigger.start()
        clock.advance(1.0)
        assert trigger.ticks == 1  # exactly one live timer chain
        trigger.stop()

    def test_tick_errors_do_not_kill_schedule(self):
        clock = VirtualClock()

        class Exploding(_StubRebalancer):
            def plan_from_metrics(self, sessions, *, queue_weight):
                raise RuntimeError("boom")

        trigger = self._trigger(Exploding([]), clock).start()
        clock.advance(2.0)
        assert trigger.errors == 2
        assert isinstance(trigger.last_error, RuntimeError)
        clock.advance(1.0)
        assert trigger.errors == 3  # still firing
        trigger.stop()

    def test_interval_validated(self):
        with pytest.raises(ShardedRuntimeError, match="interval"):
            RebalanceTrigger(
                _StubRebalancer([]), sessions=list, clock=VirtualClock(),
                interval=0,
            )

    def test_live_metrics_plan_spreads_hot_shard(self):
        runtime = _skewed_runtime([])
        try:
            keys = []
            index = 0
            while len(keys) < 4:
                key = f"k-{index:03d}"
                if runtime.shard_for(key).index == 0:
                    keys.append(key)
                index += 1
            state = {}
            trigger = RebalanceTrigger(
                ShardRebalancer(
                    runtime,
                    capture=lambda key: state.setdefault(key, {"key": key}),
                    restore=lambda key, snapshot: True,
                ),
                sessions=lambda: keys,
                clock=VirtualClock(),
            )
            moves = trigger.tick()
            assert moves  # hot shard 0 sheds sessions to idle shard 1
            assert all(target == 1 for _key, target in moves)
            for key, target in moves:
                assert runtime.shard_for(key).index == target
        finally:
            runtime.stop()


class TestPoolRebalancer:
    def test_pool_builds_started_trigger_and_stops_it(self):
        from repro.domains.communication.cvm import build_cvm
        from repro.middleware.platform import PlatformPool
        from repro.sim.network import CommService

        clock = VirtualClock()
        pool = PlatformPool(
            lambda shard: build_cvm(
                service=CommService("net0", op_cost=0.0), bus=shard.bus,
                clock=shard.clock, metrics=shard.metrics,
            ),
            name="rebalance-pool", shards=2,
        )
        pool.start()
        try:
            trigger = pool.build_rebalancer(
                sessions=lambda: [], capture=lambda key: None,
                restore=lambda key, snapshot: None, clock=clock,
            )
            assert trigger.running
            assert trigger.rebalancer.runtime is pool.runtime
            clock.advance(1.0)
            assert trigger.ticks == 1
        finally:
            pool.stop()
        assert not trigger.running  # pool.stop() fences the timer
        clock.advance(5.0)
        assert trigger.ticks == 1
