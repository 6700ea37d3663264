"""The one session-transfer protocol under live traffic.

Every move runs :meth:`SessionRouter.transfer` inside the fabric that
opened the session — shard to shard in a pool, worker to worker in a
cluster: hold → capture → restore → re-point → release → flush.  A
producer that races the move is stood in for by a step submitted from
inside ``capture`` (or ``restore``): the session must still see every
step exactly once, in order, wherever it lives.
"""

import threading
import time

import pytest

from repro.middleware.platform import PlatformPool
from repro.runtime.cluster import ProcessCluster, RemoteWorkerError
from repro.runtime.sharded import (
    ShardedRuntime,
    ShardedRuntimeError,
    current_shard,
)

ECHO_SPEC = "tests.runtime.test_cluster:echo_backend"
KEY = "session-x"


@pytest.fixture(scope="module")
def cluster():
    with ProcessCluster(2, backend=ECHO_SPEC, name="transfer") as c:
        c.start()
        yield c


# -- thread fabric ------------------------------------------------------------


class ShardSessions:
    """Per-shard session state for a bare ShardedRuntime.  A step that
    runs on a shard not hosting the session is a stray: lost work."""

    def __init__(self, runtime):
        self.runtime = runtime
        self.state = [{} for _ in runtime.shards]
        self.strays = []

    def step(self, n):
        ops = self.state[current_shard().index].get(KEY)
        if ops is None:
            self.strays.append(n)
        else:
            ops.append(n)

    def submit(self, n):
        return self.runtime.submit(KEY, self.step, n)


class TestThreadFabricHold:
    def test_step_submitted_during_capture_reaches_the_target(self):
        runtime = ShardedRuntime(2, name="hold", inline=True).start()
        fabric = ShardSessions(runtime)
        source = runtime.shard_for(KEY).index
        target = 1 - source
        try:
            fabric.state[source][KEY] = []
            futures = [fabric.submit(1)]

            def capture():
                futures.append(fabric.submit(2))  # a racing producer
                return fabric.state[current_shard().index].pop(KEY)

            def restore(ops):
                fabric.state[current_shard().index][KEY] = ops

            runtime.migrate(KEY, target, capture=capture, restore=restore)
            futures.append(fabric.submit(3))
            runtime.drain()
            for future in futures:
                future.result(timeout=5)
            assert fabric.state[target][KEY] == [1, 2, 3]
            assert fabric.strays == []
        finally:
            runtime.stop()

    def test_pool_op_log_matches_the_unmigrated_golden(self):
        golden = run_cvm_session("golden", submit_doc, migrate=False)
        assert len(golden) >= 5
        assert run_cvm_session("moved", submit_doc, migrate=True) == golden

    def test_ingress_step_pumped_during_capture_reaches_the_target(self):
        """Ingress hands batches to shard mailboxes itself; a step it
        pumps while the session is held must still wait for the flush
        and run on the new owner."""
        golden = run_cvm_session("ingress-golden", ingress_step,
                                 migrate=False)
        assert run_cvm_session("ingress-moved", ingress_step,
                               migrate=True) == golden


def submit_doc(pool, doc):
    return pool.submit_doc(KEY, doc)


def ingress_step(pool, doc):
    if not pool._ingress_tiers:
        pool.build_ingress(watch_breakers=False)
    tier = pool._ingress_tiers[0]
    future = tier.submit(
        KEY, lambda platform: platform.broker.call_api(doc["api"], **doc["args"]))
    tier.pump()
    return future


def run_cvm_session(name, submit, *, migrate):
    """Five CVM steps on an inline pool, the third submitted by a racing
    producer from inside ``capture`` when ``migrate`` moves the session
    between shards; returns the owning service's op_log."""
    from repro.middleware.snapshot import SessionSnapshot

    def steps():
        yield {"api": "ncb.open_session", "args": {"connection": KEY}}
        for party in ("alice", "bob", "carol", "dave"):
            yield {"api": "ncb.add_party",
                   "args": {"connection": KEY, "party": party}}

    pool, services = cvm_pool(name)
    with pool:
        docs = steps()
        futures = [submit(pool, next(docs)), submit(pool, next(docs))]
        source = pool.shard_for(KEY).index
        if migrate:
            def capture():
                # a racing producer's step lands mid-move
                futures.append(submit(pool, next(docs)))
                index = current_shard().index
                return {
                    "snapshot": pool.platforms[index].checkpoint().to_dict(),
                    "service": services[index].export_state(),
                }

            def restore(doc):
                index = current_shard().index
                pool.platforms[index].restore_from(
                    SessionSnapshot.from_dict(doc["snapshot"]))
                services[index].import_state(doc["service"])

            pool.runtime.migrate(KEY, 1 - source, capture=capture,
                                 restore=restore)
        futures.extend(submit(pool, doc) for doc in docs)
        pool.drain()
        assert all(f.result(timeout=5).ok for f in futures)
        owner = pool.shard_for(KEY).index
        assert owner == (1 - source if migrate else source)
        return list(services[owner].op_log)


def cvm_pool(name):
    from repro.domains.communication.cvm import build_cvm
    from repro.sim.network import CommService

    services = {}

    def factory(shard):
        services[shard.index] = CommService("net0", op_cost=0.0)
        return build_cvm(service=services[shard.index], bus=shard.bus,
                         clock=shard.clock, metrics=shard.metrics)

    pool = PlatformPool(factory, shards=2, name=name, inline=True)
    pool.attach_cluster(None, apply=lambda platform, key, doc:
                        platform.broker.call_api(doc["api"], **doc["args"]))
    return pool, services


# -- worker moves -------------------------------------------------------------


class TestWorkerMoveHold:
    def test_racing_producer_across_repeated_worker_moves(self, cluster):
        key = "w-race"
        cluster.open_session(key, {}).result(30).unwrap()
        steps = 300
        futures = []

        def produce():
            for n in range(steps):
                futures.append(cluster.submit(key, {"add": n}))
                if n % 10 == 0:
                    time.sleep(0.001)  # spread the steps across moves

        producer = threading.Thread(target=produce)
        producer.start()
        moves = 0
        while producer.is_alive() or moves < 2:
            cluster.migrate(key, 1 - cluster.worker_for(key))
            moves += 1
        producer.join(30)
        assert all(f.result(30).ok for f in futures)
        assert cluster.describe(key)["ops"] == list(range(steps))
        assert cluster.stats()["held"] == {"sessions": 0, "queued": 0}
        cluster.close_session(key)


# -- a refused restore flushes the held work back to the source ---------------


def _fail_restore_threads():
    runtime = ShardedRuntime(2, name="refused", inline=True).start()
    fabric = ShardSessions(runtime)
    source = runtime.shard_for(KEY).index
    try:
        fabric.state[source][KEY] = []
        futures = [fabric.submit(1)]

        def capture():
            futures.append(fabric.submit(2))
            return list(fabric.state[current_shard().index][KEY])

        def restore(_ops):
            futures.append(fabric.submit(3))
            raise RuntimeError("restore refused")

        with pytest.raises(RuntimeError, match="restore refused"):
            runtime.migrate(KEY, 1 - source, capture=capture,
                            restore=restore)
        futures.append(fabric.submit(4))
        runtime.drain()
        for future in futures:
            future.result(timeout=5)
        assert runtime.shard_for(KEY).index == source
        assert fabric.strays == []
        return fabric.state[source][KEY], runtime.stats()
    finally:
        runtime.stop()


def _fail_restore_workers(cluster):
    key = "w-refused"
    source = cluster.worker_for(key)
    cluster.open_session(key, {"refuse_on": 1 - source}).result(30).unwrap()
    futures = [cluster.submit(key, {"add": 1})]
    target = cluster.handles[1 - source]
    request = target.request

    def injecting(op, session, doc=None, **extra):
        if op == "adopt":
            futures.append(cluster.submit(key, {"add": 2}))
            futures.append(cluster.submit(key, {"add": 3}))
        return request(op, session, doc, **extra)

    target.request = injecting
    try:
        with pytest.raises(RemoteWorkerError, match="adopt refused"):
            cluster.migrate(key, target.index)
    finally:
        del target.request
    futures.append(cluster.submit(key, {"add": 4}))
    assert all(f.result(30).ok for f in futures)
    assert cluster.worker_for(key) == source
    ops = cluster.describe(key)["ops"]
    stats = cluster.stats()
    cluster.close_session(key)
    return ops, stats


@pytest.mark.parametrize("fabric", ["threads", "workers"])
def test_failed_restore_flushes_held_work_to_the_source(fabric, request):
    if fabric == "threads":
        ops, stats = _fail_restore_threads()
    else:
        ops, stats = _fail_restore_workers(request.getfixturevalue("cluster"))
    assert ops == [1, 2, 3, 4]
    assert stats["held"] == {"sessions": 0, "queued": 0}


# -- the router's instruments -------------------------------------------------


class TestRouterStats:
    def test_held_gauge_and_migrations_counter_on_threads(self):
        runtime = ShardedRuntime(2, name="gauge", inline=True).start()
        fabric = ShardSessions(runtime)
        source = runtime.shard_for(KEY).index
        seen = {}
        try:
            fabric.state[source][KEY] = []

            def capture():
                fabric.submit(1)
                fabric.submit(2)
                seen["held"] = runtime.stats()["held"]
                return fabric.state[current_shard().index].pop(KEY)

            def restore(ops):
                fabric.state[current_shard().index][KEY] = ops

            assert runtime.stats()["migrations"] == 0
            runtime.migrate(KEY, 1 - source, capture=capture,
                            restore=restore)
            assert seen["held"] == {"sessions": 1, "queued": 2}
            stats = runtime.stats()
            assert stats["held"] == {"sessions": 0, "queued": 0}
            assert stats["migrations"] == 1
            assert stats["route_overrides"] == 1
        finally:
            runtime.stop()

    def test_cluster_reports_the_same_instruments(self, cluster):
        key = "w-stats"
        cluster.open_session(key, {}).result(30).unwrap()
        before = cluster.stats()["migrations"]
        target = cluster.handles[1 - cluster.worker_for(key)]
        request = target.request
        seen = {}

        def observing(op, session, doc=None, **extra):
            if op == "adopt":
                cluster.submit(key, {"add": 5})
                seen["held"] = cluster.stats()["held"]
            return request(op, session, doc, **extra)

        target.request = observing
        try:
            cluster.migrate(key, target.index)
        finally:
            del target.request
        assert seen["held"] == {"sessions": 1, "queued": 1}
        stats = cluster.stats()
        assert stats["migrations"] == before + 1
        assert stats["held"] == {"sessions": 0, "queued": 0}
        assert cluster.describe(key)["ops"] == [5]
        cluster.close_session(key)

    def test_a_second_move_of_a_held_key_is_refused(self):
        runtime = ShardedRuntime(2, name="twice", inline=True).start()
        source = runtime.shard_for(KEY).index
        try:
            def capture():
                with pytest.raises(ShardedRuntimeError, match="in progress"):
                    runtime.migrate(KEY, 1 - source, capture=dict,
                                    restore=lambda s: s)
                return {}

            runtime.migrate(KEY, 1 - source, capture=capture,
                            restore=lambda s: s)
            assert runtime.shard_for(KEY).index == 1 - source
        finally:
            runtime.stop()
