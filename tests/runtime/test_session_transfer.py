"""The one session-transfer protocol.

Sessions move only between worker processes: a move runs
:meth:`SessionRouter.transfer` — hold → capture → restore → re-point →
release → flush.  The router's contract is checked here over stub
owners, with no threads or processes; the cluster cases run it under
live traffic.  A producer that races the move is stood in for by a step
submitted from inside ``capture`` (or ``restore``): the session must
still see every step exactly once, in order, wherever it lives.
"""

import threading
import time
from concurrent.futures import Future

import pytest

from repro.runtime.cluster import (
    ClusterError,
    ProcessCluster,
    RemoteWorkerError,
    SessionRouter,
)
from repro.runtime.sharded import shard_index_for

ECHO_SPEC = "tests.runtime.test_cluster:echo_backend"
KEY = "session-x"


@pytest.fixture(scope="module")
def cluster():
    with ProcessCluster(2, backend=ECHO_SPEC, name="transfer") as c:
        c.start()
        yield c


# -- the router over stub owners ----------------------------------------------


class Owner:
    """A stand-in owner: an ``index``, a ``lock``, and the FIFO that
    submissions sent to it land in."""

    def __init__(self, index):
        self.index = index
        self.lock = threading.Lock()
        self.fifo = []

    def send(self, step):
        self.fifo.append(step)
        future = Future()
        future.set_result(step)
        return future


def make_router(owners=2):
    router = SessionRouter([Owner(i) for i in range(owners)])
    home = router.owners[shard_index_for(KEY, owners)]
    away = router.owners[(home.index + 1) % owners]
    return router, home, away


def submit(router, key, step):
    return router.dispatch(key, lambda owner: owner.send(step))


def keep(owner, snapshot):
    return snapshot


def no_release(source, target):
    return None


class TestSessionRouter:
    def test_submission_during_capture_reaches_the_target_in_order(self):
        router, home, away = make_router()
        futures = [submit(router, KEY, 1)]

        def capture(source):
            assert source is home
            futures.append(submit(router, KEY, 2))  # racing producers
            futures.append(submit(router, KEY, 3))
            assert away.fifo == []  # held, not sent
            return "snapshot"

        assert router.transfer(KEY, away, capture=capture, restore=keep,
                               release=no_release) == "snapshot"
        futures.append(submit(router, KEY, 4))
        assert [f.result(timeout=0) for f in futures] == [1, 2, 3, 4]
        assert home.fifo == [1]
        assert away.fifo == [2, 3, 4]

    def test_failed_restore_flushes_held_work_to_the_source(self):
        router, home, away = make_router()
        futures = [submit(router, KEY, 1)]

        def capture(_source):
            futures.append(submit(router, KEY, 2))
            return "snapshot"

        def restore(_target, _snapshot):
            futures.append(submit(router, KEY, 3))
            raise RuntimeError("restore refused")

        with pytest.raises(RuntimeError, match="restore refused"):
            router.transfer(KEY, away, capture=capture, restore=restore,
                            release=no_release)
        futures.append(submit(router, KEY, 4))
        assert [f.result(timeout=0) for f in futures] == [1, 2, 3, 4]
        assert router.owner(KEY) is home
        assert home.fifo == [1, 2, 3, 4]
        assert away.fifo == []
        assert router.stats() == {"migrations": 0,
                                  "held": {"sessions": 0, "queued": 0},
                                  "route_overrides": 0}

    def test_a_second_move_of_a_held_key_is_refused(self):
        router, home, away = make_router()

        def capture(_source):
            with pytest.raises(ClusterError, match="in progress"):
                router.transfer(KEY, away, capture=capture, restore=keep,
                                release=no_release)
            return {}

        router.transfer(KEY, away, capture=capture, restore=keep,
                        release=no_release)
        assert router.owner(KEY) is away
        assert router.stats()["migrations"] == 1

    def test_a_move_to_the_current_owner_is_a_noop(self):
        router, home, _away = make_router()

        def capture(_source):
            raise AssertionError("nothing to capture")

        assert router.transfer(KEY, home, capture=capture, restore=keep,
                               release=no_release) is None
        assert router.stats()["migrations"] == 0


class TestRoutePruning:
    """The route-override table stays bounded: it holds only keys that
    live away from their affinity owner."""

    def test_pointing_a_key_home_drops_its_override(self):
        router, home, away = make_router()
        router.point(KEY, away)
        assert router.owner(KEY) is away
        assert router.stats()["route_overrides"] == 1
        router.point(KEY, home)
        assert router.owner(KEY) is home
        assert router.stats()["route_overrides"] == 0

    def test_forget_drops_the_override(self):
        router, home, away = make_router()
        router.point(KEY, away)
        assert router.forget(KEY) is True
        assert router.owner(KEY) is home
        assert router.stats()["route_overrides"] == 0
        # idempotent, and safe for keys that never moved
        assert router.forget(KEY) is False
        assert router.forget("never-moved") is False

    def test_churn_does_not_grow_the_table(self):
        router = SessionRouter([Owner(i) for i in range(4)])
        for i in range(64):
            key = f"churn-{i:03d}"
            home = router.owner(key)
            away = router.owners[(home.index + 1) % 4]
            router.transfer(key, away, capture=lambda _s: {}, restore=keep,
                            release=no_release)
            if i % 2:
                router.transfer(key, home, capture=lambda _s: {},
                                restore=keep, release=no_release)
            else:
                router.forget(key)  # closed
        assert router.stats()["route_overrides"] == 0
        assert router.stats()["migrations"] == 96


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



# -- a refused adopt flushes the held work back to the source -----------------


def test_failed_restore_flushes_held_work_to_the_source(cluster):
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
    assert cluster.describe(key)["ops"] == [1, 2, 3, 4]
    assert cluster.stats()["held"] == {"sessions": 0, "queued": 0}
    cluster.close_session(key)


# -- the router's instruments -------------------------------------------------


class TestRouterStats:
    def test_held_gauge_and_migrations_counter_on_stub_owners(self):
        router, _home, away = make_router()
        seen = {}

        def capture(_source):
            submit(router, KEY, 1)
            submit(router, KEY, 2)
            seen["held"] = router.stats()["held"]
            return "snapshot"

        assert router.stats()["migrations"] == 0
        router.transfer(KEY, away, capture=capture, restore=keep,
                        release=no_release)
        assert seen["held"] == {"sessions": 1, "queued": 2}
        assert router.stats() == {"migrations": 1,
                                  "held": {"sessions": 0, "queued": 0},
                                  "route_overrides": 1}

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
