"""End-to-end cluster fabric: benches as tests + pool remote routing.

The bench functions in :mod:`repro.bench.cluster` raise on any
correctness violation (op_log divergence, unresolved futures, untyped
failures), so invoking them small *is* the integration test; the
PlatformPool class below exercises the local→remote routing seam the
benches do not touch.
"""

import pytest

from repro.bench.cluster import (
    cross_process_migration_bench,
    determinism_bench,
    fault_bench,
)


class TestClusterBenches:
    def test_cross_process_migration_all_domains(self):
        result = cross_process_migration_bench()
        assert result["all_identical"]
        assert len(result["domains"]) == 4
        for row in result["domains"]:
            assert row["op_log_identical"]
            assert row["pause_ms"] > 0

    def test_kill_a_worker_recovers_byte_identical(self):
        result = fault_bench(sessions=6)
        assert result["op_logs_identical"]
        assert result["unresolved_futures"] == 0
        assert result["untyped_failures"] == 0
        assert result["deaths"] == 1
        assert result["restarts"] == 1
        assert result["victim_sessions"] > 0

    def test_seeded_frame_order_determinism(self):
        result = determinism_bench(sessions=6, runs=2)
        assert result["op_logs_identical"]


class TestPoolRemoteRouting:
    """PlatformPool.submit_doc / migrate_to_worker over a ProcessCluster."""

    @pytest.fixture()
    def stack(self):
        from repro.domains.communication.cvm import build_cvm
        from repro.middleware.platform import PlatformPool
        from repro.runtime.cluster import ProcessCluster
        from repro.sim.network import CommService

        services = {}

        def factory(shard):
            service = CommService("net0", op_cost=0.0)
            platform = build_cvm(
                service=service, bus=shard.bus, clock=shard.clock,
                metrics=shard.metrics,
            )
            services[id(platform)] = service
            return platform

        def apply_doc(platform, key, doc):
            # Mirror RegistryBackend.apply's "api" op on the local side.
            return platform.broker.call_api(doc["api"], **doc.get("args", {}))

        pool = PlatformPool(factory, name="remote-pool", shards=2)
        pool.start()
        cluster = ProcessCluster(
            2, backend="repro.middleware.cluster:default_backend",
            name="pool-remote",
        ).start()
        pool.attach_cluster(cluster, apply=apply_doc)
        try:
            yield pool, cluster, services
        finally:
            pool.stop()
            cluster.stop()

    def _capture(self, services):
        from repro.middleware.cluster import platform_dsk_hash

        def capture(platform):
            service = services[id(platform)]
            return {
                "domain": "communication",
                "dsk_hash": platform_dsk_hash(platform),
                "snapshot": platform.checkpoint().to_dict(),
                "services": {service.name: service.export_state()},
            }

        return capture

    def test_session_continues_across_process_boundary(self, stack):
        pool, cluster, services = stack
        key = "conn-x"
        open_doc = {"api": "ncb.open_session", "args": {"connection": key}}
        party = {"api": "ncb.add_party",
                 "args": {"connection": key, "party": "alice"}}

        assert pool.remote_worker_for(key) is None
        assert pool.submit_doc(key, open_doc).result(30).ok
        assert pool.submit_doc(key, party).result(30).ok
        local_log = list(services[id(pool.platform_for(key))].op_log)
        assert local_log

        worker = 1 - cluster.worker_for(key)
        pool.migrate_to_worker(key, worker, capture=self._capture(services))
        assert pool.remote_worker_for(key) == worker
        assert cluster.worker_for(key) == worker

        # The migrated session keeps its history and keeps working.
        remote_log = cluster.describe(key)["op_logs"]["net0"]
        assert remote_log == local_log
        more = {"op": "api", "api": "ncb.add_party",
                "args": {"connection": key, "party": "bob"}}
        assert pool.submit_doc(key, more).result(30).unwrap()
        assert len(cluster.describe(key)["op_logs"]["net0"]) > len(local_log)

        # close_session releases remote routing and the worker session.
        pool.close_session(key)
        assert pool.remote_worker_for(key) is None

    def test_submit_doc_requires_attach(self):
        from repro.domains.communication.cvm import build_cvm
        from repro.middleware.platform import PlatformError, PlatformPool
        from repro.sim.network import CommService

        pool = PlatformPool(
            lambda shard: build_cvm(
                service=CommService("net0", op_cost=0.0), bus=shard.bus,
                clock=shard.clock, metrics=shard.metrics,
            ),
            name="detached-pool", shards=1, inline=True,
        )
        with pool:
            with pytest.raises(PlatformError, match="attach_cluster"):
                pool.submit_doc("k", {"api": "ncb.open_session"})


# -- how a cross-process move fails, on the shipped backend -------------------

BACKEND = "repro.middleware.cluster:default_backend"
OPEN_DOC = {"domain": "communication", "autonomic": False}
STEPS = [
    {"op": "api", "api": "ncb.open_session", "args": {"connection": "c1"}},
    {"op": "api", "api": "ncb.add_party",
     "args": {"connection": "c1", "party": "alice"}},
    {"op": "api", "api": "ncb.add_party",
     "args": {"connection": "c1", "party": "bob"}},
]


def _golden(steps):
    """op_logs of an unmoved session run in-process, as JSON bytes."""
    import json

    from repro.middleware.cluster import default_backend

    backend = default_backend()
    backend.open("golden", OPEN_DOC)
    for doc in steps:
        backend.apply("golden", doc)
    try:
        return json.dumps(backend.describe("golden")["op_logs"])
    finally:
        backend.close("golden")


def _op_logs(cluster, key):
    import json

    return json.dumps(cluster.describe(key, timeout=60)["op_logs"])


def _intercept_adopt(handle, before_reply):
    """Wrap ``handle.request``: on the ``adopt`` op, ``before_reply(
    frames)`` may replace the frames sent, and runs before the
    coordinator can read the reply."""
    request = handle.request

    def intercepted(op, session, doc=None, **extra):
        if op != "adopt":
            return request(op, session, doc, **extra)
        frames = before_reply(extra.pop("frames"))
        return request(op, session, doc, frames=frames, **extra)

    handle.request = intercepted


def _with_foreign_dsk_hash(frames):
    """The frames with the capture's DSK hash altered: the target's
    registry rebuilds a different hash and refuses the adoption."""
    import copy

    frames = copy.deepcopy(frames)
    frames[0]["snapshot"]["dsk_hash"] = "0" * 64
    return frames


class TestMoveFailures:
    """``ProcessCluster.migrate`` when the target does not take the
    session: the capture the source's ``drop`` returned is adopted back
    before the held work flushes."""

    @pytest.fixture(scope="class")
    def cluster(self):
        from repro.runtime.cluster import ProcessCluster

        with ProcessCluster(2, backend=BACKEND, name="move-fail") as cluster:
            cluster.start()
            yield cluster

    def _opened(self, cluster, key):
        cluster.open_session(key, OPEN_DOC).result(60).unwrap()
        for doc in STEPS[:2]:
            cluster.call(key, doc, timeout=60)
        return cluster.worker_for(key)

    def test_refused_move_keeps_the_session_live_on_its_source(
            self, cluster):
        from repro.runtime.cluster import RemoteWorkerError

        key = "refused"
        source = self._opened(cluster, key)
        before = _op_logs(cluster, key)
        target = cluster.handles[1 - source]
        held = []

        def refuse(frames):
            held.append(cluster.submit(key, STEPS[2]))  # lands in the hold
            return _with_foreign_dsk_hash(frames)

        _intercept_adopt(target, refuse)
        try:
            with pytest.raises(RemoteWorkerError, match="hash mismatch"):
                cluster.migrate(key, target.index, timeout=60)
        finally:
            del target.request
        assert before == _golden(STEPS[:2])
        assert held[0].result(60).ok
        assert cluster.worker_for(key) == source
        assert key in cluster.handles[source].sessions
        assert key not in target.sessions
        assert _op_logs(cluster, key) == _golden(STEPS)
        assert cluster.stats()["held"] == {"sessions": 0, "queued": 0}
        cluster.close_session(key)

    def test_a_target_already_hosting_the_key_refuses_the_move(
            self, cluster):
        from repro.runtime.cluster import ClusterError

        key = "twice"
        source = self._opened(cluster, key)
        target = cluster.handles[1 - source]
        # a stray copy on the target, opened past the router
        target.request("open", key, OPEN_DOC).result(60).unwrap()
        try:
            with pytest.raises(ClusterError, match="already hosts"):
                cluster.migrate(key, target.index, timeout=60)
            assert cluster.worker_for(key) == source
            assert key not in target.sessions
            cluster.call(key, STEPS[2], timeout=60)
            assert _op_logs(cluster, key) == _golden(STEPS)
        finally:
            target.request("close", key).result(60)
        cluster.close_session(key)

    def test_refused_move_with_its_source_dead_lands_on_a_survivor(self):
        from repro.runtime.cluster import ProcessCluster, RemoteWorkerError

        with ProcessCluster(3, backend=BACKEND, name="move-orphan",
                            restart=False) as cluster:
            cluster.start()
            key = "orphan"
            source = self._opened(cluster, key)
            target = cluster.handles[(source + 1) % 3]
            survivor = (source + 2) % 3

            def kill_source_then_refuse(frames):
                cluster.kill_worker(source)  # observed dead on return
                return _with_foreign_dsk_hash(frames)

            _intercept_adopt(target, kill_source_then_refuse)
            with pytest.raises(RemoteWorkerError, match="hash mismatch"):
                cluster.migrate(key, target.index, timeout=60)
            assert not cluster.handles[source].alive
            assert cluster.worker_for(key) == survivor
            assert key in cluster.handles[survivor].sessions
            cluster.call(key, STEPS[2], timeout=60)
            assert _op_logs(cluster, key) == _golden(STEPS)
