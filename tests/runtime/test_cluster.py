"""Multi-process session fabric: frames, workers, migration, faults."""

import queue
import struct
import threading
import time

import pytest

from repro.runtime.cluster import (
    ClusterFabric,
    ProcessCluster,
    RemoteWorkerError,
)
from repro.runtime.faults import InvocationOutcome
from repro.runtime.ingress import AdmissionPolicy, IngressRejected, ShedReason
from repro.runtime.wal import (
    FRAME_HEADER_SIZE,
    WalError,
    decode_frame_header,
    decode_frame_payload,
    encode_frame_doc,
)

#: backend spec every cluster in this file uses (see bottom of file).
ECHO_SPEC = "tests.runtime.test_cluster:echo_backend"


# -- frame helpers -----------------------------------------------------------


class TestFrameProtocol:
    def test_roundtrip(self):
        doc = {"k": "req", "id": 7, "op": "call", "doc": {"x": [1, 2, 3]}}
        frame = encode_frame_doc(doc)
        length, crc = decode_frame_header(frame[:FRAME_HEADER_SIZE])
        payload = frame[FRAME_HEADER_SIZE:]
        assert len(payload) == length
        assert decode_frame_payload(payload, crc) == doc

    def test_crc_corruption_detected(self):
        frame = encode_frame_doc({"a": 1})
        length, crc = decode_frame_header(frame[:FRAME_HEADER_SIZE])
        payload = bytearray(frame[FRAME_HEADER_SIZE:])
        payload[0] ^= 0xFF
        with pytest.raises(WalError, match="CRC"):
            decode_frame_payload(bytes(payload), crc)

    def test_short_header_rejected(self):
        with pytest.raises(WalError):
            decode_frame_header(b"\x00\x01")

    def test_header_layout_matches_wal(self):
        frame = encode_frame_doc({"a": 1})
        length, _crc = struct.unpack(">II", frame[:FRAME_HEADER_SIZE])
        assert length == len(frame) - FRAME_HEADER_SIZE


# -- cluster lifecycle over a real spawn-context worker ----------------------


@pytest.fixture(scope="module")
def cluster():
    with ProcessCluster(2, backend=ECHO_SPEC, name="test-cluster") as c:
        c.start()
        yield c


class TestProcessCluster:
    def test_open_call_describe_close(self, cluster):
        assert cluster.open_session("s-basic", {"tag": "t"}).result(30).ok
        outcome = cluster.submit("s-basic", {"add": 5}).result(30)
        assert outcome.ok and outcome.value == {"total": 5}
        assert cluster.call("s-basic", {"add": 2}) == {"total": 7}
        assert cluster.describe("s-basic")["ops"] == [5, 2]
        assert cluster.close_session("s-basic").ok

    def test_workload_error_is_typed_not_fatal(self, cluster):
        cluster.open_session("s-err", {}).result(30).unwrap()
        outcome = cluster.submit("s-err", {"boom": True}).result(30)
        assert outcome.status == InvocationOutcome.FAILED
        assert "deliberate" in str(outcome.error)
        # The worker survived the workload exception.
        assert cluster.call("s-err", {"add": 1}) == {"total": 1}
        cluster.close_session("s-err")

    def test_unknown_session_is_remote_error(self, cluster):
        outcome = cluster.submit("s-nowhere", {"add": 1}).result(30)
        assert outcome.status == InvocationOutcome.FAILED

    def test_routing_is_stable_hash(self, cluster):
        from repro.runtime.sharded import shard_index_for

        for key in ("a", "b", "session-0001", "zz"):
            assert cluster.worker_for(key) == shard_index_for(key, 2)

    def test_capture_restore_migrate(self, cluster):
        key = "s-migrate"
        cluster.open_session(key, {}).result(30).unwrap()
        cluster.call(key, {"add": 10})
        source = cluster.worker_for(key)
        target = 1 - source
        snapshot = cluster.migrate(key, target)
        assert snapshot["ops"] == [10]
        assert cluster.worker_for(key) == target
        # State continued across the process boundary.
        assert cluster.call(key, {"add": 5}) == {"total": 15}
        assert cluster.describe(key)["ops"] == [10, 5]
        # The source genuinely dropped it: migrating back restores anew.
        cluster.migrate(key, source)
        assert cluster.worker_for(key) == source
        assert cluster.call(key, {"add": 1}) == {"total": 16}
        cluster.close_session(key)

    def test_failed_restore_keeps_the_session_on_its_source(self, cluster):
        # Regression: the route used to re-point at the target before
        # the restore, so a refused restore stranded the session.
        key = "s-fail-restore"
        cluster.open_session(key, {"fail_restore": True}).result(30).unwrap()
        cluster.call(key, {"add": 3})
        source = cluster.worker_for(key)
        with pytest.raises(RemoteWorkerError, match="restore refused"):
            cluster.migrate(key, 1 - source)
        assert cluster.worker_for(key) == source
        assert key in cluster.handles[source].sessions
        assert key not in cluster.handles[1 - source].sessions
        assert cluster.call(key, {"add": 4}) == {"total": 7}
        cluster.close_session(key)

    def test_migrate_holds_then_flushes_submissions(self, cluster):
        key = "s-hold"
        cluster.open_session(key, {}).result(30).unwrap()
        target = 1 - cluster.worker_for(key)
        # Start a migration, race submissions against it.
        done = threading.Event()
        futures = []

        def migrate():
            cluster.migrate(key, target)
            done.set()

        thread = threading.Thread(target=migrate)
        thread.start()
        for i in range(20):
            futures.append(cluster.submit(key, {"add": 1}))
        thread.join(timeout=30)
        assert done.is_set()
        for future in futures:
            assert future.result(30).ok
        assert cluster.describe(key)["ops"] == [1] * 20
        cluster.close_session(key)

    def test_backlog_feeds_depth(self, cluster):
        key = "s-backlog"
        cluster.open_session(key, {}).result(30).unwrap()
        futures = [cluster.submit(key, {"add": 1, "sleep": 0.02})
                   for _ in range(10)]
        assert max(cluster.backlogs()) > 0
        for future in futures:
            future.result(30).unwrap()
        cluster.close_session(key)


# -- worker death ------------------------------------------------------------


class TestWorkerDeath:
    def test_kill_rejects_typed_and_respawns(self):
        with ProcessCluster(2, backend=ECHO_SPEC, name="test-kill") as c:
            c.start()
            keys = [f"kill-{i}" for i in range(8)]
            for key in keys:
                c.open_session(key, {}).result(30).unwrap()
            homes = [c.worker_for(key) for key in keys]
            victim = max(set(homes), key=homes.count)
            victim_keys = [k for k, h in zip(keys, homes) if h == victim]

            futures = [c.submit(key, {"add": 1, "sleep": 0.05})
                       for key in victim_keys for _ in range(5)]
            c.kill_worker(victim)

            rejected = 0
            for future in futures:
                outcome = future.result(30)  # never hangs
                if outcome.status == InvocationOutcome.REJECTED:
                    assert isinstance(outcome.error, IngressRejected)
                    assert outcome.error.reason == ShedReason.WORKER_DEAD
                    rejected += 1
            assert rejected > 0

            # Supervisor respawned the worker; dead-worker sessions are
            # gone but the worker serves fresh opens.
            assert c.wait_worker(victim, timeout=30)
            stats = c.stats()
            assert stats["deaths"] == 1 and stats["restarts"] == 1
            assert any(set(entry["sessions"]) & set(victim_keys)
                       for entry in stats["lost_sessions"])
            key = victim_keys[0]
            c.open_session(key, {}).result(30).unwrap()
            assert c.call(key, {"add": 3}) == {"total": 3}

    def test_submit_to_dead_worker_rejected_immediately(self):
        with ProcessCluster(1, backend=ECHO_SPEC, name="test-dead",
                            restart=False) as c:
            c.start()
            c.open_session("d1", {}).result(30).unwrap()
            c.kill_worker(0)
            deadline = time.monotonic() + 10
            while c.handles[0].alive and time.monotonic() < deadline:
                time.sleep(0.01)
            assert not c.handles[0].alive
            outcome = c.submit("d1", {"add": 1}).result(5)
            assert outcome.status == InvocationOutcome.REJECTED
            assert outcome.error.reason == ShedReason.WORKER_DEAD

    def test_restore_after_restart(self):
        with ProcessCluster(1, backend=ECHO_SPEC, name="test-restore") as c:
            c.start()
            c.open_session("r1", {}).result(30).unwrap()
            c.call("r1", {"add": 4})
            snapshot = c.capture("r1")
            c.kill_worker(0)
            assert c.wait_worker(0, timeout=30)
            c.restore_session("r1", snapshot, worker=0)
            assert c.call("r1", {"add": 1}) == {"total": 5}


# -- ingress tier over the cluster fabric ------------------------------------


class TestClusterIngress:
    def test_ingress_routes_to_workers(self, cluster):
        tier = cluster.build_ingress(
            policy=AdmissionPolicy(session_queue_limit=64,
                                   shard_backlog_limit=10_000),
        )
        fabric = tier.runtime
        assert isinstance(fabric, ClusterFabric)
        try:
            keys = [f"ing-{i}" for i in range(4)]
            for key in keys:
                cluster.open_session(key, {}).result(30).unwrap()
            futures = [
                tier.submit(key, lambda k=key: cluster.call(k, {"add": 1}))
                for key in keys for _ in range(3)
            ]
            deadline = time.monotonic() + 30
            while (not all(f.done() for f in futures)
                   and time.monotonic() < deadline):
                tier.pump()
                time.sleep(0.005)
            for future in futures:
                outcome = future.result(30)
                assert outcome.ok and "total" in outcome.value
            for key in keys:
                assert cluster.describe(key)["ops"] == [1, 1, 1]
                cluster.close_session(key)
        finally:
            tier.close()
            fabric.stop()


# -- echo backend (spawn target: must be importable, module-level) -----------


class EchoBackend:
    """Minimal in-worker backend: per-session op list + running total."""

    def __init__(self):
        self.sessions = {}

    def open(self, session, doc):
        self.sessions[session] = {"ops": [], "meta": dict(doc or {})}
        return {"opened": session}

    def apply(self, session, doc):
        if doc.get("boom"):
            raise RuntimeError("deliberate workload failure")
        state = self.sessions[session]
        if doc.get("sleep"):
            time.sleep(doc["sleep"])
        state["ops"].append(doc["add"])
        return {"total": sum(state["ops"])}

    def capture(self, session):
        state = self.sessions[session]
        return {"ops": list(state["ops"]), "meta": dict(state["meta"])}

    def restore(self, session, doc):
        if doc.get("meta", {}).get("fail_restore"):
            raise RuntimeError("restore refused")
        self.sessions[session] = {"ops": list(doc["ops"]),
                                  "meta": dict(doc.get("meta", {}))}
        return {"restored": session}

    def drop(self, session):
        self.sessions.pop(session, None)
        return {"dropped": session}

    def close(self, session):
        self.sessions.pop(session, None)
        return {"closed": session}

    def describe(self, session):
        return {"ops": list(self.sessions[session]["ops"])}


def echo_backend():
    return EchoBackend()
