"""Tests for PlatformPool: sharded multi-session platform routing."""

import threading

import pytest

from repro.domains.communication.cvm import build_cvm
from repro.middleware.platform import PlatformPool
from repro.sim.network import CommService


def cvm_factory(shard):
    return build_cvm(
        service=CommService("net0", op_cost=0.0),
        bus=shard.bus,
        clock=shard.clock,
        metrics=shard.metrics,
    )


def make_pool(**kwargs):
    return PlatformPool(cvm_factory, name="test-pool", **kwargs)


def open_session(connection):
    def call(platform):
        platform.broker.call_api("ncb.open_session", connection=connection)
        return platform.name

    return call


class TestPoolWiring:
    def test_one_platform_per_shard_with_private_infrastructure(self):
        pool = make_pool(shards=4, inline=True)
        assert len(pool.platforms) == 4
        assert len({id(p.bus) for p in pool.platforms}) == 4
        for platform, shard in zip(pool.platforms, pool.runtime.shards):
            assert platform.bus is shard.bus
            assert platform.metrics is shard.metrics

    def test_platform_for_follows_affinity(self):
        pool = make_pool(shards=4, inline=True)
        for i in range(16):
            key = f"s{i}"
            assert pool.platform_for(key) is (
                pool.platforms[pool.shard_for(key).index]
            )


class TestPoolExecution:
    def test_submit_runs_on_owning_platform_inline(self):
        with make_pool(shards=4, inline=True) as pool:
            futures = {
                key: pool.submit(key, open_session(key))
                for key in (f"s{i}" for i in range(8))
            }
            pool.drain()
            for key, future in futures.items():
                assert future.result(timeout=1) == (
                    pool.platform_for(key).name
                )
            # Session state landed on the owning platform only.
            for key in futures:
                owner = pool.platform_for(key)
                assert owner.broker.state.get(f"session:{key}") is not None

    def test_merged_metrics_sees_all_shards(self):
        with make_pool(shards=4, inline=True) as pool:
            for i in range(20):
                pool.submit(f"s{i}", open_session(f"s{i}"))
            pool.drain()
            merged = pool.merged_metrics()
            assert merged.counter_value(
                "broker.call_api", "ncb.open_session"
            ) == 20

    def test_threaded_pool_parallel_sessions(self):
        pool = make_pool(shards=2)
        results = []
        lock = threading.Lock()
        with pool:
            futures = [
                pool.submit(f"s{i}", open_session(f"s{i}")) for i in range(30)
            ]
            for future in futures:
                name = future.result(timeout=10)
                with lock:
                    results.append(name)
        assert len(results) == 30
        merged = pool.merged_metrics()
        assert merged.counter_value(
            "broker.call_api", "ncb.open_session"
        ) == 30
        stats = pool.stats()
        assert stats["task_errors"] == 0
        assert stats["platforms"] == ["cvm"] * 2


class TestIngressIntegration:
    def test_build_ingress_binds_the_owning_platform(self):
        with make_pool(shards=4, inline=True) as pool:
            tier = pool.build_ingress()
            futures = {
                key: tier.submit(key, open_session(key), entry=True)
                for key in (f"s{i}" for i in range(8))
            }
            while tier.backlog:
                tier.pump()
                pool.drain()
            for key, future in futures.items():
                outcome = future.result(timeout=1)
                assert outcome.ok
                assert outcome.value == pool.platform_for(key).name
                owner = pool.platform_for(key)
                assert owner.broker.state.get(f"session:{key}") is not None
            stats = tier.stats()
            assert stats["admitted"] == 8
            assert stats["shed"] == 0
            assert stats["completed"] == 8
            tier.close()

    def test_build_ingress_watches_every_shard_bus(self):
        from repro.runtime.events import Event
        from repro.runtime.ingress import BATCH, ShedReason

        with make_pool(shards=2, inline=True) as pool:
            tier = pool.build_ingress()
            # A breaker opening on *any* shard's platform bus sheds
            # batch entry traffic at the pool's front door.
            pool.platforms[1].bus.publish(
                Event(topic="resource.net0.breaker_open")
            )
            outcome = tier.submit(
                "newcomer", open_session("newcomer"),
                priority=BATCH, entry=True,
            ).result(timeout=1)
            assert outcome.error.reason == ShedReason.BREAKER_OPEN
            tier.close()

    def test_ingress_op_logs_match_synchronous_submit(self):
        # One session per shard (private per-shard service op_log), so
        # the ingress path can be compared byte-for-byte against the
        # synchronous submit path.
        from repro.middleware.platform import PlatformPool

        def run(via_ingress):
            services = {}

            def factory(shard):
                service = CommService("net0", op_cost=0.0)
                services[shard.index] = service
                return build_cvm(
                    service=service, bus=shard.bus,
                    clock=shard.clock, metrics=shard.metrics,
                )

            with PlatformPool(
                factory, name="eq", shards=2, inline=True
            ) as pool:
                keys, seen = [], set()
                index = 0
                while len(seen) < 2:
                    key = f"conn{index}"
                    index += 1
                    shard = pool.shard_for(key).index
                    if shard not in seen:
                        seen.add(shard)
                        keys.append(key)

                def steps(key):
                    yield lambda p: p.broker.call_api(
                        "ncb.open_session", connection=key
                    )
                    yield lambda p: p.broker.call_api(
                        "ncb.add_party", connection=key, party=f"{key}-p1"
                    )
                    yield lambda p: p.broker.call_api(
                        "ncb.open_stream", connection=key, medium="m1",
                        media_type="audio", quality="low",
                    )
                    yield lambda p: p.broker.call_api(
                        "ncb.close_session", connection=key
                    )

                if via_ingress:
                    tier = pool.build_ingress()
                    for key in keys:
                        for position, step in enumerate(steps(key)):
                            future = tier.submit(
                                key, step, entry=position == 0
                            )
                            assert not future.done(), "nothing may shed"
                    while tier.backlog:
                        tier.pump()
                        pool.drain()
                    tier.close()
                else:
                    for key in keys:
                        for step in steps(key):
                            pool.submit(key, step)
                        pool.drain()
            return {
                index: "\n".join(service.op_log)
                for index, service in services.items()
            }

        golden = run(via_ingress=False)
        assert any(golden.values()), "workload must touch the service"
        assert run(via_ingress=True) == golden

    def test_close_session_releases_migration_route(self):
        from repro.middleware.snapshot import SessionSnapshot  # noqa: F401

        with make_pool(shards=2, inline=True) as pool:
            key = "roaming"
            pool.submit(key, open_session(key))
            pool.drain()
            home = pool.shard_for(key).index
            away = (home + 1) % 2
            pool.runtime.migrate(
                key, away,
                capture=lambda: "state",
                restore=lambda snapshot: snapshot,
            )
            assert pool.runtime.router.overrides() == {key: away}
            assert pool.close_session(key) is True
            assert pool.runtime.router.overrides() == {}
            # Idempotent for never-migrated (or already closed) keys.
            assert pool.close_session(key) is False


class TestPoolCloseSessionShedsIngress:
    def test_close_session_resolves_queued_ingress_backlog(self):
        from repro.runtime.faults import InvocationOutcome
        from repro.runtime.ingress import (
            AdmissionPolicy,
            IngressRejected,
            ShedReason,
        )

        with make_pool(shards=2, inline=True) as pool:
            tier = pool.build_ingress(
                policy=AdmissionPolicy(max_inflight_per_shard=1)
            )
            key = "closing"
            queued = [
                pool.submit(key, open_session(key)),
                tier.submit(key, open_session(key), entry=True),
                tier.submit(key, open_session(key)),
            ]
            pool.drain()  # only the direct submit ran; tier never pumped
            assert queued[0].done()
            shed = pool.close_session(key)
            assert shed is False  # no migration route existed
            for future in queued[1:]:
                assert future.done(), (
                    "closing the session must not leave ingress waiters"
                )
                outcome = future.result()
                assert outcome.status == InvocationOutcome.REJECTED
                assert isinstance(outcome.error, IngressRejected)
                assert outcome.error.reason == ShedReason.SESSION_CLOSED
            tier.close()


def _wal_frames(pool, key):
    durability = pool.shard_for(key).durability
    return list(durability.wal.replay())


def _api(api, **args):
    return {"op": "api", "api": api, "args": args}


def _apply_doc(platform, key, doc):
    return platform.broker.call_api(doc["api"], **(doc.get("args") or {}))


def _distinct_shard_keys(pool, count=2, prefix="pp"):
    keys, seen = [], set()
    index = 0
    while len(keys) < count:
        key = f"{prefix}-{index:03d}"
        index += 1
        shard = pool.shard_for(key).index
        if shard not in seen:
            seen.add(shard)
            keys.append(key)
    return keys


class TestPoolDurability:
    """Durability by default (PR 10): per-shard WALs on the pool."""

    def test_durable_by_default_with_per_shard_logs(self):
        with make_pool(shards=2, inline=True) as pool:
            assert pool.durability.enabled
            for index, shard in enumerate(pool.runtime.shards):
                assert shard.durability is not None
                directory = shard.durability.wal.directory
                assert directory.name == f"wal-shard-{index:02d}"
                assert directory.is_dir()

    def test_off_escape_hatch_keeps_undurable_path(self):
        from repro.middleware.platform import PlatformError

        with make_pool(shards=2, inline=True, durability="off") as pool:
            assert not pool.durability.enabled
            for shard in pool.runtime.shards:
                assert shard.durability is None
            with pytest.raises(PlatformError, match="durability is off"):
                pool.checkpoint_now()

    def test_ephemeral_log_root_reclaimed_on_stop(self):
        pool = make_pool(shards=2, inline=True)
        pool.start()
        root = pool.durability.root()
        assert root.is_dir()
        pool.stop()
        assert not root.exists()

    def test_submit_doc_write_ahead_logs_entry_and_seal(self):
        with make_pool(shards=2, inline=True) as pool:
            pool.attach_cluster(None, apply=_apply_doc)
            key = "durable-doc"
            pool.submit_doc(key, _api("ncb.open_session", connection="c1"))
            pool.drain()
            frames = _wal_frames(pool, key)
            entries = [doc for doc in frames
                       if doc["k"] == "entry" and doc["session"] == key]
            seals = [doc for doc in frames
                     if doc["k"] == "applied" and doc["session"] == key]
            assert len(entries) == 1 and len(seals) == 1
            assert entries[0]["sig"]["kind"] == "call"
            assert entries[0]["sig"]["payload"]["api"] == "ncb.open_session"
            assert seals[0]["entry_seq"] == entries[0]["sig"]["seq"]

    def test_durable_and_off_pools_produce_identical_records(self):
        docs = [
            _api("ncb.open_session", connection="c1"),
            _api("ncb.add_party", connection="c1", party="alice"),
            _api("ncb.add_party", connection="c1", party="bob"),
        ]

        def run(durability):
            with make_pool(shards=2, inline=True,
                           durability=durability) as pool:
                pool.attach_cluster(None, apply=_apply_doc)
                for doc in docs:
                    future = pool.submit_doc("equiv", doc)
                    pool.drain()
                    outcome = future.result(timeout=10)
                    assert outcome.status == outcome.OK
                platform = pool.platform_for("equiv")
                service = platform.broker.resources.require("net0")
                return list(service.op_log)

        assert run("wal") == run("off")

    def test_failed_doc_is_typed_not_raised(self):
        with make_pool(shards=2, inline=True) as pool:
            pool.attach_cluster(None, apply=_apply_doc)
            future = pool.submit_doc(
                "boom", _api("ncb.add_party", connection="nope", party="x")
            )
            pool.drain()
            outcome = future.result(timeout=10)
            assert outcome.status == outcome.FAILED
            assert outcome.error is not None

    def test_close_session_logs_typed_close_frame(self):
        with make_pool(shards=2, inline=True) as pool:
            pool.attach_cluster(None, apply=_apply_doc)
            key = "closing-durable"
            pool.submit_doc(key, _api("ncb.open_session", connection="c1"))
            pool.drain()
            pool.close_session(key)
            frames = _wal_frames(pool, key)
            closes = [doc for doc in frames
                      if doc["k"] == "event" and doc["session"] == key
                      and doc.get("kind") == "closed"]
            durability = pool.shard_for(key).durability
            assert key not in durability.sessions()
            assert closes or not any(
                doc.get("session") == key and doc["k"] == "event"
                for doc in frames
            )

    def test_move_hands_the_log_tail_to_the_target(self):
        """A shard-to-shard move ships the session's log tail to the
        target shard's log, and the source log forgets the session."""
        from repro.middleware.snapshot import SessionSnapshot
        from repro.runtime.sharded import current_shard

        with make_pool(shards=2, inline=True) as pool:
            pool.attach_cluster(None, apply=_apply_doc)
            key = "moving-durable"
            for doc in (_api("ncb.open_session", connection="c1"),
                        _api("ncb.add_party", connection="c1",
                             party="alice")):
                pool.submit_doc(key, doc)
                pool.drain()
            source = pool.shard_for(key)
            target = pool.runtime.shards[1 - source.index]
            assert key in source.durability.sessions()
            tail = source.durability.wal.export_session(key)
            assert [doc["k"] for doc in tail] == ["entry", "applied"] * 2

            def capture():
                platform = pool.platforms[current_shard().index]
                service = platform.broker.resources.require("net0")
                return {"snapshot": platform.checkpoint().to_dict(),
                        "service": service.export_state()}

            def restore(doc):
                platform = pool.platforms[current_shard().index]
                platform.restore_from(
                    SessionSnapshot.from_dict(doc["snapshot"]))
                platform.broker.resources.require("net0").import_state(
                    doc["service"])

            pool.runtime.migrate(key, target.index, capture=capture,
                                 restore=restore)
            assert pool.shard_for(key) is target
            assert key not in source.durability.sessions()
            imported = [doc for doc in target.durability.wal.replay()
                        if doc.get("session") == key]
            assert imported == tail
            # the next step logs on the target, beside the imported tail
            future = pool.submit_doc(
                key, _api("ncb.add_party", connection="c1", party="bob"))
            pool.drain()
            assert future.result(timeout=10).ok
            assert key in target.durability.sessions()
            assert target.durability.wal.export_session(key)[:4] == tail
            assert source.durability.wal.export_session(key) == tail


class TestDocSubmission:
    def test_submit_doc_requires_attach(self):
        from repro.middleware.platform import PlatformError

        with make_pool(shards=1, inline=True) as pool:
            with pytest.raises(PlatformError, match="attach_cluster"):
                pool.submit_doc("k", _api("ncb.open_session"))

    def test_attach_cluster_refuses_a_cluster(self):
        """Sessions stay on the pool's shards: a cluster is refused, and
        the refusal leaves submit_doc unattached."""
        from repro.middleware.platform import PlatformError

        with make_pool(shards=1, inline=True) as pool:
            with pytest.raises(PlatformError, match="takes no cluster"):
                pool.attach_cluster(object(), apply=_apply_doc)
            with pytest.raises(PlatformError, match="attach_cluster"):
                pool.submit_doc("k", _api("ncb.open_session"))


class TestEmitProtocol:
    """doc["emit"]: causally derived cross-session events."""

    def test_emit_event_derives_from_entry_signal(self):
        from types import SimpleNamespace

        from repro.middleware.platform import emit_event

        signal = SimpleNamespace(trace_id=42, seq=7)
        event = emit_event(
            {"topic": "fabric.session.done", "key": "agg",
             "payload": {"n": 1}},
            "origin-key", signal,
        )
        assert event.topic == "fabric.session.done"
        assert event.trace_id == 42
        assert event.parent_seq == 7
        assert event.origin == "origin-key"
        assert event.payload == {"n": 1}

    def test_emit_event_without_signal_is_fresh_root(self):
        from repro.middleware.platform import emit_event

        event = emit_event({"topic": "t"}, "k", None)
        assert event.parent_seq is None
        assert event.origin == "k"

    def test_emitted_event_logged_in_target_shard_same_trace(self):
        with make_pool(shards=2, inline=True) as pool:
            pool.attach_cluster(None, apply=_apply_doc)
            source, target = _distinct_shard_keys(pool)
            doc = _api("ncb.open_session", connection="c1")
            doc["emit"] = [{"topic": "fabric.session.done", "key": target,
                            "payload": {"session": source}}]
            pool.submit_doc(source, doc)
            pool.drain()
            call = next(
                frame for frame in _wal_frames(pool, source)
                if frame["k"] == "entry" and frame["session"] == source
                and frame["sig"]["kind"] == "call"
            )
            events = [
                frame for frame in _wal_frames(pool, target)
                if frame["k"] == "entry"
                and frame["sig"]["kind"] == "event"
                and frame["sig"]["topic"] == "fabric.session.done"
            ]
            assert len(events) == 1
            sig = events[0]["sig"]
            assert sig["trace_id"] == call["sig"]["trace_id"]
            assert sig["parent_seq"] == call["sig"]["seq"]
            assert sig["origin"] == source

    def test_emit_with_durability_off_still_routes(self):
        with make_pool(shards=2, inline=True, durability="off") as pool:
            pool.attach_cluster(None, apply=_apply_doc)
            source, target = _distinct_shard_keys(pool)
            doc = _api("ncb.open_session", connection="c1")
            doc["emit"] = [{"topic": "fabric.session.done", "key": target}]
            future = pool.submit_doc(source, doc)
            pool.drain()
            outcome = future.result(timeout=10)
            assert outcome.status == outcome.OK
            # no log to check; the property is simply that routing an
            # emission without an entry signal neither crashes nor logs.


class TestPoolRecovery:
    def test_restarted_pool_replays_session_tail(self, tmp_path):
        from repro.runtime.durability import DurabilityPolicy

        docs = [
            _api("ncb.open_session", connection="c1"),
            _api("ncb.add_party", connection="c1", party="alice"),
            _api("ncb.add_party", connection="c1", party="bob"),
        ]
        key = "phoenix"

        def policy():
            return DurabilityPolicy(
                mode="wal", log_root=str(tmp_path / "pool-wal"), fsync=False
            )

        with make_pool(shards=2, inline=True, durability=policy()) as pool:
            pool.attach_cluster(None, apply=_apply_doc)
            for doc in docs:
                pool.submit_doc(key, doc)
            pool.drain()
            platform = pool.platform_for(key)
            golden = list(
                platform.broker.resources.require("net0").op_log
            )

        with make_pool(shards=2, inline=True, durability=policy()) as pool:
            report = pool.recover_session(
                key,
                apply_entry=lambda platform, signal: _apply_doc(
                    platform, key, signal.payload
                ),
            )
            assert report.replayed_entries == len(docs)
            assert not report.errors
            # sealed effects replay memoized — the originals already
            # executed against the world, so the fresh service sees
            # none of them re-run...
            assert report.effects_memoized > 0
            assert golden  # (the first life really did touch net0)
            recovered = pool.platform_for(key)
            assert not recovered.broker.resources.require("net0").op_log
            # ...while the middleware layers replayed live: the broker
            # state the original open_session wrote is back.  (Service
            # sim state ships separately — see RegistryBackend.adopt's
            # portable capture docs — which is why the worker fabric,
            # not this in-process path, re-executes effects.)
            assert recovered.broker.state.get("session:c1") is not None

    def test_recovers_from_the_shards_covers_all_checkpoint(self, tmp_path):
        """A pool checkpoint is one platform snapshot, written under the
        platform's name and marked ``covers_all``; a session's recovery
        restores it and replays the entries after it."""
        from repro.runtime.durability import DurabilityPolicy

        key = "phoenix"

        def policy():
            return DurabilityPolicy(
                mode="wal", log_root=str(tmp_path / "pool-wal"), fsync=False
            )

        def apply(platform, signal):
            return _apply_doc(platform, key, signal.payload)

        with make_pool(shards=1, inline=True, durability=policy()) as pool:
            pool.attach_cluster(None, apply=_apply_doc)
            pool.submit_doc(key, _api("ncb.open_session", connection="c1"))
            pool.drain()
            pool.checkpoint_now()
            for party in ("alice", "bob"):
                pool.submit_doc(key, _api(
                    "ncb.add_party", connection="c1", party=party))
            pool.drain()
            checkpoints = [doc for doc in _wal_frames(pool, key)
                           if doc["k"] == "checkpoint"]
            assert len(checkpoints) == 1
            assert checkpoints[0].get("covers_all")
            assert checkpoints[0]["session"] == pool.platform_for(key).name

        with make_pool(shards=1, inline=True, durability=policy()) as pool:
            report = pool.recover_session(key, apply_entry=apply)
            assert report.snapshot is not None
            assert report.replayed_entries == 2  # the two add_party steps
            assert not report.errors
            recovered = pool.platform_for(key)
            assert recovered.broker.state.get("session:c1") is not None

    @pytest.mark.parametrize("order", [("a", "b"), ("b", "a")])
    def test_recovery_in_any_order_matches_the_uncrashed_run(
        self, tmp_path, order
    ):
        """Every session on a shard shares its platform, so restoring
        the shard's ``covers_all`` checkpoint rolls all of them back:
        each session's recovery replays every session's entries after
        it.  Replaying only the recovered key's entries left ``b``'s
        session lost after recovering ``b`` then ``a``, and the broker
        counters off in both orders."""
        from repro.middleware.platform import apply_entry
        from repro.runtime.durability import DurabilityPolicy

        def policy():
            return DurabilityPolicy(
                mode="wal", log_root=str(tmp_path / "pool-wal"), fsync=False
            )

        def broker_doc(pool):
            doc = pool.platforms[0].broker.externalize()
            return {name: doc[name] for name in
                    ("state", "api_calls", "invocations", "dispatched")}

        with make_pool(shards=1, inline=True, durability=policy()) as pool:
            pool.attach_cluster(None, apply=_apply_doc)
            pool.submit_doc("a", _api("ncb.open_session", connection="a"))
            pool.drain()
            pool.checkpoint_now()
            pool.submit_doc("b", _api("ncb.open_session", connection="b"))
            pool.submit_doc("a", _api(
                "ncb.add_party", connection="a", party="alice"))
            pool.drain()
            golden = broker_doc(pool)

        with make_pool(shards=1, inline=True, durability=policy()) as pool:
            for key in order:
                report = pool.recover_session(key, apply_entry=apply_entry)
                assert report.errors == []
            recovered = pool.platforms[0].broker
            assert recovered.state.get("session:b") is not None
            assert broker_doc(pool) == golden

    def test_reexecuted_entries_seal_under_their_own_session(self, tmp_path):
        """An entry whose seal was lost re-executes on recovery and is
        sealed under its own session, so the next recovery of any key
        on the shard memoizes its effects."""
        from repro.middleware.platform import apply_entry
        from repro.runtime.durability import DurabilityPolicy
        from repro.runtime.events import Call

        with make_pool(shards=1, inline=True, durability=DurabilityPolicy(
                mode="wal", log_root=str(tmp_path), fsync=False)) as pool:
            pool.checkpoint_now()
            wal = pool.runtime.shards[0].durability.wal
            for key in ("a", "b"):
                wal.append_entry(Call(
                    topic="session.entry", origin=key,
                    payload=_api("ncb.open_session", connection=key),
                ), session=key)
            first = pool.recover_session("a", apply_entry=apply_entry)
            assert first.errors == [] and first.effects_live > 0
            seals = [doc["session"] for doc in _wal_frames(pool, "a")
                     if doc["k"] == "applied"]
            assert seals == ["a", "b"]
            second = pool.recover_session("b", apply_entry=apply_entry)
            assert (second.effects_live, second.effects_memoized) == (
                0, first.effects_live)

    def test_routed_events_are_not_replayed(self, tmp_path):
        """``route_signal`` logs a routed event in the target shard's
        log; recovering the target replays its own ``call`` entry and
        never that event (which used to fail: ``unknown durable entry
        op None``)."""
        from repro.middleware.platform import apply_entry
        from repro.runtime.durability import DurabilityPolicy

        with make_pool(shards=2, inline=True, durability=DurabilityPolicy(
                mode="wal", log_root=str(tmp_path), fsync=False)) as pool:
            pool.attach_cluster(None, apply=_apply_doc)
            target, sender = _distinct_shard_keys(pool)
            pool.submit_doc(target, _api("ncb.open_session", connection="t"))
            pool.drain()
            pool.submit_doc(sender, {
                **_api("ncb.open_session", connection="s"),
                "emit": [{"topic": "t.x", "key": target}],
            })
            pool.drain()
            logged = [doc["sig"]["kind"] for doc in _wal_frames(pool, target)
                      if doc["k"] == "entry" and doc["session"] == target]
            assert logged == ["call", "event"]
            replayed = []

            def apply(platform, signal):
                replayed.append(signal.payload)
                return apply_entry(platform, signal)

            report = pool.recover_session(target, apply_entry=apply)
            assert report.errors == []
            assert replayed == [_api("ncb.open_session", connection="t")]
