"""DSK registry and worker backend for the multi-process session fabric.

:mod:`repro.runtime.cluster` is middleware-agnostic: workers resolve a
backend object from a ``"module:attr"`` spec.  This module supplies that
backend for the shipped middleware stack.

A :class:`DskRegistry` maps domain names to *entries* — anything with
``name`` / ``service()`` / ``knowledge(service)`` / ``middleware()`` /
``context`` attributes (:class:`repro.domains.assembly.DomainCase`
qualifies as-is).  A cold worker can therefore rebuild a full platform
for any registered domain from a portable capture doc containing nothing
but the session snapshot, exported service state, and the ``DSK_HASH``: the
registry supplies the DSK, and :func:`restore_platform` re-realizes the
platform with the worker's shared generated module installed.  The doc
arrives in ``adopt``'s checkpoint frame: a source's ``drop`` reply, or a
dead worker's shipped tail.

The shipped hash is checked against one recomputed from the rebuilt
platform's live rules/actions/metamodel; a mismatch means the registry's
DSK diverged from the one the capture came from, and the adoption is
refused rather than silently resumed on different semantics.
"""

from __future__ import annotations

from typing import Any

__all__ = [
    "ClusterBackendError",
    "DskRegistry",
    "RegistryBackend",
    "default_registry",
    "default_backend",
]


class ClusterBackendError(RuntimeError):
    """A worker-side session operation could not be performed."""


def platform_dsk_hash(platform: Any) -> str:
    """``DSK_HASH`` of a started platform's live knowledge: the installed
    generated program's (``load_program`` checked it against the live
    DSK), recomputed only after a runtime DSK edit dropped its tables."""
    from repro.modeling.aotgen import dsk_fingerprint, dsk_hash

    program = platform.synthesis.interpreter._aot
    broker, controller = platform.broker, platform.controller
    if (
        program is not None
        and (broker is None or broker._aot_calls is not None)
        and (controller is None or controller._aot_actions is not None)
    ):
        return program.dsk_hash
    return dsk_hash(dsk_fingerprint(
        rules=platform.synthesis.interpreter._rules,
        actions=list(broker.calls._actions) if broker is not None else [],
        dsml=platform.dsml,
        controller_actions=(
            list(controller.actions._actions) if controller is not None else []
        ),
    ))


class DskRegistry:
    """Domain name -> DSK entry, the worker's source of domain knowledge."""

    def __init__(self, entries: list | None = None):
        self._entries: dict[str, Any] = {}
        for entry in entries or []:
            self.register(entry)

    def register(self, entry: Any) -> None:
        self._entries[entry.name] = entry

    def get(self, name: str) -> Any:
        entry = self._entries.get(name)
        if entry is None:
            raise ClusterBackendError(
                f"domain {name!r} not in DSK registry "
                f"(known: {sorted(self._entries)})"
            )
        return entry

    def names(self) -> list[str]:
        return sorted(self._entries)


class _SessionHost:
    """One live session on a worker: its service, DSK, and platform."""

    __slots__ = ("entry", "service", "dsk", "platform")

    def __init__(self, entry, service, dsk, platform):
        self.entry = entry
        self.service = service
        self.dsk = dsk
        self.platform = platform


class RegistryBackend:
    """Worker-protocol backend hosting one platform per session.

    Implements the contract documented in :mod:`repro.runtime.cluster`:
    ``open`` / ``apply`` / ``drop`` / ``adopt`` / ``close`` /
    ``describe``, plus the optional ``configure`` hook the worker calls
    with the coordinator's options dict.
    """

    def __init__(self, registry: DskRegistry | None = None, *,
                 durability: Any = None, wal_dir: str | None = None):
        self.registry = registry or default_registry()
        self.worker_id = -1
        self.sessions: dict[str, _SessionHost] = {}
        # Durability (PR 10): a per-worker write-ahead log shared by the
        # hosted sessions.  ``durability`` accepts a DurabilityPolicy,
        # "wal"/"off", or None (decided at configure; workers default to
        # "wal").  Activated by :meth:`configure` (every spawned worker)
        # or an explicit :meth:`enable_durability`; a bare backend built
        # for in-process use stays on the undurable hot path.
        self.durability_spec = durability
        self.wal_dir = wal_dir
        self.durability: Any = None
        self._policy: Any = None

    # -- worker hooks ------------------------------------------------------

    def configure(self, worker_id: int, options: dict) -> None:
        self.worker_id = worker_id
        if options.get("wal_dir"):
            self.wal_dir = str(options["wal_dir"])
        spec = options.get("durability", self.durability_spec)
        self.enable_durability(spec)

    def enable_durability(self, spec: Any = None) -> Any:
        """Open this worker's WAL under ``wal-shard-NN/`` (idempotent),
        keeping an outbox of the frames :meth:`ship_tail` sends."""
        from repro.runtime.durability import DurabilityPolicy

        if self.durability is not None:
            return self.durability
        policy = DurabilityPolicy.resolve(
            spec if spec is not None else self.durability_spec
        )
        if not policy.enabled:
            return None
        if policy.log_root is None and self.wal_dir:
            policy.log_root = self.wal_dir
        self._policy = policy
        index = self.worker_id if self.worker_id >= 0 else 0
        self.durability = policy.open_shard(index, name=f"worker-{index:02d}")
        self.durability.wal.enable_outbox()
        return self.durability

    def shutdown(self) -> None:
        """Worker-exit hook: seal and close the WAL, drop ephemeral roots."""
        durability, self.durability = self.durability, None
        if durability is not None:
            durability.close()
        if self._policy is not None:
            self._policy.discard_ephemeral_root()
            self._policy = None

    # -- session lifecycle -------------------------------------------------

    def open(self, session: str, doc: dict) -> dict:
        from repro.middleware.loader import load_platform

        if session in self.sessions:
            raise ClusterBackendError(f"session {session!r} already open")
        entry = self.registry.get(doc["domain"])
        service = entry.service()
        dsk = entry.knowledge(service)
        platform = load_platform(entry.middleware(), dsk)
        context = dict(getattr(entry, "context", {}) or {})
        context.update(doc.get("context") or {})
        if platform.controller is not None and context:
            platform.controller.context.update(context)
        if platform.broker is not None and not doc.get("autonomic", True):
            platform.broker.autonomic.enabled = False
        self.sessions[session] = _SessionHost(entry, service, dsk, platform)
        self._checkpoint_session(session)
        return {
            "domain": entry.name,
            "dsk_hash": platform_dsk_hash(platform),
            "worker": self.worker_id,
        }

    def _host(self, session: str) -> _SessionHost:
        host = self.sessions.get(session)
        if host is None:
            raise ClusterBackendError(
                f"session {session!r} not open on worker {self.worker_id}"
            )
        return host

    def apply(self, session: str, doc: dict) -> Any:
        host = self._host(session)
        durability = self.durability
        if durability is None:
            return self._dispatch(host, doc)
        # Write-ahead the operation doc as the session's next entry
        # signal and run it with the session's effect journal installed
        # (external resource calls are memoized into the seal).  Once
        # the tail outweighs the last full checkpoint, a new one
        # replaces it: checkpoint bytes stay within log bytes, and an
        # adopting standby replays less than one checkpoint's worth.
        broker = host.platform.broker
        resources = broker.resources if broker is not None else None
        try:
            return durability.execute(
                session, doc,
                lambda _signal: self._dispatch(host, doc),
                resources=resources,
            )
        finally:
            if durability.checkpoint_due(session):
                durability.checkpoint(session, self._capture_host(host))

    def _dispatch(self, host: _SessionHost, doc: dict) -> Any:
        op = doc.get("op")
        if op == "api":
            broker = host.platform.broker
            if broker is None:
                raise ClusterBackendError("session platform has no broker")
            return broker.call_api(doc["api"], **(doc.get("args") or {}))
        if op == "fail":
            host.service.inject_failure(self._session_id(host, doc["conn"]))
            return None
        if op == "recover":
            return host.platform.broker.call_api(
                "ncb.recover_session",
                session=self._session_id(host, doc["conn"]),
            )
        if op == "run_model":
            result = host.platform.run_model_doc(doc["model"])
            return {"ran": result.script.source_model}
        if op == "noop":
            return None
        raise ClusterBackendError(f"unknown session op {op!r}")

    @staticmethod
    def _session_id(host: _SessionHost, connection: str) -> str:
        return host.platform.broker.state.get(f"session:{connection}")

    # -- moves ---------------------------------------------------------------

    def _capture_host(self, host: _SessionHost) -> dict:
        """Portable capture: snapshot + exported service state + DSK hash.

        Platform snapshots deliberately exclude the simulated resources
        (the DSK supplies them), so the capture carries the services'
        exported state — including the op_log, the correctness witness —
        alongside the snapshot.
        """
        return {
            "domain": host.entry.name,
            "dsk_hash": platform_dsk_hash(host.platform),
            "snapshot": host.platform.checkpoint().to_dict(),
            "services": {
                resource.name: resource.export_state()
                for resource in host.dsk.resources
            },
        }

    def _checkpoint_session(self, session: str) -> None:
        """Embed the session's portable capture doc as a WAL checkpoint
        frame — the base the shipped tail replays on top of."""
        if self.durability is not None:
            self.durability.checkpoint(
                session, self._capture_host(self._host(session)))

    def restore(self, session: str, doc: dict) -> None:
        """:meth:`adopt`'s rebuild from a capture doc, refusing a DSK hash
        mismatch; the traced perfbench backend hooks it by name."""
        from repro.middleware.snapshot import SessionSnapshot, restore_platform

        entry = self.registry.get(doc["domain"])
        service = entry.service()
        dsk = entry.knowledge(service)
        exported = doc.get("services") or {}
        for resource in dsk.resources:
            state = exported.get(resource.name)
            if state is not None:
                resource.import_state(state)
        platform = restore_platform(
            SessionSnapshot.from_dict(doc["snapshot"]), dsk
        )
        live_hash = platform_dsk_hash(platform)
        shipped = doc.get("dsk_hash")
        if shipped and shipped != live_hash:
            platform.stop()
            raise ClusterBackendError(
                f"DSK hash mismatch on restore of {session!r}: capture came "
                f"from {shipped!r}, registry rebuilt {live_hash!r}"
            )
        self.sessions[session] = _SessionHost(entry, service, dsk, platform)

    def drop(self, session: str) -> dict:
        """Forget a session that moves out, returning its portable
        capture (the doc its checkpoints embed) for the target's
        ``adopt``.  No workload effects."""
        capture = self._capture_host(self._host(session))
        self._release(session, "dropped")
        return capture

    def close(self, session: str) -> dict:
        self._release(session, "closed")
        return {"closed": session}

    def _release(self, session: str, kind: str) -> None:
        host = self.sessions.pop(session, None)
        if host is not None and host.platform.started:
            host.platform.stop()
        durability = self.durability
        if durability is not None:
            durability.log_event(kind, session)
            durability.forget(session)

    # -- log shipping / adoption -------------------------------------------

    def ship_tail(self) -> list[bytes]:
        """Every WAL frame written since the last call, in write order,
        byte for byte as on disk (CRC-checked again, not decoded;
        segment headers are not shipped).

        The worker loop sends these as one raw batch right after every
        reply, so by the time a caller's future resolves the
        coordinator's warm copy already holds the op's entry and seal.
        Taken from the log's in-memory outbox
        (:meth:`WriteAheadLog.take_outbox`) after a flush: nothing is
        read back from disk.
        """
        durability = self.durability
        if durability is None:
            return []
        return durability.wal.take_outbox()

    def adopt(self, session: str, frames: list) -> dict:
        """Rebuild a moved or lost session from WAL frame docs.

        Restores the latest checkpoint (a portable capture doc: a
        source's ``drop`` reply on a move, the head of the dead worker's
        shipped tail after a death), then replays the tail's entries
        *live* through
        :func:`~repro.middleware.snapshot.recover_session` —
        ``applied`` frames are deliberately dropped so external effects
        re-execute against the rebuilt services (the originals died
        with the worker), while ``(trace_id, seq)`` dedup still
        squelches double-delivered entries.  The replay has no log to
        seal into: the one checkpoint written after it covers it.
        Adopting an already-open session changes nothing and replies
        ``already``, so a second attempt cannot double-apply.
        The report's ``tail_bytes``/``checkpoint_bytes`` are the frame
        sizes the checkpoint cadence compares (:meth:`describe`).
        """
        from repro.runtime.wal import encode_frame_doc, session_tail

        if session in self.sessions:
            return {"already": True, "session": session,
                    "worker": self.worker_id}
        tail = session_tail(frames or [], session)
        if not tail or tail[0].get("k") != "checkpoint":
            raise ClusterBackendError(
                f"no shipped checkpoint for session {session!r}; cannot adopt"
            )
        checkpoint_bytes = len(encode_frame_doc(tail[0]))
        tail_bytes = sum(len(encode_frame_doc(doc)) for doc in tail
                         if doc.get("k") in ("entry", "applied"))
        entries = [doc for doc in tail if doc.get("k") == "entry"]
        self.restore(session, tail[0]["snapshot"])
        host = self._host(session)
        replayed = deduplicated = 0
        errors: list[str] = []
        if entries:
            from repro.middleware.snapshot import recover_session

            report = recover_session(
                entries,
                session=session,
                apply_entry=lambda _platform, signal: self._dispatch(
                    host, signal.payload),
                platform=host.platform,
            )
            replayed = report.replayed_entries
            deduplicated = report.deduplicated
            errors = [f"seq={seq}: {exc}" for seq, exc in report.errors]
            broker = host.platform.broker
            if broker is not None:
                # recover_session installed a journal with no log; the
                # durable apply path installs the session's own journal
                # on the next operation.
                broker.resources.install_effect_journal(None)
        # Re-base the local log so this worker's shipped copy covers
        # the adopted state from here on.
        self._checkpoint_session(session)
        return {"adopted": session, "worker": self.worker_id,
                "replayed": replayed, "deduplicated": deduplicated,
                "tail_bytes": tail_bytes, "checkpoint_bytes": checkpoint_bytes,
                "errors": errors}

    # -- introspection -----------------------------------------------------

    def describe(self, session: str) -> dict:
        """Domain, DSK hash and op_logs, plus the replay a standby
        would pay to adopt the session (0 bytes without durability)."""
        host = self._host(session)
        durability = self.durability
        tail, checkpoint = (durability.log_bytes(session)
                            if durability is not None else (0, 0))
        return {
            "domain": host.entry.name,
            "dsk_hash": platform_dsk_hash(host.platform),
            "op_logs": {
                resource.name: list(resource.op_log)
                for resource in host.dsk.resources
            },
            "tail_bytes": tail,
            "checkpoint_bytes": checkpoint,
        }


def default_registry() -> DskRegistry:
    """Registry of the four shipped domains' DSK entries.

    The entries are :func:`repro.domains.assembly.domain_cases` — the
    canonical description of each domain's service/DSK/middleware
    triple — bound by module name at call time, the way a cluster
    binds its backend spec, so the domain-independent middleware
    never imports a domain package.
    """
    import importlib

    domains = importlib.import_module("repro.domains.assembly")
    return DskRegistry(domains.domain_cases())


def default_backend() -> RegistryBackend:
    """Factory for the ``"repro.middleware.cluster:default_backend"`` spec."""
    return RegistryBackend(default_registry())
