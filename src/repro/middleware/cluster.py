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
registry supplies the DSK, :func:`restore_platform` re-realizes the
platform, and — with ``aot`` configured — the Tier-3 module is
regenerated from the rebuilt DSK.

The shipped hash is checked against one recomputed from the rebuilt
platform's live rules/actions/metamodel; a mismatch means the registry's
DSK diverged from the one the capture came from, and the restore is
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
    """``DSK_HASH`` of a started platform's live knowledge."""
    from repro.modeling.aotgen import dsk_fingerprint, dsk_hash

    broker = platform.broker
    return dsk_hash(dsk_fingerprint(
        rules=platform.synthesis.interpreter._rules,
        actions=list(broker.calls._actions) if broker is not None else [],
        dsml=platform.dsml,
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
    ``open`` / ``apply`` / ``capture`` / ``restore`` / ``drop`` /
    ``close`` / ``describe``, plus the optional ``configure`` hook the
    worker calls with the coordinator's options dict (``aot`` installs
    the Tier-3 generated module on every platform build).
    """

    def __init__(self, registry: DskRegistry | None = None, *,
                 aot: bool = False,
                 durability: Any = None, wal_dir: str | None = None,
                 checkpoint_every: int = 8):
        self.registry = registry or default_registry()
        self.aot = aot
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
        self.checkpoint_every = int(checkpoint_every)
        self.durability: Any = None
        self._policy: Any = None
        self._applies: dict[str, int] = {}
        self._ship_cursor: Any = None

    # -- worker hooks ------------------------------------------------------

    def configure(self, worker_id: int, options: dict) -> None:
        self.worker_id = worker_id
        if "aot" in options:
            self.aot = bool(options["aot"])
        if options.get("wal_dir"):
            self.wal_dir = str(options["wal_dir"])
        spec = options.get("durability", self.durability_spec)
        self.enable_durability(spec)

    def enable_durability(self, spec: Any = None) -> Any:
        """Open this worker's WAL under ``wal-shard-NN/`` (idempotent)."""
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
        platform = load_platform(entry.middleware(), dsk, aot=self.aot)
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
        # signal, run it with the session's effect journal installed
        # (external resource calls are memoized into the seal), and
        # count toward the periodic full checkpoint.
        broker = host.platform.broker
        resources = broker.resources if broker is not None else None
        value = durability.execute(
            session, doc,
            lambda _signal: self._dispatch(host, doc),
            resources=resources,
        )
        count = self._applies.get(session, 0) + 1
        if self.checkpoint_every and count >= self.checkpoint_every:
            count = 0
            durability.checkpoint(session, self._capture_host(host))
        self._applies[session] = count
        return value

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
            from repro.modeling.serialize import model_from_dict

            model = model_from_dict(doc["model"], host.dsk.dsml)
            host.platform.run_model(model)
            return {"ran": model.name}
        if op == "noop":
            return None
        raise ClusterBackendError(f"unknown session op {op!r}")

    @staticmethod
    def _session_id(host: _SessionHost, connection: str) -> str:
        return host.platform.broker.state.get(f"session:{connection}")

    # -- migration / recovery ----------------------------------------------

    def capture(self, session: str) -> dict:
        """Portable capture: snapshot + exported service state + DSK hash.

        Platform snapshots deliberately exclude the simulated resources
        (the DSK supplies them), so cross-process migration ships the
        services' exported state — including the op_log, the correctness
        witness — alongside the snapshot.
        """
        return self._capture_host(self._host(session))

    def _capture_host(self, host: _SessionHost) -> dict:
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
        durability = self.durability
        if durability is None:
            return
        self._applies[session] = 0
        durability.checkpoint(session, self._capture_host(self._host(session)))

    def restore(self, session: str, doc: dict) -> dict:
        from repro.middleware.snapshot import SessionSnapshot, restore_platform

        if session in self.sessions:
            raise ClusterBackendError(
                f"session {session!r} already open; cannot restore over it"
            )
        entry = self.registry.get(doc["domain"])
        service = entry.service()
        dsk = entry.knowledge(service)
        exported = doc.get("services") or {}
        for resource in dsk.resources:
            state = exported.get(resource.name)
            if state is not None:
                resource.import_state(state)
        platform = restore_platform(
            SessionSnapshot.from_dict(doc["snapshot"]), dsk, aot=self.aot,
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
        self._checkpoint_session(session)
        return {"restored": session, "dsk_hash": live_hash,
                "worker": self.worker_id}

    def drop(self, session: str) -> dict:
        """Forget a session after it migrated out (no workload effects)."""
        host = self.sessions.pop(session, None)
        if host is not None and host.platform.started:
            host.platform.stop()
        self._forget_durable(session, "dropped")
        return {"dropped": session}

    def close(self, session: str) -> dict:
        host = self.sessions.pop(session, None)
        if host is not None and host.platform.started:
            host.platform.stop()
        self._forget_durable(session, "closed")
        return {"closed": session}

    def _forget_durable(self, session: str, kind: str) -> None:
        durability = self.durability
        if durability is None:
            return
        durability.log_event(kind, session)
        durability.forget(session)
        self._applies.pop(session, None)

    # -- log shipping / adoption -------------------------------------------

    def ship_tail(self) -> list:
        """WAL frames appended since the last call.

        The worker loop piggybacks these on every reply
        (``reply["ship"]``), so by the time a caller's future resolves
        the coordinator's warm copy already holds the op's entry and
        seal.  Seek-based (:meth:`WriteAheadLog.tail_since`): the
        cursor pays for new frames only.
        """
        durability = self.durability
        if durability is None:
            return []
        cursor, frames = durability.wal.tail_since(self._ship_cursor)
        self._ship_cursor = cursor
        return frames

    def adopt(self, session: str, frames: list) -> dict:
        """Adopt a session lost with its worker, from shipped WAL frames.

        Restores the latest shipped checkpoint (a portable capture doc:
        snapshot + exported service state + DSK hash), then replays the
        shipped entry tail *live* through
        :func:`~repro.middleware.snapshot.recover_session` —
        ``applied`` frames are deliberately dropped so external effects
        re-execute against the rebuilt services (the originals died
        with the worker), while ``(trace_id, seq)`` dedup still
        squelches double-delivered entries.  Idempotent: adopting an
        already-open session is a no-op, so a second adoption attempt
        (coordinator retry, racing supervisors) cannot double-apply.
        """
        if session in self.sessions:
            return {"already": True, "session": session,
                    "worker": self.worker_id}
        capture_doc = None
        tail: list[dict] = []
        for doc in frames or []:
            if str(doc.get("session", "")) != session:
                continue
            kind = doc.get("k")
            if kind == "checkpoint" and not doc.get("delta"):
                capture_doc = doc.get("snapshot")
                tail = []
            elif kind == "entry":
                tail.append(doc)
        if capture_doc is None:
            raise ClusterBackendError(
                f"no shipped checkpoint for session {session!r}; cannot adopt"
            )
        self.restore(session, capture_doc)
        host = self._host(session)
        replayed = deduplicated = 0
        errors: list[str] = []
        if tail:
            import shutil
            import tempfile

            from repro.middleware.snapshot import recover_session
            from repro.runtime.wal import WriteAheadLog

            scratch_dir = tempfile.mkdtemp(prefix="repro-adopt-")
            try:
                scratch = WriteAheadLog(scratch_dir, name="adopt",
                                        fsync=False)
                for doc in tail:
                    scratch.append(doc, strict=False)
                report = recover_session(
                    scratch,
                    session=session,
                    apply_entry=lambda _platform, signal: self._dispatch(
                        host, signal.payload),
                    platform=host.platform,
                )
                scratch.close()
                replayed = report.replayed_entries
                deduplicated = report.deduplicated
                errors = [f"seq={seq}: {exc}" for seq, exc in report.errors]
            finally:
                shutil.rmtree(scratch_dir, ignore_errors=True)
            broker = host.platform.broker
            if broker is not None:
                # recover_session installed a journal bound to the
                # scratch log; the durable apply path installs the
                # session's own journal on the next operation.
                broker.resources.install_effect_journal(None)
        # Re-base the local log so this worker's shipped copy covers
        # the adopted state from here on.
        self._checkpoint_session(session)
        return {"adopted": session, "worker": self.worker_id,
                "replayed": replayed, "deduplicated": deduplicated,
                "errors": errors}

    # -- introspection -----------------------------------------------------

    def describe(self, session: str) -> dict:
        host = self._host(session)
        return {
            "domain": host.entry.name,
            "dsk_hash": platform_dsk_hash(host.platform),
            "op_logs": {
                resource.name: list(resource.op_log)
                for resource in host.dsk.resources
            },
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
