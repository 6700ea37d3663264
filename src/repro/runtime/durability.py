"""Fabric-level durability: a policy object plus its per-shard runtime.

Durability is a *fabric property*: a :class:`DurabilityPolicy`
describes how a fabric persists its sessions (log root, group-commit
cadence, checkpoint strategy) and a :class:`ShardDurability` is that
policy applied to one shard: one
:class:`~repro.runtime.wal.WriteAheadLog` under ``wal-shard-NN/`` plus
one cached :class:`~repro.runtime.wal.EffectJournal` per hosted
session.

:meth:`ShardDurability.execute` is the one durability bracket:
``journal.log_call`` write-aheads the entry frame, the caller applies
it, ``journal.end_entry`` seals the memoized effects, and
:meth:`ShardDurability.checkpoint` writes every checkpoint frame.  The
shard owns the log and hands sessions their journals, so every session
hosted on a durable fabric is durable without opting in.  A session's
frames stay in the log of the shard that hosts it: sessions never move
between shards, and a worker move carries its session as a capture
checkpoint (:meth:`~repro.runtime.cluster.ProcessCluster.migrate`).  A
standalone session is a :class:`ShardDurability` over a log of its own.
"""

from __future__ import annotations

import shutil
import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

from repro.runtime.wal import EffectJournal, WriteAheadLog

__all__ = [
    "DurabilityPolicy",
    "ShardDurability",
]


@dataclass
class DurabilityPolicy:
    """How a fabric persists its sessions.

    ``mode`` is ``"wal"`` (per-shard write-ahead logs, the default for
    :class:`~repro.middleware.platform.PlatformPool`) or ``"off"``
    (today's undurable hot path, byte-for-byte).  ``log_root`` is the
    pool-level directory under which shard ``NN`` logs to
    ``wal-shard-NN/``; when ``None`` an ephemeral root is created on
    first use and removed again when the fabric shuts down — good for
    intra-run recovery (shard and worker death), while a caller that
    wants durability across process restarts names a real directory.

    ``sync_every``/``fsync`` set the group-commit cadence.
    """

    mode: str = "wal"
    log_root: str | Path | None = None
    sync_every: int = 64
    fsync: bool = True
    segment_max_bytes: int = 1 << 20
    _ephemeral_root: Path | None = field(
        default=None, repr=False, compare=False
    )

    @classmethod
    def resolve(
        cls, spec: "DurabilityPolicy | str | None"
    ) -> "DurabilityPolicy":
        """Normalize a ``durability=`` argument.

        Accepts a policy instance (returned as-is), ``"wal"``/``"off"``,
        or ``None`` (meaning the default, ``"wal"``).
        """
        if isinstance(spec, cls):
            return spec
        if spec is None:
            return cls()
        if isinstance(spec, str):
            if spec not in ("wal", "off"):
                raise ValueError(
                    f"unknown durability mode {spec!r} "
                    "(expected 'wal' or 'off')"
                )
            return cls(mode=spec)
        raise TypeError(
            f"durability must be a DurabilityPolicy, 'wal', 'off', or "
            f"None, not {type(spec).__name__}"
        )

    @property
    def enabled(self) -> bool:
        return self.mode != "off"

    def root(self) -> Path:
        """The log root, creating an ephemeral one when unset."""
        if self.log_root is None:
            self._ephemeral_root = Path(tempfile.mkdtemp(prefix="repro-wal-"))
            self.log_root = self._ephemeral_root
        return Path(self.log_root)

    def shard_directory(self, index: int) -> Path:
        return self.root() / f"wal-shard-{index:02d}"

    def open_shard(self, index: int, *, name: str = "") -> "ShardDurability":
        """Materialize the policy for shard ``index``."""
        wal = WriteAheadLog(
            self.shard_directory(index),
            sync_every=self.sync_every,
            fsync=self.fsync,
            segment_max_bytes=self.segment_max_bytes,
            name=name or f"shard-{index:02d}",
        )
        return ShardDurability(wal, policy=self)

    def discard_ephemeral_root(self) -> None:
        """Remove the auto-created log root, if this policy made one."""
        root = self._ephemeral_root
        if root is None:
            return
        self._ephemeral_root = None
        if self.log_root is not None and Path(self.log_root) == root:
            self.log_root = None
        shutil.rmtree(root, ignore_errors=True)


class ShardDurability:
    """One shard's durability runtime: a WAL plus per-session journals.

    Journals are created lazily on first durable entry and cached —
    the :class:`~repro.runtime.wal.EffectJournal` precomputes
    per-session frame prefixes, so reuse is what keeps the per-step
    cost at two lean writes.
    """

    def __init__(
        self, wal: WriteAheadLog, *, policy: DurabilityPolicy | None = None
    ) -> None:
        self.wal = wal
        self.policy = policy if policy is not None else DurabilityPolicy()
        self._journals: dict[str, EffectJournal] = {}

    def journal(self, session: str) -> EffectJournal:
        journal = self._journals.get(session)
        if journal is None:
            journal = self._journals[session] = EffectJournal(
                self.wal, session=session
            )
        return journal

    def execute(
        self,
        session: str,
        entry_doc: dict[str, Any],
        apply: Callable[[Any], Any],
        *,
        topic: str = "session.entry",
        resources: Any = None,
    ) -> Any:
        """Durably log ``entry_doc`` as the session's next entry, then
        apply it.

        Write-aheads ``entry_doc`` as the session's next entry signal,
        installs the session's journal on ``resources`` (a duck-typed
        ``ResourceManager``) if it is not already the active one, runs
        ``apply(signal)``, and seals the memoized effects.  Hand the
        same apply code to
        :func:`~repro.middleware.snapshot.recover_session` so replay
        re-runs it.
        """
        journal = self.journal(session)
        if resources is not None and resources.effect_journal is not journal:
            resources.install_effect_journal(journal)
        signal = journal.log_call(topic, entry_doc)
        try:
            return apply(signal)
        finally:
            journal.end_entry()

    def checkpoint(
        self,
        session: str,
        snapshot_doc: dict[str, Any],
        *,
        cover_all: bool = False,
    ) -> None:
        """Embed ``snapshot_doc`` as a checkpoint frame and truncate
        what it covers (see :meth:`WriteAheadLog.checkpoint`); it
        restarts the tail byte count of the sessions it covers."""
        self.wal.checkpoint(snapshot_doc, session=session, cover_all=cover_all)
        for name, journal in self._journals.items():
            if cover_all or name == session:
                journal.tail_bytes = 0

    def log_bytes(self, session: str) -> tuple[int, int]:
        """Frame bytes logged since the session's last checkpoint,
        and that checkpoint's size: what a standby replays to adopt it."""
        journal = self._journals.get(session)
        tail = journal.tail_bytes if journal is not None else 0
        return tail, self.wal.checkpoint_bytes.get(session, 0)

    def checkpoint_due(self, session: str) -> bool:
        """The session's tail has grown to its last checkpoint's size."""
        tail, checkpoint = self.log_bytes(session)
        return tail >= checkpoint

    def log_event(self, kind: str, session: str, **fields: Any) -> None:
        """Observability frame (shed, close, adoption...): best-effort
        encoding, never replayed as an entry."""
        doc = {"k": kind, "session": session}
        doc.update(fields)
        self.wal.append(doc, strict=False)

    def forget(self, session: str) -> None:
        """Drop a closed session: truncation floor and cached journal."""
        self.wal.forget_session(session)
        self._journals.pop(session, None)

    def sessions(self) -> list[str]:
        return sorted(self._journals)

    def close(self) -> None:
        for journal in self._journals.values():
            if journal.active:
                journal.end_entry()
        self._journals.clear()
        self.wal.close()

    def __repr__(self) -> str:
        return (
            f"ShardDurability(wal={self.wal.name!r}, "
            f"sessions={len(self._journals)})"
        )
