"""Session snapshots: externalized whole-platform state (PR 5).

The paper's premise is that the middleware and its applications *are
models*; this module makes the remaining live state a model artifact
too.  A :class:`SessionSnapshot` is a versioned, JSON-serializable
document capturing everything a platform needs to resume exactly where
it left off:

* the middleware model (including reflective additions mirrored into
  it at runtime),
* per-layer state documents from the ``externalize()`` protocol
  (:mod:`repro.runtime.external`): UI workspace models, the synthesis
  runtime model + live LTS executions, controller context, and the
  broker's state manager / breaker / autonomic surface.

Two restore paths exist, mirroring the two failure modes:

* :meth:`Platform.restore_from` (via :func:`apply_snapshot`) applies a
  snapshot onto an already-built, *compatible* platform — the
  supervised-restart path, where the crashed layer objects survive and
  only their state was reset.
* :func:`restore_platform` rebuilds the whole platform from the
  snapshot's middleware model via the loader and then applies the
  state documents — the migration/cold-recovery path, where nothing
  but the snapshot (plus the domain's DSK callables) crosses the gap.

:class:`CheckpointScheduler` takes periodic snapshots on the clock's
timer queue and, wired to a :class:`~repro.runtime.component.Supervisor`,
re-applies the latest one after a supervised restart so the session
resumes from its checkpoint instead of cold.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable

from repro.modeling.serialize import (
    SerializationError,
    check_envelope,
    model_from_dict,
    model_to_dict,
)
from repro.runtime.clock import PeriodicTask
from repro.runtime.external import ExternalizeError

if TYPE_CHECKING:
    from repro.middleware.loader import DomainKnowledge
    from repro.middleware.platform import Platform
    from repro.runtime.clock import Clock
    from repro.runtime.component import Component, Supervisor
    from repro.runtime.durability import ShardDurability
    from repro.runtime.events import EventBus
    from repro.runtime.metrics import MetricsRegistry

__all__ = [
    "SNAPSHOT_FORMAT",
    "SNAPSHOT_VERSION",
    "SessionSnapshot",
    "capture_snapshot",
    "apply_snapshot",
    "restore_platform",
    "CheckpointScheduler",
    "RecoveryReport",
    "recover_session",
]

#: envelope identifying serialized session snapshots.
SNAPSHOT_FORMAT = "repro-session"
SNAPSHOT_VERSION = 1


@dataclass
class SessionSnapshot:
    """A captured session: middleware model + per-layer state docs."""

    name: str
    domain: str
    middleware_model: dict[str, Any]
    layers: dict[str, dict[str, Any]] = field(default_factory=dict)
    version: int = SNAPSHOT_VERSION

    def to_dict(self) -> dict[str, Any]:
        return {
            "format": SNAPSHOT_FORMAT,
            "version": self.version,
            "name": self.name,
            "domain": self.domain,
            "middleware_model": self.middleware_model,
            "layers": self.layers,
        }

    @classmethod
    def from_dict(cls, doc: dict[str, Any]) -> "SessionSnapshot":
        version = check_envelope(
            doc, expected_format=SNAPSHOT_FORMAT, max_version=SNAPSHOT_VERSION
        )
        try:
            return cls(
                name=str(doc["name"]),
                domain=str(doc["domain"]),
                middleware_model=dict(doc["middleware_model"]),
                layers={
                    key: dict(value)
                    for key, value in dict(doc.get("layers", {})).items()
                },
                version=version,
            )
        except KeyError as exc:
            raise SerializationError(
                f"session snapshot missing required key {exc}"
            ) from exc

    def to_json(self, *, indent: int | None = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=False)

    @classmethod
    def from_json(cls, text: str) -> "SessionSnapshot":
        try:
            doc = json.loads(text)
        except json.JSONDecodeError as exc:
            raise SerializationError(f"invalid JSON: {exc}") from exc
        if not isinstance(doc, dict):
            raise SerializationError("top-level JSON value must be an object")
        return cls.from_dict(doc)


# -- capture ---------------------------------------------------------------


def _layer_digest(doc: dict[str, Any]) -> int:
    """Order-stable digest of one externalized layer doc."""
    import zlib

    return zlib.crc32(
        json.dumps(doc, sort_keys=True, default=repr).encode("utf-8")
    )


def capture_snapshot(
    platform: "Platform", *, dirty_only: bool = False
) -> SessionSnapshot:
    """Externalize a platform's full mutable state.

    Capture is cheap enough to run on the hot path's shard thread (the
    benchmark gate holds it under 5% of E1 when idle) and must happen
    on that thread under the sharded runtime — the capture itself is
    the quiesce point.

    ``dirty_only=True`` captures a *delta*: only layers whose
    externalized doc changed since the previous digest baseline on this
    platform (set by the last ``dirty_only`` capture, or explicitly by
    a :class:`CheckpointScheduler` after a full checkpoint) are kept in
    ``layers``.  The envelope (name/domain/middleware model) is always
    full, so the result folds onto any earlier full snapshot by layer
    union.
    """
    layers: dict[str, dict[str, Any]] = {}
    if platform.ui is not None:
        layers["ui"] = platform.ui.externalize()
    if platform.synthesis is not None:
        layers["synthesis"] = platform.synthesis.externalize()
    if platform.controller is not None:
        layers["controller"] = platform.controller.externalize()
    if platform.broker is not None:
        layers["broker"] = platform.broker.externalize()
    if dirty_only:
        digests = {name: _layer_digest(doc) for name, doc in layers.items()}
        baseline = getattr(platform, "_checkpoint_digests", None) or {}
        layers = {
            name: doc
            for name, doc in layers.items()
            if baseline.get(name) != digests[name]
        }
        platform._checkpoint_digests = digests  # type: ignore[attr-defined]
    return SessionSnapshot(
        name=platform.name,
        domain=platform.domain,
        middleware_model=model_to_dict(platform.middleware_model),
        layers=layers,
    )


# -- restore ---------------------------------------------------------------


def _apply_layer_docs(
    platform: "Platform", layers: dict[str, dict[str, Any]]
) -> None:
    if platform.broker is not None and "broker" in layers:
        platform.broker.restore_external(
            layers["broker"], metamodel=platform.dsml
        )
    if platform.controller is not None and "controller" in layers:
        platform.controller.restore_external(layers["controller"])
    if platform.synthesis is not None and "synthesis" in layers:
        platform.synthesis.restore_external(layers["synthesis"])
    if platform.ui is not None and "ui" in layers:
        platform.ui.restore_external(layers["ui"])


def apply_snapshot(platform: "Platform", snapshot: SessionSnapshot) -> "Platform":
    """Apply a snapshot's layer state onto a compatible platform.

    The platform must be started (dispatcher listeners and the
    controller's stack machine only exist then) and of the same domain.
    Layers restore bottom-up so upper-layer re-announcements (the
    synthesis dispatcher notifying the UI runtime view) land on
    already-consistent lower layers.

    Restore is all-or-nothing: the pre-restore state is captured first
    and rolled back if a layer fails partway, re-raising the original
    error with the platform still consistent.  If even the rollback
    fails, ``platform.failed`` is set so supervisors/pools refuse to
    route into a half-restored session and instead retry from the
    snapshot.
    """
    if snapshot.domain != platform.domain:
        raise ExternalizeError(
            f"snapshot of domain {snapshot.domain!r} cannot restore a "
            f"{platform.domain!r} platform"
        )
    if not platform.started:
        raise ExternalizeError(
            f"platform {platform.name!r} must be started before restore "
            f"(layer machinery is built on start)"
        )
    try:
        rollback = capture_snapshot(platform)
    except Exception:  # noqa: BLE001 - capture failure ≠ restore failure
        rollback = None
    try:
        _apply_layer_docs(platform, snapshot.layers)
    except Exception as exc:
        if rollback is None:
            platform.failed = True
            raise
        try:
            _apply_layer_docs(platform, rollback.layers)
        except Exception:  # noqa: BLE001 - double fault: mark and surface
            platform.failed = True
            raise ExternalizeError(
                f"restore of {platform.name!r} failed mid-layer and "
                f"rollback also failed; platform marked failed for "
                f"supervised retry from the snapshot"
            ) from exc
        raise  # rolled back: surface the original error, state consistent
    platform.failed = False
    return platform


def restore_platform(
    snapshot: SessionSnapshot,
    dsk: "DomainKnowledge",
    *,
    bus: "EventBus | None" = None,
    clock: "Clock | None" = None,
    metrics: "MetricsRegistry | None" = None,
    aot: bool = False,
) -> "Platform":
    """Rebuild a platform from a snapshot (migration / cold recovery).

    The middleware model travels inside the snapshot — including any
    reflective additions mirrored into it — so the loader rebuilds the
    exact layer configuration the source session was running.  ``dsk``
    supplies the non-serializable domain knowledge (metamodel object,
    resource instances, Python-implemented actions); it must be the
    same DSK the source session was loaded with.

    ``aot=True`` re-enables the Tier-3 generated module *after* the
    snapshot is applied — restore may re-install dynamic broker
    actions, so the module is compiled from the fully restored DSK.
    """
    from repro.middleware.loader import load_platform
    from repro.middleware.metamodel import middleware_metamodel

    model = model_from_dict(snapshot.middleware_model, middleware_metamodel())
    platform = load_platform(
        model, dsk, bus=bus, clock=clock, metrics=metrics, start=True
    )
    try:
        restored = apply_snapshot(platform, snapshot)
        if aot and restored.synthesis is not None:
            restored.enable_aot()
        return restored
    except Exception:
        # Never leak a started half-restored platform: tear it down so
        # its bus subscriptions and resources are released before the
        # caller retries from the snapshot.
        try:
            platform.stop()
        except Exception:  # noqa: BLE001 - teardown is best-effort
            pass
        raise


# -- periodic checkpointing -------------------------------------------------


class CheckpointScheduler(PeriodicTask):
    """Periodic platform checkpoints + supervised warm recovery.

    Ticks follow :class:`~repro.runtime.clock.PeriodicTask`: they
    self-schedule on clocks with a timer queue; on plain wall clocks
    the owner drives :meth:`tick` explicitly (e.g. between workload
    steps).

    :meth:`attach` wires the scheduler to a supervisor: after any
    successful supervised restart the latest snapshot is re-applied to
    the platform, turning a cold restart into a resume-from-checkpoint.
    """

    def __init__(
        self,
        platform: "Platform",
        *,
        interval: float = 1.0,
        clock: "Clock | None" = None,
        on_checkpoint: Callable[[SessionSnapshot], None] | None = None,
        durability: "ShardDurability | None" = None,
        session: str | None = None,
        apply_entry: Callable[[Any, Any], Any] | None = None,
        delta: bool = False,
        full_every: int = 8,
    ) -> None:
        if interval <= 0:
            raise ValueError("checkpoint interval must be > 0")
        self.platform = platform
        self.interval = interval
        self.clock = clock or platform.clock
        self.on_checkpoint = on_checkpoint
        #: optional ShardDurability: ticks become durable checkpoint
        #: frames in its log (snapshot-then-truncate) and supervised
        #: recovery upgrades to restore-latest-snapshot + replay-tail.
        self.durability = durability
        self.session = session if session is not None else platform.name
        self.apply_entry = apply_entry
        #: delta mode (PR 10): between full checkpoints, ticks write
        #: dirty-layer-only delta frames (no rotation/truncation);
        #: every ``full_every``-th tick promotes to a full checkpoint
        #: so the truncation floor keeps advancing.
        self.delta = bool(delta)
        self.full_every = max(1, int(full_every))
        self.delta_checkpoints = 0
        self.delta_skipped = 0
        self._ticks_since_full = 0
        self.last_snapshot: SessionSnapshot | None = None
        self.last_recovery: "RecoveryReport | None" = None
        self.checkpoints_taken = 0
        self.recoveries = 0

    @property
    def checkpoint_errors(self) -> int:
        """Ticks that raised (the schedule kept going)."""
        return self.errors

    # -- ticking -----------------------------------------------------------

    def tick(self) -> SessionSnapshot:
        """Take one checkpoint now (also the manual-drive entry point)."""
        use_delta = (
            self.delta
            and self.last_snapshot is not None
            and self._ticks_since_full < self.full_every
        )
        if use_delta:
            delta_snapshot = capture_snapshot(self.platform, dirty_only=True)
            self._ticks_since_full += 1
            if delta_snapshot.layers and self.durability is not None:
                self.durability.checkpoint(
                    self.session, delta_snapshot.to_dict(), delta=True
                )
                self.delta_checkpoints += 1
            elif not delta_snapshot.layers:
                self.delta_skipped += 1
            # fold onto the last full snapshot so warm supervised
            # recovery (_on_restarted) still re-applies *every* layer —
            # a clean layer may have drifted after a crash.
            assert self.last_snapshot is not None
            folded = SessionSnapshot(
                name=delta_snapshot.name,
                domain=delta_snapshot.domain,
                middleware_model=delta_snapshot.middleware_model,
                layers={**self.last_snapshot.layers, **delta_snapshot.layers},
            )
            self.last_snapshot = folded
            self.checkpoints_taken += 1
            if self.on_checkpoint is not None:
                self.on_checkpoint(folded)
            return folded
        snapshot = capture_snapshot(self.platform)
        if self.durability is not None:
            # Durable snapshot-then-truncate: the checkpoint frame
            # records the position it covers and older segments drop.
            # A platform snapshot embeds every session the platform
            # hosts, so it covers them all.
            self.durability.checkpoint(
                self.session, snapshot.to_dict(), cover_all=True
            )
        if self.delta:
            # reset the dirty baseline to this full checkpoint.
            self.platform._checkpoint_digests = {  # type: ignore[attr-defined]
                name: _layer_digest(doc)
                for name, doc in snapshot.layers.items()
            }
            self._ticks_since_full = 0
        self.last_snapshot = snapshot
        self.checkpoints_taken += 1
        if self.on_checkpoint is not None:
            self.on_checkpoint(snapshot)
        return snapshot

    # -- supervised recovery ---------------------------------------------------

    def attach(self, supervisor: "Supervisor") -> "CheckpointScheduler":
        """Re-apply the latest checkpoint after supervised restarts."""
        supervisor.on_restarted = self._on_restarted
        return self

    def _on_restarted(self, component: "Component") -> None:
        if (
            self.durability is not None
            and self.apply_entry is not None
            and self.last_snapshot is not None
        ):
            # Exactly-once warm recovery: restore the latest durable
            # checkpoint, then replay the WAL tail with memoized
            # external effects and (trace_id, seq) dedup.
            self.last_recovery = recover_session(
                self.durability.wal,
                session=self.session,
                apply_entry=self.apply_entry,
                platform=self.platform,
            )
            self.recoveries += 1
            return
        if self.last_snapshot is None:
            return
        # A layer restart resets only that layer's state, but the
        # snapshot is whole-session and idempotent — re-applying it
        # across all layers is the simplest consistent recovery.
        apply_snapshot(self.platform, self.last_snapshot)
        self.recoveries += 1


# -- durable sessions (write-ahead log + exactly-once recovery) -------------


@dataclass
class RecoveryReport:
    """What :func:`recover_session` did: the restored platform, the
    checkpoint it started from, and the tail it replayed."""

    platform: "Platform"
    snapshot: SessionSnapshot | None
    replayed_entries: int = 0
    deduplicated: int = 0
    effects_memoized: int = 0
    effects_live: int = 0
    errors: list[tuple[int, Exception]] = field(default_factory=list)
    journal: Any = None


def recover_session(
    wal: Any,
    *,
    session: str,
    apply_entry: Callable[["Platform", Any], Any],
    platform: "Platform | None" = None,
    dsk: "DomainKnowledge | None" = None,
    bus: "EventBus | None" = None,
    clock: "Clock | None" = None,
    metrics: "MetricsRegistry | None" = None,
    checkpoint_session: str | None = None,
) -> RecoveryReport:
    """Restore-latest-snapshot + replay-tail from a write-ahead log.

    Scans ``wal`` for ``session``'s latest ``checkpoint`` frame and the
    ``entry``/``applied`` frames after it, then:

    1. restores the checkpoint — onto the given warm ``platform``, or
       by rebuilding one from the embedded snapshot via
       :func:`restore_platform` (requires ``dsk``);
    2. replays each tail entry through ``apply_entry(platform, signal)``
       with an :class:`~repro.runtime.wal.EffectJournal` installed on
       the broker, so external operations whose outcomes were recorded
       return memoized results instead of re-executing — and entries
       are deduplicated by ``(trace_id, seq)``.  Delivery is therefore
       exactly-once even though the log is written at-least-once.

    If the log holds no checkpoint for the session, a warm ``platform``
    is assumed to be at log-start state and the *whole* entry sequence
    replays (cold bootstrap); without a platform this raises
    :class:`~repro.runtime.wal.WalError`.

    Entries whose replay raises are recorded in ``report.errors`` and
    recovery continues — an entry that failed identically before the
    crash must not wedge the session forever.

    ``checkpoint_session`` names the log session whose checkpoint
    frames act as this session's restore barrier — the shard-level
    case (PR 10), where one platform hosts many sessions and the
    :class:`CheckpointScheduler` checkpoints under the platform's name
    with ``cover_all``.  Checkpoint frames marked ``covers_all`` are
    honored regardless.
    """
    from repro.runtime.events import advance_signal_seq
    from repro.runtime.wal import (
        EffectJournal,
        WalError,
        signal_from_doc,
    )

    checkpoint_doc: dict[str, Any] | None = None
    entries: list[dict[str, Any]] = []
    effects: dict[int, list[list[Any]]] = {}
    applied: set[int] = set()
    max_seq = 0
    ckpt_owner = session if checkpoint_session is None else checkpoint_session
    for _position, doc in wal.replay():
        kind = doc.get("k")
        owner = str(doc.get("session", ""))
        if kind == "checkpoint":
            if owner not in (session, ckpt_owner) and not doc.get(
                "covers_all"
            ):
                continue
        elif owner != session:
            continue
        if kind == "checkpoint":
            if doc.get("delta"):
                # Dirty-layer delta: folds onto the latest full
                # checkpoint by layer union.  A delta with no base
                # (base truncated away, or an imported partial tail) is
                # skipped — the entries it covered are still in the
                # scan and will replay instead.
                if checkpoint_doc is None:
                    continue
                base = dict(checkpoint_doc["snapshot"])
                merged = dict(base.get("layers", {}))
                merged.update(doc["snapshot"].get("layers", {}))
                base["layers"] = merged
                checkpoint_doc = {**checkpoint_doc, "snapshot": base}
            else:
                checkpoint_doc = doc
            entries.clear()
            effects.clear()
            applied.clear()
        elif kind == "entry":
            entries.append(doc["sig"])
            max_seq = max(max_seq, int(doc["sig"].get("seq", 0)))
        elif kind == "applied":
            seq = int(doc["entry_seq"])
            applied.add(seq)
            sealed = doc.get("effects")
            if sealed:
                effects[seq] = sealed
        elif kind == "effect":
            # tolerant reader: frame-per-effect layout from older logs,
            # normalized to the sealed record shape ([label, "ok",
            # value] / [label, "error", type, message]).
            record = (
                [doc.get("label"), "ok", doc.get("value")]
                if doc.get("status") == "ok"
                else [
                    doc.get("label"),
                    "error",
                    str(doc.get("error_type", "Exception")),
                    str(doc.get("error", "")),
                ]
            )
            effects.setdefault(int(doc["entry_seq"]), []).append(record)

    snapshot: SessionSnapshot | None = None
    if checkpoint_doc is not None:
        snapshot = SessionSnapshot.from_dict(checkpoint_doc["snapshot"])
    if platform is None:
        if snapshot is None:
            raise WalError(
                f"no checkpoint for session {session!r} in {wal!r} and "
                f"no warm platform to replay onto"
            )
        if dsk is None:
            raise WalError(
                "cold recovery needs the domain's DSK to rebuild the "
                "platform from the snapshot"
            )
        platform = restore_platform(
            snapshot, dsk, bus=bus, clock=clock, metrics=metrics
        )
    elif snapshot is not None:
        apply_snapshot(platform, snapshot)

    if max_seq:
        advance_signal_seq(max_seq)
    journal = EffectJournal(wal, session=session)
    if platform.broker is not None:
        platform.broker.resources.install_effect_journal(journal)
    report = RecoveryReport(platform=platform, snapshot=snapshot, journal=journal)
    seen: set[tuple[int, int]] = set()
    for sig_doc in entries:
        signal = signal_from_doc(sig_doc)
        key = (signal.trace_id, signal.seq)
        if key in seen:
            report.deduplicated += 1
            continue
        seen.add(key)
        journal.begin_entry(
            signal,
            recorded_effects=effects.get(signal.seq),
            already_applied=signal.seq in applied,
        )
        error: Exception | None = None
        try:
            apply_entry(platform, signal)
        except Exception as exc:  # noqa: BLE001 - deterministic re-raise
            error = exc
        try:
            journal.end_entry()
        except WalError as exc:
            error = error if error is not None else exc
        if error is not None:
            report.errors.append((signal.seq, error))
        report.replayed_entries += 1
    report.effects_memoized = journal.replayed
    report.effects_live = journal.recorded
    return report
