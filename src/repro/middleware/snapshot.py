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
from typing import TYPE_CHECKING, Any, Callable, Iterable

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
    from repro.runtime.events import EventBus
    from repro.runtime.metrics import MetricsRegistry
    from repro.runtime.wal import WriteAheadLog

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


def capture_snapshot(platform: "Platform") -> SessionSnapshot:
    """Externalize a platform's full mutable state.

    Capture is cheap enough to run on the hot path's shard thread (the
    benchmark gate holds it under 5% of E1 when idle) and must happen
    on that thread under the sharded runtime — the capture itself is
    the quiesce point.
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


def _check_domain(platform: "Platform", snapshot: SessionSnapshot) -> None:
    if snapshot.domain != platform.domain:
        raise ExternalizeError(
            f"snapshot of domain {snapshot.domain!r} cannot restore a "
            f"{platform.domain!r} platform"
        )


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
    _check_domain(platform, snapshot)
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
) -> "Platform":
    """Rebuild a platform from a snapshot (migration / cold recovery).

    The middleware model travels inside the snapshot — including any
    reflective additions mirrored into it — so the loader rebuilds the
    exact layer configuration the source session was running.  ``dsk``
    supplies the non-serializable domain knowledge (metamodel object,
    resource instances, Python-implemented actions); it must be the
    same DSK the source session was loaded with.

    The generated (Tier-3) tables are reinstalled *after* the snapshot
    is applied when restore re-installed dynamic broker actions, so
    they always match the fully restored DSK.  No rollback snapshot is
    taken: a platform that fails here is torn down.
    """
    from repro.middleware.loader import load_platform
    from repro.middleware.metamodel import middleware_metamodel
    from repro.middleware.synthesis.aot import install_generated

    model = model_from_dict(snapshot.middleware_model, middleware_metamodel())
    platform = load_platform(
        model, dsk, bus=bus, clock=clock, metrics=metrics, start=True
    )
    try:
        _check_domain(platform, snapshot)
        _apply_layer_docs(platform, snapshot.layers)
        install_generated(platform)
        return platform
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
    ) -> None:
        if interval <= 0:
            raise ValueError("checkpoint interval must be > 0")
        self.platform = platform
        self.interval = interval
        self.clock = clock or platform.clock
        self.on_checkpoint = on_checkpoint
        self.last_snapshot: SessionSnapshot | None = None
        self.checkpoints_taken = 0
        self.recoveries = 0

    @property
    def checkpoint_errors(self) -> int:
        """Ticks that raised (the schedule kept going)."""
        return self.errors

    # -- ticking -----------------------------------------------------------

    def tick(self) -> SessionSnapshot:
        """Take one checkpoint now (also the manual-drive entry point)."""
        snapshot = capture_snapshot(self.platform)
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


def recover_session(
    frames: Iterable[dict[str, Any]],
    *,
    session: str,
    apply_entry: Callable[["Platform", Any], Any],
    wal: "WriteAheadLog | None" = None,
    platform: "Platform | None" = None,
    dsk: "DomainKnowledge | None" = None,
    bus: "EventBus | None" = None,
    clock: "Clock | None" = None,
    metrics: "MetricsRegistry | None" = None,
) -> RecoveryReport:
    """Restore-latest-snapshot + replay-tail from write-ahead frames.

    Takes ``session``'s tail of ``frames`` (decoded frame docs in log
    order, see :func:`~repro.runtime.wal.session_tail`): its latest
    ``checkpoint`` frame and the ``entry``/``applied`` frames after it.
    When that checkpoint is a ``covers_all`` shard snapshot, the tail
    holds every session's frames after it, and all of them replay:
    restoring the shard snapshot rolls back every session it hosts.
    Then:

    1. restores the checkpoint — onto the given warm ``platform``, or
       by rebuilding one from the embedded snapshot via
       :func:`restore_platform` (requires ``dsk``).  A worker's capture
       doc (``{domain, dsk_hash, snapshot, services}``) restores from
       the snapshot it embeds;
    2. replays each tail ``call`` entry (never a routed ``event``,
       which only records a delivery) through
       ``apply_entry(platform, signal)`` with an
       :class:`~repro.runtime.wal.EffectJournal` installed on the
       broker, so external operations whose outcomes were recorded
       return memoized results instead of re-executing — and entries
       are deduplicated by ``(trace_id, seq)``.  Delivery is therefore
       exactly-once even though the log is written at-least-once.
       Entries that re-execute (no seal) are sealed under their own
       session (one journal each) into ``wal``, the live log the frames
       came from, so a second recovery memoizes them; without one their
       seals are discarded.

    If the log holds no checkpoint for the session, a warm ``platform``
    is assumed to be at log-start state and the *whole* entry sequence
    replays (cold bootstrap); without a platform this raises
    :class:`~repro.runtime.wal.WalError`.

    Entries whose replay raises are recorded in ``report.errors`` and
    recovery continues — an entry that failed identically before the
    crash must not wedge the session forever.
    """
    from repro.runtime.events import advance_signal_seq
    from repro.runtime.wal import (
        EffectJournal,
        WalError,
        session_tail,
        signal_from_doc,
    )

    tail = session_tail(frames, session)
    checkpoint_doc: dict[str, Any] | None = None
    if tail and tail[0].get("k") == "checkpoint":
        checkpoint_doc = tail[0]
    entries: list[tuple[str, dict[str, Any]]] = []
    effects: dict[int, list[list[Any]]] = {}
    applied: set[int] = set()
    max_seq = 0
    for doc in tail:
        kind = doc.get("k")
        if kind == "entry":
            sig = doc["sig"]
            max_seq = max(max_seq, int(sig.get("seq", 0)))
            if sig.get("kind") == "call":
                entries.append((str(doc.get("session", "")), sig))
        elif kind == "applied":
            seq = int(doc["entry_seq"])
            applied.add(seq)
            sealed = doc.get("effects")
            if sealed:
                effects[seq] = sealed

    snapshot: SessionSnapshot | None = None
    if checkpoint_doc is not None:
        snapshot_doc = checkpoint_doc["snapshot"]
        if "services" in snapshot_doc or "dsk_hash" in snapshot_doc:
            snapshot_doc = snapshot_doc.get("snapshot") or {}
        snapshot = SessionSnapshot.from_dict(snapshot_doc)
    if platform is None:
        if snapshot is None:
            raise WalError(
                f"no checkpoint for session {session!r} and no warm "
                f"platform to replay onto"
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
    broker = platform.broker
    resources = broker.resources if broker is not None else None
    journals: dict[str, EffectJournal] = {}
    report = RecoveryReport(platform=platform, snapshot=snapshot)
    seen: set[tuple[int, int]] = set()
    for owner, sig_doc in entries:
        signal = signal_from_doc(sig_doc)
        key = (signal.trace_id, signal.seq)
        if key in seen:
            report.deduplicated += 1
            continue
        seen.add(key)
        journal = journals.get(owner)
        if journal is None:
            journal = journals[owner] = EffectJournal(wal, session=owner)
        if resources is not None and resources.effect_journal is not journal:
            resources.install_effect_journal(journal)
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
    report.effects_memoized = sum(j.replayed for j in journals.values())
    report.effects_live = sum(j.recorded for j in journals.values())
    return report
