"""The assembled MD-DSM platform.

A :class:`Platform` is the realized middleware instance for one domain:
the four reference-architecture layers wired together (paper Sec. III),
with the *layer suppression* variants of Secs. IV-C/IV-D supported by
simply omitting layers (2SVM controller node: top three layers; smart
object node: bottom two; CSVM provider: bottom three).

The platform also exposes the models@runtime reflection loop
(Sec. III): :meth:`reflect` returns the live middleware model;
:meth:`apply_reflection` accepts an edited copy, diffs it against the
live model, and applies the supported change classes (adding policies,
procedures, classifiers, actions) "at runtime with immediate effect".
"""

from __future__ import annotations

from typing import Any, Callable

from repro.middleware.broker.layer import BrokerLayer
from repro.middleware.controller.layer import ControllerLayer, ScriptOutcome
from repro.middleware.synthesis.engine import SynthesisEngine, SynthesisResult
from repro.middleware.synthesis.scripts import ControlScript
from repro.middleware.ui import ModelWorkspace
from repro.modeling import serialize
from repro.modeling.diff import diff_models
from repro.modeling.meta import Metamodel
from repro.modeling.model import Model, MObject
from repro.modeling.serialize import clone_model, clone_object
from repro.runtime.clock import Clock, WallClock
from repro.runtime.durability import DurabilityPolicy
from repro.runtime.events import EventBus
from repro.runtime.metrics import MetricsRegistry, default_registry
from repro.runtime.sharded import (
    Shard,
    ShardedRuntime,
    current_shard,
)

__all__ = [
    "PlatformError", "Platform", "PlatformPool", "apply_entry", "emit_event",
]


def emit_event(spec: dict, key: str, signal: Any = None) -> Any:
    """Build the :class:`Event` for one ``doc["emit"]`` directive.

    Derived from ``signal`` (the step's write-ahead entry) when given —
    same ``trace_id``, ``parent_seq`` = the entry's seq — else a fresh
    trace root.  Shared by the live fabric path
    (:meth:`PlatformPool.submit_doc`) and the replayer
    (:func:`apply_entry`), which is what makes a
    logged emission structurally reproducible under replay.
    """
    from repro.runtime.events import Event

    topic = str(spec.get("topic", "session.emit"))
    payload = dict(spec.get("payload") or {})
    if signal is None:
        return Event(topic=topic, payload=payload, origin=key)
    return Event(
        topic=topic,
        payload=payload,
        origin=key,
        trace_id=signal.trace_id,
        parent_seq=signal.seq,
    )


def apply_entry(platform: "Platform", signal: Any) -> Any:
    """Apply one logged entry signal to a platform (live or replay).

    Entries are self-describing JSON documents, so the same function
    runs live and during replay: ``run_model`` carries the serialized
    application model, ``api`` a broker API invocation.  Environment
    faults (``service.inject_failure``) are not entries — they are the
    world failing, not session work, and must not replay.

    Re-derives the entry's declared cross-session emissions
    (``doc["emit"]``) after the op applies, exactly as the live fabric
    does (:meth:`PlatformPool.submit_doc`), so a replayed entry mints
    the same causal children the fabric routed — and logged — the
    first time.
    """
    doc = signal.payload
    op = doc.get("op")
    if op == "run_model":
        value = platform.run_model_doc(doc["model"])
    elif op == "api":
        value = platform.broker.call_api(doc["api"], **doc.get("args", {}))
    else:
        raise ValueError(f"unknown durable entry op {op!r}")
    for spec in doc.get("emit") or ():
        emit_event(spec, signal.origin or "", signal)
    return value


class PlatformError(Exception):
    """Raised on invalid platform operations."""


class Platform:
    """A running middleware instance for one application domain."""

    def __init__(
        self,
        name: str,
        domain: str,
        *,
        middleware_model: Model,
        dsml: Metamodel,
        ui: ModelWorkspace | None = None,
        synthesis: SynthesisEngine | None = None,
        controller: ControllerLayer | None = None,
        broker: BrokerLayer | None = None,
        bus: EventBus | None = None,
        clock: Clock | None = None,
        metrics: MetricsRegistry | None = None,
    ) -> None:
        self.name = name
        self.domain = domain
        self.middleware_model = middleware_model
        self.dsml = dsml
        self.ui = ui
        self.synthesis = synthesis
        self.controller = controller
        self.broker = broker
        self.clock = clock or WallClock()
        self.metrics = metrics if metrics is not None else default_registry()
        self.bus = bus or EventBus(
            name=f"{name}.bus", clock=self.clock, metrics=self.metrics
        )
        #: generic components realized from the middleware model's
        #: ComponentDef elements (started/stopped with the platform).
        from repro.runtime.registry import Registry

        self.components = Registry(name=f"{name}.components")
        self.started = False
        #: set when a snapshot restore failed partway AND could not be
        #: rolled back (see repro.middleware.snapshot.apply_snapshot):
        #: the platform state is inconsistent, and a PlatformPool runs
        #: no work on it until a later restore succeeds.
        self.failed = False
        self._wire()

    # -- wiring ----------------------------------------------------------

    def _wire(self) -> None:
        if self.controller is not None and self.broker is not None:
            self.controller.wire("broker", self.broker)
            self.broker.wire("upward", self.controller)
        if self.synthesis is not None and self.controller is not None:
            self.synthesis.wire("downward", self.controller)
            # Controller-raised events reach the Synthesis interpreter.
            self.controller.events.on(
                "controller.*",
                lambda topic, payload: self.synthesis.handle_event(topic, payload),
            )
        if self.ui is not None and self.synthesis is not None:
            self.ui.wire("synthesis", self.synthesis)

    @property
    def layers(self) -> list[Any]:
        return [
            layer
            for layer in (self.ui, self.synthesis, self.controller, self.broker)
            if layer is not None
        ]

    def layer_names(self) -> list[str]:
        return [layer.name for layer in self.layers]

    # -- lifecycle ------------------------------------------------------------

    def start(self) -> "Platform":
        if self.started:
            return self
        # Bottom-up: a layer's on_start may use the one below it.
        for layer in reversed(self.layers):
            if not layer.running:
                layer.start()
        self.components.start_all()
        self.started = True
        return self

    def stop(self) -> "Platform":
        if not self.started:
            return self
        self.components.stop_all()
        for layer in self.layers:
            if layer.running:
                layer.stop()
        self.started = False
        return self

    def __enter__(self) -> "Platform":
        return self.start()

    def __exit__(self, *exc_info: object) -> None:
        self.stop()

    # -- application model execution -------------------------------------------

    def run_model(self, model: Model, **context: Any) -> SynthesisResult:
        """Execute an application model through the full stack."""
        self._require(self.synthesis, "synthesis")
        if self.ui is not None:
            self.ui.put_model(model)
            return self.ui.submit(model, **context)
        return self.synthesis.synthesize(model, context=context or None)

    def run_model_doc(self, doc: dict) -> SynthesisResult:
        """Decode a serialized application model and execute it as the
        platform's own model: the one entry point of the wire paths
        (:func:`apply_entry`, the cluster worker backend).

        No caller holds the decoded model, so the dispatcher adopts it
        as the runtime model without a copy; the workspace and the
        returned result copy it on first read.
        """
        self._require(self.synthesis, "synthesis")
        # Looked up on the module at call time, so a wrapped decoder
        # (tracing) sees every wire decode.
        model = serialize.model_from_dict(doc, self.dsml)
        with self.synthesis.dispatcher.adopting(model):
            result = self.run_model(model)
        if result.accepted_model is not model:
            return result  # a negotiator replaced it: promote copied
        return SynthesisResult(
            result.script, result.changes, model, shared=True)

    def run_script(self, script: ControlScript) -> ScriptOutcome:
        """Execute a pre-synthesized control script (suppressed-stack
        nodes receive scripts from a remote Synthesis layer)."""
        self._require(self.controller, "controller")
        return self.controller.submit_script(script)

    def teardown_model(self) -> SynthesisResult:
        self._require(self.synthesis, "synthesis")
        return self.synthesis.teardown_script()

    # -- checkpoint / restore (PR 5) -------------------------------------------

    def checkpoint(self) -> "Any":
        """Capture this session as a :class:`SessionSnapshot`."""
        from repro.middleware.snapshot import capture_snapshot

        return capture_snapshot(self)

    def restore_from(self, snapshot: "Any") -> "Platform":
        """Apply a captured snapshot onto this (compatible) platform."""
        from repro.middleware.snapshot import apply_snapshot

        return apply_snapshot(self, snapshot)

    # -- models@runtime reflection -------------------------------------------------

    def reflect(self) -> Model:
        """An editable copy of the live middleware model."""
        return clone_model(self.middleware_model)

    def apply_reflection(self, edited: Model) -> list[str]:
        """Apply supported middleware-model edits at runtime.

        Supported change classes (additions take immediate effect):
        ``PolicyDef``, ``ProcedureDef``, ``DSCDef``,
        ``ControllerActionDef``, ``BrokerActionDef``, ``SymptomDef``,
        ``ChangePlanDef``.  Returns a human-readable list of applied
        changes; unsupported structural edits raise.  The generated
        tables an addition dropped are rebuilt once, at the end of the
        batch (also when the batch fails part-way).
        """
        from repro.middleware import loader as _loader
        from repro.middleware.broker.actions import BrokerAction
        from repro.middleware.broker.autonomic import ChangePlan, Symptom
        from repro.middleware.controller.policy import Policy
        from repro.middleware.metamodel import loads_json_attr
        from repro.middleware.synthesis.aot import install_generated

        changes = diff_models(self.middleware_model, edited)
        applied: list[str] = []
        live_index = self.middleware_model.index()
        added_ids = {
            c.object_id for c in changes if c.kind == "add"
        }
        try:
            for change in changes:
                if change.kind != "add" or change.new_object is None:
                    raise PlatformError(
                        f"unsupported runtime middleware change: {change}; "
                        f"only additions are applied reflectively (restart "
                        f"for the rest)"
                    )
                element = change.new_object
                container = element.container
                if container is not None and container.id in added_ids:
                    continue  # travels with its added parent (subtree root)
                self._apply_addition(
                    element, applied, live_index,
                    Policy=Policy, BrokerAction=BrokerAction,
                    Symptom=Symptom, ChangePlan=ChangePlan,
                    loader=_loader, loads_json_attr=loads_json_attr,
                )
        finally:
            install_generated(self)
        return applied

    def _apply_addition(
        self,
        element: MObject,
        applied: list[str],
        live_index: dict[str, MObject],
        **ns: Any,
    ) -> None:
        loader = ns["loader"]
        cls = element.meta.name
        if cls == "PolicyDef" and self.controller is not None:
            self.controller.policies.add(
                ns["Policy"](
                    name=str(element.get("name")),
                    condition=str(element.get("condition")),
                    weights=ns["loads_json_attr"](element.get("weightsJson"), {}),
                    prefer=ns["loads_json_attr"](element.get("preferJson"), {}),
                    force_case=element.get("forceCase") or None,
                    applies_to=str(element.get("appliesTo") or ""),
                    advice=ns["loads_json_attr"](element.get("adviceJson"), {}),
                    priority=int(element.get("priority")),
                )
            )
        elif cls == "DSCDef" and self.controller is not None:
            self.controller.taxonomy.define(
                str(element.get("name")),
                kind=str(element.get("kind")),
                parent=element.get("parent") or None,
                constraints=ns["loads_json_attr"](element.get("constraintsJson"), {}),
            )
        elif cls == "ProcedureDef" and self.controller is not None:
            self.controller.repository.add(loader._procedure_from_def(element))
            self.controller.generator.invalidate()
        elif cls == "ControllerActionDef" and self.controller is not None:
            self.controller.install_action(loader._action_from_def(element))
        elif cls == "BrokerActionDef" and self.broker is not None:
            self.broker.install_action(
                ns["BrokerAction"](
                    name=str(element.get("name")),
                    pattern=str(element.get("pattern")),
                    implementation=[
                        loader._step_dict(s) for s in element.get("steps")
                    ],
                    guard=element.get("guard") or None,
                    priority=int(element.get("priority")),
                )
            )
        elif cls == "SymptomDef" and self.broker is not None:
            self.broker.install_symptom(
                ns["Symptom"](
                    name=str(element.get("name")),
                    condition=str(element.get("condition")),
                    request_kind=str(element.get("requestKind")),
                    on_topic=element.get("onTopic") or None,
                    cooldown=float(element.get("cooldown")),
                )
            )
        elif cls == "ChangePlanDef" and self.broker is not None:
            self.broker.install_plan(
                ns["ChangePlan"](
                    name=str(element.get("name")),
                    request_kind=str(element.get("requestKind")),
                    steps=[loader._step_dict(s) for s in element.get("steps")],
                    guard=element.get("guard") or None,
                )
            )
        else:
            raise PlatformError(
                f"unsupported reflective addition of {cls!r} "
                f"(or its layer is suppressed)"
            )
        # Mirror the addition into the live middleware model so further
        # reflection rounds diff against up-to-date state.
        container = element.container
        if container is not None and container.id in live_index:
            ref = element.containing_reference
            assert ref is not None
            copied = clone_object(element)
            if ref.many:
                live_index[container.id].get(ref.name).append(copied)
            else:
                live_index[container.id].set(ref.name, copied)
        applied.append(f"added {cls} {element.get('name') if element.meta.find_feature('name') else element.id}")

    # -- diagnostics ----------------------------------------------------------------

    def stats(self) -> dict[str, Any]:
        stats: dict[str, Any] = {"name": self.name, "domain": self.domain}
        if self.synthesis is not None:
            stats["synthesis"] = self.synthesis.stats()
        if self.controller is not None:
            stats["controller"] = self.controller.stats()
        if self.broker is not None:
            stats["broker"] = self.broker.stats()
        return stats

    def metrics_report(self) -> str:
        """Per-topic counters and latency histograms (human-readable)."""
        return self.metrics.render()

    def _require(self, layer: Any, name: str) -> None:
        if layer is None:
            raise PlatformError(
                f"platform {self.name!r} has no {name} layer (suppressed "
                f"in this node configuration)"
            )

    def __repr__(self) -> str:
        return (
            f"Platform({self.name!r}, domain={self.domain!r}, "
            f"layers={self.layer_names()})"
        )


def _refuse_failed(platform: Platform) -> None:
    """Raise unless ``platform`` may serve work: a restore that failed
    and could not be rolled back leaves it half-restored."""
    if platform.failed:
        raise PlatformError(
            f"platform {platform.name!r} failed a restore and its "
            f"rollback; it serves no work until restored"
        )


def _serve(platform: Platform, fn: "Callable[[Platform], Any]") -> Any:
    _refuse_failed(platform)
    return fn(platform)


class PlatformPool:
    """A sharded multi-session front door over N platform instances.

    One :class:`Platform` per shard, each wired to its shard's private
    bus/metrics/clock, with session-key affinity routing: every call
    for session ``key`` executes on the shard (and platform) that owns
    ``key``, so per-session ordering holds and the intra-platform hot
    path stays single-threaded and lock-free.  Cross-shard signals go
    through the fabric's batched forwarding channel
    (:meth:`route_signal`); observability merges on read
    (:meth:`merged_metrics`, :meth:`stats`).

    ``factory(shard)`` must build a platform wired to ``shard.bus``,
    ``shard.metrics`` and ``shard.clock`` — e.g.::

        pool = PlatformPool(
            lambda shard: build_cvm(
                service=CommService("net0"), bus=shard.bus,
                clock=shard.clock,
            ),
            shards=4,
        )
        outcome = pool.submit("session-42", lambda p: p.run_script(s))
    """

    def __init__(
        self,
        factory: "Callable[[Shard], Platform]",
        *,
        shards: int = 4,
        name: str = "pool",
        inline: bool = False,
        batch_size: int = 64,
        durability: "DurabilityPolicy | str | None" = "wal",
    ) -> None:
        self.name = name
        self.runtime = ShardedRuntime(
            shards, name=name, inline=inline, batch_size=batch_size
        )
        #: durability by default (PR 10): every shard gets its own
        #: ``wal-shard-NN/`` write-ahead log under the policy's root
        #: (an ephemeral directory unless the policy names one) and
        #: doc-encoded submissions are write-ahead logged with sealed
        #: effects.  ``durability="off"`` is the escape hatch that
        #: preserves the undurable hot path byte-for-byte.
        self.durability = DurabilityPolicy.resolve(durability)
        if self.durability.enabled:
            self.runtime.attach_durability(self.durability)
        self.platforms: list[Platform] = [
            factory(shard) for shard in self.runtime.shards
        ]
        self._ingress_tiers: list[Any] = []
        self._apply_doc: "Callable[[Platform, str, dict], Any] | None" = None
        self.started = False

    # -- lifecycle ------------------------------------------------------------

    def start(self) -> "PlatformPool":
        if self.started:
            return self
        if (
            self.durability.enabled
            and self.runtime.shards[0].durability is None
        ):
            # restarted after stop() closed the logs: reopen them.
            self.runtime.attach_durability(self.durability)
        self.runtime.start()
        for platform in self.platforms:
            platform.start()
        self.started = True
        return self

    def stop(self) -> "PlatformPool":
        if not self.started:
            return self
        self.runtime.stop()
        for platform in self.platforms:
            platform.stop()
        self.runtime.close_wals()
        # an auto-created log root holds nothing anyone can find again;
        # reclaim it (named roots are the caller's to keep).
        self.durability.discard_ephemeral_root()
        self.started = False
        return self

    def __enter__(self) -> "PlatformPool":
        return self.start()

    def __exit__(self, *exc_info: object) -> None:
        self.stop()

    # -- session routing --------------------------------------------------

    def shard_for(self, key: str) -> Shard:
        return self.runtime.shard_for(key)

    def platform_for(self, key: str) -> Platform:
        """The platform owning session ``key`` (affinity-stable)."""
        return self.platforms[self.shard_for(key).index]

    def submit(self, key: str, fn: "Callable[[Platform], Any]"):
        """Run ``fn(platform)`` on the shard owning ``key``; a Future.

        A platform marked :attr:`Platform.failed` runs nothing: the
        future raises :class:`PlatformError` instead."""
        return self.runtime.dispatch(
            str(key),
            lambda shard: shard.call(_serve, self.platforms[shard.index], fn),
        )

    def close_session(self, key: str) -> None:
        """Release per-session fabric state for a closed session.

        Entries still queued in any ingress tier built by
        :meth:`build_ingress` are resolved first as typed ``REJECTED``
        outcomes (``ShedReason.SESSION_CLOSED``) — closing a session
        must never leave a waiter hanging on a queue nobody will pump,
        nor dispatch its backlog into the released session.
        """
        for tier in self._ingress_tiers:
            tier.close_session(key)
        key = str(key)
        durability = self.shard_for(key).durability
        if durability is not None:
            # typed close frame, then drop the session from the
            # truncation floor — a closed session must not pin segments
            # (nor replay on recovery: recover_session only replays
            # entry frames, and the close frame marks intent).
            durability.log_event("closed", key)
            durability.forget(key)

    # -- ingress (PR 6) ---------------------------------------------------

    def build_ingress(
        self,
        *,
        policy: "Any | None" = None,
        clock: "Clock | None" = None,
        watch_breakers: bool = True,
        name: str | None = None,
    ) -> "Any":
        """An admission-controlled async front door over this pool.

        Returns an :class:`~repro.runtime.ingress.IngressTier` whose
        admitted requests execute exactly like :meth:`submit` —
        ``fn(platform)`` on the owning shard, per-session FIFO — but
        pass admission control first: bounded per-session queues,
        priority classes, load shedding with typed
        ``InvocationOutcome.REJECTED`` results, and (with
        ``watch_breakers``) shed decisions fed by the circuit-breaker
        events each shard platform's Broker publishes.  Wrap it in
        :class:`~repro.runtime.ingress.AsyncIngress` for coroutine
        callers.
        """
        from repro.runtime.ingress import IngressTier

        tier = IngressTier(
            self.runtime,
            policy=policy,
            clock=clock,
            resolve=lambda key: (self.platform_for(key),),
            name=name if name is not None else f"{self.name}.ingress",
        )
        if watch_breakers:
            for platform in self.platforms:
                tier.watch_bus(platform.bus)
        if self.durability.enabled:
            # admission decisions become part of the durable record:
            # every shed lands as a typed frame in the owning shard's
            # log, so a post-crash audit can tell "never admitted"
            # from "admitted and lost".
            tier.on_shed = self._log_shed
        self._ingress_tiers.append(tier)
        return tier

    def _log_shed(self, key: str, reason: str) -> None:
        durability = self.runtime.shard_for(key).durability
        if durability is not None:
            durability.log_event("shed", key, reason=reason)

    # -- doc-encoded steps ------------------------------------------------

    def attach_cluster(
        self,
        cluster: None,
        *,
        apply: "Callable[[Platform, str, dict], Any]",
    ) -> None:
        """Set how :meth:`submit_doc` applies a step.

        ``apply(platform, key, doc)`` executes one doc-encoded
        submission against the owning shard's platform — the same docs
        a worker's backend applies.  Sessions stay in the fabric that
        opened them, so ``cluster`` must be None; any other value
        raises :class:`PlatformError`.
        """
        if cluster is not None:
            raise PlatformError(
                f"pool {self.name!r}: sessions stay on the pool's shards; "
                f"attach_cluster() takes no cluster"
            )
        self._apply_doc = apply

    def submit_doc(self, key: str, doc: dict) -> Any:
        """Submit one doc-encoded step for ``key``.

        Returns a future resolving to an
        :class:`~repro.runtime.faults.InvocationOutcome`: the owning
        shard thread runs ``apply(platform, key, doc)``, inside the
        shard's durability bracket when the pool is durable.  On a
        platform marked :attr:`Platform.failed` nothing runs or is
        logged, and the outcome is ``FAILED`` with a
        :class:`PlatformError`.
        """
        if self._apply_doc is None:
            raise PlatformError(
                f"pool {self.name!r}: attach_cluster() before submit_doc()"
            )
        key = str(key)
        from repro.runtime.faults import InvocationOutcome

        apply = self._apply_doc

        def run() -> Any:
            shard = current_shard()
            platform = self.platforms[shard.index]

            def applied(signal: Any) -> Any:
                value = apply(platform, key, doc)
                self._route_emits(key, doc, signal)
                return value

            try:
                _refuse_failed(platform)
                if shard.durability is None:
                    value = applied(None)
                else:
                    # The fabric's durability bracket: write-ahead the
                    # entry frame, apply with the session's effect
                    # journal installed on the broker, seal the
                    # memoized effects.
                    broker = platform.broker
                    value = shard.durability.execute(
                        key, doc, applied,
                        resources=broker.resources if broker is not None else None,
                    )
            except Exception as exc:  # noqa: BLE001 - typed outcome
                return InvocationOutcome(
                    status=InvocationOutcome.FAILED, label=key,
                    error=exc, attempts=1, elapsed=0.0,
                )
            return InvocationOutcome(
                status=InvocationOutcome.OK, label=key,
                value=value, attempts=1, elapsed=0.0,
            )

        return self.runtime.dispatch(key, lambda shard: shard.call(run))

    def _route_emits(self, key: str, doc: dict, signal: Any) -> None:
        """Route the step's declared cross-session emissions.

        A doc-encoded step may carry ``doc["emit"]``: a list of
        ``{"topic", "key", "payload"?}`` directives.  After the op
        applies, each directive becomes an :class:`Event` *causally
        derived from the step's write-ahead entry signal* (same
        ``trace_id``, ``parent_seq`` = the entry's seq) and is routed
        to its target session's shard — where ``route_signal``
        write-ahead logs it.  One logged trace therefore spans
        sessions and shards, and because the directive lives in the
        logged entry doc itself, replaying the entry re-derives the
        same emission: causal slices are reproducible from the union
        of per-shard logs (``repro trace --replay ROOT --slice``).

        With durability off there is no entry signal; emissions still
        route, as fresh trace roots.
        """
        emits = doc.get("emit") or ()
        if not emits:
            return
        for spec in emits:
            event = emit_event(spec, key, signal)
            self.route_signal(event, key=str(spec.get("key", key)))

    # -- durable checkpoints + recovery (PR 10) ---------------------------

    def checkpoint_now(self, *, timeout: float = 30.0) -> list[Any]:
        """Checkpoint every shard and wait for the snapshots.

        Each shard captures its platform on its own thread (the capture
        quiesce point) and writes it into its log under the platform's
        name with ``cover_all``: one shard snapshot embeds the state of
        every session the shard hosts, so all their truncation floors
        advance together.
        """
        if not self.durability.enabled:
            raise PlatformError(
                f"pool {self.name!r}: durability is off; no log to "
                f"checkpoint into"
            )

        def checkpoint(shard: Shard, platform: Platform) -> Any:
            snapshot = platform.checkpoint()
            shard.durability.checkpoint(
                platform.name, snapshot.to_dict(), cover_all=True
            )
            return snapshot

        futures = [
            shard.call(checkpoint, shard, platform)
            for shard, platform in zip(self.runtime.shards, self.platforms)
        ]
        if self.runtime.inline:
            self.runtime.drain()
        return [future.result(timeout=timeout) for future in futures]

    def recover_session(
        self,
        key: str,
        *,
        apply_entry: "Callable[[Platform, Any], Any]",
    ) -> Any:
        """Exactly-once recovery of one session from its shard's log.

        Restores the shard's latest ``cover_all`` checkpoint (if the
        pool checkpoints) and replays, with memoized effects and
        ``(trace_id, seq)`` dedup, the entry tail onto the owning
        shard's platform: every session's entries after that
        checkpoint, since restoring it rolls back every session on the
        shard (only the session's own without one).  Call on a quiesced
        or freshly rebuilt pool — typically after :meth:`start` on a
        pool pointed at the same ``log_root`` a crashed pool was using.
        """
        from repro.middleware.snapshot import recover_session

        key = str(key)
        shard = self.shard_for(key)
        durability = shard.durability
        if durability is None:
            raise PlatformError(
                f"pool {self.name!r}: durability is off; nothing to "
                f"recover {key!r} from"
            )
        wal = durability.wal
        return recover_session(
            wal.replay(),
            session=key,
            apply_entry=apply_entry,
            wal=wal,
            platform=self.platforms[shard.index],
        )

    def route_signal(self, signal: Any, *, key: str) -> None:
        """Deliver ``signal`` on the owning shard's bus (batched when
        it crosses shards)."""
        self.runtime.route_signal(signal, key=key)

    def drain(self) -> int:
        """Inline pools: run queued session work to quiescence."""
        return self.runtime.drain()

    # -- aggregation ------------------------------------------------------

    def merged_metrics(self) -> MetricsRegistry:
        return self.runtime.merged_metrics()

    def stats(self) -> dict[str, Any]:
        stats = self.runtime.stats()
        stats["platforms"] = [p.name for p in self.platforms]
        return stats

    def __repr__(self) -> str:
        return (
            f"PlatformPool({self.name!r}, "
            f"shards={len(self.runtime.shards)}, started={self.started})"
        )
