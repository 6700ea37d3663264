"""The Synthesis Engine: comparator + interpreter + dispatcher.

Paper Sec. V-B: "The input to the Synthesis layer is a sequence of
user-defined DSML models and the output is a set of control scripts
sent to the Controller layer for processing.  The semantics used to
execute DSML models in the Synthesis layer involves comparing two
models at runtime: the model that is currently running (an empty model
if the system has just been started) and a new (updated) model
submitted by the user."

:class:`SynthesisEngine` also performs *model validation* before
synthesis (structural + DSK invariants; skipped when the caller hands
in the report it already made against the engine's registry, as the UI
layer does) and optional *negotiation*
hooks (the CVM's SE "negotiates communication models with other
parties"; domains install a negotiator callable when relevant).
"""

from __future__ import annotations

from dataclasses import replace
from typing import Any, Callable

from repro.middleware.synthesis.comparator import ModelComparator
from repro.middleware.synthesis.dispatcher import Dispatcher
from repro.middleware.synthesis.interpreter import ChangeInterpreter, EntityRule
from repro.middleware.synthesis.scripts import ControlScript
from repro.modeling.constraints import ConstraintRegistry, ValidationReport
from repro.modeling.diff import ChangeList
from repro.modeling.meta import Metamodel
from repro.modeling.model import Model
from repro.modeling.serialize import clone_model, model_from_dict, model_to_dict
from repro.runtime.component import Component
from repro.runtime.events import Call

__all__ = ["SynthesisError", "SynthesisResult", "SynthesisEngine"]


class SynthesisError(Exception):
    """Raised on invalid models or failed synthesis."""


class SynthesisResult:
    """Everything produced by one synthesis cycle.

    A result whose objects are the runtime model's own (a cycle over a
    model the dispatcher adopted, see :meth:`Platform.run_model_doc`)
    copies them on the first read of ``accepted_model`` or ``changes``,
    so it never hands the runtime model, or an object in it, out.
    """

    __slots__ = ("script", "_changes", "_accepted", "_shared")

    def __init__(
        self,
        script: ControlScript,
        changes: ChangeList,
        accepted_model: Model,
        *,
        shared: bool = False,
    ) -> None:
        self.script = script
        self._changes = changes
        self._accepted = accepted_model
        self._shared = shared

    @property
    def accepted_model(self) -> Model:
        self._detach()
        return self._accepted

    @property
    def changes(self) -> ChangeList:
        self._detach()
        return self._changes

    @property
    def no_op(self) -> bool:
        return self._changes.empty

    def _detach(self) -> None:
        if not self._shared:
            return
        self._shared = False
        self._accepted = clone_model(self._accepted)
        index = self._accepted.index()
        self._changes = ChangeList([
            change if change.new_object is None
            else replace(change, new_object=index[change.new_object.id])
            for change in self._changes
        ])


class SynthesisEngine(Component):
    """Transforms user models into control scripts.

    Wire the ``downward`` port to the Controller layer to auto-submit
    produced scripts; without it, callers receive the script from
    :meth:`synthesize` and route it themselves (remote installation in
    the smart-spaces configuration).
    """

    def __init__(
        self,
        name: str = "synthesis",
        *,
        metamodel: Metamodel,
        constraints: ConstraintRegistry | None = None,
        strict: bool = False,
        **kwargs: Any,
    ) -> None:
        super().__init__(name, **kwargs)
        self.metamodel = metamodel
        self.constraints = constraints if constraints is not None else ConstraintRegistry()
        self.comparator = ModelComparator(metamodel)
        self.interpreter = ChangeInterpreter(strict=strict)
        self.dispatcher = Dispatcher()
        #: optional negotiation hook: (new_model) -> new_model (possibly
        #: adjusted after negotiating with remote parties).
        self.negotiator: Callable[[Model], Model] | None = None
        #: Tier-3 regeneration hook (set by synthesis.aot.install_generated):
        #: called at the start of each cycle and teardown, so a DSK edit
        #: that dropped the installed program is rebuilt before the
        #: next change list is interpreted.
        self.aot_refresh: Callable[[], None] | None = None
        self.cycles = 0
        self.rejected = 0

    # -- DSK installation ---------------------------------------------------

    def add_rule(self, rule: EntityRule, *, replace: bool = False) -> EntityRule:
        return self.interpreter.add_rule(rule, replace=replace)

    def add_rules(self, rules: list[EntityRule]) -> None:
        for rule in rules:
            self.interpreter.add_rule(rule)

    # -- main cycle -------------------------------------------------------------

    def synthesize(
        self,
        new_model: Model,
        *,
        context: dict[str, Any] | None = None,
        submit: bool = True,
        report: ValidationReport | None = None,
    ) -> SynthesisResult:
        """Run one synthesis cycle over a newly submitted user model.

        Steps: validate -> negotiate -> compare -> interpret -> promote
        -> (optionally) submit downward.  ``report`` is a validation of
        ``new_model`` the caller already ran against :attr:`constraints`;
        without one the model is validated here.
        """
        self.require_running()
        if report is None:
            report = self.constraints.validate(new_model)
        if not report.ok:
            self.rejected += 1
            raise SynthesisError(
                f"model rejected: {len(report.errors)} validation error(s): "
                + "; ".join(str(d) for d in report.errors[:3])
            )
        if self.negotiator is not None:
            new_model = self.negotiator(new_model)
        self.metrics.count("synthesis.cycle", new_model.name)
        if self.aot_refresh is not None:
            # A DSK edit since the last cycle dropped the generated
            # module: rebuild it so this cycle runs generated code.
            # No-op while the installed program is current.
            self.aot_refresh()
        with self.metrics.time("synthesis.cycle", new_model.name, clock=self.clock):
            changes = self.comparator.compare(
                self.dispatcher.runtime_model, new_model
            )
            script = self.interpreter.interpret(
                changes,
                script_name=f"{self.name}:{new_model.name}",
                context=context,
            )
        script.source_model = new_model.name
        self.dispatcher.promote(new_model)
        self.cycles += 1
        if submit and not script.empty:
            downward = self.port_or_none("downward")
            if downward is not None:
                self._forward_script(downward, script)
        return SynthesisResult(
            script=script, changes=changes, accepted_model=new_model
        )

    def teardown_script(self, *, context: dict[str, Any] | None = None) -> SynthesisResult:
        """Synthesize the script that tears the running model down
        (compare runtime model against empty)."""
        self.require_running()
        if self.aot_refresh is not None:
            self.aot_refresh()
        empty = self.comparator.empty_model()
        changes = self.comparator.compare(self.dispatcher.runtime_model, empty)
        script = self.interpreter.interpret(
            changes, script_name=f"{self.name}:teardown", context=context
        )
        self.dispatcher.clear()
        self.interpreter.reset()
        self.cycles += 1
        downward = self.port_or_none("downward")
        if downward is not None and not script.empty:
            self._forward_script(downward, script)
        return SynthesisResult(script=script, changes=changes, accepted_model=empty)

    def _forward_script(self, downward: Any, script: ControlScript) -> None:
        """Forward a control script as a *call* signal (paper Sec. VI:
        layer-to-layer stimuli are signals), so downstream work is
        causally traceable back to the synthesis cycle.

        Three downward port shapes are supported, most specific first:

        * ``receive_signal`` (the in-process Controller facade): one
          script-level call carrying the whole script;
        * ``publish_batch`` (an :class:`~repro.runtime.events.EventBus`
          — distributed configurations route scripts over the fabric):
          the script-level call plus one causal child call per command,
          published as a single batch so the bus resolves the routing
          index once per topic instead of once per command;
        * ``submit_script`` (remote/stub controllers): the raw script,
          without trace parentage.
        """
        receive = getattr(downward, "receive_signal", None)
        if receive is not None:
            receive(self._script_call(script))
            return
        publish_batch = getattr(downward, "publish_batch", None)
        if publish_batch is not None:
            root = self._script_call(script)
            publish_batch(
                [root]
                + [
                    root.derive(
                        "synthesis.script.command",
                        payload={
                            "script_id": script.script_id,
                            "operation": command.operation,
                            "args": dict(command.args),
                            "classifier": command.classifier,
                            "target": command.target,
                            "guard": command.guard,
                        },
                    )
                    for command in script
                ]
            )
            return
        downward.submit_script(script)

    def _script_call(self, script: ControlScript) -> Call:
        return Call(
            topic="synthesis.script",
            payload={
                "script": script,
                "source_model": getattr(script, "source_model", ""),
            },
            origin=self.name,
        )

    # -- Controller events --------------------------------------------------------

    def handle_event(self, topic: str, payload: dict[str, Any]) -> int:
        return self.interpreter.handle_event(topic, payload)

    # -- externalization (PR 5) -----------------------------------------------

    def externalize(self) -> dict[str, Any]:
        """Capture the runtime model, interpreter state, and counters."""
        runtime_model = self.dispatcher.runtime_model
        return {
            "runtime_model": (
                model_to_dict(runtime_model)
                if runtime_model is not None
                else None
            ),
            "dispatches": self.dispatcher.dispatches,
            "interpreter": self.interpreter.externalize(),
            "cycles": self.cycles,
            "rejected": self.rejected,
        }

    def restore_external(self, doc: dict[str, Any]) -> None:
        """Apply a captured document; rules must already be installed.

        The restored runtime model is re-announced to dispatcher
        listeners (UI runtime view) but does not count as a dispatch —
        the counter is restored from the document instead.
        """
        model_doc = doc.get("runtime_model")
        model = (
            model_from_dict(model_doc, self.metamodel)
            if model_doc is not None
            else None
        )
        self.dispatcher.install(model, dispatches=int(doc.get("dispatches", 0)))
        self.interpreter.restore_external(doc.get("interpreter", {}))
        self.cycles = int(doc.get("cycles", 0))
        self.rejected = int(doc.get("rejected", 0))

    def stats(self) -> dict[str, Any]:
        return {
            "cycles": self.cycles,
            "rejected": self.rejected,
            "comparisons": self.comparator.comparisons,
            "changes_processed": self.interpreter.changes_processed,
            "commands_emitted": self.interpreter.commands_emitted,
        }
