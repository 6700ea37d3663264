"""The change interpreter: change lists -> control scripts.

Paper Sec. V-A: "(2) change interpreter — processes the change list to
generate control scripts (using the current state of the labeled
transition system) and handles events from the Controller layer."

Domain knowledge enters as :class:`EntityRule` objects: one per DSML
metaclass, each carrying an :class:`~repro.modeling.lts.LTS` that
encodes the entity's synthesis lifecycle.  The interpreter maintains a
live LTS execution per model object; each change steps the matching
execution with a label derived from the change kind
(``add``/``remove``/``move``/``set:<feature>``/``list:<feature>``),
and the transition's actions are command templates rendered into
:class:`~repro.middleware.synthesis.scripts.Command` objects.

Command template format (a dict)::

    {"operation": "session.establish",
     "args": {...literals...},
     "args_expr": {"sid": "obj.id"},        # safe expressions
     "target_expr": "obj.id",               # or "target": literal
     "classifier": "comm.control",
     "guard": "..."}
"""

from __future__ import annotations

from typing import Any, Callable, Mapping

from repro.middleware.synthesis.scripts import Command, ControlScript
from repro.modeling.diff import Change, ChangeList
from repro.modeling.lts import LTS, LTSError, LTSExecution
from repro.modeling.expr import ExpressionError, compile_expression, evaluate
from repro.runtime.events import Event, EventDeliveryError
from repro.runtime.topics import TopicMatcher

__all__ = ["InterpreterError", "EntityRule", "ChangeInterpreter"]


class InterpreterError(Exception):
    """Raised on unhandled changes in strict mode or bad rules."""


#: Sentinel returned by the Tier-3 fast path to defer one change to
#: the reference path (shape not covered by the generated module).
_AOT_MISS = object()


def _check_template(class_name: str, template: Any) -> None:
    """Refuse a command template the reference render would fail on:
    no ``operation``, or an expression that does not parse."""
    if not isinstance(template, Mapping) or not template.get("operation"):
        raise InterpreterError(
            f"rule {class_name!r}: command template missing operation: "
            f"{template!r}"
        )
    sources = [
        template[key] for key in ("when", "foreach") if key in template
    ]
    sources.extend(dict(template.get("args_expr", {})).values())
    if template.get("target") is None and "target_expr" in template:
        sources.append(template["target_expr"])
    for source in sources:
        try:
            compile_expression(str(source))
        except ExpressionError as exc:
            raise InterpreterError(
                f"rule {class_name!r}: bad template expression: {exc}"
            ) from exc


class EntityRule:
    """Synthesis semantics for one DSML metaclass.

    ``lts`` transitions carry command-template actions (see module
    docstring).  ``on_unmatched`` controls what happens when a change
    label has no enabled transition: ``"ignore"`` (default; the change
    is synthesis-irrelevant) or ``"error"``.
    """

    def __init__(
        self,
        class_name: str,
        lts: LTS,
        *,
        on_unmatched: str = "ignore",
    ) -> None:
        if on_unmatched not in ("ignore", "error"):
            raise InterpreterError(
                f"rule {class_name!r}: on_unmatched must be ignore|error"
            )
        lts.check()
        for transition in lts._transitions:
            for template in transition.actions:
                _check_template(class_name, template)
        self.class_name = class_name
        self.lts = lts
        self.on_unmatched = on_unmatched

    def __repr__(self) -> str:
        return f"EntityRule({self.class_name!r}, lts={self.lts.name!r})"


class ChangeInterpreter:
    """Stateful interpreter mapping change lists to control scripts."""

    def __init__(self, *, strict: bool = False) -> None:
        #: class name -> rule; subclass matching is by exact class name
        #: of the change (DSMLs are flat enough for exact matching).
        self._rules: dict[str, EntityRule] = {}
        #: object id -> live LTS execution for that entity.
        self._executions: dict[str, LTSExecution] = {}
        #: installed Tier-3 program (synthesis.aot.AotProgram) or None;
        #: dropped whenever a rule is added (the next cycle regenerates).
        self._aot: Any = None
        #: event topic pattern -> callback(topic, payload) for events
        #: from the Controller layer (failure recovery hooks).
        self._event_hooks: list[
            tuple[str, Callable[[str, dict[str, Any]], None]]
        ] = []
        self.strict = strict
        self.changes_processed = 0
        self.commands_emitted = 0

    # -- DSK installation -------------------------------------------------

    def add_rule(self, rule: EntityRule, *, replace: bool = False) -> EntityRule:
        existing = self._rules.get(rule.class_name)
        if existing is not None and not replace:
            raise InterpreterError(f"duplicate rule for class {rule.class_name!r}")
        self._rules[rule.class_name] = rule
        # Any installed Tier-3 program was generated from the previous
        # rule set (its DSK_HASH no longer matches): drop it; the next
        # synthesis cycle regenerates the module before it interprets.
        self._aot = None
        return rule

    def install_aot(self, program: Any) -> None:
        """Install (or with ``None`` remove) a validated Tier-3 program
        (:class:`repro.middleware.synthesis.aot.AotProgram`)."""
        self._aot = program

    def on_event(
        self, pattern: str, callback: Callable[[str, dict[str, Any]], None]
    ) -> None:
        self._event_hooks.append((pattern, callback))

    # -- change interpretation ------------------------------------------------

    def interpret(
        self,
        changes: ChangeList,
        *,
        script_name: str = "",
        context: Mapping[str, Any] | None = None,
    ) -> ControlScript:
        """Produce the control script realizing ``changes``."""
        script = ControlScript(name=script_name)
        env_base = dict(context or {})
        for change in changes:
            self.changes_processed += 1
            for command in self._interpret_change(change, env_base):
                script.add(command)
                self.commands_emitted += 1
        return script

    def _interpret_change(
        self, change: Change, env_base: dict[str, Any]
    ) -> list[Command]:
        rule = self._rules.get(change.class_name)
        if rule is None:
            if self.strict:
                raise InterpreterError(
                    f"no synthesis rule for class {change.class_name!r}"
                )
            return []
        execution = self._execution_for(change, rule)
        label = self._label_for(change)
        if (
            self._aot is not None
            and not env_base
            and change.class_name in self._aot.syn_classes
        ):
            commands = self._aot_change(change, rule, execution, label)
            if commands is not _AOT_MISS:
                return commands
        env = dict(env_base)
        env.update(self._change_env(change))
        commands: list[Command] = []
        actions = execution.try_step(label, env)
        if actions is None:
            if rule.on_unmatched == "error" or self.strict:
                raise InterpreterError(
                    f"rule {rule.class_name!r}: no transition for {label!r} "
                    f"from state {execution.state!r} (change: {change})"
                )
            return []
        for template in actions:
            if "foreach" in template:
                for item in evaluate(str(template["foreach"]), env):
                    item_env = dict(env)
                    item_env["item"] = item
                    command = self._render_command(template, item_env)
                    if command is not None:
                        commands.append(command)
            else:
                command = self._render_command(template, env)
                if command is not None:
                    commands.append(command)
        if change.kind == "remove":
            # Entity left the model; discard its execution state.
            self._executions.pop(change.object_id, None)
        return commands

    def _aot_change(
        self,
        change: Change,
        rule: EntityRule,
        execution: LTSExecution,
        label: str,
    ) -> list[Command] | Any:
        """Tier-3 dispatch for one change; ``_AOT_MISS`` defers to
        the reference path for shapes the generated module does not
        cover.

        Mirrors the reference path exactly: all guards in the dispatch
        group are evaluated (guard errors propagate even when an
        earlier transition already matched, like ``LTSExecution.
        enabled``), the winning *live* transition mutates the same
        execution state/trace, and the many-valued feature touches the
        reference env construction performs are replayed so the slot
        store materializes identically.
        """
        obj = change.new_object or change.old_object
        if obj is None:
            return _AOT_MISS  # templates resolve names against obj
        program = self._aot
        # The reference path builds the change env *before* stepping,
        # calling obj.get() on every declared attribute — which
        # materializes many-valued lists into the slot store even for
        # changes that end up unmatched.  Replay those touches first.
        for attr_name in program.syn_many.get(change.class_name, ()):
            obj.get(attr_name)
        entries = program.syn_dispatch.get(
            (change.class_name, execution.state, label)
        )
        chosen = None
        if entries is not None:
            for guard_fn, transition, renders in entries:
                enabled = guard_fn is None or guard_fn(change, obj)
                if enabled and chosen is None:
                    chosen = (transition, renders)
        if chosen is None:
            if rule.on_unmatched == "error" or self.strict:
                raise InterpreterError(
                    f"rule {rule.class_name!r}: no transition for {label!r} "
                    f"from state {execution.state!r} (change: {change})"
                )
            return []
        transition, renders = chosen
        execution.state = transition.target
        execution.trace.append(transition)
        commands: list[Command] = []
        for render in renders:
            commands.extend(render(change, obj))
        if change.kind == "remove":
            self._executions.pop(change.object_id, None)
        return commands

    def _execution_for(self, change: Change, rule: EntityRule) -> LTSExecution:
        execution = self._executions.get(change.object_id)
        if execution is None or execution.lts is not rule.lts:
            execution = rule.lts.new_execution()
            self._executions[change.object_id] = execution
        return execution

    @staticmethod
    def _label_for(change: Change) -> str:
        if change.kind in ("add", "remove", "move"):
            return change.kind
        return f"{change.kind}:{change.feature}"

    @staticmethod
    def _change_env(change: Change) -> dict[str, Any]:
        env: dict[str, Any] = {
            "change": change,
            "object_id": change.object_id,
            "class_name": change.class_name,
            "feature": change.feature,
            "old": change.old,
            "new": change.new,
            "added": list(change.added),
            "removed": list(change.removed),
        }
        obj = change.new_object or change.old_object
        if obj is not None:
            env["obj"] = obj
            for attr_name in obj.meta.all_attributes():
                env.setdefault(attr_name, obj.get(attr_name))
        # the pre-change version, for templates that must address state
        # derived from old values (e.g. unbinding at an old target)
        env["old_obj"] = change.old_object if change.old_object is not None else obj
        return env

    @staticmethod
    def _render_command(
        template: Mapping[str, Any], env: dict[str, Any]
    ) -> Command | None:
        """The reference render: reads the template dict per call and
        evaluates its expressions through the cached compiled
        evaluator."""
        operation = template.get("operation")
        if not operation:
            raise InterpreterError(f"command template missing operation: {template!r}")
        if "when" in template and not evaluate(str(template["when"]), env):
            return None
        args = dict(template.get("args", {}))
        for key, expr in dict(template.get("args_expr", {})).items():
            args[key] = evaluate(str(expr), env)
        target = template.get("target")
        if target is None and "target_expr" in template:
            target = str(evaluate(str(template["target_expr"]), env))
        return Command(
            operation=str(operation),
            args=args,
            classifier=template.get("classifier"),
            target=target,
            guard=template.get("guard"),
        )

    # -- Controller events ------------------------------------------------------

    def handle_event(self, topic: str, payload: dict[str, Any]) -> int:
        """Route an event from the Controller layer to DSK hooks.

        Hook exceptions are collected and re-raised as one
        :class:`~repro.runtime.events.EventDeliveryError` after every
        matching hook ran — the same aggregation the event bus applies,
        so one raising DSK hook cannot starve the hooks behind it.
        """
        matched = 0
        errors: list[Exception] = []
        for pattern, callback in self._event_hooks:
            if not TopicMatcher.matches(pattern, topic):
                continue
            matched += 1
            try:
                callback(topic, payload)
            except Exception as exc:  # noqa: BLE001 - aggregated below
                errors.append(exc)
        if errors:
            raise EventDeliveryError(Event(topic=topic, payload=payload), errors)
        return matched

    # -- externalization (PR 5) --------------------------------------------------

    def externalize(self) -> dict[str, Any]:
        """Capture live LTS executions and counters.

        Rules are domain knowledge, not state — the restoring side is
        expected to have installed the same DSK, so executions are
        recorded as ``(object id, lts name, current state)`` and
        re-attached by LTS name on restore.
        """
        return {
            "executions": [
                {
                    "id": object_id,
                    "lts": execution.lts.name,
                    "state": execution.state,
                }
                for object_id, execution in sorted(self._executions.items())
            ],
            "changes_processed": self.changes_processed,
            "commands_emitted": self.commands_emitted,
        }

    def restore_external(self, doc: Mapping[str, Any]) -> None:
        """Rebuild executions against the locally installed rules."""
        by_lts_name = {rule.lts.name: rule.lts for rule in self._rules.values()}
        executions: dict[str, LTSExecution] = {}
        for entry in doc.get("executions", []):
            lts = by_lts_name.get(entry["lts"])
            if lts is None:
                raise InterpreterError(
                    f"cannot restore execution for {entry['id']!r}: no "
                    f"installed rule carries LTS {entry['lts']!r}"
                )
            try:
                executions[entry["id"]] = lts.new_execution(
                    state=entry["state"]
                )
            except LTSError as exc:
                raise InterpreterError(
                    f"cannot restore execution for {entry['id']!r}: {exc}"
                ) from exc
        self._executions = executions
        self.changes_processed = int(doc.get("changes_processed", 0))
        self.commands_emitted = int(doc.get("commands_emitted", 0))

    # -- diagnostics ---------------------------------------------------------------

    def entity_state(self, object_id: str) -> str | None:
        execution = self._executions.get(object_id)
        return execution.state if execution is not None else None

    def reset(self) -> None:
        self._executions.clear()

    @property
    def rule_count(self) -> int:
        return len(self._rules)

    @property
    def tracked_entities(self) -> int:
        return len(self._executions)
