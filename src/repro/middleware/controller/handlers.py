"""Controller-layer handlers and command classification.

Paper Sec. VI: "The metamodel enables coexistence of two distinct
approaches to define the operational semantics of commands: Case 1 —
selection of predefined actions; and Case 2 — dynamic generation of
intent models (IMs). ... the choice of which approach to use for each
received command is determined by a command classification step that
precedes actual command execution.  Command classification takes into
account domain policies and context information."

* :class:`Action` / :class:`ActionHandler` implement Case 1.
* :class:`IntentModelHandler` implements Case 2 on top of the
  generator and stack machine.
* :class:`CommandClassifier` implements the classification step.
* :class:`EventHandler` processes exceptional conditions raised during
  command execution (paper Fig. 8).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Mapping, Sequence

from repro.middleware.controller.intent import IntentError, IntentModelGenerator
from repro.middleware.controller.policy import PolicyDecision, PolicyEngine
from repro.middleware.controller.stackmachine import (
    BrokerCallRecord,
    BrokerPort,
    ExecutionResult,
    StackMachine,
)
from repro.middleware.synthesis.scripts import Command
from repro.modeling.expr import evaluate
from repro.runtime.events import Event, EventDeliveryError
from repro.runtime.topics import TopicMatcher

__all__ = [
    "HandlerError",
    "Action",
    "ActionHandler",
    "Candidate",
    "IntentModelHandler",
    "CommandClassifier",
    "EventHandler",
]


class HandlerError(Exception):
    """Raised when no handler can process a command."""


@dataclass
class Action:
    """A predefined action bound to an operation pattern (Case 1).

    ``implementation`` is either a Python callable
    ``(command, broker, context) -> Any`` or a declarative list of
    Broker calls (``[{"api": ..., "args": {...}, "args_expr": {...}},
    ...]``) — the form actions take when defined inside a middleware
    model.

    ``pattern`` matches the command operation: exact, or prefix when it
    ends with ``*`` (``"session.*"``).
    """

    name: str
    pattern: str
    implementation: (
        Callable[[Command, BrokerPort, dict[str, Any]], Any]
        | list[Mapping[str, Any]]
    )
    guard: str | None = None
    attributes: dict[str, Any] = field(default_factory=dict)

    def matches(self, operation: str, env: Mapping[str, Any]) -> bool:
        if not TopicMatcher.matches(self.pattern, operation):
            return False
        if self.guard is not None:
            return bool(evaluate(self.guard, dict(env)))
        return True

    def run(
        self,
        command: Command,
        broker: BrokerPort,
        context: dict[str, Any],
        result: ExecutionResult,
    ) -> Any:
        if callable(self.implementation):
            return self.implementation(command, broker, context)
        env = dict(context)
        env.update(command.args)
        env["command"] = command
        value: Any = None
        for step in self.implementation:
            api = step.get("api")
            if not api:
                raise HandlerError(f"action {self.name!r}: step missing 'api'")
            call_args = dict(step.get("args", {}))
            for key, expr in dict(step.get("args_expr", {})).items():
                call_args[key] = evaluate(str(expr), env)
            value = broker.call_api(api, **call_args)
            result.broker_calls.append(BrokerCallRecord.of(api, call_args, value))
            store = step.get("result")
            if store:
                env[store] = value
        return value


#: one Case-1 candidate: the action and its generated function — an
#: ``Action.run`` compiled by the Tier-3 generator — or None on the
#: reflective path, which runs ``Action.run`` itself.
Candidate = tuple[Action, "Callable[..., Any] | None"]


class ActionHandler:
    """Case 1: select and execute a predefined action for a command.

    Among matching actions the policy decision picks the best by
    attribute score; ties resolve to registration order.  The table
    exists before the broker port is bound (``broker`` may start as
    None and is set when the owning layer starts).
    """

    def __init__(
        self,
        broker: BrokerPort | None,
        policies: PolicyEngine,
    ) -> None:
        self.broker = broker
        self.policies = policies
        self._actions: list[Action] = []
        self.executed = 0

    def register(self, action: Action) -> Action:
        if any(a.name == action.name for a in self._actions):
            raise HandlerError(f"duplicate action {action.name!r}")
        self._actions.append(action)
        return action

    def add(
        self,
        name: str,
        pattern: str,
        implementation: Any,
        **kwargs: Any,
    ) -> Action:
        action = Action(name=name, pattern=pattern, implementation=implementation, **kwargs)
        self.register(action)
        return action

    def candidates(self, command: Command) -> list[Candidate]:
        """The reflective pattern scan: every action whose pattern
        matches the operation and whose guard holds, in registration
        order."""
        env = self.policies.context.snapshot()
        env.update(command.args)
        return [
            (action, None)
            for action in self._actions
            if action.matches(command.operation, env)
        ]

    @staticmethod
    def select(
        candidates: Sequence[Candidate], decision: PolicyDecision
    ) -> Candidate | None:
        """The best-scoring candidate (first on ties), or None."""
        if len(candidates) < 2:
            return candidates[0] if candidates else None
        return max(
            candidates,
            key=lambda c: decision.score(c[0].attributes, c[0].name),
        )

    def execute(
        self, choice: Candidate, command: Command, context: dict[str, Any]
    ) -> ExecutionResult:
        """Run the selected action against ``context`` (a snapshot).
        Step failures are captured in the result; a malformed action
        (:class:`HandlerError`) propagates."""
        action, generated = choice
        run = action.run if generated is None else generated
        result = ExecutionResult()
        try:
            result.value = run(command, self.broker, context, result)
        except HandlerError:
            raise
        except Exception as exc:  # noqa: BLE001 - surfaced in result
            result.status = "error"
            result.error = f"{type(exc).__name__}: {exc}"
        self.executed += 1
        return result

    def can_handle(self, command: Command) -> bool:
        return bool(self.candidates(command))

    def handle(self, command: Command) -> ExecutionResult:
        """Select and execute standalone (the Controller layer drives
        :meth:`candidates`, :meth:`select` and :meth:`execute` itself,
        sharing one policy decision with classification)."""
        choice = self.select(
            self.candidates(command),
            self.policies.decide(command.classifier or command.operation),
        )
        if choice is None:
            raise HandlerError(
                f"no action matches operation {command.operation!r}"
            )
        return self.execute(choice, command, self.policies.context.snapshot())

    @property
    def action_count(self) -> int:
        return len(self._actions)

    def table_size_estimate(self) -> int:
        """Rough resident size of the action table (A1 ablation metric):
        number of declarative steps plus one per callable action."""
        total = 0
        for action in self._actions:
            if callable(action.implementation):
                total += 1
            else:
                total += len(action.implementation)
        return total


class IntentModelHandler:
    """Case 2: dynamic Intent Model generation + stack-machine execution."""

    def __init__(
        self,
        generator: IntentModelGenerator,
        machine: StackMachine,
        *,
        classifier_map: Mapping[str, str] | None = None,
    ) -> None:
        self.generator = generator
        self.machine = machine
        #: operation (or prefix ending in '*') -> classifier name.
        self.classifier_map = dict(classifier_map or {})
        self.executed = 0

    def classifier_for(self, command: Command) -> str:
        if command.classifier:
            return command.classifier
        exact = self.classifier_map.get(command.operation)
        if exact is not None:
            return exact
        for pattern, classifier in self.classifier_map.items():
            if pattern.endswith("*") and TopicMatcher.matches(
                pattern, command.operation
            ):
                return classifier
        # Fall back to the operation name itself (domains may name DSCs
        # after operations).
        return command.operation

    def can_handle(self, command: Command) -> bool:
        classifier = self.classifier_for(command)
        return bool(self.generator.repository.candidates_for(classifier))

    def handle(self, command: Command) -> ExecutionResult:
        classifier = self.classifier_for(command)
        try:
            model = self.generator.generate(classifier)
        except IntentError as exc:
            raise HandlerError(str(exc)) from exc
        result = self.machine.execute(model, dict(command.args))
        self.executed += 1
        return result


class CommandClassifier:
    """The classification step preceding command execution (Sec. VI).

    Decision order:

    1. an active policy ``force_case`` wins;
    2. a per-operation override configured in the middleware model;
    3. the layer default (``"actions"`` when an action matches —
       predefined actions are the fast path — else ``"intent"``).
    """

    CASE_ACTIONS = "actions"
    CASE_INTENT = "intent"

    def __init__(
        self,
        *,
        default_case: str = CASE_ACTIONS,
        overrides: Mapping[str, str] | None = None,
    ) -> None:
        if default_case not in (self.CASE_ACTIONS, self.CASE_INTENT):
            raise HandlerError(f"bad default case {default_case!r}")
        self.default_case = default_case
        self.overrides = dict(overrides or {})

    def classify(
        self,
        command: Command,
        decision: PolicyDecision,
        *,
        action_available: bool,
        intent_available: Callable[[], bool],
    ) -> str:
        """The case for ``command`` under the policy ``decision`` taken
        for it.  ``intent_available`` is asked only when the choice
        falls on Case 2 (the taxonomy walk is wasted on Case 1)."""
        chosen: str | None = decision.force_case
        if chosen is None:
            chosen = self._override_for(command.operation)
        if chosen is None:
            if self.default_case == self.CASE_ACTIONS and action_available:
                chosen = self.CASE_ACTIONS
            else:
                chosen = self.CASE_INTENT
        # Fall through to whichever side can actually serve the command.
        if chosen == self.CASE_ACTIONS and not action_available:
            chosen = self.CASE_INTENT
        if chosen != self.CASE_INTENT:
            return chosen
        intent = intent_available()
        if intent:
            return chosen
        if action_available:
            return self.CASE_ACTIONS
        raise HandlerError(
            f"command {command.operation!r}: no handler available "
            f"(actions={action_available}, intent={intent})"
        )

    def _override_for(self, operation: str) -> str | None:
        exact = self.overrides.get(operation)
        if exact is not None:
            return exact
        for pattern, case in self.overrides.items():
            if pattern.endswith("*") and TopicMatcher.matches(pattern, operation):
                return case
        return None


class EventHandler:
    """Dispatches Controller-internal events to registered callbacks."""

    def __init__(self) -> None:
        self._handlers: list[tuple[str, Callable[[str, dict[str, Any]], None]]] = []
        #: per-topic route cache (topic -> matching callbacks): every
        #: Broker resource event passes through here, so the repeated
        #: pattern scan is replaced with one dict hit.  Invalidated on
        #: registration; bounded against unbounded distinct topics.
        self._routes: dict[str, tuple[Callable[[str, dict[str, Any]], None], ...]] = {}
        self.handled = 0
        self.unhandled = 0

    def on(self, pattern: str, callback: Callable[[str, dict[str, Any]], None]) -> None:
        self._handlers.append((pattern, callback))
        self._routes = {}

    def routes(self, topic: str) -> tuple[Callable[[str, dict[str, Any]], None], ...]:
        """The callbacks matching ``topic``, cached per topic."""
        cached = self._routes.get(topic)
        if cached is None:
            cached = tuple(
                callback
                for pattern, callback in self._handlers
                if TopicMatcher.matches(pattern, topic)
            )
            if len(self._routes) >= 1024:
                self._routes = {}
            self._routes[topic] = cached
        return cached

    def dispatch(self, topic: str, payload: dict[str, Any]) -> int:
        """Invoke every matching callback; handler exceptions are
        aggregated into one :class:`EventDeliveryError` after all
        callbacks ran (same contract as the event bus)."""
        matched = 0
        errors: list[Exception] = []
        for callback in self.routes(topic):
            matched += 1
            try:
                callback(topic, payload)
            except Exception as exc:  # noqa: BLE001 - aggregated below
                errors.append(exc)
        if matched:
            self.handled += 1
        else:
            self.unhandled += 1
        if errors:
            raise EventDeliveryError(Event(topic=topic, payload=payload), errors)
        return matched
