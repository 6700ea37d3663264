"""Broker actions and handlers.

Paper Sec. V-A: "Calls and events are handled by selecting and
dispatching appropriate actions. ... the middleware engineer also
needs to specify the actions to be executed in response to calls and
events received by the Broker layer.  These are specified in the model
as instances of Action and Handler, respectively, which define the
mechanisms to select the appropriate action in each case."

* :class:`BrokerAction` — behaviour bound to an API pattern.  Either a
  Python callable or a declarative list of resource invocations (the
  model-defined form).
* :class:`BrokerActionTable` — the call Handler: selects the action for
  an API call (pattern + guard + priority).
* :class:`EventBinding` — the event Handler: maps resource-event topics
  to actions.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Mapping

from repro.middleware.broker.resource import ResourceManager
from repro.middleware.broker.state import StateManager
from repro.modeling.expr import compile_expression, evaluate
from repro.runtime.topics import TopicMatcher

__all__ = [
    "BrokerActionError",
    "ActionContext",
    "BrokerAction",
    "BrokerActionTable",
    "EventBinding",
    "EventBindingTable",
]


class BrokerActionError(Exception):
    """Raised when no action matches or an action is malformed."""


@dataclass
class ActionContext:
    """Everything a broker action may touch."""

    resources: ResourceManager
    state: StateManager
    args: dict[str, Any] = field(default_factory=dict)

    def env(self) -> dict[str, Any]:
        env: dict[str, Any] = dict(self.state.as_dict())
        env.update(self.args)
        env["state"] = self.state.as_dict()
        return env


def _guard_evaluator(source: str) -> Callable[[Mapping[str, Any]], Any]:
    """Compiled guard evaluator; a syntactically broken guard behaves
    like the reference path (evaluate raised -> guard never holds)."""
    try:
        return compile_expression(source).evaluate_fast
    except Exception:  # noqa: BLE001 - malformed guard = never matches
        def broken(env: Mapping[str, Any]) -> Any:
            raise BrokerActionError(f"malformed guard {source!r}")

        return broken


def _check_step(action_name: str, step: Mapping[str, Any]) -> None:
    """Refuse a malformed declarative step and compile (into the shared
    expression cache) every expression it will evaluate."""
    if "set" in step:
        sources = [step["expr"]]
    elif "compute" in step:
        sources = [step["compute"]]
    else:
        resource = step.get("resource")
        operation = step.get("operation")
        if (resource is None and "resource_expr" not in step) or not operation:
            raise BrokerActionError(
                f"action {action_name!r}: step needs resource+operation "
                f"or set+expr: {dict(step)!r}"
            )
        sources = list(dict(step.get("args_expr", {})).values())
        if resource is None:
            sources.append(step["resource_expr"])
        if step.get("state") is None and "state_expr" in step:
            sources.append(step["state_expr"])
    for source in sources:
        compile_expression(str(source))


@dataclass
class BrokerAction:
    """One action selectable by the Broker's handlers.

    Declarative steps have the form::

        {"resource": "net0",          # or "resource_expr": "device_id"
         "operation": "open_session",
         "args": {...}, "args_expr": {...},
         "result": "session",          # store into step env
         "state": "last_session"}      # store into the state manager

    A step may instead update state only: ``{"set": "key",
    "expr": "..."} ``.

    The topic predicate and the guard are compiled once per action.
    Declarative steps are read per run, like the Controller's
    ``Action.run``: every step is checked before the first one runs,
    and expressions evaluate through the shared compiled-expression
    cache.
    """

    name: str
    pattern: str
    implementation: (
        Callable[[ActionContext], Any] | list[Mapping[str, Any]]
    )
    guard: str | None = None
    priority: int = 0

    def __post_init__(self) -> None:
        self._topic_match = TopicMatcher.compile(self.pattern)
        self._guard_fn = (
            _guard_evaluator(str(self.guard)) if self.guard is not None else None
        )

    def matches(self, api: str, env: Mapping[str, Any]) -> bool:
        if not self._topic_match(api):
            return False
        if self._guard_fn is not None:
            try:
                return bool(self._guard_fn(dict(env)))
            except Exception:  # noqa: BLE001 - unmatched guard = no match
                return False
        return True

    def run(self, context: ActionContext) -> Any:
        if callable(self.implementation):
            return self.implementation(context)
        steps = self.implementation
        for step in steps:
            _check_step(self.name, step)
        env = context.env()
        value: Any = None
        for step in steps:
            if "set" in step:
                context.state.set(
                    str(step["set"]), evaluate(str(step["expr"]), env)
                )
                env = context.env()
                continue
            if "compute" in step:
                # Pure transformation step: evaluate an expression over
                # the step environment; becomes the action value.
                value = evaluate(str(step["compute"]), env)
                if step.get("result"):
                    env[step["result"]] = value
                continue
            resource_name = step.get("resource")
            if resource_name is None:
                resource_name = str(evaluate(str(step["resource_expr"]), env))
            call_args = dict(step.get("args", {}))
            for key, expr in dict(step.get("args_expr", {})).items():
                call_args[key] = evaluate(str(expr), env)
            value = context.resources.invoke(
                resource_name, step["operation"], **call_args
            )
            if step.get("result"):
                env[step["result"]] = value
            state_key = step.get("state")
            if state_key is None and "state_expr" in step:
                state_key = evaluate(str(step["state_expr"]), env)
            if state_key:
                context.state.set(str(state_key), value)
                env = context.env()
        return value


class BrokerActionTable:
    """Selects and runs the best action for an API call."""

    def __init__(self, resources: ResourceManager, state: StateManager) -> None:
        self.resources = resources
        self.state = state
        self._actions: list[BrokerAction] = []
        #: exact patterns resolve with one dict hit; only wildcard
        #: patterns are scanned per call.  Registration order is kept
        #: alongside each action so priority ties still break the same
        #: way they did with the stable full-list sort.
        self._exact: dict[str, list[tuple[int, BrokerAction]]] = {}
        self._wildcards: list[tuple[int, BrokerAction]] = []
        self.dispatched = 0

    def register(self, action: BrokerAction) -> BrokerAction:
        if any(a.name == action.name for a in self._actions):
            raise BrokerActionError(f"duplicate broker action {action.name!r}")
        order = len(self._actions)
        self._actions.append(action)
        if TopicMatcher.is_wildcard(action.pattern):
            self._wildcards.append((order, action))
        else:
            self._exact.setdefault(action.pattern, []).append((order, action))
        return action

    def add(
        self, name: str, pattern: str, implementation: Any, **kwargs: Any
    ) -> BrokerAction:
        return self.register(
            BrokerAction(name=name, pattern=pattern, implementation=implementation, **kwargs)
        )

    def select(self, api: str, args: Mapping[str, Any]) -> BrokerAction | None:
        candidates = list(self._exact.get(api, ()))
        for entry in self._wildcards:
            if entry[1]._topic_match(api):
                candidates.append(entry)
        if not candidates:
            return None
        # The guard environment (a state-manager snapshot) is only
        # built when a surviving candidate actually has a guard.
        env: dict[str, Any] | None = None
        best: tuple[int, int, BrokerAction] | None = None
        for order, action in candidates:
            if action._guard_fn is not None:
                if env is None:
                    env = dict(self.state.as_dict())
                    env.update(args)
                if not action.matches(api, env):
                    continue
            key = (-action.priority, order)
            if best is None or key < (best[0], best[1]):
                best = (key[0], key[1], action)
        return best[2] if best is not None else None

    def dispatch(self, api: str, **args: Any) -> Any:
        action = self.select(api, args)
        if action is None:
            raise BrokerActionError(f"no broker action for API {api!r}")
        self.dispatched += 1
        return action.run(
            ActionContext(resources=self.resources, state=self.state, args=dict(args))
        )

    @property
    def action_count(self) -> int:
        return len(self._actions)

    def known_apis(self) -> list[str]:
        return sorted(a.pattern for a in self._actions)


@dataclass
class EventBinding:
    """Routes resource events matching ``topic_pattern`` to an action."""

    topic_pattern: str
    action: BrokerAction
    guard: str | None = None

    def __post_init__(self) -> None:
        self._topic_match = TopicMatcher.compile(self.topic_pattern)
        self._guard_fn = (
            _guard_evaluator(str(self.guard)) if self.guard is not None else None
        )

    def matches(self, topic: str, payload: Mapping[str, Any]) -> bool:
        if not self._topic_match(topic):
            return False
        if self._guard_fn is not None:
            try:
                return bool(self._guard_fn(dict(payload)))
            except Exception:  # noqa: BLE001
                return False
        return True


class EventBindingTable:
    """The Broker's event Handler: runs actions for resource events."""

    def __init__(self, resources: ResourceManager, state: StateManager) -> None:
        self.resources = resources
        self.state = state
        self._bindings: list[EventBinding] = []
        #: per-topic route cache (topic -> bindings whose *pattern*
        #: matches; guards stay payload-dependent and are evaluated per
        #: dispatch).  Every resource event funnels through here, so
        #: the repeated pattern scan collapses to one dict hit.
        #: Invalidated on bind(); bounded against topic cardinality.
        self._routes: dict[str, tuple[EventBinding, ...]] = {}
        self.handled = 0

    def bind(
        self,
        topic_pattern: str,
        action: BrokerAction,
        *,
        guard: str | None = None,
    ) -> EventBinding:
        binding = EventBinding(topic_pattern=topic_pattern, action=action, guard=guard)
        self._bindings.append(binding)
        self._routes = {}
        return binding

    def routes(self, topic: str) -> tuple[EventBinding, ...]:
        """The bindings whose topic pattern matches ``topic``, cached."""
        cached = self._routes.get(topic)
        if cached is None:
            cached = tuple(
                binding for binding in self._bindings
                if binding._topic_match(topic)
            )
            if len(self._routes) >= 1024:
                self._routes = {}
            self._routes[topic] = cached
        return cached

    def dispatch(self, topic: str, payload: Mapping[str, Any]) -> int:
        """Run all matching bindings; returns how many fired."""
        fired = 0
        for binding in self.routes(topic):
            if binding.matches(topic, payload):
                args = dict(payload)
                args["topic"] = topic
                binding.action.run(
                    ActionContext(
                        resources=self.resources, state=self.state, args=args
                    )
                )
                fired += 1
        if fired:
            self.handled += 1
        return fired

    @property
    def binding_count(self) -> int:
        return len(self._bindings)
