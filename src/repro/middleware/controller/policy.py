"""Policies and the context store.

Paper Sec. V-A: "the choice of action to use in a particular execution
of an application model element is based on policies and context
variables defined in the middleware model."  Sec. VI adds that command
classification (Case 1 vs Case 2) "takes into account domain policies
and context information".

:class:`ContextStore` holds the environmental context (load, battery,
network quality, user preferences, ...) with change notification.
:class:`Policy` is a guarded rule: when its condition holds, its
*effects* apply — scoring weights for candidate selection, a forced
classification case, or arbitrary advice consumed by handlers.
:class:`PolicyEngine` evaluates the active policy set against the
current context and aggregates effects.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Iterator, Mapping

from repro.modeling.expr import Expression, ExpressionError, compile_expression

__all__ = [
    "PolicyError",
    "ContextStore",
    "Policy",
    "PolicyDecision",
    "PolicyEngine",
]


class PolicyError(Exception):
    """Raised on malformed policies."""


class ContextStore:
    """Mutable key-value context with change subscription.

    The fingerprint is a stable hashable token over the *selection
    relevant* keys; the Intent Model cache uses it so that context
    changes correctly invalidate cached configurations.
    """

    def __init__(self, initial: Mapping[str, Any] | None = None) -> None:
        self._values: dict[str, Any] = dict(initial or {})
        self._watchers: list[Callable[[str, Any, Any], None]] = []

    def get(self, key: str, default: Any = None) -> Any:
        return self._values.get(key, default)

    def set(self, key: str, value: Any) -> None:
        old = self._values.get(key)
        if old == value and key in self._values:
            return
        self._values[key] = value
        for watcher in list(self._watchers):
            watcher(key, old, value)

    def update(self, values: Mapping[str, Any]) -> None:
        for key, value in values.items():
            self.set(key, value)

    def delete(self, key: str) -> None:
        if key in self._values:
            old = self._values.pop(key)
            for watcher in list(self._watchers):
                watcher(key, old, None)

    def watch(self, callback: Callable[[str, Any, Any], None]) -> None:
        self._watchers.append(callback)

    def snapshot(self) -> dict[str, Any]:
        return dict(self._values)

    def fingerprint(self, keys: tuple[str, ...] | None = None) -> tuple:
        """Hashable token of (a subset of) the context."""
        if keys is None:
            keys = tuple(sorted(self._values))
        return tuple((k, _freeze(self._values.get(k))) for k in keys)

    def __contains__(self, key: object) -> bool:
        return key in self._values

    def __len__(self) -> int:
        return len(self._values)

    def __repr__(self) -> str:
        return f"ContextStore({self._values!r})"


def _freeze(value: Any) -> Any:
    if isinstance(value, dict):
        return tuple(sorted((k, _freeze(v)) for k, v in value.items()))
    if isinstance(value, (list, set, tuple)):
        return tuple(_freeze(v) for v in value)
    return value


@dataclass
class Policy:
    """A guarded rule applied when its condition holds for the context.

    Effects (all optional):
        weights: attribute -> weight used when scoring candidate
            procedures (e.g. ``{"cost": -1.0, "reliability": 2.0}``;
            negative weight = lower is better).
        prefer: procedure-name preferences (name -> bonus score).
        force_case: "actions" | "intent" — override command
            classification for matching commands.
        applies_to: classifier-name prefix restricting which commands
            or procedures the policy touches ("" = all).
        advice: free-form mapping consumed by domain handlers.
    """

    name: str
    condition: str = "True"
    weights: Mapping[str, float] = field(default_factory=dict)
    prefer: Mapping[str, float] = field(default_factory=dict)
    force_case: str | None = None
    applies_to: str = ""
    advice: Mapping[str, Any] = field(default_factory=dict)
    priority: int = 0
    _compiled: Expression | None = field(default=None, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.force_case not in (None, "actions", "intent"):
            raise PolicyError(
                f"policy {self.name!r}: force_case must be actions|intent"
            )
        try:
            self._compiled = compile_expression(self.condition)
        except ExpressionError as exc:
            raise PolicyError(f"policy {self.name!r}: {exc}") from exc

    def active(self, context: Mapping[str, Any]) -> bool:
        assert self._compiled is not None
        try:
            return bool(self._compiled.evaluate_fast(context))
        except ExpressionError:
            # A policy referencing absent context keys, or whose
            # condition fails to evaluate, is simply inactive.
            return False

    def concerns(self, classifier: str) -> bool:
        return classifier.startswith(self.applies_to)


@dataclass
class PolicyDecision:
    """Aggregated effects of all active policies for one decision point."""

    weights: dict[str, float] = field(default_factory=dict)
    prefer: dict[str, float] = field(default_factory=dict)
    force_case: str | None = None
    advice: dict[str, Any] = field(default_factory=dict)
    active_policies: list[str] = field(default_factory=list)

    def score(self, attributes: Mapping[str, Any], name: str = "") -> float:
        """Score a candidate: weighted attribute sum + name preference."""
        total = 0.0
        for key, weight in self.weights.items():
            value = attributes.get(key)
            if isinstance(value, bool):
                value = 1.0 if value else 0.0
            if isinstance(value, (int, float)):
                total += weight * float(value)
        total += self.prefer.get(name, 0.0)
        return total


class PolicyEngine:
    """Evaluates the registered policy set against a context."""

    def __init__(self, context: ContextStore | None = None) -> None:
        self.context = context if context is not None else ContextStore()
        self._policies: dict[str, Policy] = {}

    def add(self, policy: Policy) -> Policy:
        if policy.name in self._policies:
            raise PolicyError(f"duplicate policy {policy.name!r}")
        self._policies[policy.name] = policy
        return policy

    def remove(self, name: str) -> Policy:
        policy = self._policies.pop(name, None)
        if policy is None:
            raise PolicyError(f"no policy {name!r}")
        return policy

    def decide(self, classifier: str = "") -> PolicyDecision:
        """Aggregate the effects of all active, applicable policies.

        Later (higher-priority) policies win conflicting scalar effects
        (``force_case``); weights and preferences accumulate.
        """
        env = self.context.snapshot()
        decision = PolicyDecision()
        applicable = [
            p
            for p in self._policies.values()
            if p.concerns(classifier) and p.active(env)
        ]
        applicable.sort(key=lambda p: p.priority)
        for policy in applicable:
            decision.active_policies.append(policy.name)
            for key, weight in policy.weights.items():
                decision.weights[key] = decision.weights.get(key, 0.0) + weight
            for name, bonus in policy.prefer.items():
                decision.prefer[name] = decision.prefer.get(name, 0.0) + bonus
            if policy.force_case is not None:
                decision.force_case = policy.force_case
            decision.advice.update(policy.advice)
        return decision

    def relevant_context_keys(self) -> tuple[str, ...]:
        """Context keys mentioned by any policy condition (cache keying)."""
        keys: set[str] = set()
        for policy in self._policies.values():
            for name in _names_in(policy.condition):
                keys.add(name)
        return tuple(sorted(keys))

    def __iter__(self) -> Iterator[Policy]:
        return iter(self._policies.values())

    def __len__(self) -> int:
        return len(self._policies)


def _names_in(source: str) -> set[str]:
    import ast

    try:
        tree = ast.parse(source, mode="eval")
    except SyntaxError:
        return set()
    return {
        node.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and node.id not in ("True", "False", "None")
    }
