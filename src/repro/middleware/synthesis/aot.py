"""Tier-3 loader: share, validate and install AOT-generated dispatch modules.

:mod:`repro.modeling.aotgen` turns a loaded DSK into Python *source*;
this module turns that source into installed dispatch tables:

* :func:`build_program` generates and compiles the module once per DSK
  shape (its ``DSK_HASH``) per process, in a small bounded map, so
  every shard, session and migration restore of one shape shares one
  code object;
* each platform then executes that code into a fresh namespace
  (:func:`load_program` does the same for source from elsewhere),
  revalidates it against the live platform (ABI, baked ``DSK_HASH``
  against a live fingerprint), binds its own ``_TBL_*`` feature
  tables, and maps dispatch entries onto the *live*
  :class:`~repro.modeling.lts.Transition` objects so the generated path
  mutates the very same execution state the reference path would
  (Case-1 entries likewise onto the live controller ``Action``
  objects);
* :func:`install_generated` installs a program on a platform — the
  loader and :func:`~repro.middleware.snapshot.restore_platform` call
  it for every platform they build, ``Platform.apply_reflection`` at
  the end of every edit batch — and hooks regeneration into the
  synthesis cycle: a runtime DSK edit (rule added or replaced, broker
  or controller action installed) drops the stale tables, and the
  next synthesis cycle or teardown regenerates them before it
  interprets.

The generated module is the only compiled dispatch mode.  The
reference path (templates and steps read per call, expressions
through the cached compiled evaluator) serves the entries the
generator refuses (``AotUnsupported``) and, on a platform without a
synthesis layer, calls after a direct ``install_action``;
:func:`remove_generated` strips the tables to build the reference
side that tier-equivalence checks compare against.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from types import CodeType
from typing import Any, Callable, Mapping, Sequence

from repro.modeling.aotgen import (
    ABI_VERSION,
    dsk_fingerprint,
    dsk_hash,
    generate_module_source,
    _mangle,
)

__all__ = [
    "AotError",
    "AotProgram",
    "build_program",
    "install_generated",
    "load_program",
    "remove_generated",
]


class AotError(Exception):
    """Raised when a generated module cannot be validated/installed."""


#: (guard_fn | None, live Transition, render fns) per dispatch entry.
_DispatchEntry = tuple[Any, Any, tuple[Callable[..., list], ...]]


@dataclass
class AotProgram:
    """A validated, live-bound generated module ready to install."""

    dsk_hash: str
    #: the module code object, shared by every program of one DSK shape
    code: CodeType
    #: exact API -> fn(resources, state, values, args)
    broker_calls: dict[str, Callable[..., Any]]
    #: (class, state, label) -> priority-ordered dispatch entries
    syn_dispatch: dict[tuple[str, str, str], tuple[_DispatchEntry, ...]]
    #: class -> many-valued attr names touched for reference env parity
    syn_many: dict[str, tuple[str, ...]]
    syn_classes: frozenset[str]
    #: exact operation -> registration-ordered (live Action, fn) pairs
    ctl_actions: dict[str, tuple[tuple[Any, Callable[..., Any]], ...]]
    broker_skipped: tuple[str, ...]
    syn_skipped: tuple[str, ...]
    ctl_skipped: tuple[str, ...]


#: (DSK hash, domain) -> module code: generation and compile() run once
#: per DSK shape per process; the oldest shape is evicted first.
_SHARED: dict[tuple[str, str], CodeType] = {}
_SHARED_LIMIT = 16
_SHARED_LOCK = threading.Lock()


def build_program(
    *,
    rules: Mapping[str, Any],
    actions: list[Any],
    dsml: Any,
    domain: str = "",
    controller_actions: Sequence[Any] = (),
) -> AotProgram:
    """Load the generated module for a live DSK, generating and
    compiling it only the first time this process sees its shape."""
    live_hash = dsk_hash(dsk_fingerprint(
        rules=rules, actions=actions, dsml=dsml,
        controller_actions=controller_actions,
    ))
    with _SHARED_LOCK:
        code = _SHARED.get((live_hash, domain))
        if code is None:
            source = generate_module_source(
                rules=rules, actions=actions, dsml=dsml, domain=domain,
                controller_actions=controller_actions,
            )
            code = _SHARED[live_hash, domain] = compile(
                source, f"<aot:{domain or 'dsk'}>", "exec"
            )
            if len(_SHARED) > _SHARED_LIMIT:
                del _SHARED[next(iter(_SHARED))]
    return _load(code, live_hash, rules, dsml, controller_actions)


def load_program(
    source: str,
    *,
    rules: Mapping[str, Any],
    actions: list[Any],
    dsml: Any,
    domain: str = "",
    controller_actions: Sequence[Any] = (),
) -> AotProgram:
    """Execute generated source and bind it to the live DSK.

    Validation is structural, not trust-based: the module's baked
    ``DSK_HASH`` must equal a hash recomputed from the live rules,
    broker and controller action tables, and metamodel slot layout — a
    module generated from any other DSK shape (or an edited one) is
    refused, which is what makes pregenerated modules safe to ship to
    remote workers.
    """
    try:
        code = compile(source, f"<aot:{domain or 'dsk'}>", "exec")
    except SyntaxError as exc:
        raise AotError(f"generated module failed to compile: {exc}") from exc
    live_hash = dsk_hash(dsk_fingerprint(
        rules=rules, actions=actions, dsml=dsml,
        controller_actions=controller_actions,
    ))
    return _load(code, live_hash, rules, dsml, controller_actions)


def _load(
    code: CodeType,
    live_hash: str,
    rules: Mapping[str, Any],
    dsml: Any,
    controller_actions: Sequence[Any],
) -> AotProgram:
    """Exec ``code`` into a fresh namespace, check its ABI and baked
    ``DSK_HASH`` against ``live_hash``, and bind it to the live DSK."""
    namespace: dict[str, Any] = {}
    try:
        exec(code, namespace)
    except Exception as exc:  # noqa: BLE001 - surfaced as one typed error
        raise AotError(f"generated module failed to execute: {exc}") from exc
    abi = namespace.get("ABI")
    if abi != ABI_VERSION:
        raise AotError(f"ABI mismatch: module={abi!r}, loader={ABI_VERSION}")
    baked = namespace.get("DSK_HASH")
    if baked != live_hash:
        raise AotError(
            f"DSK hash mismatch: module was generated from a different DSK "
            f"shape (module={baked!r}, live={live_hash!r})"
        )
    syn_classes = frozenset(namespace.get("SYN_CLASSES", ()))
    # Bind the feature-table sentinels: flat slot reads only fire for
    # objects laid out by exactly these tables (see aotgen._slot).
    for class_name in syn_classes:
        cls = dsml.find_class(class_name) if dsml is not None else None
        if cls is None:
            raise AotError(f"compiled class {class_name!r} not in DSML")
        namespace[f"_TBL_{_mangle(class_name)}"] = cls.feature_table()
    dispatch = _bind_dispatch(namespace, rules, syn_classes)
    return AotProgram(
        dsk_hash=live_hash,
        code=code,
        broker_calls=dict(namespace.get("BROKER_APIS", {})),
        syn_dispatch=dispatch,
        syn_many={
            name: tuple(attrs)
            for name, attrs in namespace.get("SYN_MANY_ATTRS", {}).items()
        },
        syn_classes=syn_classes,
        ctl_actions=_bind_controller(namespace, controller_actions),
        broker_skipped=tuple(namespace.get("BROKER_SKIPPED", ())),
        syn_skipped=tuple(namespace.get("SYN_SKIPPED", ())),
        ctl_skipped=tuple(namespace.get("CTL_SKIPPED", ())),
    )


def _bind_controller(
    namespace: Mapping[str, Any], actions: Sequence[Any]
) -> dict[str, tuple[tuple[Any, Callable[..., Any]], ...]]:
    """Pair each generated Case-1 entry with its live Action.

    An operation's entries list, in registration order, every action
    whose pattern matches it; the live table must yield the same names
    and attributes in the same order, or the module is refused.
    """
    from repro.runtime.topics import TopicMatcher

    table: dict[str, tuple[tuple[Any, Callable[..., Any]], ...]] = {}
    for operation, entries in namespace.get("CTL_ACTIONS", {}).items():
        live = [a for a in actions if TopicMatcher.matches(a.pattern, operation)]
        if [(a.name, a.attributes) for a in live] != [
            (name, attributes) for name, attributes, _fn in entries
        ]:
            raise AotError(
                f"controller operation {operation!r}: module and live "
                f"action table disagree"
            )
        table[operation] = tuple(
            (action, fn) for action, (_n, _at, fn) in zip(live, entries)
        )
    return table


def _bind_dispatch(
    namespace: Mapping[str, Any],
    rules: Mapping[str, Any],
    syn_classes: frozenset[str],
) -> dict[tuple[str, str, str], tuple[_DispatchEntry, ...]]:
    """Pair generated entries with live Transition objects.

    Generated entries carry their index within the priority-sorted
    (stable on ties, like ``LTS.indexed_transitions``) transition group
    for their ``(state, label)`` key; the live rule set is grouped and
    sorted identically, so index ``i`` names the same transition the
    generator compiled.  Count mismatches mean the module and the live
    DSK diverged and are refused (belt to the hash check's braces).
    """
    live_groups: dict[tuple[str, str, str], list[Any]] = {}
    for class_name in syn_classes:
        rule = rules.get(class_name)
        if rule is None:
            raise AotError(f"compiled class {class_name!r} has no live rule")
        by_key: dict[tuple[str, str], list[Any]] = {}
        for transition in rule.lts._transitions:
            by_key.setdefault(
                (transition.source, transition.label), []
            ).append(transition)
        for (state, label), group in by_key.items():
            live_groups[(class_name, state, label)] = sorted(
                group, key=lambda t: -t.priority
            )
    dispatch: dict[tuple[str, str, str], tuple[_DispatchEntry, ...]] = {}
    for key, entries in namespace.get("SYN_DISPATCH", {}).items():
        live = live_groups.get(tuple(key))
        if live is None or len(live) != len(entries):
            raise AotError(
                f"dispatch group {key!r}: module has {len(entries)} "
                f"entries, live DSK has {0 if live is None else len(live)}"
            )
        bound: list[_DispatchEntry] = []
        for guard_fn, index, renders in entries:
            bound.append((guard_fn, live[index], tuple(renders)))
        dispatch[tuple(key)] = tuple(bound)
    return dispatch


def install_generated(platform: Any) -> None:
    """Install the generated tables on ``platform`` unless they are
    current: the synthesis dispatch when it has a synthesis layer, the
    broker call table when it has a broker, the Case-1 action table
    when it has a controller.

    The loader calls this once the layers hold their DSK, and
    ``Platform.apply_reflection`` at the end of every edit batch.  With
    a synthesis layer the platform also gets the regeneration hook:
    when a runtime DSK edit drops a table, the start of the next
    synthesis cycle or teardown calls this again and reinstalls them
    all.
    """
    synthesis, broker, controller = (
        platform.synthesis, platform.broker, platform.controller
    )
    if (
        (synthesis is None or synthesis.interpreter._aot is not None)
        and (broker is None or broker._aot_calls is not None)
        and (controller is None or controller._aot_actions is not None)
    ):
        return
    program = build_program(
        rules=synthesis.interpreter._rules if synthesis is not None else {},
        actions=list(broker.calls._actions) if broker is not None else [],
        dsml=platform.dsml,
        domain=platform.domain,
        controller_actions=(
            list(controller.actions._actions) if controller is not None else []
        ),
    )
    if synthesis is not None:
        synthesis.interpreter.install_aot(program)
        synthesis.aot_refresh = lambda: install_generated(platform)
    if broker is not None:
        broker.install_aot(program.broker_calls)
    if controller is not None:
        controller.install_aot(program.ctl_actions)


def remove_generated(platform: Any) -> None:
    """Strip every generated table and the regeneration hook, leaving
    ``platform`` on the reflective paths for good: the reference side
    of the tier-equivalence checks in tests and ``repro bench aot``."""
    if platform.synthesis is not None:
        platform.synthesis.interpreter.install_aot(None)
        platform.synthesis.aot_refresh = None
    if platform.broker is not None:
        platform.broker.install_aot(None)
    if platform.controller is not None:
        platform.controller.install_aot(None)
