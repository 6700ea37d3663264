"""Tier-3 loader: validate and install AOT-generated dispatch modules.

:mod:`repro.modeling.aotgen` turns a loaded DSK into Python *source*;
this module turns that source into installed fast paths:

* :func:`load_program` executes the source, revalidates it against the
  live platform (ABI, recomputed ``DSK_HASH``), binds the generated
  ``_TBL_*`` feature-table sentinels, and maps dispatch entries onto
  the *live* :class:`~repro.modeling.lts.Transition` objects so the
  Tier-3 path mutates the very same execution state Tier-2 would;
* :func:`enable_aot` builds + installs a program on a platform and
  hooks lazy regeneration into the synthesis cycle: a runtime DSK edit
  (rule replaced, broker action installed) atomically drops the stale
  program — the edited entities fall back to Tier-2 — and the next
  completed synthesis cycle regenerates it.

Tier selection is therefore: Tier-3 when a program is installed and
the change/call is covered; Tier-2 (PR3's cached closures) otherwise.
Tier-3 is opt-in (``load_platform(..., aot=True)`` or
``Platform.enable_aot()``): behaviour is pinned identical by the
tier-equivalence property tests, but the default stays conservative.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Mapping

from repro.modeling.aotgen import (
    ABI_VERSION,
    dsk_fingerprint,
    dsk_hash,
    generate_module_source,
    _mangle,
)

__all__ = ["AotError", "AotProgram", "build_program", "load_program", "enable_aot"]


class AotError(Exception):
    """Raised when a generated module cannot be validated/installed."""


#: (guard_fn | None, live Transition, render fns) per dispatch entry.
_DispatchEntry = tuple[Any, Any, tuple[Callable[..., list], ...]]


@dataclass
class AotProgram:
    """A validated, live-bound generated module ready to install."""

    domain: str
    dsk_hash: str
    source: str
    namespace: dict[str, Any] = field(repr=False)
    #: exact API -> fn(resources, state, values, args)
    broker_calls: dict[str, Callable[..., Any]]
    #: (class, state, label) -> priority-ordered dispatch entries
    syn_dispatch: dict[tuple[str, str, str], tuple[_DispatchEntry, ...]]
    #: class -> many-valued attr names touched for Tier-2 env parity
    syn_many: dict[str, tuple[str, ...]]
    syn_classes: frozenset[str]
    broker_skipped: tuple[str, ...]
    syn_skipped: tuple[str, ...]


def build_program(
    *,
    rules: Mapping[str, Any],
    actions: list[Any],
    dsml: Any,
    domain: str = "",
) -> AotProgram:
    """Generate + load in one step (the common in-process path)."""
    source = generate_module_source(
        rules=rules, actions=actions, dsml=dsml, domain=domain
    )
    return load_program(
        source, rules=rules, actions=actions, dsml=dsml, domain=domain
    )


def load_program(
    source: str,
    *,
    rules: Mapping[str, Any],
    actions: list[Any],
    dsml: Any,
    domain: str = "",
) -> AotProgram:
    """Execute generated source and bind it to the live DSK.

    Validation is structural, not trust-based: the module's baked
    ``DSK_HASH`` must equal a hash recomputed from the live rules,
    action table, and metamodel slot layout — a module generated from
    any other DSK shape (or an edited one) is refused, which is what
    makes pregenerated modules safe to ship to remote workers.
    """
    namespace: dict[str, Any] = {}
    try:
        exec(compile(source, f"<aot:{domain or 'dsk'}>", "exec"), namespace)
    except Exception as exc:  # noqa: BLE001 - surfaced as one typed error
        raise AotError(f"generated module failed to execute: {exc}") from exc
    abi = namespace.get("ABI")
    if abi != ABI_VERSION:
        raise AotError(f"ABI mismatch: module={abi!r}, loader={ABI_VERSION}")
    live_hash = dsk_hash(
        dsk_fingerprint(rules=rules, actions=actions, dsml=dsml)
    )
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
        domain=str(namespace.get("DOMAIN", domain)),
        dsk_hash=live_hash,
        source=source,
        namespace=namespace,
        broker_calls=dict(namespace.get("BROKER_APIS", {})),
        syn_dispatch=dispatch,
        syn_many={
            name: tuple(attrs)
            for name, attrs in namespace.get("SYN_MANY_ATTRS", {}).items()
        },
        syn_classes=syn_classes,
        broker_skipped=tuple(namespace.get("BROKER_SKIPPED", ())),
        syn_skipped=tuple(namespace.get("SYN_SKIPPED", ())),
    )


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


def enable_aot(platform: Any) -> AotProgram:
    """Build + install a Tier-3 program on a started platform.

    Also hooks lazy regeneration: when a runtime DSK edit invalidates
    either layer's installed program (``add_rule(replace=True)`` or
    ``install_action`` drop it), the end of the next synthesis cycle
    rebuilds and reinstalls — the editing cycle itself runs on Tier-2,
    subsequent ones return to Tier-3.
    """
    synthesis = platform.synthesis
    if synthesis is None:
        raise AotError(f"platform {platform.name!r} has no synthesis layer")
    broker = platform.broker

    def build_and_install() -> AotProgram:
        program = build_program(
            rules=synthesis.interpreter._rules,
            actions=list(broker.calls._actions) if broker is not None else [],
            dsml=platform.dsml,
            domain=platform.domain,
        )
        synthesis.interpreter.install_aot(program)
        if broker is not None:
            broker.install_aot(program.broker_calls)
        return program

    def refresh() -> None:
        stale = synthesis.interpreter._aot is None or (
            broker is not None and broker._aot_calls is None
        )
        if stale:
            build_and_install()

    program = build_and_install()
    synthesis.aot_refresh = refresh
    return program
