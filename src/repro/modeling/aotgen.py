"""Tier-3 ahead-of-time generator: DSK -> real Python module source.

The reference path evaluates through cached compiled expressions,
but every dispatch still pays for reflective plumbing: per-call environment
dicts (two full state-dict copies per broker call), per-name
``__lookup__`` closure calls, ``ActionContext`` construction, and
MObject ``get()`` reflection on every feature read.  The KMF line of
work (PAPERS.md) shows the way out for model-driven runtimes on
constrained nodes: treat models as first-class but *compile* them —
flat slot-indexed storage plus generated artifacts instead of
reflective interpretation.

This module turns a loaded DSK (the live
:class:`~repro.middleware.synthesis.interpreter.EntityRule` set, the
:class:`~repro.middleware.broker.actions.BrokerActionTable` and the
Controller's Case-1 :class:`~repro.middleware.controller.handlers.Action`
list) into the *source text* of a plain Python module:

* LTS transitions -> a direct dispatch table
  ``SYN_DISPATCH[(class_name, state, label)] = ((guard_fn|None,
  slot_in_priority_order, render_fn|None), ...)`` — no rule lookup, no
  per-change environment dict;
* command templates -> render functions over ``(change, obj)`` with
  feature reads pre-resolved to flat slot-store indices;
* guards and step expressions -> plain compiled Python functions;
* broker call actions -> one function per exact API string,
  ``BROKER_APIS[api] = fn(resources, state, values, args)``;
* Case-1 controller actions -> per exact operation, every action that
  can match it in registration order, ``CTL_ACTIONS[operation] =
  ((name, attributes, fn), ...)``; ``fn(command, broker, context,
  result)`` is ``Action.run`` compiled: it builds each step's call
  arguments, calls ``broker.call_api`` and records the call in
  ``result``.  Selection among the candidates (policy scores), the
  classification and the error capture stay with the Controller at
  runtime, so policy edits need no regeneration.

Generation is *conservative*: any expression or spec shape whose
reference-path semantics cannot be reproduced exactly raises
:class:`AotUnsupported` internally and excludes that class/API/
operation from the generated tables (listed in ``SYN_SKIPPED``,
``BROKER_SKIPPED``, ``CTL_SKIPPED``) — the runtime takes the
reference path (the reflective Case-1 scan, for the controller) for
exactly those entries, so Tier-3 never changes behaviour, only cost.  An
operation is refused when any action that matches it has a guard, a
wildcard pattern, a Python implementation, a step without an ``api``,
a non-string argument key, a non-scalar literal argument, or an
expression the compiler refuses.

The emitted source is deterministic for a given DSK (golden-file
checkable) and stamped with ``DSK_HASH`` — a
stable structural hash over the rule/action/slot shape — which the
loader in :mod:`repro.middleware.synthesis.aot` revalidates against
the live platform before installing the tables.
"""

from __future__ import annotations

import ast
import json
import keyword
import sys
from typing import Any, Iterable, Mapping, Sequence

# CPython's built-in SHA-256.  Every process that loads a platform
# hashes its DSK; hashlib would also load the OpenSSL bindings there.
if sys.version_info >= (3, 12):
    from _sha2 import sha256
else:
    from _sha256 import sha256

from repro.modeling.expr import (
    _SAFE_CONSTANTS,
    _SAFE_FUNCTIONS,
    ExpressionError,
    compile_expression,
)

__all__ = [
    "AotUnsupported",
    "ABI_VERSION",
    "dsk_fingerprint",
    "dsk_hash",
    "generate_module_source",
]

#: Bumped whenever the generated-module contract (names, signatures,
#: table shapes) changes; the loader refuses modules from another ABI.
ABI_VERSION = 2


class AotUnsupported(Exception):
    """An expression/spec shape Tier-3 cannot compile faithfully.

    Raised and caught *inside* the generator: the surrounding class or
    API is recorded as uncompiled and served by the reference path at
    runtime.
    """


# -- expression -> Python source --------------------------------------------
#
# The compiler reuses Expression's checked AST (whitelist guarantees)
# and mirrors the semantics of Expression._eval / the compiled lowering
# exactly: whitelisted functions resolve to real builtins and are never
# environment-shadowed; method calls are plain attribute calls;
# generic attribute access routes through _attr_access; generator
# expressions materialize as lists; dict displays drop `**` pairs.
# Free names are delegated to a resolver that knows the evaluation
# context (broker step vs synthesis change) and either returns a source
# fragment or raises AotUnsupported.


class NameResolver:
    """Maps a free name to a Python source fragment, or refuses."""

    def resolve(self, name: str) -> str | None:
        """Source fragment for ``name``; None defers to safe constants."""
        raise NotImplementedError

    def resolve_or_constant(self, name: str, source: str) -> str:
        fragment = self.resolve(name)
        if fragment is not None:
            return fragment
        if name in _SAFE_CONSTANTS:
            return repr(_SAFE_CONSTANTS[name])
        raise AotUnsupported(f"unresolvable name {name!r} in {source!r}")


class _SourceCompiler:
    """Rewrites a checked expression AST into plain Python source."""

    def __init__(self, source: str, resolver: NameResolver) -> None:
        self.source = source
        self.resolver = resolver

    def compile(self) -> str:
        try:
            expression = compile_expression(self.source)
        except ExpressionError as exc:
            raise AotUnsupported(
                f"uncompilable expression {self.source!r}: {exc}"
            ) from exc
        rewritten = self._transform(expression._tree, frozenset())
        return ast.unparse(ast.fix_missing_locations(rewritten))

    def _fragment(self, source: str) -> ast.expr:
        return ast.parse(source, mode="eval").body

    def _transform(self, node: ast.expr, bound: frozenset[str]) -> ast.expr:
        if isinstance(node, ast.Constant):
            return node
        if isinstance(node, ast.Name):
            if node.id in bound:
                return node
            return self._fragment(
                self.resolver.resolve_or_constant(node.id, self.source)
            )
        if isinstance(node, ast.Call):
            args = [self._transform(arg, bound) for arg in node.args]
            func = node.func
            if isinstance(func, ast.Name):
                # Whitelisted function: resolved at compile time, never
                # shadowed by the environment (Tier-1/2 parity).  The
                # generated module binds these names to the same
                # builtins _SAFE_FUNCTIONS holds.
                if func.id not in _SAFE_FUNCTIONS:
                    raise AotUnsupported(
                        f"non-whitelisted call {func.id!r} in {self.source!r}"
                    )
                return ast.Call(
                    func=ast.Name(id=func.id, ctx=ast.Load()),
                    args=args,
                    keywords=[],
                )
            assert isinstance(func, ast.Attribute)
            # Method call: plain getattr on the receiver, matching the
            # interpreter's Call branch (NOT the MObject get() path).
            return ast.Call(
                func=ast.Attribute(
                    value=self._transform(func.value, bound),
                    attr=func.attr,
                    ctx=ast.Load(),
                ),
                args=args,
                keywords=[],
            )
        if isinstance(node, ast.Attribute):
            return ast.Call(
                func=ast.Name(id="_attr", ctx=ast.Load()),
                args=[
                    self._transform(node.value, bound),
                    ast.Constant(value=node.attr),
                ],
                keywords=[],
            )
        if isinstance(node, ast.Dict):
            # The interpreter silently drops `**` unpacking pairs.
            keys: list[ast.expr] = []
            values: list[ast.expr] = []
            for key, value in zip(node.keys, node.values):
                if key is None:
                    continue
                keys.append(self._transform(key, bound))
                values.append(self._transform(value, bound))
            return ast.Dict(keys=keys, values=values)
        if isinstance(node, (ast.ListComp, ast.SetComp, ast.GeneratorExp)):
            generators, inner = self._generators(node.generators, bound)
            elt = self._transform(node.elt, inner)
            if isinstance(node, ast.SetComp):
                return ast.SetComp(elt=elt, generators=generators)
            # Generator expressions materialize as lists (tier parity).
            return ast.ListComp(elt=elt, generators=generators)
        if isinstance(node, ast.DictComp):
            generators, inner = self._generators(node.generators, bound)
            return ast.DictComp(
                key=self._transform(node.key, inner),
                value=self._transform(node.value, inner),
                generators=generators,
            )
        if isinstance(node, ast.BoolOp):
            return ast.BoolOp(
                op=node.op,
                values=[self._transform(v, bound) for v in node.values],
            )
        if isinstance(node, ast.BinOp):
            return ast.BinOp(
                left=self._transform(node.left, bound),
                op=node.op,
                right=self._transform(node.right, bound),
            )
        if isinstance(node, ast.UnaryOp):
            return ast.UnaryOp(
                op=node.op, operand=self._transform(node.operand, bound)
            )
        if isinstance(node, ast.Compare):
            return ast.Compare(
                left=self._transform(node.left, bound),
                ops=node.ops,
                comparators=[
                    self._transform(c, bound) for c in node.comparators
                ],
            )
        if isinstance(node, ast.IfExp):
            return ast.IfExp(
                test=self._transform(node.test, bound),
                body=self._transform(node.body, bound),
                orelse=self._transform(node.orelse, bound),
            )
        if isinstance(node, ast.Subscript):
            return ast.Subscript(
                value=self._transform(node.value, bound),
                slice=self._transform(node.slice, bound),
                ctx=ast.Load(),
            )
        if isinstance(node, ast.Slice):
            return ast.Slice(
                lower=self._transform(node.lower, bound) if node.lower else None,
                upper=self._transform(node.upper, bound) if node.upper else None,
                step=self._transform(node.step, bound) if node.step else None,
            )
        if isinstance(node, ast.List):
            return ast.List(
                elts=[self._transform(e, bound) for e in node.elts],
                ctx=ast.Load(),
            )
        if isinstance(node, ast.Tuple):
            return ast.Tuple(
                elts=[self._transform(e, bound) for e in node.elts],
                ctx=ast.Load(),
            )
        if isinstance(node, ast.Set):
            return ast.Set(elts=[self._transform(e, bound) for e in node.elts])
        raise AotUnsupported(
            f"unsupported node {type(node).__name__} in {self.source!r}"
        )

    def _generators(
        self,
        generators: list[ast.comprehension],
        bound: frozenset[str],
    ) -> tuple[list[ast.comprehension], frozenset[str]]:
        inner = bound
        lowered: list[ast.comprehension] = []
        for position, gen in enumerate(generators):
            iter_scope = bound if position == 0 else inner
            inner = inner | self._target_names(gen.target)
            lowered.append(
                ast.comprehension(
                    target=gen.target,
                    iter=self._transform(gen.iter, iter_scope),
                    ifs=[self._transform(cond, inner) for cond in gen.ifs],
                    is_async=0,
                )
            )
        return lowered, inner

    def _target_names(self, target: ast.expr) -> frozenset[str]:
        if isinstance(target, ast.Name):
            return frozenset((target.id,))
        if isinstance(target, ast.Tuple):
            names: frozenset[str] = frozenset()
            for elt in target.elts:
                names = names | self._target_names(elt)
            return names
        raise AotUnsupported(
            f"unsupported comprehension target in {self.source!r}"
        )


def compile_expr_source(source: str, resolver: NameResolver) -> str:
    """Compile a safe-expression string into a Python source fragment."""
    return _SourceCompiler(str(source), resolver).compile()


# -- structural hashing ------------------------------------------------------


def _slot_layout(dsml: Any, class_names: Iterable[str]) -> dict[str, list]:
    """Deterministic slot layout for the classes Tier-3 compiles.

    One row per feature slot: ``[name, index, is_attribute, many,
    default]`` — enough for the loader to verify that the live
    metamodel still lays instances out the way the generated flat
    reads assume.
    """
    layout: dict[str, list] = {}
    for class_name in sorted(set(class_names)):
        cls = dsml.find_class(class_name) if dsml is not None else None
        if cls is None:
            continue
        table = cls.feature_table()
        rows = []
        for name in sorted(table.slots):
            slot = table.slots[name]
            default = None
            if slot.is_attribute and not slot.many:
                default = _static_default(slot.feature)
                if default is _DYNAMIC:
                    default = "<dynamic>"
            rows.append(
                [name, slot.index, bool(slot.is_attribute), bool(slot.many),
                 default]
            )
        layout[class_name] = rows
    return layout


_DYNAMIC = object()


def _static_default(attribute: Any) -> Any:
    """The attribute's default if it is a bake-able immutable constant;
    ``_DYNAMIC`` otherwise (forces the reflective read path)."""
    try:
        value = attribute.default_value()
    except Exception:  # noqa: BLE001 - default needs runtime context
        return _DYNAMIC
    if value is None or isinstance(value, (str, int, float, bool)):
        return value
    return _DYNAMIC


def dsk_fingerprint(
    *,
    rules: Mapping[str, Any] | None = None,
    actions: Iterable[Any] = (),
    dsml: Any = None,
    controller_actions: Iterable[Any] = (),
) -> dict[str, Any]:
    """Structural description of a loaded DSK (:func:`dsk_hash` encodes
    it canonically).

    Covers everything the generated module's behaviour depends on: per
    class the LTS shape (states, initial, transitions in declaration
    order with guards/priorities/action templates), the broker action
    table in registration order (pattern, guard, priority, declarative
    steps), the Controller's Case-1 actions in registration order
    (pattern, guard, attributes, declarative steps), and the slot
    layout of every rule class.  Runtime edits to any of these change
    the hash and invalidate installed modules.
    """
    rule_docs: dict[str, Any] = {}
    for class_name in sorted(rules or {}):
        rule = (rules or {})[class_name]
        lts = rule.lts
        rule_docs[class_name] = {
            "lts": lts.name,
            "initial": lts.initial,
            "on_unmatched": rule.on_unmatched,
            "states": sorted(
                [name, bool(state.final)] for name, state in lts.states.items()
            ),
            "transitions": [
                [
                    t.source, t.label, t.target, t.guard, t.priority,
                    [dict(template) for template in t.actions],
                ]
                for t in lts._transitions
            ],
        }
    action_docs = [
        [action.name, action.pattern, action.priority, action.guard,
         _steps_doc(action.implementation)]
        for action in actions
    ]
    return {
        "abi": ABI_VERSION,
        "rules": rule_docs,
        "broker": action_docs,
        "controller": [
            [
                action.name, action.pattern, action.guard,
                action.attributes, _steps_doc(action.implementation),
            ]
            for action in controller_actions
        ],
        "slots": _slot_layout(dsml, rules or {}),
    }


def _steps_doc(implementation: Any) -> Any:
    if callable(implementation):
        return "<callable>"
    return [dict(step) for step in implementation]


def dsk_hash(fingerprint: Mapping[str, Any]) -> str:
    """SHA-256 over the canonical JSON encoding of a fingerprint (sorted
    keys; values JSON cannot encode by their ``repr``)."""
    blob = json.dumps(
        fingerprint, sort_keys=True, separators=(",", ":"), default=repr
    ).encode("utf-8")
    return sha256(blob).hexdigest()


# -- broker codegen ----------------------------------------------------------
#
# Reference broker dispatch evaluates step expressions against an env
# built as: state values, overlaid by call args, with "state" bound to
# a state snapshot; step results overwrite the env and every state
# write rebuilds it from scratch (dropping earlier step results).  The
# generated function reproduces that name-resolution order with *zero*
# dict copies: step results become locals (statically cleared at each
# rebuild point), "state" reads the live values dict (pure whitelisted
# methods only, so aliasing is safe), and every other free name goes
# through one _lookup(args, values, name) call.


class _BrokerResolver(NameResolver):
    def __init__(
        self, results: tuple[str, ...], tainted: frozenset[str] = frozenset()
    ) -> None:
        #: step-result names live *at this point* of the step list, in
        #: binding order (later bindings shadow earlier ones).
        self.results = results
        #: result names whose liveness depends on a runtime-conditional
        #: env rebuild (a truthy ``state_expr``): the reference path may
        #: or may not still see them, so referencing one is uncompilable.
        self.tainted = tainted

    def resolve(self, name: str) -> str | None:
        if name in self.results:
            return _result_local(name)
        if name in self.tainted:
            raise AotUnsupported(
                f"result {name!r} referenced after a conditional env rebuild"
            )
        if name == "state":
            # env["state"] is (re)assigned after args overlay, so the
            # bare name always reaches the state dict, never an arg.
            return "_values"
        # Inline the call-arg hit (the overwhelmingly common case for
        # api-signature names) so it costs two dict ops and no extra
        # frame; misses fall through to the full resolution order.
        return (
            f"(_a[{name!r}] if {name!r} in _a "
            f"else _lookup(_a, _values, {name!r}))"
        )


def _result_local(name: str) -> str:
    if not name.isidentifier():
        raise AotUnsupported(f"step result {name!r} is not an identifier")
    return f"_r_{name}"


class _Emitter:
    """Indented source accumulator."""

    def __init__(self) -> None:
        self.lines: list[str] = []

    def emit(self, line: str = "", *, indent: int = 0) -> None:
        self.lines.append(("    " * indent + line) if line else "")

    def block(self, code: str, *, indent: int = 0) -> None:
        for line in code.splitlines():
            self.emit(line, indent=indent)

    def text(self) -> str:
        return "\n".join(self.lines) + "\n"


def _wrap_expr(
    out: _Emitter,
    target: str,
    expr_source: str,
    original: str,
    *,
    indent: int,
) -> None:
    """Assign ``target = <compiled expr>`` with the evaluator's error
    contract: any non-ExpressionError failure surfaces as
    ExpressionError naming the original source string."""
    out.emit("try:", indent=indent)
    out.emit(f"{target} = {expr_source}", indent=indent + 1)
    out.emit("except ExpressionError:", indent=indent)
    out.emit("raise", indent=indent + 1)
    out.emit("except Exception as exc:", indent=indent)
    out.emit(
        f"raise ExpressionError(_EVAL_ERR % ({original!r}, exc)) from exc",
        indent=indent + 1,
    )


def _assign_step_expr(
    out: _Emitter, target: str, expr_source: str, original: str, *, indent: int
) -> None:
    """:func:`_wrap_expr` for step expressions of broker and controller
    actions.  A bare name compiles to a resolver lookup, which raises
    nothing but ExpressionError, so it is assigned without the
    wrapper."""
    if original.isidentifier():
        out.emit(f"{target} = {expr_source}", indent=indent)
    else:
        _wrap_expr(out, target, expr_source, original, indent=indent)


def _compile_broker_action(action: Any, out: _Emitter, fn_name: str) -> None:
    """Emit one ``def fn(resources, state, _values, _a)`` broker body."""
    steps = action.implementation
    if callable(steps):
        raise AotUnsupported(f"action {action.name!r}: Python implementation")
    out.emit(f"def {fn_name}(resources, state, _values, _a):")
    results: tuple[str, ...] = ()
    tainted: frozenset[str] = frozenset()
    emitted = 0
    has_value = False
    for step in steps:
        step = dict(step)
        if "set" in step:
            expr = compile_expr_source(
                step["expr"], _BrokerResolver(results, tainted)
            )
            _wrap_expr(out, "_tmp", expr, str(step["expr"]), indent=1)
            out.emit(f"state.set({str(step['set'])!r}, _tmp)", indent=1)
            results = ()  # env rebuild point: step results are dropped
            tainted = frozenset()
            emitted += 1
            continue
        if "compute" in step:
            expr = compile_expr_source(
                step["compute"], _BrokerResolver(results, tainted)
            )
            _wrap_expr(out, "_value", expr, str(step["compute"]), indent=1)
            has_value = True
            result = step.get("result")
            if result:
                out.emit(f"{_result_local(str(result))} = _value", indent=1)
                results = tuple(
                    n for n in results if n != str(result)
                ) + (str(result),)
                tainted = tainted - {str(result)}
            emitted += 1
            continue
        # invoke step
        resource = step.get("resource")
        operation = step.get("operation")
        if (resource is None and "resource_expr" not in step) or not operation:
            raise AotUnsupported(
                f"action {action.name!r}: malformed step {step!r}"
            )
        if resource is not None:
            resource_src = repr(str(resource))
        else:
            expr = compile_expr_source(
                step["resource_expr"], _BrokerResolver(results, tainted)
            )
            _wrap_expr(out, "_resource", expr, str(step["resource_expr"]), indent=1)
            resource_src = "str(_resource)"
        arg_items: list[tuple[str, str]] = [
            (key, repr(value))
            for key, value in dict(step.get("args", {})).items()
        ]
        for key, expr_text in dict(step.get("args_expr", {})).items():
            expr = compile_expr_source(
                expr_text, _BrokerResolver(results, tainted)
            )
            local = f"_x{emitted}_{len(arg_items)}"
            _assign_step_expr(out, local, expr, str(expr_text), indent=1)
            arg_items.append((key, local))
        # Emit plain keyword arguments where the key allows it (skips
        # the ``**{...}`` build-then-unpack dict); non-identifier keys
        # keep the dict form.
        kw_parts = [
            f"{key}={src}" for key, src in arg_items
            if key.isidentifier() and not keyword.iskeyword(key)
        ]
        dict_parts = [
            f"{key!r}: {src}" for key, src in arg_items
            if not (key.isidentifier() and not keyword.iskeyword(key))
        ]
        call_args = "".join(
            [
                f", {part}" for part in kw_parts
            ] + ([f", **{{{', '.join(dict_parts)}}}"] if dict_parts else [])
        )
        out.emit(
            f"_value = resources.invoke({resource_src}, "
            f"{str(operation)!r}{call_args})",
            indent=1,
        )
        has_value = True
        result = step.get("result")
        if result:
            out.emit(f"{_result_local(str(result))} = _value", indent=1)
            results = tuple(
                n for n in results if n != str(result)
            ) + (str(result),)
            tainted = tainted - {str(result)}
        state_key = step.get("state")
        if state_key is not None:
            if state_key:  # the reference path skips falsy static keys
                out.emit(f"state.set({str(state_key)!r}, _value)", indent=1)
                results = ()
                tainted = frozenset()
        elif "state_expr" in step:
            expr = compile_expr_source(
                step["state_expr"], _BrokerResolver(results, tainted)
            )
            _wrap_expr(out, "_skey", expr, str(step["state_expr"]), indent=1)
            out.emit("if _skey:", indent=1)
            out.emit("state.set(str(_skey), _value)", indent=2)
            # The rebuild is runtime-conditional: prior results *may*
            # have been dropped; later references are uncompilable.
            tainted = tainted | frozenset(results)
            results = ()
        emitted += 1
    out.emit("return _value" if has_value else "return None", indent=1)


def _compilable_broker_apis(actions: list[Any]) -> dict[str, Any]:
    """Exact API string -> winning action, for APIs whose selection is
    static: a unique guard-free exact-pattern winner that no wildcard
    or guarded candidate could displace at runtime."""
    from repro.runtime.topics import TopicMatcher

    exact: dict[str, list[tuple[int, Any]]] = {}
    wildcards: list[tuple[int, Any]] = []
    for order, action in enumerate(actions):
        if TopicMatcher.is_wildcard(action.pattern):
            wildcards.append((order, action))
        else:
            exact.setdefault(action.pattern, []).append((order, action))
    table: dict[str, Any] = {}
    for api, entries in exact.items():
        candidates = list(entries)
        for order, action in wildcards:
            if action._topic_match(api):
                candidates.append((order, action))
        if any(action.guard is not None for _order, action in candidates):
            continue  # selection depends on runtime state: reference only
        best = min(candidates, key=lambda e: (-e[1].priority, e[0]))
        table[api] = best[1]
    return table


# -- controller codegen ------------------------------------------------------
#
# A Case-1 action step (``Action.run``) evaluates its ``args_expr``
# against an env built as: the context snapshot, overlaid by the
# command args, with "command" bound to the Command; each named step
# result is added after its call and never dropped.  The generated
# function resolves names in that order with no env dict: step results
# become locals, "command" the Command, and every other name reads the
# command args, then the context snapshot, then the safe constants.
# The action's candidates and score-based selection stay in the
# Controller, which runs the function it selected.


class _ControllerResolver(NameResolver):
    def __init__(self, results: frozenset[str], source: str) -> None:
        #: step-result names bound *before* the step being compiled
        self.results = results
        self.source = source

    def resolve(self, name: str) -> str | None:
        if name in self.results:
            return _result_local(name)
        if name == "command":
            return "_cmd"
        return (
            f"(_a[{name!r}] if {name!r} in _a "
            f"else _ctl_lookup(_ctx, {name!r}, {self.source!r}))"
        )


def _literal_arg(action: Any, value: Any) -> str:
    """Source for a literal step argument.  The reference path passes
    the step's own object on every call, so only immutable scalars
    whose repr round-trips are baked."""
    if (
        isinstance(value, (str, int, float, type(None)))
        and _literal_roundtrip(value) == value
    ):
        return repr(value)
    raise AotUnsupported(f"action {action.name!r}: literal arg {value!r}")


def _compile_controller_action(action: Any, out: _Emitter, fn_name: str) -> None:
    """Emit one ``def fn(_cmd, broker, _ctx, _res)`` body: ``Action.run``
    compiled, with its signature and contract (returns the last call's
    value, appends a ``BrokerCallRecord`` per call to ``_res``)."""
    if action.guard is not None:
        raise AotUnsupported(f"action {action.name!r}: guarded")
    steps = action.implementation
    if callable(steps):
        raise AotUnsupported(f"action {action.name!r}: Python implementation")
    out.emit(f"def {fn_name}(_cmd, broker, _ctx, _res):")
    if not steps:
        out.emit("return None", indent=1)
        return
    out.emit("_a = _cmd.args", indent=1)
    out.emit("_calls = _res.broker_calls", indent=1)
    results: frozenset[str] = frozenset()
    for position, step in enumerate(steps):
        step = dict(step)
        api = step.get("api")
        if not api or not isinstance(api, str):
            raise AotUnsupported(f"action {action.name!r}: step api {api!r}")
        # The reference path builds call_args as the literal args
        # overlaid by the evaluated args_expr (dict order: literal keys
        # first, replaced in place); expressions evaluate in args_expr
        # order.
        literals = dict(step.get("args", {}))
        exprs = dict(step.get("args_expr", {}))
        if not all(isinstance(key, str) for key in [*literals, *exprs]):
            raise AotUnsupported(f"action {action.name!r}: non-string arg key")
        call_args: dict[str, str] = {}
        for key, value in literals.items():
            call_args[key] = _literal_arg(action, value)
        for index, (key, expr_text) in enumerate(exprs.items()):
            expr = compile_expr_source(
                str(expr_text), _ControllerResolver(results, str(expr_text))
            )
            local = f"_x{position}_{index}"
            _assign_step_expr(out, local, expr, str(expr_text), indent=1)
            call_args[key] = local
        if all(k.isidentifier() and not keyword.iskeyword(k) for k in call_args):
            call = "".join(f", {k}={v}" for k, v in call_args.items())
        else:
            call = ", **{" + ", ".join(
                f"{k!r}: {v}" for k, v in call_args.items()
            ) + "}"
        out.emit(f"_value = broker.call_api({api!r}{call})", indent=1)
        # BrokerCallRecord.of: args sorted by key (keys are unique).
        record = "".join(f"({k!r}, {call_args[k]})," for k in sorted(call_args))
        out.emit(
            f"_calls.append(BrokerCallRecord({api!r}, ({record}), _value))",
            indent=1,
        )
        store = step.get("result")
        if store:
            out.emit(f"{_result_local(str(store))} = _value", indent=1)
            results = results | {str(store)}
    out.emit("return _value", indent=1)


def _controller_operations(actions: list[Any]) -> tuple[dict[str, list[Any]], list[str]]:
    """(exact operation -> every action that can match it, in
    registration order; operations refused because one of those
    actions is a wildcard).  Only exact patterns name operations."""
    from repro.runtime.topics import TopicMatcher

    operations = sorted(
        {a.pattern for a in actions if not TopicMatcher.is_wildcard(a.pattern)}
    )
    table: dict[str, list[Any]] = {}
    refused: list[str] = []
    for operation in operations:
        candidates = [
            a for a in actions if TopicMatcher.matches(a.pattern, operation)
        ]
        if any(TopicMatcher.is_wildcard(a.pattern) for a in candidates):
            refused.append(operation)
        else:
            table[operation] = candidates
    return table, refused


# -- synthesis codegen -------------------------------------------------------
#
# Reference change interpretation builds, per change, an env of: change
# fields (change/object_id/class_name/feature/old/new/added/removed),
# then "obj"/object attributes via setdefault (change fields win),
# then "old_obj".  The generated render/guard functions take
# ``(change, obj)`` and resolve each name statically against that
# precedence; declared single-valued plain attributes become flat
# slot-store reads.


class _SynthesisResolver(NameResolver):
    _CHANGE_FIELDS = {
        "object_id": "_c.object_id",
        "class_name": "_c.class_name",
        "feature": "_c.feature",
        "old": "_c.old",
        "new": "_c.new",
        # The reference env materializes these tuples into lists.
        "added": "list(_c.added)",
        "removed": "list(_c.removed)",
    }

    def __init__(
        self,
        attributes: Mapping[str, tuple[int, Any]],
        class_name: str,
        *,
        in_foreach: bool = False,
    ) -> None:
        #: declared attr name -> (slot index, static default or
        #: _DYNAMIC); flat reads only for bake-able defaults.
        self.attributes = attributes
        self.class_name = class_name
        self.in_foreach = in_foreach

    def resolve(self, name: str) -> str | None:
        if self.in_foreach and name == "item":
            return "_item"
        if name == "change":
            return "_c"
        if name in self._CHANGE_FIELDS:
            return self._CHANGE_FIELDS[name]
        if name == "obj":
            return "_obj"
        if name == "old_obj":
            return "(_c.old_object if _c.old_object is not None else _obj)"
        entry = self.attributes.get(name)
        if entry is not None:
            index, default = entry
            if default is _DYNAMIC:
                return f"_attr(_obj, {name!r})"
            return (
                f"_slot(_obj, {index}, {name!r}, {default!r}, "
                f"_TBL_{_mangle(self.class_name)})"
            )
        return None


def _rule_attribute_slots(
    dsml: Any, class_name: str
) -> tuple[dict[str, tuple[int, Any]], list[str]]:
    """(single-valued attribute -> (slot index, default), many-valued
    attribute names) for ``class_name``; raises AotUnsupported when the
    class is unknown to the DSML."""
    cls = dsml.find_class(class_name) if dsml is not None else None
    if cls is None:
        raise AotUnsupported(f"class {class_name!r} not in DSML")
    table = cls.feature_table()
    attributes: dict[str, tuple[int, Any]] = {}
    many: list[str] = []
    for name in cls.all_attributes():
        slot = table.slots.get(name)
        if slot is None:
            raise AotUnsupported(f"{class_name}.{name}: no slot")
        if slot.many:
            many.append(name)
            attributes[name] = (slot.index, _DYNAMIC)
        else:
            attributes[name] = (slot.index, _static_default(slot.feature))
    return attributes, many


def _compile_template_renderer(
    template: Mapping[str, Any],
    attributes: Mapping[str, tuple[int, Any]],
    class_name: str,
    out: _Emitter,
    fn_name: str,
) -> None:
    """Emit ``def fn(_c, _obj)`` returning a list of Commands for one
    command template (when/foreach/args_expr/target_expr resolved)."""
    operation = template.get("operation")
    if not operation:
        raise AotUnsupported(f"template missing operation: {template!r}")
    foreach = template.get("foreach")
    resolver = _SynthesisResolver(
        attributes, class_name, in_foreach=foreach is not None
    )
    out.emit(f"def {fn_name}(_c, _obj):")
    out.emit("_commands = []", indent=1)
    indent = 1
    if foreach is not None:
        items_src = compile_expr_source(
            foreach, _SynthesisResolver(attributes, class_name)
        )
        _wrap_expr(out, "_items", items_src, str(foreach), indent=1)
        out.emit("for _item in _items:", indent=1)
        indent = 2
    if "when" in template:
        when_src = compile_expr_source(template["when"], resolver)
        _wrap_expr(out, "_when", when_src, str(template["when"]), indent=indent)
        out.emit("if not _when:", indent=indent)
        out.emit("continue" if foreach is not None else "return _commands",
                 indent=indent + 1)
    literal_args = dict(template.get("args", {}))
    arg_parts = [f"{key!r}: {value!r}" for key, value in literal_args.items()]
    for position, (key, expr_text) in enumerate(
        dict(template.get("args_expr", {})).items()
    ):
        expr = compile_expr_source(expr_text, resolver)
        local = f"_a{position}"
        _wrap_expr(out, local, expr, str(expr_text), indent=indent)
        arg_parts.append(f"{key!r}: {local}")
    target = template.get("target")
    if target is not None:
        # The reference render passes the literal through untouched
        # (no str()), so only repr-round-trippable literals can be
        # baked.
        if not isinstance(target, (str, int, float, bool)):
            raise AotUnsupported(f"non-literal target {target!r}")
        target_src = repr(target)
    elif "target_expr" in template:
        expr = compile_expr_source(template["target_expr"], resolver)
        _wrap_expr(out, "_target", expr, str(template["target_expr"]), indent=indent)
        target_src = "str(_target)"
    else:
        target_src = "None"
    out.emit(
        f"_commands.append(Command(operation={str(operation)!r}, "
        f"args={{{', '.join(arg_parts)}}}, "
        f"classifier={template.get('classifier')!r}, "
        f"target={target_src}, guard={template.get('guard')!r}))",
        indent=indent,
    )
    out.emit("return _commands", indent=1)


# -- module emission ---------------------------------------------------------

_MODULE_PRELUDE = '''\
"""AOT-generated Tier-3 dispatch module.  DO NOT EDIT.

Generated by repro.modeling.aotgen from a loaded DSK, once per DSK
shape per process.  Installed on each platform by
repro.middleware.synthesis.aot.install_generated after DSK_HASH
validation.
"""

from repro.middleware.controller.stackmachine import BrokerCallRecord
from repro.middleware.synthesis.scripts import Command
from repro.modeling.expr import ExpressionError, _attr_access as _attr
from repro.modeling.model import _MISSING

_EVAL_ERR = "error evaluating %r: %s"
_CONSTANTS = {"True": True, "False": False, "None": None}


def _lookup(_a, _values, name):
    """Reference name resolution: call args overlay state values, then
    safe constants; unknown names raise like the interpreter."""
    try:
        return _a[name]
    except KeyError:
        pass
    try:
        return _values[name]
    except KeyError:
        pass
    try:
        return _CONSTANTS[name]
    except KeyError:
        raise ExpressionError("unknown name %r" % (name,)) from None


def _ctl_lookup(_ctx, name, source):
    """Case-1 step name resolution past the command args: the context
    snapshot, then safe constants; unknown names raise like the
    interpreter, naming the expression."""
    try:
        return _ctx[name]
    except KeyError:
        pass
    try:
        return _CONSTANTS[name]
    except KeyError:
        raise ExpressionError(
            "unknown name %r in %r" % (name, source)
        ) from None


def _slot(obj, index, name, default, table):
    """Flat single-valued attribute read with MObject.get() parity.

    ``table`` is the live feature table captured at install time (the
    ``_TBL_*`` globals, bound by the aot loader after SLOT_LAYOUT
    validation); an instance on any other table — imported standalone,
    metamodel edited, store migrated — takes the reflective path, so a
    stale flat index can never read the wrong slot.
    """
    if obj._table is not table:
        return _attr(obj, name)
    value = obj._store[index]
    if value is _MISSING:
        return default
    return value
'''


def generate_module_source(
    *,
    rules: Mapping[str, Any],
    actions: list[Any],
    dsml: Any,
    domain: str = "",
    controller_actions: Sequence[Any] = (),
) -> str:
    """Emit the complete Tier-3 module source for a loaded DSK.

    ``rules`` maps class name -> EntityRule (the interpreter's live
    rule set); ``actions`` is the broker action table's registration-
    ordered action list; ``dsml`` the domain metamodel (slot layouts);
    ``controller_actions`` the Controller's registration-ordered
    Case-1 actions.  Output is deterministic: same DSK ->
    byte-identical source.
    """
    fingerprint = dsk_fingerprint(
        rules=rules, actions=actions, dsml=dsml,
        controller_actions=controller_actions,
    )
    digest = dsk_hash(fingerprint)
    out = _Emitter()
    out.block(_MODULE_PRELUDE)
    out.emit()
    out.emit(f"ABI = {ABI_VERSION}")
    out.emit(f"DOMAIN = {domain!r}")
    out.emit(f"DSK_HASH = {digest!r}")
    out.emit()

    # -- broker API functions (sorted for deterministic output) --------
    broker_apis = _compilable_broker_apis(actions)
    api_entries: list[tuple[str, str]] = []
    skipped_apis: list[str] = []
    for position, api in enumerate(sorted(broker_apis)):
        action = broker_apis[api]
        fn_name = f"_api_{position}_{_mangle(api)}"
        attempt = _Emitter()
        try:
            _compile_broker_action(action, attempt, fn_name)
        except AotUnsupported:
            skipped_apis.append(api)
            continue
        out.block(attempt.text().rstrip("\n"))
        out.emit()
        api_entries.append((api, fn_name))
    out.emit()
    out.emit("BROKER_APIS = {")
    for api, fn_name in api_entries:
        out.emit(f"{api!r}: {fn_name},", indent=1)
    out.emit("}")
    out.emit()
    out.emit(f"BROKER_SKIPPED = {sorted(skipped_apis)!r}")
    out.emit()

    # -- controller Case-1 table (sorted for deterministic output) -----
    operations, skipped_ops = _controller_operations(list(controller_actions))
    ctl_rows: list[str] = []
    for position, operation in enumerate(sorted(operations)):
        attempt = _Emitter()
        entries: list[str] = []
        try:
            for index, action in enumerate(operations[operation]):
                fn_name = f"_ctl_{position}_{index}_{_mangle(operation)}"
                _compile_controller_action(action, attempt, fn_name)
                attempt.emit()
                attributes = dict(action.attributes)
                if _literal_roundtrip(attributes) != attributes:
                    raise AotUnsupported(
                        f"action {action.name!r}: attributes {attributes!r}"
                    )
                entries.append(f"({action.name!r}, {attributes!r}, {fn_name})")
        except AotUnsupported:
            skipped_ops.append(operation)
            continue
        out.block(attempt.text().rstrip("\n"))
        out.emit()
        ctl_rows.append(f"{operation!r}: ({', '.join(entries)},),")
    out.emit()
    out.emit("CTL_ACTIONS = {")
    for row in ctl_rows:
        out.emit(row, indent=1)
    out.emit("}")
    out.emit()
    out.emit(f"CTL_SKIPPED = {sorted(skipped_ops)!r}")
    out.emit()

    # -- synthesis dispatch tables -------------------------------------
    dispatch_rows: list[str] = []
    compiled_classes: list[str] = []
    skipped_classes: list[str] = []
    fn_counter = 0
    for class_name in sorted(rules):
        rule = rules[class_name]
        attempt = _Emitter()
        rows: list[str] = []
        try:
            attributes, many_attrs = _rule_attribute_slots(dsml, class_name)
            by_key: dict[tuple[str, str], list[Any]] = {}
            for transition in rule.lts._transitions:
                by_key.setdefault(
                    (transition.source, transition.label), []
                ).append(transition)
            for (state, label) in sorted(by_key):
                ordered = sorted(
                    by_key[(state, label)], key=lambda t: -t.priority
                )
                entries: list[str] = []
                for slot_index, transition in enumerate(ordered):
                    guard_name = "None"
                    if transition.guard is not None:
                        guard_name = f"_g{fn_counter}"
                        fn_counter += 1
                        guard_src = compile_expr_source(
                            transition.guard,
                            _SynthesisResolver(attributes, class_name),
                        )
                        attempt.emit(f"def {guard_name}(_c, _obj):")
                        _wrap_expr(
                            attempt, "_value", guard_src,
                            str(transition.guard), indent=1,
                        )
                        attempt.emit("return bool(_value)", indent=1)
                        attempt.emit()
                    render_names: list[str] = []
                    for template in transition.actions:
                        render_name = f"_t{fn_counter}"
                        fn_counter += 1
                        _compile_template_renderer(
                            dict(template), attributes, class_name,
                            attempt, render_name,
                        )
                        attempt.emit()
                        render_names.append(render_name)
                    renders = (
                        "(" + ", ".join(render_names) + ("," if render_names else "") + ")"
                    )
                    entries.append(
                        f"({guard_name}, {slot_index}, {renders})"
                    )
                rows.append(
                    f"({class_name!r}, {state!r}, {label!r}): "
                    f"({', '.join(entries)},),"
                )
        except AotUnsupported:
            skipped_classes.append(class_name)
            continue
        # Live feature table sentinel: None until the aot loader binds
        # it, so a standalone import always takes the reflective path.
        out.emit(f"_TBL_{_mangle(class_name)} = None")
        out.emit()
        out.block(attempt.text().rstrip("\n"))
        if attempt.lines:
            out.emit()
        dispatch_rows.extend(rows)
        compiled_classes.append(class_name)
        # The reference change env calls obj.get() on every attribute,
        # which materializes many-valued lists into the slot store (an
        # externally visible side effect on serialization); the
        # dispatcher preserves it by touching exactly those features.
        out.emit(
            f"_MANY_{_mangle(class_name)} = {tuple(sorted(many_attrs))!r}"
        )
        out.emit()
    out.emit("SYN_DISPATCH = {")
    for row in dispatch_rows:
        out.emit(row, indent=1)
    out.emit("}")
    out.emit()
    out.emit("SYN_MANY_ATTRS = {")
    for class_name in compiled_classes:
        out.emit(
            f"{class_name!r}: _MANY_{_mangle(class_name)},", indent=1
        )
    out.emit("}")
    out.emit()
    out.emit(f"SYN_CLASSES = frozenset({sorted(compiled_classes)!r})")
    out.emit(f"SYN_SKIPPED = {sorted(skipped_classes)!r}")
    out.emit()
    # repr, not json.dumps: the layout must be a Python literal, and
    # _slot_layout already builds it with sorted, deterministic order.
    out.emit(f"SLOT_LAYOUT = {fingerprint['slots']!r}")
    return out.text()


def _literal_roundtrip(value: Any) -> Any:
    """``value`` rebuilt from its repr, or a sentinel when the repr is
    not a Python literal."""
    try:
        return ast.literal_eval(repr(value))
    except (ValueError, SyntaxError):
        return _DYNAMIC


def _mangle(name: str) -> str:
    return "".join(c if c.isalnum() else "_" for c in name)
