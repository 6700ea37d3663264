"""Span recording for the traced run.

The benchmark times each layer by wrapping the public entry points of
*live instances* (``broker.call_api``, ``resource.invoke``,
``durability.execute`` ...) with :meth:`Tracer.wrap`.  A span is
``(index, name, start_ns, end_ns, parent_index)``; each thread keeps its
own buffer and call stack, so the parent is the span that was open on
the same thread when this one started.  Spans stay in memory and are
written out with :meth:`TraceData.dump` when the run ends; a span's *self*
time is its duration minus its children's.

Worker processes run :func:`traced_backend`: the stock
``RegistryBackend`` with every hosted session's layers wrapped at
``open``/``restore``, dumping its spans when the worker shuts down.
"""

from __future__ import annotations

import json
import threading
import time
from array import array
from pathlib import Path
from typing import Any, Callable

__all__ = ["Tracer", "TraceData", "traced_backend", "wrap_platform",
           "wrap_durability"]

_clock = time.perf_counter_ns


class _Buffer:
    __slots__ = ("spans", "samples", "stack", "next")

    def __init__(self) -> None:
        self.spans = array("q")    # index, name, start, end, parent
        self.samples = array("q")  # name, time, value
        self.stack: list[int] = []
        self.next = 0


class Tracer:
    """Per-thread span and sample buffers for one process."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self._buffers: list[_Buffer] = []
        self._local = threading.local()
        self._lock = threading.Lock()

    def name_id(self, name: str) -> int:
        with self._lock:
            ident = self._ids.get(name)
            if ident is None:
                ident = self._ids[name] = len(self.names)
                self.names.append(name)
            return ident

    def _buffer(self) -> _Buffer:
        buffer = getattr(self._local, "buffer", None)
        if buffer is None:
            buffer = self._local.buffer = _Buffer()
            with self._lock:
                self._buffers.append(buffer)
        return buffer

    def span(self, name: str, fn: Callable[..., Any]) -> Callable[..., Any]:
        """``fn`` wrapped so every call records one span."""
        ident = self.name_id(name)
        buffer_of = self._buffer

        def traced(*args: Any, **kwargs: Any) -> Any:
            buffer = buffer_of()
            stack = buffer.stack
            parent = stack[-1] if stack else -1
            index = buffer.next
            buffer.next = index + 1
            stack.append(index)
            start = _clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = _clock()
                stack.pop()
                buffer.spans.extend((index, ident, start, end, parent))

        traced.__wrapped__ = fn  # type: ignore[attr-defined]
        return traced

    def wrap(self, target: Any, attr: str, name: str) -> None:
        """Replace ``target.attr`` (a bound method) with a traced one."""
        setattr(target, attr, self.span(name, getattr(target, attr)))

    def sample(self, name: str, value: int) -> None:
        """Record a timestamped value (a count or a duration in ns)."""
        self._buffer().samples.extend((self.name_id(name), _clock(),
                                       int(value)))

    def data(self) -> "TraceData":
        with self._lock:
            buffers = list(self._buffers)
        return TraceData(list(self.names),
                         [(b.spans, b.samples) for b in buffers])


class TraceData:
    """Spans and samples of one or more processes, per thread buffer."""

    def __init__(self, names: list[str],
                 buffers: list[tuple[array, array]]) -> None:
        self.names = names
        self.buffers = buffers

    def dump(self, path: Path) -> None:
        """Write to ``path``: one JSON header line, then the raw span and
        sample arrays of every buffer."""
        header = {
            "names": self.names,
            "buffers": [[len(spans), len(samples)]
                        for spans, samples in self.buffers],
        }
        with open(path, "wb") as handle:
            handle.write(json.dumps(header).encode("utf-8") + b"\n")
            for spans, samples in self.buffers:
                spans.tofile(handle)
                samples.tofile(handle)

    @classmethod
    def load(cls, path: Path) -> "TraceData":
        with open(path, "rb") as handle:
            header = json.loads(handle.readline())
            buffers = []
            for span_len, sample_len in header["buffers"]:
                spans, samples = array("q"), array("q")
                spans.fromfile(handle, span_len)
                samples.fromfile(handle, sample_len)
                buffers.append((spans, samples))
        return cls(header["names"], buffers)

    def layer_times(self, start: int, end: int) -> dict[str, dict[str, int]]:
        """Per span name: calls, inclusive and self ns of the spans that
        started in ``[start, end)``, plus ``root_ns``, the inclusive time
        of spans with no parent (the tree totals that self times sum to).
        """
        out: dict[str, dict[str, int]] = {}
        for spans, _samples in self.buffers:
            count = len(spans) // 5
            child_ns: dict[int, int] = {}
            for row in range(count):
                base = row * 5
                parent = spans[base + 4]
                if parent >= 0:
                    child_ns[parent] = (child_ns.get(parent, 0)
                                        + spans[base + 3] - spans[base + 2])
            for row in range(count):
                base = row * 5
                began = spans[base + 2]
                if not start <= began < end:
                    continue
                duration = spans[base + 3] - began
                name = self.names[spans[base + 1]]
                slot = out.setdefault(
                    name, {"calls": 0, "total_ns": 0, "self_ns": 0,
                           "root_ns": 0})
                slot["calls"] += 1
                slot["total_ns"] += duration
                slot["self_ns"] += duration - child_ns.get(spans[base], 0)
                if spans[base + 4] < 0:
                    slot["root_ns"] += duration
        return out

    def child_counts(self, parent: str) -> dict[str, int]:
        """Spans per name whose direct parent is a ``parent`` span."""
        if parent not in self.names:
            return {}
        ident = self.names.index(parent)
        counts: dict[str, int] = {}
        for spans, _samples in self.buffers:
            rows = range(0, len(spans), 5)
            parents = {spans[base] for base in rows
                       if spans[base + 1] == ident}
            for base in rows:
                if spans[base + 4] in parents:
                    name = self.names[spans[base + 1]]
                    counts[name] = counts.get(name, 0) + 1
        return counts

    def sample_delta(self, name: str, start: int, end: int) -> int:
        """Growth of a cumulative sampled counter over the window, summed
        over the buffers (threads or processes) that sampled it."""
        if name not in self.names:
            return 0
        ident = self.names.index(name)
        growth = 0
        for _spans, samples in self.buffers:
            values = [samples[base + 2] for base in range(0, len(samples), 3)
                      if samples[base] == ident
                      and start <= samples[base + 1] < end]
            if values:
                growth += max(values) - min(values)
        return growth

    def sample_values(self, name: str, start: int, end: int) -> list[int]:
        if name not in self.names:
            return []
        ident = self.names.index(name)
        values: list[int] = []
        for _spans, samples in self.buffers:
            for base in range(0, len(samples), 3):
                if samples[base] == ident and start <= samples[base + 1] < end:
                    values.append(samples[base + 2])
        return values


def merge(parts: list[TraceData]) -> TraceData:
    """One TraceData over several processes' dumps (name ids remapped)."""
    names: list[str] = []
    index: dict[str, int] = {}
    buffers: list[tuple[array, array]] = []
    for part in parts:
        remap = []
        for name in part.names:
            if name not in index:
                index[name] = len(names)
                names.append(name)
            remap.append(index[name])
        for spans, samples in part.buffers:
            spans, samples = array("q", spans), array("q", samples)
            for base in range(1, len(spans), 5):
                spans[base] = remap[spans[base]]
            for base in range(0, len(samples), 3):
                samples[base] = remap[samples[base]]
            buffers.append((spans, samples))
    return TraceData(names, buffers)


# -- wrapping the layers of a live platform -----------------------------------


def wrap_platform(tracer: Tracer, platform: Any, resources: list) -> None:
    """Wrap the four layers of ``platform`` and its external resources.

    Every call between layers goes through an attribute lookup on the
    callee instance (the UI's ``port("synthesis").synthesize``, the
    Controller's ``receive_signal`` -> ``submit_script``, the stack
    machine's ``broker.call_api``, the action table's
    ``resources.invoke`` -> ``resource.invoke``), so instance attributes
    intercept them; the call-count checks in :mod:`perfbench.fabrics`
    catch any path that holds a bound method instead.
    """
    if platform.ui is not None:
        tracer.wrap(platform.ui, "put_model", "ui")
        tracer.wrap(platform.ui, "submit", "ui")
    if platform.synthesis is not None:
        synthesis = platform.synthesis
        synthesize = tracer.span("synthesis", synthesis.synthesize)

        def counted(*args: Any, **kwargs: Any) -> Any:
            result = synthesize(*args, **kwargs)
            tracer.sample("synthesis.changes", len(result.changes))
            return result

        synthesis.synthesize = counted
    if platform.controller is not None:
        tracer.wrap(platform.controller, "submit_script", "controller")
        tracer.wrap(platform.controller, "execute_command",
                    "controller.command")
    if platform.broker is not None:
        tracer.wrap(platform.broker, "call_api", "broker")
    for resource in resources:
        tracer.wrap(resource, "invoke", "resource")


def wrap_durability(tracer: Tracer, durability: Any) -> None:
    """Wrap one ShardDurability: ``execute``, ``checkpoint`` and the
    per-session journals it hands out (entry, effect, seal)."""
    tracer.wrap(durability, "execute", "durability")
    tracer.wrap(durability, "checkpoint", "wal.checkpoint")
    journal_of = durability.journal

    def journal(session: str) -> Any:
        found = journal_of(session)
        if not getattr(found, "_perfbench_traced", False):
            tracer.wrap(found, "log_call", "wal.entry")
            tracer.wrap(found, "end_entry", "wal.seal")
            tracer.wrap(found, "around_invoke", "wal.effect")
            found._perfbench_traced = True
        return found

    durability.journal = journal


def op_log_length(resources: list) -> int:
    return sum(len(getattr(resource, "op_log", ())) for resource in resources)


# -- the traced worker backend -------------------------------------------------


class _TracedWorker:
    """Instruments a stock RegistryBackend in place (one per worker)."""

    def __init__(self, backend: Any) -> None:
        self.backend = backend
        self.tracer = Tracer()
        self.trace_dir: str | None = None
        self.configure = backend.configure
        self.open = backend.open
        self.restore = backend.restore
        self.apply = backend.apply
        self.shutdown = backend.shutdown
        backend.configure = self._configure
        backend.open = self._open
        backend.restore = self._restore
        backend.apply = self._apply
        backend.shutdown = self._shutdown
        self.tracer.wrap(backend, "_capture_host", "wal.capture")
        self.tracer.wrap(backend, "_dispatch", "backend.dispatch")
        self._apply_span = self.tracer.span("backend.apply", self.apply)

    def _configure(self, worker_id: int, options: dict) -> None:
        import repro.middleware.loader as loader
        import repro.modeling.serialize as serialize

        self.trace_dir = options.get("perfbench_trace_dir")
        self.configure(worker_id, options)
        if self.backend.durability is not None:
            wrap_durability(self.tracer, self.backend.durability)
        # RegistryBackend imports model_from_dict and load_platform at
        # call time, so the module attributes are the call sites to wrap.
        serialize.model_from_dict = self.tracer.span(
            "serialize.decode", serialize.model_from_dict)
        loader.load_platform = self.tracer.span(
            "loader.load_platform", loader.load_platform)

    def _wrap_session(self, session: str) -> None:
        host = self.backend.sessions[session]
        wrap_platform(self.tracer, host.platform, list(host.dsk.resources))

    def _open(self, session: str, doc: dict) -> Any:
        value = self.open(session, doc)
        self._wrap_session(session)
        return value

    def _restore(self, session: str, doc: dict) -> Any:
        value = self.restore(session, doc)
        self._wrap_session(session)
        return value

    def _apply(self, session: str, doc: dict) -> Any:
        """One step; returns the value with the worker-side apply time
        and the step's op_log growth attached."""
        host = self.backend.sessions.get(session)
        resources = list(host.dsk.resources) if host is not None else []
        before = op_log_length(resources)
        start = _clock()
        value = self._apply_span(session, doc)
        elapsed = _clock() - start
        durability = self.backend.durability
        if durability is not None:
            self.tracer.sample("wal.syncs", durability.wal.syncs)
        return {
            "value": value,
            "apply_ns": elapsed,
            "op_log_growth": op_log_length(resources) - before,
        }

    def _shutdown(self) -> None:
        if self.trace_dir:
            self.tracer.data().dump(
                Path(self.trace_dir) / f"worker-{self.backend.worker_id}.bin")
        self.shutdown()


def traced_backend() -> Any:
    """Worker backend factory for the traced run
    (``"perfbench.tracing:traced_backend"``)."""
    from repro.middleware.cluster import default_backend

    backend = default_backend()
    _TracedWorker(backend)
    return backend
