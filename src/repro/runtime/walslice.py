"""Causal-slice extraction across per-shard write-ahead logs.

A *causal slice* is every logged signal sharing one ``trace_id`` — one
root call plus all signals derived from it, wherever routing landed
them.  With per-shard WALs a single trace's frames are spread across
the fabric: the root's ``entry`` frame lives in its home shard's log,
and every fabric-routed descendant was write-ahead logged in *its
target* shard's log (``route_signal``).  This module reassembles that
sub-DAG from the union of logs under one root directory, renders it,
and checks that a recorded re-execution reproduced it.

Node identity across a replay is structural, not positional: replay
re-mints fresh ``seq`` numbers for derived signals (only roots keep
their logged seq), so a logged derived node matches a replayed record
by ``kind:topic@origin`` label plus parent-edge label, as a multiset.
A slice is *reproduced exactly* when its root replays under the
original seq and every logged derived node finds a distinct,
parent-compatible replayed counterpart.  The replay may mint
additional derived signals the fabric never routed (hence never
logged); those are surplus, not a mismatch.

Logs are read in place with
:func:`~repro.runtime.wal.read_log_directory`, which opens nothing for
writing, so analysis and replay leave the original directories byte
for byte as they were; a session's replay frames come from the shared
:func:`~repro.runtime.wal.session_tail` rule.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Iterable

from repro.runtime.trace import TraceRecord
from repro.runtime.wal import WalError, read_log_directory

__all__ = [
    "SliceNode",
    "SliceVerdict",
    "StagedLog",
    "collect_slice",
    "dag_label",
    "render_slice",
    "stage_logs",
    "trace_census",
    "verify_slice",
]


@dataclass(frozen=True)
class SliceNode:
    """One logged signal of a causal slice, plus where it was found."""

    seq: int
    trace_id: int
    parent_seq: int | None
    kind: str
    topic: str
    origin: str
    session: str
    log: str  # label of the log the frame was read from


@dataclass
class StagedLog:
    """One write-ahead log's frames, read for slice analysis."""

    label: str  # directory name (plus ``/name`` when it holds several logs)
    frames: list[dict[str, Any]]


def stage_logs(root: str | Path) -> list[StagedLog]:
    """Read every write-ahead log found under ``root``, in place.

    ``root`` may itself be a log directory, or a fabric root holding
    per-shard log directories (``wal-shard-NN/``, ``ship-wNN/``, or any
    nesting of them).  A directory that cannot be read (damage
    mid-log, an unreadable segment) is skipped.
    """
    root = Path(root)
    directories = sorted(
        {path.parent for path in root.rglob("*.log")}, key=lambda p: str(p)
    )
    staged: list[StagedLog] = []
    for directory in directories:
        label = (
            str(directory.relative_to(root)) if directory != root else root.name
        )
        try:
            logs = read_log_directory(directory)
        except (WalError, OSError):
            continue
        for name, frames in logs.items():
            staged.append(StagedLog(
                label if len(logs) == 1 else f"{label}/{name}", frames))
    return staged


def _entry_nodes(logs: Iterable[StagedLog]) -> Iterable[SliceNode]:
    for log in logs:
        for doc in log.frames:
            if doc.get("k") != "entry":
                continue
            sig = doc.get("sig") or {}
            try:
                seq = int(sig["seq"])
                trace_id = int(sig["trace_id"])
            except (KeyError, TypeError, ValueError):
                continue
            parent = sig.get("parent_seq")
            yield SliceNode(
                seq=seq,
                trace_id=trace_id,
                parent_seq=int(parent) if parent is not None else None,
                kind=str(sig.get("kind", "")),
                topic=str(sig.get("topic", "")),
                origin=str(sig.get("origin", "")),
                session=str(doc.get("session", "")),
                log=log.label,
            )


def trace_census(logs: Iterable[StagedLog]) -> dict[int, dict[str, int]]:
    """``trace_id -> {"nodes": n, "logs": k}`` over all entry frames.

    Cross-shard traces are the interesting ones: ``logs > 1`` means the
    chain left its home shard.  Duplicate frames (the same seq shipped
    into more than one log) count once.
    """
    seen: dict[int, dict[int, set[str]]] = {}
    for node in _entry_nodes(logs):
        seen.setdefault(node.trace_id, {}).setdefault(node.seq, set()).add(
            node.log
        )
    return {
        trace_id: {
            "nodes": len(nodes),
            "logs": len({log for logs_ in nodes.values() for log in logs_}),
        }
        for trace_id, nodes in seen.items()
    }


def collect_slice(
    logs: Iterable[StagedLog], trace_id: int
) -> list[SliceNode]:
    """Every logged signal of one trace, deduplicated by seq (log
    shipping copies frames, so the same signal can surface twice),
    in seq order."""
    by_seq: dict[int, SliceNode] = {}
    for node in _entry_nodes(logs):
        if node.trace_id == trace_id and node.seq not in by_seq:
            by_seq[node.seq] = node
    return [by_seq[seq] for seq in sorted(by_seq)]


# -- structural comparison --------------------------------------------


def dag_label(node: Any, roots: set[int]) -> str:
    """Structural label: roots keep their seq (replay preserves it),
    derived nodes are ``kind:topic@origin`` (replay re-mints seqs)."""
    if node.parent_seq is None or node.seq in roots:
        return f"#{node.seq}"
    return f"{node.kind}:{node.topic}@{node.origin}"


def _signature(
    nodes: Iterable[Any],
) -> tuple[list[int], list[tuple[str, str]]]:
    """(root seqs, sorted multiset of (parent label, node label) edges
    over derived nodes)."""
    nodes = list(nodes)
    by_seq = {node.seq: node for node in nodes}
    roots = {node.seq for node in nodes if node.parent_seq is None}
    edges: list[tuple[str, str]] = []
    for node in nodes:
        if node.parent_seq is None:
            continue
        parent = by_seq.get(node.parent_seq)
        parent_label = dag_label(parent, roots) if parent else "?"
        edges.append((parent_label, dag_label(node, roots)))
    return sorted(roots), sorted(edges)


@dataclass
class SliceVerdict:
    """Did a replay reproduce the logged sub-DAG?"""

    trace_id: int
    logged_nodes: int
    replayed_nodes: int
    missing: list[str] = field(default_factory=list)
    surplus: int = 0  # replayed derivations the fabric never logged

    @property
    def ok(self) -> bool:
        return not self.missing


def verify_slice(
    nodes: list[SliceNode], records: Iterable[TraceRecord]
) -> SliceVerdict:
    """Check that ``records`` (a :class:`TraceRecorder` chain for the
    slice's trace) structurally reproduces the logged ``nodes``.

    Roots must replay under their original seq.  Each logged derived
    edge must find a distinct replayed edge with the same parent and
    node labels.  Replayed edges beyond the logged set are counted as
    ``surplus`` — intra-platform derivations the fabric never routed,
    hence never logged — and do not fail the verdict.
    """
    trace_id = nodes[0].trace_id if nodes else -1
    records = [r for r in records if not nodes or r.trace_id == trace_id]
    logged_roots, logged_edges = _signature(nodes)
    replay_roots, replay_edges = _signature(records)
    verdict = SliceVerdict(
        trace_id=trace_id,
        logged_nodes=len(nodes),
        replayed_nodes=len(records),
    )
    for seq in logged_roots:
        if seq not in replay_roots:
            verdict.missing.append(f"root #{seq} did not replay")
    pool = list(replay_edges)
    for edge in logged_edges:
        if edge in pool:
            pool.remove(edge)
        else:
            verdict.missing.append(f"edge {edge[0]} -> {edge[1]} not replayed")
    verdict.surplus = len(pool)
    return verdict


def render_slice(nodes: list[SliceNode]) -> str:
    """The logged sub-DAG as an indented text tree (like
    :meth:`TraceRecorder.render`, plus session/log provenance)."""
    if not nodes:
        return "(empty slice)"
    seqs = {node.seq for node in nodes}
    by_parent: dict[int | None, list[SliceNode]] = {}
    for node in nodes:
        parent = node.parent_seq if node.parent_seq in seqs else None
        by_parent.setdefault(parent, []).append(node)
    lines: list[str] = []

    def walk(parent: int | None, depth: int) -> None:
        for node in by_parent.get(parent, []):
            origin = f" @{node.origin}" if node.origin else ""
            lines.append(
                "  " * depth
                + f"{node.kind}:{node.topic}#{node.seq}{origin}"
                + f" [session={node.session} log={node.log}]"
            )
            if node.seq != parent:
                walk(node.seq, depth + 1)

    walk(None, 0)
    return "\n".join(lines)

