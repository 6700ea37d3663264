"""Seeded input generation for the three workloads.

Everything the fabric sees is a *doc*: ``{"op": "api", "api", "args"}``,
``{"op": "fail", "conn"}``, ``{"op": "recover", "conn"}`` or
``{"op": "run_model", "model"}`` — the vocabulary
``RegistryBackend._dispatch`` applies on workers and
:func:`perfbench.fabrics.apply_pool_doc` applies on pool shards.  The
seed picks scenario order, domain assignment and migration victims;
session keys are fixed, so shard and worker placement does not move
with the seed.
"""

from __future__ import annotations

import random
from typing import Any, Iterator

__all__ = [
    "scenario_docs",
    "api_session_docs",
    "balanced_keys",
    "model_domains",
    "model_docs",
]


#: the scenario arguments that name a session's own objects
_IDS = ("connection", "medium", "party")


def scenario_docs(name: str, key: str) -> list[dict[str, Any]]:
    """One E1 scenario (``COMMUNICATION_SCENARIOS``, paper Sec. VII-A)
    as docs, its connection, medium and party ids prefixed ``key.``."""
    from repro.bench.cluster import step_doc
    from repro.bench.workloads import COMMUNICATION_SCENARIOS

    docs = []
    for step in COMMUNICATION_SCENARIOS[name]:
        doc = step_doc(step)
        if doc["op"] == "api":
            doc["args"] = {arg: f"{key}.{value}" if arg in _IDS else value
                           for arg, value in doc["args"].items()}
        else:
            doc["conn"] = f"{key}.{doc['conn']}"
        docs.append(doc)
    return docs


def api_session_docs(seed: int, key: str) -> Iterator[dict[str, Any]]:
    """The endless step stream of one API session.

    The session cycles the eight scenarios, each cycle in an order drawn
    from ``(seed, key)``.  Ids are prefixed by the session key, so
    sessions sharing a shard platform never touch each other's
    connections, and every scenario reuses them, as a returning user
    would: the broker's per-connection state stays the size of the
    session population instead of growing with the run.
    """
    from repro.bench.workloads import COMMUNICATION_SCENARIOS

    rng = random.Random(f"{seed}:{key}")
    names = list(COMMUNICATION_SCENARIOS)
    # built once per session: a doc is only read, never changed
    cycle = {name: scenario_docs(name, key) for name in names}
    while True:
        rng.shuffle(names)
        for name in names:
            yield from cycle[name]


def balanced_keys(prefix: str, count: int, parts: int) -> list[str]:
    """``count`` session keys, ``count // parts`` placed on each shard or
    worker by the fabric's own key-affinity hash."""
    from repro.runtime.sharded import shard_index_for

    per_part = count // parts
    chosen: dict[int, list[str]] = {part: [] for part in range(parts)}
    index = 0
    while any(len(keys) < per_part for keys in chosen.values()):
        key = f"{prefix}{index:03d}"
        part = shard_index_for(key, parts)
        if len(chosen[part]) < per_part:
            chosen[part].append(key)
        index += 1
    return sorted(key for keys in chosen.values() for key in keys)


def model_domains(seed: int, keys: list[str], domains: list[str],
                  parts: int) -> dict[str, str]:
    """Seeded domain assignment that gives every worker the same domain
    mix, so per-worker load does not depend on the seed."""
    from repro.runtime.sharded import shard_index_for

    rng = random.Random(f"{seed}:domains")
    assignment: dict[str, str] = {}
    for part in range(parts):
        homed = [key for key in keys if shard_index_for(key, parts) == part]
        pool = [domains[index % len(domains)] for index in range(len(homed))]
        rng.shuffle(pool)
        assignment.update(zip(homed, pool))
    return assignment


def model_docs(registry: Any, domain: str) -> tuple[dict, dict]:
    """The domain's phase-1 and phase-2 ``run_model`` docs; a session
    alternates them, so every step is a real model diff."""
    from repro.modeling.serialize import model_to_dict

    entry = registry.get(domain)
    return (
        {"op": "run_model", "model": model_to_dict(entry.phase1())},
        {"op": "run_model", "model": model_to_dict(entry.phase2())},
    )
