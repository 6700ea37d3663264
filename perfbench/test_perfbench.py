"""The benchmark's own checks: seeded inputs and the trace arithmetic.

Fabric-free and fast, so they run with the repository's test suite.
"""

from __future__ import annotations

import itertools
import json
import time

from perfbench import workloads
from perfbench.tracing import Tracer


def _api_prefix(seed: int, key: str, steps: int = 200) -> str:
    return json.dumps(list(itertools.islice(
        workloads.api_session_docs(seed, key), steps)))


def test_same_seed_same_api_docs():
    for key in ("p000", "p117", "a03"):
        assert _api_prefix(7, key) == _api_prefix(7, key)


def test_seed_changes_scenario_order():
    assert _api_prefix(1, "p000") != _api_prefix(2, "p000")


def test_api_sessions_never_share_ids():
    first = json.dumps(list(itertools.islice(
        workloads.api_session_docs(1, "p000"), 300)))
    assert "p001." not in first


def test_every_scenario_in_each_cycle():
    from repro.bench.workloads import COMMUNICATION_SCENARIOS

    cycle = [doc for name in COMMUNICATION_SCENARIOS
             for doc in workloads.scenario_docs(name, "k")]
    docs = list(itertools.islice(workloads.api_session_docs(3, "k"),
                                 2 * len(cycle)))
    for half in (docs[:len(cycle)], docs[len(cycle):]):
        assert sorted(map(json.dumps, half)) == sorted(map(json.dumps, cycle))
    assert docs[:len(cycle)] != docs[len(cycle):]
    assert any(doc["op"] == "fail" for doc in cycle)
    assert any(doc["op"] == "recover" for doc in cycle)


def test_scenario_docs_are_the_e1_steps_with_prefixed_ids():
    from repro.bench.cluster import step_doc
    from repro.bench.workloads import COMMUNICATION_SCENARIOS

    for name, steps in COMMUNICATION_SCENARIOS.items():
        docs = workloads.scenario_docs(name, "p007")
        assert len(docs) == len(steps)
        for doc, step in zip(docs, steps):
            unprefixed = json.loads(json.dumps(doc).replace('"p007.', '"'))
            assert unprefixed == step_doc(step)


def test_keys_are_balanced_and_seed_free():
    from repro.runtime.sharded import shard_index_for

    keys = workloads.balanced_keys("m", 16, 2)
    assert keys == workloads.balanced_keys("m", 16, 2)
    homes = [shard_index_for(key, 2) for key in keys]
    assert homes.count(0) == homes.count(1) == 8


def test_model_domains_seeded_and_even_per_worker():
    from repro.runtime.sharded import shard_index_for

    keys = workloads.balanced_keys("m", 16, 2)
    domains = ["a", "b", "c", "d"]
    one = workloads.model_domains(5, keys, domains, 2)
    assert one == workloads.model_domains(5, keys, domains, 2)
    assert any(workloads.model_domains(seed, keys, domains, 2) != one
               for seed in range(6, 12))
    for worker in (0, 1):
        homed = [one[key] for key in keys if shard_index_for(key, 2) == worker]
        assert sorted(homed) == sorted(domains * 2)


def test_calm_slices_leave_out_stolen_ones_but_never_most():
    from perfbench.fabrics import calm_slices

    def kept(steals: list[float]) -> list[int]:
        rows = [{"steal": steal, "at": index}
                for index, steal in enumerate(steals)]
        return [row["at"] for row in calm_slices(rows)]

    assert kept([0.01, 0.0, 0.02, 0.01]) == [0, 1, 2, 3]
    assert kept([0.01, 0.2, 0.0, 0.02]) == [0, 2, 3]
    assert kept([0.3, 0.0, 0.2, 0.1, 0.5]) == [1, 2, 3]


_STRAY_CHILD = """
import json, multiprocessing, os, time
from multiprocessing import resource_tracker
from perfbench.fabrics import HygieneError, stop_children

if __name__ == "__main__":
    sleeper = multiprocessing.get_context("spawn").Process(
        target=time.sleep, args=(60,), daemon=True)
    sleeper.start()
    tracker = resource_tracker._resource_tracker._pid
    try:
        stop_children()
        error = ""
    except HygieneError as exc:
        error = str(exc)
    print(json.dumps({"sleeper": sleeper.pid, "error": error,
                      "tracker_left": os.path.exists(f"/proc/{tracker}")}))
"""


def test_stop_children_ends_the_tracker_and_fails_on_strays():
    import os
    import subprocess
    import sys

    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    proc = subprocess.run([sys.executable, "-c", _STRAY_CHILD], env=env,
                          capture_output=True, text=True, timeout=60,
                          check=True)
    report = json.loads(proc.stdout.splitlines()[-1])
    assert not report["tracker_left"]
    assert "outlived the run" in report["error"]
    assert str(report["sleeper"]) in report["error"]


def test_self_times_sum_to_the_root():
    tracer = Tracer()

    def leaf() -> None:
        time.sleep(0.001)

    traced_leaf = tracer.span("leaf", leaf)

    def middle() -> None:
        traced_leaf()
        traced_leaf()

    root = tracer.span("root", tracer.span("middle", middle))
    root()
    times = tracer.data().layer_times(0, 1 << 62)
    assert times["leaf"]["calls"] == 2
    total_self = sum(slot["self_ns"] for slot in times.values())
    assert total_self == times["root"]["root_ns"]
    assert all(slot["self_ns"] >= 0 for slot in times.values())
    assert tracer.data().child_counts("middle") == {"leaf": 2}
