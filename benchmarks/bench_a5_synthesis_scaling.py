"""A5 (ablation) — Synthesis-layer scaling with application-model size.

Paper Sec. IX lists performance tuning per domain as open work; the
Synthesis layer's model-comparison approach is the obvious scaling
concern ("comparing two models at runtime", Sec. V-B).  This ablation
measures:

* initial synthesis cost vs model size (every element is an addition),
* *incremental* cost of a single-attribute edit on models of growing
  size — the models@runtime hot path,
* emitted-command counts (proportional to the change, not the model).
"""

from __future__ import annotations

import statistics
import time

import pytest

from repro.bench.harness import ResultTable
from repro.domains.communication.cml import CmlBuilder, cml_metamodel
from repro.domains.communication.cvm import build_cvm
from repro.modeling.serialize import clone_model
from repro.sim.network import CommService

SIZES = (4, 16, 64, 256)


def _scenario(connections: int):
    """A CML model with ``connections`` two-party audio connections."""
    builder = CmlBuilder(f"scale-{connections}")
    people = [builder.person(f"u{i}") for i in range(connections + 1)]
    media = []
    for index in range(connections):
        connection = builder.connection(
            f"c{index}", [people[index], people[index + 1]], media=["audio"]
        )
        media.append(connection)
    return builder


@pytest.mark.parametrize("connections", SIZES)
def test_initial_synthesis_by_size(benchmark, connections):
    builder = _scenario(connections)
    benchmark.group = "a5-initial-synthesis"

    def run():
        platform = build_cvm(service=CommService("net0", op_cost=0.0))
        platform.run_model(clone_model(builder.build()))
        platform.stop()

    benchmark.pedantic(run, rounds=3, iterations=1)


#: Rounds per A5 table.  A round times every size once; the shape
#: checks read the median over rounds of each round's own ratios, so a
#: slow phase of a shared machine that inflates one round's samples
#: cannot decide them.
ROUNDS = 5


def _scaling_round() -> list[tuple]:
    """One row per size: connections, model elements, initial ms,
    initial commands, 1-edit ms, 1-edit commands."""
    rows = []
    for connections in SIZES:
        builder = _scenario(connections)
        platform = build_cvm(service=CommService("net0", op_cost=0.0))
        base = builder.build()

        start = time.perf_counter()
        result = platform.run_model(clone_model(base))
        initial = time.perf_counter() - start
        initial_commands = len(result.script)

        # a single-attribute edit on the large running model
        edited = platform.ui.checkout()
        medium = next(iter(edited.objects_by_class("Medium")))
        medium.quality = "high"
        start = time.perf_counter()
        incremental_result = platform.ui.submit(
            platform.ui.put_model(edited)
        )
        incremental = time.perf_counter() - start

        rows.append((
            connections, len(base), initial * 1000, initial_commands,
            incremental * 1000, len(incremental_result.script),
        ))
        platform.stop()
    return rows


def test_a5_scaling_table(benchmark, report):
    rounds: list[list[tuple]] = []

    def run():
        rounds[:] = [_scaling_round() for _ in range(ROUNDS)]

    benchmark.pedantic(run, rounds=1, iterations=1)

    table = ResultTable(
        f"A5: synthesis scaling with application-model size "
        f"(median of {ROUNDS} rounds)",
        ["connections", "model elements", "initial ms", "initial cmds",
         "1-edit ms", "1-edit cmds"],
    )
    for per_size in zip(*rounds):
        first = per_size[0]
        table.add(
            first[0], first[1],
            statistics.median(row[2] for row in per_size), first[3],
            statistics.median(row[4] for row in per_size), first[5],
        )
    report.append(table)

    # Emitted commands track the change, not the model: one edit ->
    # exactly one command at every size.
    assert all(row[5] == 1 for rows in rounds for row in rows)
    # Incremental cycles stay far below the initial synthesis of the
    # same model (the models@runtime hot path is change-proportional
    # in command work even though comparison is model-proportional).
    assert statistics.median(
        rows[-1][4] / rows[-1][2] for rows in rounds) < 1 / 2
    # Initial synthesis grows with model size (sanity on the harness).
    assert statistics.median(
        rows[-1][2] / rows[0][2] for rows in rounds) > 1
