"""Fabric benchmark: closed-loop workloads on the two production front doors.

Run from the root of a checkout::

    python3 perfbench/run.py --workload pool-api --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seconds 10

Workloads (all structural, ``op_cost=0``; durability ``"wal"``; Tier-2):

* ``pool-api`` — 16 closed-loop clients walk 320 session keys on a
  2-shard :class:`PlatformPool`, cycling the eight E1 scenarios;
* ``cluster-models`` — 16 sessions over the four domains on a 2-worker
  :class:`ProcessCluster` with log shipping, alternating each domain's
  phase-1 and phase-2 models, one session live-migrated every 0.25 s;
* ``cluster-api`` — the ``pool-api`` step mix as 64 sessions through
  the same cluster.

``--trace 0`` prints the end-to-end metrics: throughput and CPU per step
are medians over 2-s slices of the window, latency percentiles are pooled
over the steps of those slices, and slices in which the hypervisor stole
CPU time are left out (``perfbench.fabrics.SLICE_S``).  ``--trace 1`` runs an
untraced and then a traced fabric and prints the per-layer table.  The
last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics``.  A run whose op_logs differ
from the inline golden replay (or whose trace does not add up) reports
``correct: false`` with no metrics and exits 1.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

CHECKOUT = Path(__file__).resolve().parent.parent


def _parse(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(
        prog="perfbench/run.py",
        description="closed-loop fabric benchmark (see module docstring)")
    parser.add_argument("--workload", required=True,
                        help="pool-api, cluster-models, cluster-api or all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _run_all(args: argparse.Namespace) -> int:
    """Every workload, each in its own process; fails if any run does."""
    from perfbench.fabrics import WORKLOADS

    results, status = {}, 0
    for name in WORKLOADS:
        command = [sys.executable, str(Path(__file__).resolve()),
                   "--workload", name, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(command, cwd=CHECKOUT, capture_output=True,
                              text=True, check=False)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.splitlines()
        print(f"== {name}")
        print("\n".join(lines[:-1]))
        results[name] = json.loads(lines[-1]) if lines else None
        status = status or proc.returncode
    print(json.dumps(results))
    return status


def main(argv: list[str] | None = None) -> int:
    args = _parse(argv)
    if not (CHECKOUT / "src" / "repro").is_dir():
        print(f"no repro sources under {CHECKOUT / 'src'}; run from a "
              f"checkout of the repository", file=sys.stderr)
        return 2
    for path in (CHECKOUT / "src", CHECKOUT):
        if str(path) not in sys.path:
            sys.path.insert(0, str(path))
    if args.workload == "all":
        return _run_all(args)

    from perfbench.fabrics import (
        WORKLOADS,
        calm_slices,
        end_to_end,
        run_workload,
        slice_stats,
    )
    from perfbench.metrics import END_TO_END, PER_LAYER, per_layer

    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r} "
              f"(known: {', '.join(WORKLOADS)})", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload](args.seed)
    phases = run_workload(workload, CHECKOUT, seconds=args.seconds,
                          trace=bool(args.trace))
    base = phases["base"]
    loops = [phase.loop for phase in phases.values()]
    attempted = sum(loop.attempted for loop in loops)
    failed = sum(loop.failed for loop in loops)
    errors = [phase.check_error for phase in phases.values()
              if phase.check_error]
    errors += [f"step failed: {loop.first_error}" for loop in loops
               if loop.first_error]

    print(f"workload {workload.name}  seed {args.seed}  "
          f"window {base.loop.window_s:.2f} s  steps {base.loop.window_steps}")
    if args.trace:
        table, failures = per_layer(base, phases["traced"])
        errors += [f"trace check: {failure}" for failure in failures]
        moves = {name: (unit, effect) for name, unit, _, effect in PER_LAYER}
        for name, value in table.items():
            unit, effect = moves[name]
            print(f"  {name:38s} {value:14.3f} {unit:6s} -> {effect}")
        metrics = {name: {"value": table[name], "unit": unit}
                   for name, unit, *_ in PER_LAYER}
    else:
        values = end_to_end(base)
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit, _ in END_TO_END}
        for name, metric in metrics.items():
            print(f"  {name:20s} {metric['value']:12.4f} {metric['unit']}")
        slices = slice_stats(base)
        calm = calm_slices(slices)
        print(f"  (from the {len(calm)} of {len(slices)} slices not marred by "
              f"host steal: steps/s and cpu are their medians, p50 and p99 "
              f"pooled over their "
              f"{sum(len(row['latencies_ms']) for row in calm)} steps)")
        for key in ("steal", "steps_per_s", "p50_ms", "p99_ms",
                    "cpu_us_per_step"):
            print(f"  per slice {key:15s} "
                  + " ".join(f"{row[key]:.4g}" for row in slices))
        print(f"  {'failed_ratio':20s} {failed / attempted:12.4f} "
              f"({failed} of {attempted} steps)")
        if base.pauses_ms:
            pauses = sorted(base.pauses_ms)
            print(f"  {'migrate_pause_ms':20s} "
                  f"{pauses[len(pauses) // 2]:12.4f} ms "
                  f"(median of {len(pauses)} migrations)")
    print(f"  host steal {statistics.mean(base.steal):.3f} of the machine's "
          f"CPU time in the window")
    print(f"  driver busy {base.loop.busy_frac:.3f}"
          + ("  DRIVER-BOUND: the generator set the pace"
             if base.loop.driver_bound else ""))
    if errors:
        for error in errors:
            print(f"  INCORRECT: {error}")
        failed = attempted
        metrics = {}
    print(json.dumps({"correct": not errors, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
