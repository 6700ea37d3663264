"""Metric catalog and the per-layer table of the traced run.

Each per-layer metric names the end-to-end metric and workload it
should move; ``BENCHMARK.json`` has no field for that, so this table is
where it is recorded (and ``run.py --trace 1`` prints it).
"""

from __future__ import annotations

import statistics

from perfbench.fabrics import Phase

__all__ = ["END_TO_END", "PER_LAYER", "per_layer"]

#: (name, unit, better) — reported by every untraced run
END_TO_END = [
    ("steps_per_s", "1/s", "higher"),
    ("step_p50_ms", "ms", "lower"),
    ("step_p99_ms", "ms", "lower"),
    ("setup_s", "s", "lower"),
    ("rss_mb", "MB", "lower"),
    ("cpu_us_per_step", "us", "lower"),
]

#: (name, unit, better, what it should move)
PER_LAYER = [
    ("sharded.wait_us", "us", "lower", "step_p50_ms on pool-api"),
    ("durability.self_us_per_step", "us", "lower",
     "steps_per_s and cpu_us_per_step on pool-api"),
    ("wal.entry_us_per_step", "us", "lower",
     "steps_per_s and cpu_us_per_step on pool-api"),
    ("wal.effect_us_per_step", "us", "lower",
     "steps_per_s and cpu_us_per_step on pool-api"),
    ("wal.seal_us_per_step", "us", "lower",
     "steps_per_s and cpu_us_per_step on pool-api"),
    ("wal.syncs_per_kstep", "count", "lower", "step_p99_ms on pool-api"),
    ("wal.bytes_per_step", "B", "lower",
     "cluster-models against pool-api (steps_per_s)"),
    ("wal.checkpoint_us_per_step", "us", "lower", "steps_per_s on cluster-api"),
    ("wal.checkpoints_per_kstep", "count", "lower",
     "steps_per_s on cluster-api"),
    ("broker.self_us_per_step", "us", "lower", "steps_per_s on pool-api"),
    ("broker.calls_per_step", "count", "lower", "steps_per_s on pool-api"),
    ("resource.invoke_us_per_step", "us", "lower", "steps_per_s on pool-api"),
    ("resource.invokes_per_step", "count", "lower", "steps_per_s on pool-api"),
    ("controller.self_us_per_step", "us", "lower",
     "steps_per_s on cluster-models"),
    ("controller.commands_per_step", "count", "lower",
     "steps_per_s on cluster-models"),
    ("synthesis.self_us_per_step", "us", "lower",
     "steps_per_s on cluster-models"),
    ("synthesis.changes_per_step", "count", "lower",
     "steps_per_s on cluster-models"),
    ("ui.self_us_per_step", "us", "lower", "steps_per_s on cluster-models"),
    ("serialize.decode_us_per_step", "us", "lower",
     "steps_per_s on cluster-models"),
    ("backend.apply_us_per_step", "us", "lower",
     "steps_per_s on both cluster workloads"),
    ("cluster.transport_us", "us", "lower", "step_p50_ms on cluster-api"),
    ("cluster.frame_bytes_per_step", "B", "lower",
     "step_p50_ms on cluster-api"),
    ("cluster.migrate_pause_ms", "ms", "lower",
     "step_p99_ms on cluster-models"),
    ("ship.frames_per_step", "count", "lower",
     "steps_per_s on both cluster workloads"),
    ("ship.receive_us_per_step", "us", "lower",
     "steps_per_s on both cluster workloads"),
    ("loader.load_platform_ms", "ms", "lower", "setup_s"),
    ("cluster.spawn_s", "s", "lower", "setup_s on cluster workloads"),
    ("process.coordinator_cpu_us_per_step", "us", "lower", "cpu_us_per_step"),
    ("process.worker_cpu_us_per_step", "us", "lower", "cpu_us_per_step"),
    ("driver.busy_frac", "ratio", "lower",
     "none: above 0.9 the generator set the pace"),
    ("trace.overhead_pct", "%", "lower", "none: cost of the traced run"),
    ("trace.step_us", "us", "lower", "none: the mean traced step latency"),
    ("unattributed_us_per_step", "us", "lower",
     "none: step time no named layer claims"),
]

#: the most of the server-side step time (the root span's own self time
#: plus the remainder no layer claims) that may go unclaimed: a layer
#: left unwrapped shows up there and trips the attribution check
UNCLAIMED_MAX_SHARE = 0.25

#: span names whose self time is one named layer (metric -> spans)
_SELF = {
    "durability.self_us_per_step": ("durability",),
    "wal.entry_us_per_step": ("wal.entry",),
    "wal.effect_us_per_step": ("wal.effect",),
    "wal.seal_us_per_step": ("wal.seal",),
    "wal.checkpoint_us_per_step": ("wal.capture", "wal.checkpoint"),
    "broker.self_us_per_step": ("broker",),
    "resource.invoke_us_per_step": ("resource",),
    "controller.self_us_per_step": ("controller", "controller.command"),
    "synthesis.self_us_per_step": ("synthesis",),
    "ui.self_us_per_step": ("ui",),
    "serialize.decode_us_per_step": ("serialize.decode",),
}


def _median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def per_layer(base: Phase, traced: Phase) -> tuple[dict[str, float], list]:
    """The per-layer table and the list of check failures (empty: ok)."""
    loop = traced.loop
    start, end = loop.window_start, loop.window_end
    trace = traced.trace
    times = trace.layer_times(start, end)
    # Server-side figures are per server-side step span started in the
    # window, so span sums and their step count cover the same steps.
    root = "backend.apply" if loop.outcomes else "durability"
    steps = times[root]["calls"]

    def self_us(*names: str) -> float:
        return sum(times.get(name, {}).get("self_ns", 0)
                   for name in names) / steps / 1e3

    def calls(name: str) -> float:
        return times.get(name, {}).get("calls", 0) / steps

    out: dict[str, float] = {name: 0.0 for name, *_ in PER_LAYER}
    for metric, names in _SELF.items():
        out[metric] = self_us(*names)
    # the checkpoint pair has no traced children: inclusive == self
    out["wal.checkpoints_per_kstep"] = calls("wal.checkpoint") * 1e3
    out["broker.calls_per_step"] = calls("broker")
    out["resource.invokes_per_step"] = calls("resource")
    out["controller.commands_per_step"] = calls("controller.command")
    out["synthesis.changes_per_step"] = sum(
        trace.sample_values("synthesis.changes", start, end)) / steps
    out["wal.bytes_per_step"] = (traced.wal["bytes_end"]
                                 - traced.wal["bytes_start"]) / steps
    step_ns = [ns for ns in loop.latencies_ns]
    step_us = sum(step_ns) / len(step_ns) / 1e3
    out["trace.step_us"] = step_us
    failures: list[str] = []
    if traced.loop.outcomes:  # cluster: worker-side figures ride the reply
        replies = [(latency, outcome.value)
                   for in_window, latency, outcome in loop.outcomes
                   if in_window]
        transport = [latency - value["apply_ns"] for latency, value in replies]
        out["cluster.transport_us"] = _median(transport) / 1e3
        front_us = sum(transport) / len(transport) / 1e3
        out["backend.apply_us_per_step"] = sum(
            value["apply_ns"] for _, value in replies) / len(replies) / 1e3
        out["wal.syncs_per_kstep"] = trace.sample_delta(
            "wal.syncs", start, end) / steps * 1e3
        out["cluster.frame_bytes_per_step"] = sum(
            trace.sample_values("frame.bytes", start, end)) / steps
        out["ship.frames_per_step"] = sum(
            trace.sample_values("ship.frames", start, end)) / steps
        out["ship.receive_us_per_step"] = times.get(
            "ship.receive", {}).get("total_ns", 0) / steps / 1e3
        out["cluster.spawn_s"] = base.spawn_s
        loads = trace.layer_times(0, 1 << 62).get("loader.load_platform")
        if loads:
            out["loader.load_platform_ms"] = loads["total_ns"] / loads[
                "calls"] / 1e6
    else:
        waits = trace.sample_values("sharded.wait", start, end)
        out["sharded.wait_us"] = _median(waits) / 1e3
        front_us = sum(waits) / len(waits) / 1e3 if waits else 0.0
        out["wal.syncs_per_kstep"] = (traced.wal["syncs_end"]
                                      - traced.wal["syncs_start"]) / steps * 1e3
        out["loader.load_platform_ms"] = _median(base.load_ms)
    out["cluster.migrate_pause_ms"] = _median(base.pauses_ms)
    base_steps = base.loop.window_steps
    out["process.coordinator_cpu_us_per_step"] = sum(
        coordinator for coordinator, _ in base.cpu) / base_steps * 1e6
    out["process.worker_cpu_us_per_step"] = sum(
        workers for _, workers in base.cpu) / base_steps * 1e6
    out["driver.busy_frac"] = base.loop.busy_frac
    base_rate = base_steps / base.loop.window_s
    traced_rate = loop.window_steps / loop.window_s
    out["trace.overhead_pct"] = (base_rate / traced_rate - 1.0) * 100.0
    named = front_us + sum(out[metric] for metric in _SELF)
    out["unattributed_us_per_step"] = step_us - named
    # -- attribution: the span trees must nest, and the named layers
    # plus the remainder must add up to the traced step time.
    failures += _count_checks(traced)
    negative = [name for name, slot in times.items() if slot["self_ns"] < 0]
    if negative:
        failures.append(f"spans overlap their parents: {negative}")
    all_self = sum(slot["self_ns"] for slot in times.values())
    all_root = sum(slot["root_ns"] for slot in times.values())
    if all_root and abs(all_self - all_root) > 0.01 * all_root:
        failures.append(f"self times {all_self} ns do not sum to the span "
                        f"trees' {all_root} ns")
    if out["unattributed_us_per_step"] < -0.02 * step_us:
        failures.append("named layers claim more than the step time")
    server_us = step_us - front_us
    unclaimed = (out["unattributed_us_per_step"]
                 + out["durability.self_us_per_step"])
    if unclaimed > UNCLAIMED_MAX_SHARE * server_us:
        failures.append(
            f"{unclaimed:.1f} us of the {server_us:.1f} us server-side step "
            f"is unclaimed (root self time plus remainder), more than "
            f"{UNCLAIMED_MAX_SHARE:.0%}: a layer is not wrapped")
    return out, failures


def _count_checks(traced: Phase) -> list[str]:
    """Each wrapped layer's call count against what the docs imply.

    A layer reached through a bound method cached before wrapping would
    bypass its wrapper and fall short here.
    """
    trace = traced.trace
    invokes = sum(slot["calls"] for name, slot in
                  trace.layer_times(0, 1 << 62).items() if name == "resource")
    direct = trace.child_counts("backend.dispatch")
    ops = traced.ops
    failures = []
    if invokes != traced.op_log_growth:
        failures.append(f"resource invokes {invokes} != op_log growth "
                        f"{traced.op_log_growth}")
    if direct.get("broker", 0) != ops["api"] + ops["recover"]:
        failures.append(f"broker calls {direct.get('broker', 0)} != "
                        f"api/recover steps {ops['api'] + ops['recover']}")
    if direct.get("serialize.decode", 0) != ops["run_model"]:
        failures.append(f"model decodes {direct.get('serialize.decode', 0)}"
                        f" != run_model steps {ops['run_model']}")
    return failures
