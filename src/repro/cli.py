"""Command-line interface: ``python -m repro <command>``.

Gives middleware engineers the tooling loop the paper envisions —
inspect, validate and conformance-check middleware models, export
metamodels, and run textual application models — without writing code.

Commands:

* ``domains`` — list the shipped domains.
* ``export-metamodel <which>`` — print a metamodel as JSON
  (``md-dsm``, ``scripts``, or a domain DSML name).
* ``export-middleware-model <domain>`` — print a domain's middleware
  model as JSON (the artifact the loader consumes).
* ``inspect <file>`` — summarize a serialized middleware model.
* ``validate <file>`` — structural validation of a middleware model.
* ``conformance <domain> [--model <file>]`` — check a middleware model
  (the domain's shipped one by default) against the domain DSML.
* ``run-cml <file>`` — execute a textual CML scenario on a simulated
  service and print the synthesized commands and service trace.
* ``reproduce`` — regenerate the paper's headline results (E1–E5) in
  one quick pass and print the comparison tables (the full harness
  with shape assertions is ``pytest benchmarks/ --benchmark-only``).
* ``metrics`` — run ``examples/quickstart.py`` under a fresh metrics
  registry and print the per-topic counters and latency histograms
  the signal fabric recorded.
* ``trace`` — run ``examples/quickstart.py`` with causal signal
  tracing enabled and print the trace_id/parent_seq chains.
* ``bench-fabric`` — run the signal-fabric micro-benchmarks and write
  ``BENCH_PR1.json`` (also ``python -m repro.bench.harness``).
* ``bench-faults`` — replay the E5 recovery scenarios under seeded
  fault injection with the Broker fault layer engaged and write
  ``BENCH_PR2.json`` (also ``python -m repro.bench.faults``).
* ``bench-synthesis`` — compare the compiled and interpreted synthesis
  tiers (template microbench, >=5k-object stress synthesis, E1 rerun)
  and write ``BENCH_PR3.json`` (also ``python -m repro.bench.synthesis``).
* ``bench-scale`` — run the sharded-fabric scale benchmark (hundreds of
  concurrent CVM sessions at 1/2/4/8 shards, byte-identical op_logs vs
  the inline baseline) and write ``BENCH_PR4.json`` (also
  ``python -m repro.bench.scale``).
* ``bench-migrate`` — run the session checkpoint/restore and
  live-migration benchmark (all four domains, byte-identical op_logs vs
  uninterrupted runs, migration pause and rebalance throughput) and
  write ``BENCH_PR5.json`` (also ``python -m repro.bench.migrate``).
* ``bench-ingress`` — run the async-ingress admission/shedding benchmark
  (open-loop arrival at 2x the sustainable rate, shedding on vs off,
  byte-identical op_logs for admitted sessions) and write
  ``BENCH_PR6.json`` (also ``python -m repro.bench.ingress``).
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Any, Callable

from repro.middleware.conformance import check_conformance
from repro.middleware.metamodel import middleware_metamodel
from repro.modeling.constraints import validate_model
from repro.modeling.meta import Metamodel
from repro.modeling.model import Model
from repro.modeling.serialize import (
    metamodel_to_dict,
    model_from_json,
    model_to_json,
)

__all__ = ["main"]


def _domain_registry() -> dict[str, dict[str, Any]]:
    """Lazily import the shipped domains (keeps CLI startup light)."""
    from repro.domains.communication.cml import cml_metamodel
    from repro.domains.communication.cvm import (
        build_middleware_model as build_cvm_model,
    )
    from repro.domains.crowdsensing.csml import csml_metamodel
    from repro.domains.crowdsensing.csvm import (
        build_middleware_model as build_csvm_model,
    )
    from repro.domains.microgrid.mgridml import mgridml_metamodel
    from repro.domains.microgrid.mgridvm import (
        build_middleware_model as build_mgrid_model,
    )
    from repro.domains.smartspace.ssml import ssml_metamodel
    from repro.domains.smartspace.ssvm import build_full_model

    return {
        "communication": {
            "dsml": cml_metamodel,
            "middleware": build_cvm_model,
            "resources": {"net0"},
        },
        "microgrid": {
            "dsml": mgridml_metamodel,
            "middleware": build_mgrid_model,
            "resources": {"plant0"},
        },
        "smartspace": {
            "dsml": ssml_metamodel,
            "middleware": build_full_model,
            "resources": {"space0"},
        },
        "crowdsensing": {
            "dsml": csml_metamodel,
            "middleware": build_csvm_model,
            "resources": {"fleet0"},
        },
    }


def _load_middleware_model(path: str) -> Model:
    with open(path, encoding="utf-8") as handle:
        return model_from_json(handle.read(), middleware_metamodel())


# -- commands -----------------------------------------------------------


def cmd_domains(_args: argparse.Namespace) -> int:
    for name, spec in sorted(_domain_registry().items()):
        dsml: Metamodel = spec["dsml"]()
        print(f"{name:14s} DSML={dsml.name!r} "
              f"classes={len(dsml.classes)} "
              f"resources={sorted(spec['resources'])}")
    return 0


def cmd_export_metamodel(args: argparse.Namespace) -> int:
    which = args.which
    if which == "md-dsm":
        metamodel = middleware_metamodel()
    elif which == "scripts":
        from repro.middleware.synthesis.scripts import script_metamodel

        metamodel = script_metamodel()
    else:
        registry = _domain_registry()
        if which not in registry:
            print(f"unknown metamodel {which!r}; choose md-dsm, scripts, "
                  f"or one of {sorted(registry)}", file=sys.stderr)
            return 2
        metamodel = registry[which]["dsml"]()
    print(json.dumps(metamodel_to_dict(metamodel), indent=2))
    return 0


def cmd_export_middleware_model(args: argparse.Namespace) -> int:
    registry = _domain_registry()
    if args.domain not in registry:
        print(f"unknown domain {args.domain!r}; one of {sorted(registry)}",
              file=sys.stderr)
        return 2
    model = registry[args.domain]["middleware"]()
    print(model_to_json(model))
    return 0


def cmd_inspect(args: argparse.Namespace) -> int:
    model = _load_middleware_model(args.file)
    root = model.roots[0]
    print(f"middleware model {root.get('name')!r} "
          f"(domain {root.get('domain')!r})")
    for layer_name in ("ui", "synthesis", "controller", "broker"):
        layer = root.get(layer_name)
        if layer is None:
            print(f"  {layer_name:10s} —suppressed—")
            continue
        details = []
        if layer_name == "synthesis":
            details.append(f"rules={len(layer.get('rules'))}")
        if layer_name == "controller":
            details.append(f"dscs={len(layer.get('classifiers'))}")
            details.append(f"procedures={len(layer.get('procedures'))}")
            details.append(f"actions={len(layer.get('actions'))}")
            details.append(f"policies={len(layer.get('policies'))}")
        if layer_name == "broker":
            details.append(f"actions={len(layer.get('actions'))}")
            details.append(f"symptoms={len(layer.get('symptoms'))}")
            details.append(f"plans={len(layer.get('plans'))}")
            details.append(
                "resources="
                + ",".join(
                    str(r.get("name")) for r in layer.get("requiredResources")
                )
            )
        print(f"  {layer_name:10s} {layer.get('name')!r} "
              + " ".join(details))
    print(f"  total elements: {len(model)}")
    return 0


def cmd_validate(args: argparse.Namespace) -> int:
    model = _load_middleware_model(args.file)
    report = validate_model(model)
    if report.ok:
        print(f"OK: {args.file} is a valid middleware model "
              f"({len(model)} elements)")
        return 0
    for diagnostic in report.errors:
        print(str(diagnostic), file=sys.stderr)
    return 1


def cmd_conformance(args: argparse.Namespace) -> int:
    registry = _domain_registry()
    if args.domain not in registry:
        print(f"unknown domain {args.domain!r}; one of {sorted(registry)}",
              file=sys.stderr)
        return 2
    spec = registry[args.domain]
    model = (
        _load_middleware_model(args.model)
        if args.model
        else spec["middleware"]()
    )
    report = check_conformance(
        model, spec["dsml"](), known_resources=spec["resources"]
    )
    print(report.render())
    return 0 if report.ok else 1


def cmd_run_cml(args: argparse.Namespace) -> int:
    from repro.domains.communication.cvm import build_cvm
    from repro.sim.network import CommService

    with open(args.file, encoding="utf-8") as handle:
        text = handle.read()
    service = CommService("net0", op_cost=0.0)
    platform = build_cvm(service=service)
    try:
        platform.ui.parse(text, name="cli-scenario")
        result = platform.ui.submit("cli-scenario")
        print("synthesized commands:")
        for command in result.script:
            print(f"  {command}")
        print("service trace:")
        for operation in service.op_log:
            print(f"  {operation}")
        if args.teardown:
            platform.teardown_model()
            print("teardown trace:")
            for operation in service.op_log[len(result.script):]:
                print(f"  {operation}")
    finally:
        platform.stop()
    return 0


def cmd_reproduce(_args: argparse.Namespace) -> int:
    """A quick single-pass regeneration of the Sec. VII results."""
    import time

    from repro.baselines import NonAdaptiveController
    from repro.bench.harness import (
        ResultTable,
        fresh_handcrafted_broker,
        fresh_model_based_broker,
    )
    from repro.bench.loc import loc_report
    from repro.bench.repo_factory import (
        ROOT_CLASSIFIER,
        build_generator,
        build_repository,
    )
    from repro.bench.workloads import COMMUNICATION_SCENARIOS

    # E1 + E5 -------------------------------------------------------------
    e1 = ResultTable(
        "E1/E5: Broker overhead and trace equivalence (paper: +17 %)",
        ["scenario", "model ms", "handcrafted ms", "overhead %", "equal"],
    )
    overheads = []
    for scenario, steps in COMMUNICATION_SCENARIOS.items():
        def timed(factory):
            samples = []
            for _ in range(5):
                _b, service, runner = factory()
                start = time.perf_counter()
                runner.run(steps)
                samples.append(time.perf_counter() - start)
            return min(samples), service
        model_s, model_service = timed(fresh_model_based_broker)
        hand_s, hand_service = timed(fresh_handcrafted_broker)
        overhead = 100.0 * (model_s / hand_s - 1.0)
        overheads.append(overhead)
        e1.add(scenario, model_s * 1000, hand_s * 1000, overhead,
               model_service.op_log == hand_service.op_log)
    e1.add("AVERAGE", "-", "-", sum(overheads) / len(overheads), "-")
    print(e1.render())

    # E2 ---------------------------------------------------------------------
    repository = build_repository(procedures=100)
    e2 = ResultTable(
        "E2: IM generation, 100 procedures "
        "(paper: cold < 120 ms, avg -> ~1 ms @100k)",
        ["cycles", "avg ms/cycle"],
    )
    for cycles in (1, 1000, 100000):
        generator = build_generator(repository)
        start = time.perf_counter()
        for _ in range(cycles):
            generator.generate(ROOT_CLASSIFIER)
        e2.add(cycles, (time.perf_counter() - start) / cycles * 1000)
    print("\n" + e2.render())

    # E3 ---------------------------------------------------------------------
    from repro.bench.workloads import (
        adaptation_wiring,
        adaptation_wiring_reliable,
    )
    from repro.domains.communication.cvm import build_cvm
    from repro.middleware.synthesis.scripts import Command
    from repro.sim.network import CommService

    def stream_command(index):
        return Command(
            "comm.stream.open",
            args={"connection": "c1", "medium": f"m{index}",
                  "kind": "audio", "quality": "standard"},
        )

    def adaptive_run():
        platform = build_cvm(service=CommService("net0"))
        controller = platform.controller
        controller.context.set("adaptation_mode", "dynamic")
        controller.execute_command(
            Command("comm.session.establish", args={"connection": "c1"})
        )
        start = time.perf_counter()
        controller.context.set("network_quality", "poor")
        for index in range(40):
            controller.execute_command(stream_command(index))
        elapsed = time.perf_counter() - start
        platform.stop()
        return elapsed

    def nonadaptive_run():
        platform = build_cvm(service=CommService("net0"))
        controller = NonAdaptiveController(
            platform.broker, adaptation_wiring()
        )
        controller.execute_command(
            Command("comm.session.establish", args={"connection": "c1"})
        )
        start = time.perf_counter()
        controller.redeploy(adaptation_wiring_reliable())
        for index in range(40):
            controller.execute_command(stream_command(index))
        elapsed = time.perf_counter() - start
        platform.stop()
        return elapsed

    adaptive = min(adaptive_run() for _ in range(3))
    nonadaptive = min(nonadaptive_run() for _ in range(3))
    e3 = ResultTable(
        "E3: adaptation response (paper: ~800 vs ~4000 ms, ~5x)",
        ["architecture", "response ms"],
    )
    e3.add("adaptive (IM regeneration)", adaptive * 1000)
    e3.add("non-adaptive (redeploy)", nonadaptive * 1000)
    e3.add("adaptive speedup", f"{nonadaptive / adaptive:.2f}x")
    print("\n" + e3.render())

    # E4 ---------------------------------------------------------------------
    sizes = loc_report()
    e4 = ResultTable(
        "E4: domain artifact size (paper: 1402 -> 1176, -16.1 %)",
        ["metric", "handcrafted", "model-based DSK", "reduction %"],
    )
    e4.add("significant tokens", sizes["handcrafted_tokens"],
           sizes["model_based_tokens"],
           100.0 * sizes["reduction_tokens"] / sizes["handcrafted_tokens"])
    print("\n" + e4.render())
    return 0


def _run_quickstart(*, show_output: bool) -> None:
    """Import and run ``examples/quickstart.py`` in-process."""
    import contextlib
    import importlib.util
    import io
    from pathlib import Path

    script = Path(__file__).resolve().parents[2] / "examples" / "quickstart.py"
    if not script.exists():
        raise FileNotFoundError(
            f"cannot find {script}; run from a source checkout"
        )
    spec = importlib.util.spec_from_file_location("repro_quickstart", script)
    assert spec is not None and spec.loader is not None
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    if show_output:
        module.main()
        return
    with contextlib.redirect_stdout(io.StringIO()):
        module.main()


def cmd_metrics(args: argparse.Namespace) -> int:
    """Run the quickstart under a fresh registry; print what it saw."""
    from repro.runtime.metrics import MetricsRegistry, set_default_registry

    registry = MetricsRegistry()
    if args.faults:
        from repro.bench.faults import breaker_outage_demo

        breaker_outage_demo(metrics=registry)
        if args.json:
            print(registry.to_json(indent=2))
        else:
            print("fault-layer metrics for the breaker outage demo:\n")
            print(registry.render())
        return 0
    previous = set_default_registry(registry)
    try:
        _run_quickstart(show_output=args.show_run)
    finally:
        set_default_registry(previous)
    if args.json:
        print(registry.to_json(indent=2))
    else:
        print("signal-fabric metrics for examples/quickstart.py:\n")
        print(registry.render())
    return 0


def cmd_trace(args: argparse.Namespace) -> int:
    """Run the quickstart with causal tracing; print the signal forest."""
    from repro.runtime.trace import TraceRecorder

    if args.replay is not None:
        if getattr(args, "slice", False):
            return _trace_replay_slice(args)
        return _trace_replay(args)
    with TraceRecorder(limit=args.limit) as recorder:
        _run_quickstart(show_output=args.show_run)
    min_length = 1 if args.all else 2
    print(
        f"causal signal chains for examples/quickstart.py "
        f"({len(recorder)} signals recorded):\n"
    )
    print(recorder.render(min_length=min_length))
    return 0


def _trace_replay(args: argparse.Namespace) -> int:
    """Deterministically re-execute a session's write-ahead log and
    print the causal signal chains the replay produced.

    The log's latest checkpoint names the domain; its DSK is looked up
    from the shipped domain registry, the platform is rebuilt on a
    virtual clock, and the tail entries re-run with their recorded
    external effects memoized (no external operation executes twice).
    """
    import shutil
    import tempfile
    from pathlib import Path

    from repro.domains.assembly import domain_cases
    from repro.middleware.platform import apply_entry
    from repro.middleware.snapshot import recover_session
    from repro.runtime.clock import VirtualClock
    from repro.runtime.trace import TraceRecorder
    from repro.runtime.wal import WalError, WriteAheadLog

    if not Path(args.replay).is_dir():
        print(f"no log directory at {args.replay!r}", file=sys.stderr)
        return 2
    # replaying seals re-executed entries back into the log, so work on
    # a throwaway copy and leave the original untouched.
    workdir = Path(tempfile.mkdtemp(prefix="trace-replay-"))
    shutil.rmtree(workdir)
    shutil.copytree(args.replay, workdir)
    try:
        wal = WriteAheadLog(workdir, fsync=False)
    except (WalError, OSError) as exc:
        shutil.rmtree(workdir, ignore_errors=True)
        print(f"cannot open log at {args.replay!r}: {exc}", file=sys.stderr)
        return 2
    try:
        sessions: dict[str, list[dict]] = {}
        for _position, doc in wal.replay():
            sessions.setdefault(str(doc.get("session", "")), []).append(doc)
        if not sessions:
            print(f"log at {args.replay!r} holds no frames")
            return 0
        names = sorted(sessions)
        if args.session is not None:
            target = args.session
            if target not in sessions:
                print(
                    f"no session {target!r} in log; it holds {names}",
                    file=sys.stderr,
                )
                return 2
        elif len(names) == 1:
            target = names[0]
        else:
            print(
                f"log holds sessions {names}; pick one with --session",
                file=sys.stderr,
            )
            return 2

        docs = sessions[target]
        entries = [d for d in docs if d.get("k") == "entry"]
        applied = sum(1 for d in docs if d.get("k") == "applied")
        checkpoints = [d for d in docs if d.get("k") == "checkpoint"]
        print(
            f"session {target!r}: {len(entries)} logged entries, "
            f"{applied} applied seals, {len(checkpoints)} checkpoints"
        )
        for doc in entries:
            sig = doc["sig"]
            payload = sig.get("payload") or {}
            op = payload.get("op", "?")
            detail = payload.get("api") or payload.get(
                "model", {}
            ).get("name", "")
            print(
                f"  entry seq={sig.get('seq')} trace={sig.get('trace_id')} "
                f"topic={sig.get('topic')} op={op}"
                + (f" ({detail})" if detail else "")
            )

        if not checkpoints:
            print(
                "\nno checkpoint in the log — nothing to rebuild a "
                "platform from; listing only"
            )
            return 0
        domain = str(checkpoints[-1].get("snapshot", {}).get("domain", ""))
        case = next(
            (c for c in domain_cases() if c.name == domain), None
        )
        if case is None:
            print(
                f"\nunknown domain {domain!r}; cannot re-execute",
                file=sys.stderr,
            )
            return 2
        dsk = case.knowledge(case.service())
        print(f"\nre-executing on a fresh {domain!r} platform (virtual clock):")
        with TraceRecorder(limit=args.limit) as recorder:
            report = recover_session(
                wal,
                session=target,
                apply_entry=apply_entry,
                dsk=dsk,
                clock=VirtualClock(),
            )
        report.platform.stop()
        print(
            f"  replayed {report.replayed_entries} entries "
            f"({report.deduplicated} deduplicated), "
            f"{report.effects_memoized} external effects memoized, "
            f"{report.effects_live} re-executed live, "
            f"{len(report.errors)} errors"
        )
        if args.trace_id is not None:
            chain = recorder.chain_for(args.trace_id)
            if not chain:
                print(f"no signals recorded for trace {args.trace_id}")
                return 0
            print(f"\nchain for trace {args.trace_id}:")
            for record in chain:
                print(f"  {record}")
            return 0
        print(f"\ncausal chains from the replay ({len(recorder)} signals):\n")
        print(recorder.render(min_length=1))
        return 0
    finally:
        wal.close()
        shutil.rmtree(workdir, ignore_errors=True)


def _trace_replay_slice(args: argparse.Namespace) -> int:
    """Reassemble one trace's causal slice from the union of per-shard
    write-ahead logs under ``--replay ROOT``, re-execute its root
    session, and verify the replay reproduces the logged sub-DAG.

    The slice's root entry names its home session; that session is
    rebuilt from its shard log's latest checkpoint (domain looked up
    from the shipped registry) and its tail re-run on a virtual clock
    under a :class:`TraceRecorder`.  Derived signals re-mint fresh
    seqs, so the comparison is structural — see
    :mod:`repro.runtime.walslice`.
    """
    import shutil
    from pathlib import Path

    from repro.domains.assembly import domain_cases
    from repro.middleware.platform import apply_entry
    from repro.middleware.snapshot import recover_session
    from repro.runtime import walslice
    from repro.runtime.clock import VirtualClock
    from repro.runtime.trace import TraceRecorder
    from repro.runtime.wal import WriteAheadLog

    root = Path(args.replay)
    if not root.is_dir():
        print(f"no log directory at {args.replay!r}", file=sys.stderr)
        return 2
    workdir = walslice.staging_dir()
    try:
        logs = walslice.stage_logs(root, workdir)
        if not any(log.frames for log in logs):
            print(
                f"no write-ahead frames under {args.replay!r}",
                file=sys.stderr,
            )
            return 2
        census = walslice.trace_census(logs)
        if not census:
            print(f"no logged entries under {args.replay!r}")
            return 0
        if args.trace_id is not None:
            trace_id = args.trace_id
            if trace_id not in census:
                print(
                    f"no trace {trace_id} in these logs; traces: "
                    f"{sorted(census)}",
                    file=sys.stderr,
                )
                return 2
        else:
            multi = [t for t, info in census.items() if info["nodes"] > 1]
            if len(multi) == 1:
                trace_id = multi[0]
            else:
                print(
                    f"{len(logs)} log(s) hold {len(census)} trace(s); "
                    "pick one with --trace-id:"
                )
                shown = 0
                for tid in sorted(
                    census, key=lambda t: -census[t]["nodes"]
                ):
                    info = census[tid]
                    print(
                        f"  trace {tid}: {info['nodes']} signal(s) "
                        f"across {info['logs']} log(s)"
                    )
                    shown += 1
                    if shown >= 20:
                        print(f"  ... {len(census) - shown} more")
                        break
                return 2

        nodes = walslice.collect_slice(logs, trace_id)
        print(
            f"causal slice for trace {trace_id}: {len(nodes)} logged "
            f"signal(s) across {len({n.log for n in nodes})} log(s), "
            f"{len({n.session for n in nodes})} session(s)\n"
        )
        print(walslice.render_slice(nodes))
        roots = [n for n in nodes if n.parent_seq is None]
        if not roots:
            print(
                "\nslice has no root entry in these logs (home shard "
                "log missing?); listing only"
            )
            return 0
        session = roots[0].session
        home = next(
            log
            for log in logs
            if any(
                doc.get("k") == "entry"
                and (doc.get("sig") or {}).get("seq") == roots[0].seq
                for doc in log.frames
            )
        )
        frames = walslice.session_replay_frames(home, session)
        checkpoints = [d for d in frames if d.get("k") == "checkpoint"]
        if not checkpoints:
            print(
                f"\nno checkpoint for session {session!r} in "
                f"{home.label} — cannot rebuild a platform; listing only"
            )
            return 0
        domain = str(checkpoints[-1].get("snapshot", {}).get("domain", ""))
        case = next((c for c in domain_cases() if c.name == domain), None)
        if case is None:
            print(
                f"\nunknown domain {domain!r}; cannot re-execute",
                file=sys.stderr,
            )
            return 2
        scratch = WriteAheadLog(
            workdir / "slice-replay", name="slice", fsync=False
        )
        for doc in frames:
            scratch.append(doc, strict=False)
        dsk = case.knowledge(case.service())
        print(
            f"\nre-executing session {session!r} (home log {home.label}) "
            f"on a fresh {domain!r} platform (virtual clock):"
        )
        try:
            with TraceRecorder(limit=args.limit) as recorder:
                report = recover_session(
                    scratch,
                    session=session,
                    apply_entry=apply_entry,
                    dsk=dsk,
                    clock=VirtualClock(),
                )
            report.platform.stop()
        finally:
            scratch.close()
        print(
            f"  replayed {report.replayed_entries} entries "
            f"({report.deduplicated} deduplicated), "
            f"{report.effects_memoized} effects memoized, "
            f"{len(report.errors)} errors"
        )
        verdict = walslice.verify_slice(nodes, recorder.chain_for(trace_id))
        if verdict.ok:
            print(
                f"\nslice reproduced exactly: all {verdict.logged_nodes} "
                f"logged signal(s) matched structurally "
                f"({verdict.surplus} unlogged intra-platform "
                f"derivation(s) alongside)"
            )
            return 0
        print(f"\nslice NOT reproduced ({len(verdict.missing)} mismatches):")
        for miss in verdict.missing:
            print(f"  {miss}")
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def cmd_bench_fabric(args: argparse.Namespace) -> int:
    from repro.bench.harness import write_bench_json

    results = write_bench_json(args.output)
    print(f"wrote {args.output}")
    scaling = results["bus_scaling"]
    print("\nbus routing scaling (per-publish, one matching subscriber):")
    for row in scaling:
        print(
            f"  subscribers={row['subscribers']:<6} "
            f"indexed={row['indexed_us']:.2f}µs "
            f"linear-scan={row['linear_scan_us']:.2f}µs "
            f"speedup={row['speedup']:.1f}x"
        )
    e1 = results["e1"]
    print(
        f"\nE1 broker overhead: model-based {e1['model_ms']:.3f} ms vs "
        f"handcrafted {e1['handcrafted_ms']:.3f} ms "
        f"({e1['mean_overhead_pct']:.1f}% mean overhead)"
    )
    return 0


def cmd_bench_faults(args: argparse.Namespace) -> int:
    from repro.bench.faults import write_bench_json

    results = write_bench_json(args.output)
    print(f"wrote {args.output}")
    recovery = results["recovery"]
    print(
        f"\nE5 under fault injection: {recovery['episodes']} episodes, "
        f"failure rate {recovery['failure_rate']:.0%}, "
        f"{recovery['injected_faults']} faults injected, "
        f"{recovery['retries']} retries, "
        f"{recovery['unhandled_exceptions']} unhandled exceptions"
    )
    latency = recovery["recovery_latency"]
    if latency:
        print(
            f"recovery latency: n={latency['count']} "
            f"p50={latency['p50_us']:.0f}µs p95={latency['p95_us']:.0f}µs"
        )
    outage = results["breaker_outage"]
    chain = " -> ".join(
        transition["to"] for transition in outage["transitions"]
    )
    print(
        f"breaker outage walk: closed -> {chain} "
        f"({outage['rejected_while_open']} calls rejected while open, "
        f"{len(outage['autonomic_requests'])} autonomic requests raised)"
    )
    overhead = results["guard_overhead"]
    print(
        f"guarded-path overhead: bare {overhead['bare_us']:.2f}µs/op, "
        f"policy {overhead['policy_us']:.2f}µs/op, "
        f"policy+breaker {overhead['breaker_us']:.2f}µs/op"
    )
    return 0


def cmd_bench_synthesis(args: argparse.Namespace) -> int:
    from repro.bench.synthesis import write_bench_json

    path = args.output or (
        "BENCH_PR8.json" if args.tier == "aot" else "BENCH_PR3.json"
    )
    results = write_bench_json(path, quick=args.quick, tier=args.tier)
    print(f"wrote {path}")
    micro = results["template_microbench"]
    print(
        f"\ntemplate evaluation: compiled {micro['compiled_us']:.2f}µs vs "
        f"interpreted {micro['interpreted_us']:.2f}µs per render "
        f"({micro['speedup']:.1f}x)"
    )
    stress = results["synthesis_stress"]
    print(
        f"synthesis stress ({stress['objects']} objects, "
        f"{stress['commands']} commands): compiled {stress['compiled_ms']:.1f} ms "
        f"vs interpreted {stress['interpreted_ms']:.1f} ms "
        f"({stress['speedup']:.1f}x, identical scripts: "
        f"{stress['scripts_identical']})"
    )
    e1 = results["e1"]
    if args.tier == "aot":
        equivalence = results["tier_equivalence"]
        print(
            f"tier equivalence: {len(equivalence['domains'])} domains, "
            f"all identical: {equivalence['all_identical']}; edit cycle "
            f"regenerated: "
            f"{equivalence['edit_cycle']['regenerated_after_cycle']}"
        )
        calibrated = e1["calibrated"]
        line = (
            f"E1 overhead (Tier-3): {e1['mean_overhead_pct']:.2f}% "
            f"calibrated floor "
            f"({calibrated['per_step_overhead_us']:.1f}µs/step; median "
            f"cross-check {calibrated['median_overhead_pct']:.2f}%; "
            f"structural "
            f"{e1['structural']['per_step_overhead_us']:.1f}µs/step); "
            f"gate <= {results['gate_pct']}%, met: "
            f"{results['meets_e1_gate']}"
        )
        baseline = results.get("baseline_e1_mean_overhead_pct")
        if baseline is not None:
            line += f"; BENCH_PR4 baseline was {baseline:.1f}%"
        print(line)
        return 0
    line = (
        f"E1 mean overhead: {e1['mean_overhead_pct']:.1f}% "
        f"(model {e1['model_ms']:.3f} ms vs handcrafted "
        f"{e1['handcrafted_ms']:.3f} ms)"
    )
    baseline = results.get("baseline_e1_mean_overhead_pct")
    if baseline is not None:
        line += f"; BENCH_PR1 baseline was {baseline:.1f}%"
    print(line)
    return 0


def cmd_aot_gen(args: argparse.Namespace) -> int:
    from repro.bench.migrate import _fresh_session
    from repro.domains.assembly import domain_cases
    from repro.modeling.aotgen import (
        dsk_fingerprint,
        dsk_hash,
        generate_module_source,
        read_cached_source,
        write_cached_source,
    )

    cases = {case.name: case for case in domain_cases()}
    if args.domain not in cases:
        print(
            f"unknown domain {args.domain!r} "
            f"(choose from: {', '.join(sorted(cases))})"
        )
        return 2
    _service, _dsk, platform = _fresh_session(cases[args.domain])
    try:
        rules = platform.synthesis.interpreter._rules
        actions = list(platform.broker.calls._actions)
        dsml = platform.dsml
        digest = dsk_hash(
            dsk_fingerprint(rules=rules, actions=actions, dsml=dsml)
        )
        source = None
        if args.cache_dir:
            source = read_cached_source(args.cache_dir, digest)
            if source is not None:
                print(f"cache hit: aot-{digest}.py in {args.cache_dir}")
        if source is None:
            source = generate_module_source(
                rules=rules, actions=actions, dsml=dsml,
                domain=platform.domain,
            )
            if args.cache_dir:
                write_cached_source(args.cache_dir, digest, source)
                print(f"cached as aot-{digest}.py in {args.cache_dir}")
    finally:
        platform.stop()
    if args.output == "-":
        sys.stdout.write(source)
        return 0
    with open(args.output, "w", encoding="utf-8") as handle:
        handle.write(source)
    print(f"wrote {args.output} ({len(source.splitlines())} lines)")
    return 0


def cmd_bench_scale(args: argparse.Namespace) -> int:
    from repro.bench.scale import write_bench_json

    results = write_bench_json(args.output, quick=args.quick)
    print(f"wrote {args.output}")
    scale = results["scale"]
    print(
        f"\nsharded fabric: {scale['sessions']} concurrent sessions, "
        f"{scale['scenarios']} scenarios"
    )
    for run in scale["runs"]:
        print(
            f"  shards={run['shards']:<2} elapsed={run['elapsed_s']:.3f}s "
            f"sessions/s={run['sessions_per_s']:.0f} "
            f"signals/s={run['signals_per_s']:.0f} "
            f"forwarded={run['channel']['forwarded']} "
            f"op_logs_identical={run['op_logs_identical']}"
        )
    speedup = scale["speedup_signals_4_shards_vs_1"]
    if speedup is not None:
        print(
            f"aggregate throughput at 4 shards: {speedup:.2f}x the "
            f"1-shard run (bar: >= 2x, met: {scale['meets_2x_at_4_shards']})"
        )
    e1 = results["e1"]
    line = f"E1 mean overhead: {e1['mean_overhead_pct']:.1f}%"
    baseline = results.get("baseline_e1_mean_overhead_pct")
    if baseline is not None:
        line += f"; BENCH_PR3 baseline was {baseline:.1f}%"
    print(line)
    return 0


def cmd_bench_migrate(args: argparse.Namespace) -> int:
    from repro.bench.migrate import write_bench_json

    results = write_bench_json(args.output, quick=args.quick)
    print(f"wrote {args.output}")
    recovery = results["recovery"]
    print(
        f"\ncheckpoint/kill/restore: {len(recovery['domains'])} domains, "
        f"op_logs identical={recovery['all_identical']}, "
        f"median capture {recovery['median_capture_ms']:.2f} ms, "
        f"median restore {recovery['median_restore_ms']:.2f} ms"
    )
    migration = results["migration"]
    print(
        f"live migration: op_logs identical={migration['all_identical']}, "
        f"median pause {migration['median_pause_ms']:.2f} ms"
    )
    checkpoint = results["checkpoint"]
    print(
        f"idle-scheduler overhead on E1 steps: "
        f"{checkpoint['overhead_pct']:.2f}% "
        f"(gate <= {checkpoint['gate_pct']}%, met: "
        f"{checkpoint['meets_gate']}); checkpoint cost "
        f"{checkpoint['checkpoint_ms']:.2f} ms, "
        f"{checkpoint['snapshot_bytes']} bytes"
    )
    rebalance = results["rebalance"]
    print(
        f"rebalance: {rebalance['moves']} moves over "
        f"{rebalance['shards']} shards, throughput "
        f"{rebalance['throughput_before_steps_per_s']:.0f} -> "
        f"{rebalance['throughput_after_steps_per_s']:.0f} steps/s "
        f"({rebalance['speedup']:.2f}x), imbalance "
        f"{rebalance['imbalance_before']:.1f} -> "
        f"{rebalance['imbalance_after']:.1f}"
    )
    return 0


def cmd_bench_ingress(args: argparse.Namespace) -> int:
    from repro.bench.ingress import write_bench_json

    results = write_bench_json(args.output, quick=args.quick)
    print(f"wrote {args.output}")
    ingress = results["ingress"]
    capacity = ingress["capacity"]
    print(
        f"\nasync ingress: {ingress['sessions']} sessions over "
        f"{ingress['shards']} shards, closed-loop capacity "
        f"{capacity['capacity_steps_per_s']:.0f} steps/s"
    )
    unloaded = ingress["unloaded"]
    shed_on = ingress["overload_shed_on"]
    shed_off = ingress["overload_shed_off"]
    print(
        f"unloaded p99 {unloaded['latency_p99_ms']:.2f} ms; at "
        f"{ingress['overload_factor']:.0f}x overload: shedding on "
        f"p99 {shed_on['latency_p99_ms']:.2f} ms "
        f"({ingress['p99_ratio_shed_on_vs_unloaded']:.2f}x), shedding off "
        f"p99 {shed_off['latency_p99_ms']:.2f} ms "
        f"({ingress['p99_ratio_shed_off_vs_unloaded']:.2f}x)"
    )
    print(
        f"goodput with shedding: "
        f"{ingress['goodput_fraction_of_capacity']:.0%} of capacity "
        f"({shed_on['shed_entry_sessions']} of {shed_on['sessions']} "
        f"sessions shed at entry, {shed_on['shed_midway_sessions']} midway)"
    )
    determinism = ingress["determinism"]
    print(
        f"seeded shed decisions deterministic: "
        f"{determinism['deterministic']} "
        f"({determinism['sheds']}/{determinism['arrivals']} arrivals shed); "
        f"unhandled exceptions: {ingress['unhandled_exceptions']}; "
        f"op_log mismatches: {len(ingress['op_log_mismatches'])}"
    )
    print(
        f"gates: p99 <= 3x unloaded met={ingress['meets_p99_gate']}, "
        f"goodput >= 80% of capacity met={ingress['meets_goodput_gate']}"
    )
    return 0


def cmd_bench_wal(args: argparse.Namespace) -> int:
    from repro.bench.wal import write_bench_json

    results = write_bench_json(args.output, quick=args.quick)
    print(f"wrote {args.output}")
    kill = results["kill_recovery"]
    print(
        f"\nkill-mid-workload recovery: {len(kill['domains'])} domains, "
        f"op_logs identical={kill['all_identical']}, "
        f"median recover {kill['median_recover_ms']:.2f} ms"
    )
    fabric = results["fabric_kill"]
    print(
        f"fabric shard kill ({fabric['shards']} shards, killed after "
        f"{fabric['killed_after']}/{fabric['steps']} steps): "
        f"op_log identical={fabric['op_log_identical']}, "
        f"{fabric['effects_memoized']} effects memoized, "
        f"recover {fabric['recover_ms']:.2f} ms"
    )
    e1 = results["e1_overhead"]
    calibrated = e1["calibrated"]
    print(
        f"WAL-on E1 overhead: {calibrated['overhead_pct']:.2f}% "
        f"({calibrated['per_step_overhead_us']:.1f}µs/step on "
        f"{calibrated['bare_ms'] / e1['steps'] * 1000:.0f}µs steps; "
        f"gate <= {e1['gate_pct']}%, met: {e1['meets_gate']}; "
        f"structural {e1['structural']['per_step_overhead_us']:.1f}µs/step "
        f"at op_cost=0)"
    )
    for profile in e1["sync_profiles"]:
        print(
            f"  durability pricing: sync_every={profile['sync_every']} "
            f"fsync={profile['fsync']}: "
            f"{profile['per_entry_us']:.0f}µs/entry"
        )
    latency = results["recovery_latency"]
    print(
        f"recovery latency: snapshot-only "
        f"{latency['snapshot_only_ms']:.2f} ms, "
        f"+{latency['per_tail_entry_us']:.0f}µs per tail entry"
    )
    return 0


def cmd_bench_cluster(args: argparse.Namespace) -> int:
    from repro.bench.cluster import write_bench_json

    results = write_bench_json(args.output, quick=args.quick)
    print(f"wrote {args.output}")
    throughput = results["throughput"]
    print(
        f"\nprocess fabric: {throughput['sessions']} interleaved sessions"
    )
    for run in throughput["runs"]:
        print(
            f"  workers={run['workers']:<2} elapsed={run['elapsed_s']:.3f}s "
            f"steps/s={run['steps_per_s']:.0f} "
            f"sessions/s={run['sessions_per_s']:.0f} "
            f"op_logs_identical={run['op_logs_identical']}"
        )
    speedup = throughput["speedup_steps_4_workers_vs_1"]
    if speedup is not None:
        print(
            f"step throughput at 4 workers: {speedup:.2f}x the 1-worker "
            f"run (bar: >= 3x, met: {throughput['meets_3x_at_4_workers']})"
        )
    migration = results["migration"]
    pauses = [row["pause_ms"] for row in migration["domains"]]
    print(
        f"cross-process migration: {len(migration['domains'])} domains, "
        f"op_logs identical={migration['all_identical']}, "
        f"pauses {min(pauses):.1f}-{max(pauses):.1f} ms"
    )
    fault = results["fault"]
    print(
        f"kill-a-worker: {fault['rejected_worker_dead']} typed "
        f"WORKER_DEAD rejections, {fault['unresolved_futures']} unresolved "
        f"futures, {fault['untyped_failures']} untyped failures, "
        f"{fault['restarts']} restart(s), "
        f"op_logs identical={fault['op_logs_identical']}"
    )
    determinism = results["determinism"]
    print(
        f"seeded frame ordering: {determinism['runs']} runs at seed "
        f"{determinism['seed']}, "
        f"op_logs identical={determinism['op_logs_identical']}"
    )
    return 0


def cmd_bench_walfabric(args: argparse.Namespace) -> int:
    from repro.bench.walfabric import write_bench_json

    results = write_bench_json(args.output, quick=args.quick)
    print(f"wrote {args.output}")
    adoption = results["adoption"]
    print(
        f"\nstandby adoption: {adoption['victim_sessions']} of "
        f"{adoption['sessions']} sessions lost with the killed worker, "
        f"{adoption['adopted_sessions']} adopted onto worker "
        f"{adoption['adoption_target']} "
        f"({adoption['replayed_entries']} WAL entries replayed), "
        f"{adoption['rejected_worker_dead']} typed WORKER_DEAD "
        f"rejections resubmitted, "
        f"{adoption['unresolved_futures']} unresolved futures, "
        f"op_logs identical={adoption['op_logs_identical']}"
    )
    e1 = results["e1_pool_overhead"]
    calibrated = e1["calibrated"]
    structural = e1["structural"]
    print(
        f"durable-pool E1 overhead (calibrated, op_cost="
        f"{calibrated['op_cost']}): {calibrated['overhead_pct']:.2f}% "
        f"({calibrated['per_step_overhead_us']:.1f} us/step on "
        f"{calibrated['bare_ms'] / e1['steps'] * 1000:.0f} us) "
        f"(gate: <= {e1['gate_pct']}%, met: {e1['meets_gate']})"
    )
    print(
        f"  structural (op_cost=0, diagnostic): "
        f"{structural['overhead_pct']:.1f}%; fabric end-to-end delta "
        f"{e1['fabric']['per_step_delta_us']:+.1f} us/step "
        f"(pair spread {e1['fabric']['pair_spread_us']:.0f} us, "
        f"diagnostic)"
    )
    slices = results["slice_replay"]
    print(
        f"causal-slice replay: {slices['traces_checked']} traces "
        f"({slices['cross_log_traces']} spanning >1 shard log), "
        f"all reproduced={slices['all_reproduced']}"
    )
    return 0


# -- argument parsing -----------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="MD-DSM tooling (reproduction of Costa et al., "
                    "ICDCS 2017)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("domains", help="list shipped domains")

    export_mm = sub.add_parser(
        "export-metamodel", help="print a metamodel as JSON"
    )
    export_mm.add_argument("which", help="md-dsm | scripts | <domain>")

    export_mw = sub.add_parser(
        "export-middleware-model",
        help="print a domain's middleware model as JSON",
    )
    export_mw.add_argument("domain")

    inspect = sub.add_parser("inspect", help="summarize a middleware model")
    inspect.add_argument("file")

    validate = sub.add_parser("validate", help="validate a middleware model")
    validate.add_argument("file")

    conformance = sub.add_parser(
        "conformance", help="check middleware-model/DSML conformance"
    )
    conformance.add_argument("domain")
    conformance.add_argument(
        "--model", help="middleware-model JSON (default: the shipped model)"
    )

    run_cml = sub.add_parser(
        "run-cml", help="execute a textual CML scenario on a simulated service"
    )
    run_cml.add_argument("file")
    run_cml.add_argument("--teardown", action="store_true",
                         help="also tear the scenario down afterwards")

    sub.add_parser(
        "reproduce",
        help="regenerate the paper's headline results in one quick pass",
    )

    metrics = sub.add_parser(
        "metrics",
        help="run examples/quickstart.py and print signal-fabric metrics",
    )
    metrics.add_argument("--json", action="store_true",
                         help="emit the registry snapshot as JSON")
    metrics.add_argument("--faults", action="store_true",
                         help="run the circuit-breaker outage demo instead "
                              "and print the fault-layer metrics")
    metrics.add_argument("--show-run", action="store_true",
                         help="also show the quickstart's own output")

    trace = sub.add_parser(
        "trace",
        help="run examples/quickstart.py and print causal signal chains",
    )
    trace.add_argument("--all", action="store_true",
                       help="include single-signal chains")
    trace.add_argument("--limit", type=int, default=100_000,
                       help="max signals to record")
    trace.add_argument("--show-run", action="store_true",
                       help="also show the quickstart's own output")
    trace.add_argument("--replay", metavar="WAL_DIR",
                       help="instead of the quickstart: deterministically "
                            "re-execute a session's write-ahead log and "
                            "trace the replay")
    trace.add_argument("--session",
                       help="with --replay: which session to replay "
                            "(default: the only one in the log)")
    trace.add_argument("--trace-id", type=int,
                       help="with --replay: print only this causal chain")
    trace.add_argument("--slice", action="store_true",
                       help="with --replay: treat WAL_DIR as a fabric root "
                            "of per-shard logs, reassemble one trace's "
                            "causal slice from their union, re-execute its "
                            "root session, and verify the replay reproduces "
                            "the logged sub-DAG")

    bench = sub.add_parser(
        "bench-fabric",
        help="run signal-fabric micro-benchmarks and write BENCH_PR1.json",
    )
    bench.add_argument("--output", default="BENCH_PR1.json")

    bench_faults = sub.add_parser(
        "bench-faults",
        help="run E5 recovery under seeded fault injection and write "
             "BENCH_PR2.json",
    )
    bench_faults.add_argument("--output", default="BENCH_PR2.json")

    bench_synthesis = sub.add_parser(
        "bench-synthesis",
        help="compare compiled vs interpreted synthesis and write "
             "BENCH_PR3.json",
    )
    bench_synthesis.add_argument(
        "--output", default=None,
        help="report path (default: BENCH_PR3.json, or BENCH_PR8.json "
             "with --tier aot)",
    )
    bench_synthesis.add_argument(
        "--quick", action="store_true",
        help="smaller workloads (CI perf-smoke)",
    )
    bench_synthesis.add_argument(
        "--tier", choices=("compiled", "aot"), default="compiled",
        help="synthesis tier under test: 'compiled' (Tier-2, PR 3 "
             "report) or 'aot' (Tier-3 generated modules, PR 8 report "
             "with the tier-equivalence check and the gated E1 sweep)",
    )

    aot_gen = sub.add_parser(
        "aot-gen",
        help="emit the Tier-3 generated Python module for a domain's "
             "DSK (deterministic: same DSK -> same source)",
    )
    aot_gen.add_argument(
        "--domain", default="communication",
        help="domain whose DSK to compile (default: communication)",
    )
    aot_gen.add_argument(
        "--output", default="-",
        help="file to write the module source to ('-' for stdout)",
    )
    aot_gen.add_argument(
        "--cache-dir", default=None,
        help="also read/write the disk module cache keyed by DSK_HASH "
             "(the cluster workers' cold-start cache)",
    )

    bench_scale = sub.add_parser(
        "bench-scale",
        help="run the sharded-fabric scale benchmark and write "
             "BENCH_PR4.json",
    )
    bench_scale.add_argument("--output", default="BENCH_PR4.json")
    bench_scale.add_argument(
        "--quick", action="store_true",
        help="smaller workload (CI scale-smoke)",
    )

    bench_migrate = sub.add_parser(
        "bench-migrate",
        help="run the session checkpoint/restore and live-migration "
             "benchmark and write BENCH_PR5.json",
    )
    bench_migrate.add_argument("--output", default="BENCH_PR5.json")
    bench_migrate.add_argument(
        "--quick", action="store_true",
        help="fewer repeats (CI migrate-smoke)",
    )

    bench_ingress = sub.add_parser(
        "bench-ingress",
        help="run the async-ingress admission/shedding benchmark and "
             "write BENCH_PR6.json",
    )
    bench_ingress.add_argument("--output", default="BENCH_PR6.json")
    bench_ingress.add_argument(
        "--quick", action="store_true",
        help="smaller workload, perf gates report-only (CI ingress-smoke)",
    )

    bench_wal = sub.add_parser(
        "bench-wal",
        help="run the durable-WAL kill/recovery and overhead benchmark "
             "and write BENCH_PR7.json",
    )
    bench_wal.add_argument("--output", default="BENCH_PR7.json")
    bench_wal.add_argument(
        "--quick", action="store_true",
        help="fewer repeats, perf gate report-only (CI wal-smoke)",
    )

    bench_cluster = sub.add_parser(
        "bench-cluster",
        help="run the multi-process session-fabric benchmark and write "
             "BENCH_PR9.json",
    )
    bench_cluster.add_argument("--output", default="BENCH_PR9.json")
    bench_cluster.add_argument(
        "--quick", action="store_true",
        help="smaller workload, speedup gate report-only "
             "(CI cluster-smoke)",
    )

    bench_walfabric = sub.add_parser(
        "bench-walfabric",
        help="run the durable-fabric benchmark (standby adoption, "
             "durable-pool E1 overhead, causal-slice replay) and write "
             "BENCH_PR10.json",
    )
    bench_walfabric.add_argument("--output", default="BENCH_PR10.json")
    bench_walfabric.add_argument(
        "--quick", action="store_true",
        help="smaller workload, overhead gate report-only "
             "(CI walfabric-smoke)",
    )
    return parser


_COMMANDS: dict[str, Callable[[argparse.Namespace], int]] = {
    "domains": cmd_domains,
    "export-metamodel": cmd_export_metamodel,
    "export-middleware-model": cmd_export_middleware_model,
    "inspect": cmd_inspect,
    "validate": cmd_validate,
    "conformance": cmd_conformance,
    "run-cml": cmd_run_cml,
    "reproduce": cmd_reproduce,
    "metrics": cmd_metrics,
    "trace": cmd_trace,
    "bench-fabric": cmd_bench_fabric,
    "bench-faults": cmd_bench_faults,
    "bench-synthesis": cmd_bench_synthesis,
    "aot-gen": cmd_aot_gen,
    "bench-scale": cmd_bench_scale,
    "bench-migrate": cmd_bench_migrate,
    "bench-ingress": cmd_bench_ingress,
    "bench-wal": cmd_bench_wal,
    "bench-cluster": cmd_bench_cluster,
    "bench-walfabric": cmd_bench_walfabric,
}


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return _COMMANDS[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
