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
* ``bench NAME [--quick] [--output PATH]`` — run one experiment suite
  (``fabric``, ``faults``, ``synthesis``, ``aot``, ``scale``,
  ``migrate``, ``ingress``, ``wal``, ``cluster``, ``walfabric``), write
  its ``BENCH_PR*.json`` report, then check it; a failed check exits 1.
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


#: ``repro bench`` suite name -> (module under :mod:`repro.bench`,
#: default report path).  Every suite module exposes ``run(quick)``
#: and ``check(report)``.
BENCH_SUITES: dict[str, tuple[str, str]] = {
    "fabric": ("harness", "BENCH_PR1.json"),
    "faults": ("faults", "BENCH_PR2.json"),
    "aot": ("aot", "BENCH_PR8.json"),
    "scale": ("scale", "BENCH_PR4.json"),
    "migrate": ("migrate", "BENCH_PR5.json"),
    "ingress": ("ingress", "BENCH_PR6.json"),
    "wal": ("wal", "BENCH_PR7.json"),
    "cluster": ("cluster", "BENCH_PR9.json"),
    "walfabric": ("walfabric", "BENCH_PR10.json"),
}


def cmd_bench(args: argparse.Namespace) -> int:
    import importlib

    if not __debug__:
        print("bench checks are assert statements: run without -O",
              file=sys.stderr)
        return 2
    module, default_path = BENCH_SUITES[args.name]
    suite = importlib.import_module(f"repro.bench.{module}")
    report = suite.run(args.quick)
    report.update(python=sys.version.split()[0], quick=args.quick)
    path = args.output or default_path
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=2)
        handle.write("\n")
    print(f"wrote {path}")
    try:
        print(suite.check(report))
    except AssertionError as exc:
        print(f"{args.name} check FAILED: {exc}", file=sys.stderr)
        return 1
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
        "bench",
        help="run one experiment suite, write its BENCH_PR*.json report "
             "and check it",
    )
    bench.add_argument("name", choices=list(BENCH_SUITES))
    bench.add_argument(
        "--quick", action="store_true",
        help="smaller workloads for CI (full-run perf gates report-only)",
    )
    bench.add_argument(
        "--output", default=None,
        help="report path (default: the suite's BENCH_PR*.json)",
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
    "bench": cmd_bench,
}


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return _COMMANDS[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
