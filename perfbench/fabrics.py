"""The two front doors under closed-loop load, and their correctness gates.

``pool-api`` drives :meth:`PlatformPool.submit_doc` on a 2-shard pool
(one CVM platform per shard); ``cluster-api`` and ``cluster-models``
drive :meth:`ProcessCluster.submit` on a 2-worker cluster with the
stock ``default_backend`` and log shipping.  Both keep their defaults:
write-ahead durability on, Tier-2 dispatch, structural service cost
(``op_cost=0``).  Every log directory lives under one run-private
directory inside the checkout (:class:`RunDir`).
"""

from __future__ import annotations

import gc
import os
import shutil
import signal
import statistics
import tempfile
import threading
import time
from collections import Counter
from pathlib import Path
from typing import Any, Callable

from perfbench import workloads
from perfbench.loadgen import Client, ClosedLoop, LoopResult
from perfbench.tracing import (
    TraceData,
    Tracer,
    merge,
    op_log_length,
    wrap_durability,
    wrap_platform,
)

__all__ = ["RunDir", "HygieneError", "run_workload", "WORKLOADS"]

_clock = time.perf_counter_ns

SHARDS = 2
WORKERS = 2
WARMUP_S = 1.0
#: the window is measured in slices of this length.  The end-to-end
#: figures leave out the slices in which the hypervisor stole more than
#: ``STEAL_LIMIT`` of this machine's CPU time (at most half of them): on
#: a shared host, steal comes and goes for seconds to minutes and can
#: halve the fabric's throughput while it lasts.  Steal is a property of
#: the host, not of the fabric, so leaving slices out by it hides no
#: tail the fabric itself causes.
SLICE_S = 2.0
STEAL_LIMIT = 0.03
MIGRATE_EVERY_S = 0.25
POOL_CLIENTS = 16
POOL_KEYS = 320
CLUSTER_API_SESSIONS = 64
MODEL_SESSIONS = 16
#: set-ups per measured run; ``setup_s`` is their median
POOL_SETUPS = 25
CLUSTER_SETUPS = 5


class HygieneError(RuntimeError):
    """A worker process or directory outlived its run."""


class RunDir:
    """One run-private directory under ``<checkout>/.perfbench``.

    It becomes the process's temp directory (and, through the
    environment, every spawned worker's), so even a log root a component
    creates on its own lands here.  :meth:`close` fails the run if
    anything besides the directories the run named is left in it, then
    removes it.
    """

    def __init__(self, checkout: Path) -> None:
        base = checkout / ".perfbench"
        base.mkdir(exist_ok=True)
        self.path = Path(tempfile.mkdtemp(prefix=f"run-{os.getpid()}-",
                                          dir=base))
        self.named: set[str] = set()
        self._saved = (os.environ.get("TMPDIR"), tempfile.tempdir)
        os.environ["TMPDIR"] = str(self.path)
        tempfile.tempdir = str(self.path)

    def sub(self, name: str) -> Path:
        self.named.add(name)
        return self.path / name

    def close(self) -> None:
        stray = sorted(
            entry.name for entry in self.path.iterdir()
            if entry.name not in self.named)
        env, tempdir = self._saved
        if env is None:
            os.environ.pop("TMPDIR", None)
        else:
            os.environ["TMPDIR"] = env
        tempfile.tempdir = tempdir
        shutil.rmtree(self.path, ignore_errors=True)
        if self.path.exists():
            raise HygieneError(f"run directory {self.path} not removed")
        if stray:
            raise HygieneError(f"directories outlived the fabric: {stray}")


# -- process accounting ---------------------------------------------------------


def rss_mb(pid: int) -> float:
    with open(f"/proc/{pid}/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmRSS:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmRSS for pid {pid}")


_TICK_S = 1.0 / os.sysconf("SC_CLK_TCK")


def cpu_s(pid: int) -> float:
    """User + system CPU seconds of ``pid`` (all its threads)."""
    if pid == os.getpid():
        times = os.times()
        return times.user + times.system
    with open(f"/proc/{pid}/stat", encoding="ascii") as handle:
        fields = handle.read().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) * _TICK_S


def host_ticks() -> tuple[int, int]:
    """(steal, total) CPU ticks of the whole machine: time the hypervisor
    gave this machine's CPUs to someone else shows as steal."""
    with open("/proc/stat", encoding="ascii") as handle:
        fields = [int(field) for field in handle.readline().split()[1:]]
    return fields[7] if len(fields) > 7 else 0, sum(fields[:8])


def child_pids() -> list[int]:
    """Processes whose parent is this one, zombies included."""
    me, found = os.getpid(), []
    for entry in Path("/proc").iterdir():
        if not entry.name.isdigit():
            continue
        try:
            stat = (entry / "stat").read_text(encoding="ascii")
        except OSError:  # it ended while we looked
            continue
        if int(stat.rsplit(")", 1)[1].split()[1]) == me:
            found.append(int(entry.name))
    return found


def stop_children() -> None:
    """Stop every process this run started and wait for each to end.

    Any child still running, other than ``multiprocessing``'s resource
    tracker, is killed, reaped and fails the run.  Spawn-started workers
    make ``multiprocessing`` launch that tracker, which is built to
    outlive the process that launched it and ignores SIGTERM; it stops
    once every holder of its pipe has closed it, so it goes last.
    """
    from multiprocessing import resource_tracker

    tracker = resource_tracker._resource_tracker
    stray = []
    for pid in child_pids():
        if pid == tracker._pid:
            continue
        try:
            if os.waitpid(pid, os.WNOHANG) != (0, 0):
                continue  # it had already ended: now reaped
            stray.append(pid)
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        except (ChildProcessError, ProcessLookupError):
            continue
    tracker._stop()
    if stray:
        raise HygieneError(f"process(es) {stray} outlived the run")


def tree_bytes(path: Path) -> int:
    return sum(entry.stat().st_size for entry in path.rglob("*")
               if entry.is_file())


# -- the pool front door -----------------------------------------------------------


def apply_pool_doc(platform: Any, key: str, doc: dict) -> Any:
    """One doc on a shard's CVM platform (``RegistryBackend._dispatch``'s
    vocabulary for the communication domain)."""
    op = doc["op"]
    broker = platform.broker
    if op == "api":
        return broker.call_api(doc["api"], **doc["args"])
    session_id = broker.state.get(f"session:{doc['conn']}")
    if op == "fail":
        broker.resources.get("net0").inject_failure(session_id)
        return None
    if op == "recover":
        return broker.call_api("ncb.recover_session", session=session_id)
    raise ValueError(f"unknown op {op!r}")


def _cvm(bus: Any = None, clock: Any = None, metrics: Any = None) -> Any:
    from repro.domains.communication.cvm import build_cvm
    from repro.sim.network import CommService

    platform = build_cvm(service=CommService("net0", op_cost=0.0),
                         bus=bus, clock=clock, metrics=metrics)
    # recovery runs through the explicit recover steps, as in E1
    platform.broker.autonomic.enabled = False
    return platform


class PoolFabric:
    """A started 2-shard PlatformPool with its WAL under the run dir."""

    def __init__(self, run_dir: RunDir, label: str) -> None:
        from repro.middleware.platform import PlatformPool
        from repro.runtime.durability import DurabilityPolicy

        self.wal_root = run_dir.sub(f"pool-wal-{label}")
        self.load_ns: list[int] = []
        began = _clock()

        def factory(shard: Any) -> Any:
            start = _clock()
            platform = _cvm(shard.bus, shard.clock, shard.metrics)
            self.load_ns.append(_clock() - start)
            return platform

        self.pool = PlatformPool(
            factory, shards=SHARDS, name=f"perfbench-{label}",
            durability=DurabilityPolicy(log_root=str(self.wal_root)))
        self.pool.start()
        self.pool.attach_cluster(None, apply=apply_pool_doc)
        self.setup_s = (_clock() - began) / 1e9
        self.pids = [os.getpid()]

    def submit(self, key: str, doc: dict) -> Any:
        return self.pool.submit_doc(key, doc)

    def services(self) -> list[Any]:
        return [platform.broker.resources.get("net0")
                for platform in self.pool.platforms]

    def wals(self) -> list[Any]:
        return [shard.durability.wal for shard in self.pool.runtime.shards]

    def stop(self) -> None:
        self.pool.stop()


# -- the cluster front door ----------------------------------------------------------


class ClusterFabric:
    """A started 2-worker ProcessCluster with shipping, sessions open."""

    def __init__(self, run_dir: RunDir, label: str,
                 sessions: dict[str, dict], *, traced: bool = False) -> None:
        from repro.runtime.cluster import ProcessCluster

        options: dict[str, Any] = {
            "wal_dir": str(run_dir.sub(f"worker-wal-{label}"))}
        spec = "repro.middleware.cluster:default_backend"
        if traced:
            self.trace_dir = run_dir.sub(f"trace-{label}")
            self.trace_dir.mkdir()
            options["perfbench_trace_dir"] = str(self.trace_dir)
            spec = "perfbench.tracing:traced_backend"
        began = _clock()
        self.cluster = ProcessCluster(WORKERS, backend=spec,
                                      name=f"perfbench-{label}",
                                      options=options)
        self.ship_dir = run_dir.sub(f"ship-{label}")
        self.shipper = self.cluster.build_shipper(self.ship_dir)
        try:
            self.cluster.start()
            self.spawn_s = (_clock() - began) / 1e9
            opens = [self.cluster.open_session(key, doc)
                     for key, doc in sessions.items()]
            for future in opens:
                future.result(120).unwrap()
        except BaseException:
            self.stop()
            raise
        self.setup_s = (_clock() - began) / 1e9
        self.pids = [os.getpid()] + [h.pid for h in self.cluster.handles]

    def submit(self, key: str, doc: dict) -> Any:
        return self.cluster.submit(key, doc)

    def stop(self) -> None:
        self.cluster.stop()
        alive = [handle.index for handle in self.cluster.handles
                 if handle.process is not None and handle.process.is_alive()]
        if alive:
            raise HygieneError(f"worker(s) {alive} outlived cluster.stop()")

    def op_log_bytes(self, key: str) -> bytes:
        (log,) = self.cluster.describe(key, timeout=120)["op_logs"].values()
        return "\n".join(log).encode("utf-8")


class Migrator(threading.Thread):
    """Live-migrates one session to the other worker every interval.

    Moves alternate direction, and each return move takes a session of
    the domain that left, so both workers keep the same domain mix; the
    victims are drawn from the seed.
    """

    def __init__(self, fabric: ClusterFabric, domains: dict[str, str],
                 seed: int) -> None:
        super().__init__(name="perfbench-migrator", daemon=True)
        import random

        self.fabric = fabric
        self.domains = domains
        self.rng = random.Random(f"{seed}:victims")
        self.pauses_ms: list[float] = []
        self.error: BaseException | None = None
        self._halt = threading.Event()

    def run(self) -> None:
        cluster = self.fabric.cluster
        source, domain = 0, None
        try:
            while not self._halt.wait(MIGRATE_EVERY_S):
                homed = sorted(
                    key for key in self.domains
                    if cluster.worker_for(key) == source
                    and (domain is None or self.domains[key] == domain))
                victim = self.rng.choice(homed)
                began = time.perf_counter()
                cluster.migrate(victim, 1 - source, timeout=60)
                self.pauses_ms.append((time.perf_counter() - began) * 1e3)
                domain = None if domain else self.domains[victim]
                source = 1 - source
        except BaseException as exc:  # reported by the run, never lost
            self.error = exc

    def stop(self) -> None:
        self._halt.set()
        self.join(120)
        if self.is_alive():
            raise RuntimeError("migration thread did not stop")


# -- workloads -----------------------------------------------------------------------


class Workload:
    """One workload: how to set up, which clients, how to check."""

    name = ""
    cluster = False

    def __init__(self, seed: int) -> None:
        self.seed = seed

    def build(self, run_dir: RunDir, label: str, traced: bool) -> Any:
        raise NotImplementedError

    def clients(self) -> list[Client]:
        raise NotImplementedError

    def check(self, fabric: Any, clients: list[Client]) -> str:
        """Empty when the fabric's outputs match the inline golden."""
        raise NotImplementedError


class PoolApi(Workload):
    name = "pool-api"

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        self.keys = workloads.balanced_keys("p", POOL_KEYS, SHARDS)

    def build(self, run_dir: RunDir, label: str, traced: bool) -> PoolFabric:
        return PoolFabric(run_dir, label)

    def clients(self) -> list[Client]:
        share = len(self.keys) // POOL_CLIENTS
        return [
            Client(self.keys[index * share:(index + 1) * share],
                   lambda key: workloads.api_session_docs(self.seed, key))
            for index in range(POOL_CLIENTS)
        ]

    def check(self, fabric: PoolFabric, clients: list[Client]) -> str:
        """Each shard's op_log, as a multiset, against an inline replay
        of the same per-session step sequences on a fresh platform."""
        sent = {key: n for client in clients for key, n in client.sent.items()}
        for index, service in enumerate(fabric.services()):
            platform = _cvm()
            try:
                for key in self.keys:
                    if fabric.pool.shard_for(key).index != index:
                        continue
                    stream = workloads.api_session_docs(self.seed, key)
                    for _ in range(sent[key]):
                        apply_pool_doc(platform, key, next(stream))
                golden = Counter(platform.broker.resources.get("net0").op_log)
            finally:
                platform.stop()
            if Counter(service.op_log) != golden:
                return f"shard {index} op_log differs from the inline replay"
        return ""


class ClusterApi(Workload):
    name = "cluster-api"
    cluster = True
    key_prefix = "a"
    sessions = CLUSTER_API_SESSIONS

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        self.keys = workloads.balanced_keys(self.key_prefix, self.sessions,
                                            WORKERS)

    def open_doc(self, key: str) -> dict:
        return {"domain": "communication", "autonomic": False}

    def build(self, run_dir: RunDir, label: str,
              traced: bool) -> ClusterFabric:
        return ClusterFabric(
            run_dir, label, {key: self.open_doc(key) for key in self.keys},
            traced=traced)

    def stream(self, key: str) -> Any:
        return workloads.api_session_docs(self.seed, key)

    def clients(self) -> list[Client]:
        return [Client([key], self.stream) for key in self.keys]

    def check(self, fabric: ClusterFabric, clients: list[Client]) -> str:
        """Each session's op_log, byte for byte, against an inline
        ``RegistryBackend`` replay of that session's doc sequence."""
        from repro.middleware.cluster import default_backend

        golden = default_backend()
        for client in clients:
            (key,) = client.keys
            golden.open(key, self.open_doc(key))
            stream = self.stream(key)
            for _ in range(client.sent[key]):
                golden.apply(key, next(stream))
            (log,) = golden.describe(key)["op_logs"].values()
            golden.close(key)
            if fabric.op_log_bytes(key) != "\n".join(log).encode("utf-8"):
                return f"session {key} op_log differs from the inline replay"
        return ""


class ClusterModels(ClusterApi):
    name = "cluster-models"
    key_prefix = "m"
    sessions = MODEL_SESSIONS

    def __init__(self, seed: int) -> None:
        from repro.middleware.cluster import default_registry

        super().__init__(seed)
        registry = default_registry()
        self.domains = workloads.model_domains(
            seed, self.keys, registry.names(), WORKERS)
        self.docs = {domain: workloads.model_docs(registry, domain)
                     for domain in registry.names()}

    def open_doc(self, key: str) -> dict:
        return {"domain": self.domains[key], "autonomic": False}

    def stream(self, key: str) -> Any:
        phase1, phase2 = self.docs[self.domains[key]]
        while True:
            yield phase1
            yield phase2

    def check(self, fabric: ClusterFabric, clients: list[Client]) -> str:
        """As :meth:`ClusterApi.check`; sessions of one domain share one
        doc sequence, so one inline replay per domain serves them all
        (a session's golden op_log is the replay's prefix after as many
        steps as the session ran)."""
        from repro.middleware.cluster import default_backend

        sent = {key: n for client in clients for key, n in client.sent.items()}
        golden = default_backend()
        for domain in sorted(set(self.domains.values())):
            keys = [key for key in self.keys if self.domains[key] == domain]
            golden.open(domain, {"domain": domain, "autonomic": False})
            stream = self.stream(keys[0])
            lengths = [0]
            for _ in range(max(sent[key] for key in keys)):
                golden.apply(domain, next(stream))
                lengths.append(len(golden.sessions[domain].dsk.resources[0]
                                   .op_log))
            (log,) = golden.describe(domain)["op_logs"].values()
            golden.close(domain)
            for key in keys:
                expected = "\n".join(log[:lengths[sent[key]]]).encode("utf-8")
                if fabric.op_log_bytes(key) != expected:
                    return f"session {key} op_log differs from the inline replay"
        return ""


WORKLOADS = {cls.name: cls for cls in (PoolApi, ClusterModels, ClusterApi)}


# -- one measured run ----------------------------------------------------------------


def _pctl(values: list[float], q: float) -> float:
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


class Phase:
    """Everything one set-up + closed-loop window produced."""

    def __init__(self) -> None:
        self.loop: LoopResult | None = None
        self.setups_s: list[float] = []
        self.spawn_s = 0.0
        self.load_ms: list[float] = []
        self.rss_mb = 0.0
        #: (coordinator, workers) CPU seconds per window slice
        self.cpu: list[tuple[float, float]] = []
        #: share of the machine's CPU time the hypervisor stole, per slice
        self.steal: list[float] = []
        self.pauses_ms: list[float] = []
        self.check_error = ""
        self.wal: dict[str, int] = {}
        self.trace: TraceData | None = None
        #: op_log entries the traced fabric's steps appended
        self.op_log_growth = 0
        self.op_log_start = 0
        self.ops: Counter = Counter()


def run_phase(workload: Workload, run_dir: RunDir, *, seconds: float,
              setups: int, traced: bool, label: str) -> Phase:
    """Set up half of ``setups`` times (keeping the last fabric), run the
    closed loop for ``WARMUP_S`` + ``seconds``, drain, check, tear down,
    then set up (and tear down) the other half."""
    phase = Phase()
    fabric: Any = None
    tracer = Tracer() if traced else None
    restore: list[Callable[[], None]] = []
    migrator = None
    before = (setups + 1) // 2
    try:
        for index in range(before):
            if fabric is not None:
                fabric.stop()
                fabric = None
            # start each set-up from the same heap state: a collection
            # left pending by the previous one must not land in its timing
            gc.collect()
            fabric = workload.build(run_dir, f"{label}{index}", traced)
            phase.setups_s.append(fabric.setup_s)
        phase.spawn_s = getattr(fabric, "spawn_s", 0.0)
        if isinstance(fabric, PoolFabric):
            phase.load_ms = [ns / 1e6 for ns in fabric.load_ns]
        phase.rss_mb = sum(rss_mb(pid) for pid in fabric.pids)
        submit = fabric.submit
        if tracer is not None:
            submit = _instrument(fabric, tracer, phase, restore)
        if isinstance(workload, ClusterModels):
            migrator = Migrator(fabric, workload.domains, workload.seed)
        clients = workload.clients()
        slices = max(1, round(seconds / SLICE_S))
        cpu_marks: list[list[float]] = []
        ticks: list[tuple[int, int]] = []

        def on_mark(index: int) -> None:
            edge = "start" if index == 0 else "end" if index == slices else ""
            if migrator is not None and edge == "start":
                migrator.start()
            elif migrator is not None and edge == "end":
                migrator.stop()
            cpu_marks.append([cpu_s(pid) for pid in fabric.pids])
            ticks.append(host_ticks())
            if tracer is not None and edge:
                _wal_marks(fabric, phase, edge)

        loop = ClosedLoop(submit, clients, slices=slices, on_mark=on_mark,
                          keep_outcomes=traced and workload.cluster)
        phase.loop = loop.run(WARMUP_S, seconds)
        if migrator is not None:
            if migrator.error is not None:
                raise migrator.error
            phase.pauses_ms = migrator.pauses_ms
        phase.cpu = [(end[0] - start[0], sum(end[1:]) - sum(start[1:]))
                     for start, end in zip(cpu_marks, cpu_marks[1:])]
        phase.steal = [(end[0] - start[0]) / max(1, end[1] - start[1])
                       for start, end in zip(ticks, ticks[1:])]
        phase.check_error = workload.check(fabric, clients)
        phase.ops = sum((client.ops for client in clients), Counter())
        if traced:
            phase.op_log_growth = _op_log_growth(fabric, phase)
    finally:
        try:
            if migrator is not None and migrator.is_alive():
                migrator.stop()
        finally:
            try:
                if fabric is not None:
                    fabric.stop()
            finally:
                for undo in restore:
                    undo()
    # set-ups at both ends of the run: the host's speed drifts over
    # seconds, and one burst of set-ups would sample a single moment of it
    for index in range(before, setups):
        gc.collect()
        extra = workload.build(run_dir, f"{label}{index}", traced)
        extra.stop()
        phase.setups_s.append(extra.setup_s)
    if tracer is not None:
        parts = [tracer.data()]
        if isinstance(fabric, ClusterFabric):
            parts += [TraceData.load(path)
                      for path in sorted(fabric.trace_dir.glob("*.bin"))]
        phase.trace = merge(parts)
    return phase


def _op_log_growth(fabric: Any, phase: Phase) -> int:
    if isinstance(fabric, PoolFabric):
        return op_log_length(fabric.services()) - phase.op_log_start
    return sum(outcome.value["op_log_growth"]
               for _, _, outcome in phase.loop.outcomes if outcome.ok)


def _wal_marks(fabric: Any, phase: Phase, edge: str) -> None:
    """WAL syncs and bytes at a window edge (traced run only)."""
    if isinstance(fabric, PoolFabric):
        wals = fabric.wals()
        phase.wal[f"syncs_{edge}"] = sum(wal.syncs for wal in wals)
        for wal in wals:
            wal.sync()
        phase.wal[f"bytes_{edge}"] = tree_bytes(fabric.wal_root)
    else:
        for index in range(WORKERS):
            fabric.shipper.log_for(index).sync()
        phase.wal[f"bytes_{edge}"] = tree_bytes(fabric.ship_dir)


def _instrument(fabric: Any, tracer: Tracer, phase: Phase,
                restore: list) -> Callable:
    """Wrap the coordinator-side layers; returns the traced submit."""
    if isinstance(fabric, PoolFabric):
        return _instrument_pool(fabric, tracer, phase)
    import repro.runtime.cluster as runtime_cluster
    from repro.runtime.wal import FRAME_HEADER_SIZE

    encode = runtime_cluster.encode_frame_doc
    decode_header = runtime_cluster.decode_frame_header

    def encode_frame_doc(doc: Any, **kwargs: Any) -> bytes:
        frame = encode(doc, **kwargs)
        tracer.sample("frame.bytes", len(frame))
        return frame

    def decode_frame_header(header: bytes) -> tuple[int, int]:
        length, crc = decode_header(header)
        tracer.sample("frame.bytes", length + FRAME_HEADER_SIZE)
        return length, crc

    def undo() -> None:
        runtime_cluster.encode_frame_doc = encode
        runtime_cluster.decode_frame_header = decode_header

    runtime_cluster.encode_frame_doc = encode_frame_doc
    runtime_cluster.decode_frame_header = decode_frame_header
    restore.append(undo)
    receive = tracer.span("ship.receive", fabric.shipper.receive)

    def ship_receive(index: int, frames: list) -> None:
        tracer.sample("ship.frames", len(frames))
        receive(index, frames)

    fabric.shipper.receive = ship_receive
    return fabric.submit


def _instrument_pool(fabric: PoolFabric, tracer: Tracer,
                     phase: Phase) -> Callable:
    stamps: dict[str, int] = {}
    fabric.pool.attach_cluster(
        None, apply=tracer.span("backend.dispatch", apply_pool_doc))
    for shard, platform in zip(fabric.pool.runtime.shards,
                               fabric.pool.platforms):
        resources = list(platform.broker.resources)
        wrap_platform(tracer, platform, resources)
        durability = shard.durability
        wrap_durability(tracer, durability)
        execute = durability.execute
        phase.op_log_start += op_log_length(resources)

        def traced_execute(session: str, *args: Any,
                           _execute: Callable = execute,
                           **kwargs: Any) -> Any:
            tracer.sample("sharded.wait", _clock() - stamps[session])
            return _execute(session, *args, **kwargs)

        durability.execute = traced_execute

    def submit(key: str, doc: dict) -> Any:
        stamps[key] = _clock()
        return fabric.pool.submit_doc(key, doc)

    return submit


def run_workload(workload: Workload, checkout: Path, *, seconds: float,
                 trace: bool) -> dict[str, Any]:
    """One benchmark invocation; returns the phases it ran."""
    run_dir = RunDir(checkout)
    phases: dict[str, Phase] = {}
    try:
        setups = CLUSTER_SETUPS if workload.cluster else POOL_SETUPS
        if trace:
            half = seconds / 2.0
            phases["base"] = run_phase(workload, run_dir, seconds=half,
                                       setups=1, traced=False, label="b")
            phases["traced"] = run_phase(workload, run_dir, seconds=half,
                                         setups=1, traced=True, label="t")
        else:
            phases["base"] = run_phase(workload, run_dir, seconds=seconds,
                                       setups=setups, traced=False,
                                       label="s")
    finally:
        try:
            run_dir.close()
        finally:
            stop_children()
    if trace:
        # the spans outlive the run directory: the last traced run of
        # each workload stays for offline inspection
        phases["traced"].trace.dump(
            checkout / ".perfbench" / f"trace-{workload.name}.bin")
    return phases


def slice_stats(phase: Phase) -> list[dict[str, Any]]:
    """Throughput, latencies, CPU per step and host steal of each slice."""
    loop = phase.loop
    rows = []
    finished, latencies = loop.finished_ns, loop.latencies_ns
    for index, (start, end) in enumerate(zip(loop.marks, loop.marks[1:])):
        inside = sorted(latencies[row] / 1e6 for row in range(len(finished))
                        if start <= finished[row] < end)
        coordinator, workers = phase.cpu[index]
        rows.append({
            "latencies_ms": inside,
            "steal": phase.steal[index],
            "steps_per_s": len(inside) / ((end - start) / 1e9),
            "p50_ms": statistics.median(inside),
            "p99_ms": _pctl(inside, 0.99),
            "cpu_us_per_step": (coordinator + workers) / len(inside) * 1e6,
        })
    return rows


def calm_slices(rows: list[dict[str, Any]]) -> list[dict[str, Any]]:
    """The slices whose host steal is at most ``STEAL_LIMIT``, or at most
    the run's median steal if that is higher (so half of them, at least)."""
    limit = max(STEAL_LIMIT, statistics.median(row["steal"] for row in rows))
    return [row for row in rows if row["steal"] <= limit]


def end_to_end(phase: Phase) -> dict[str, float]:
    """Throughput and CPU per step as medians over the calm slices;
    latency percentiles pooled over every step those slices completed."""
    calm = calm_slices(slice_stats(phase))
    latencies = sorted(ms for row in calm for ms in row["latencies_ms"])

    def median(key: str) -> float:
        return statistics.median(row[key] for row in calm)

    return {
        "steps_per_s": median("steps_per_s"),
        "step_p50_ms": statistics.median(latencies),
        "step_p99_ms": _pctl(latencies, 0.99),
        "setup_s": statistics.median(phase.setups_s),
        "rss_mb": phase.rss_mb,
        "cpu_us_per_step": median("cpu_us_per_step"),
    }
