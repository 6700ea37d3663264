"""Tests for the command-line interface (python -m repro)."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.cli import main


@pytest.fixture
def cvm_model_file(tmp_path, capsys):
    assert main(["export-middleware-model", "communication"]) == 0
    text = capsys.readouterr().out
    path = tmp_path / "cvm.json"
    path.write_text(text)
    return str(path)


class TestDomains:
    def test_lists_all_four(self, capsys):
        assert main(["domains"]) == 0
        out = capsys.readouterr().out
        for domain in ("communication", "microgrid", "smartspace",
                       "crowdsensing"):
            assert domain in out


class TestExport:
    def test_export_mddsm_metamodel(self, capsys):
        assert main(["export-metamodel", "md-dsm"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["name"] == "md-dsm"
        assert "MiddlewareModel" in doc["classes"]

    def test_export_domain_dsml(self, capsys):
        assert main(["export-metamodel", "communication"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["name"] == "cml"

    def test_export_scripts_metamodel(self, capsys):
        assert main(["export-metamodel", "scripts"]) == 0
        assert json.loads(capsys.readouterr().out)["name"] == "control-scripts"

    def test_export_unknown(self, capsys):
        assert main(["export-metamodel", "nope"]) == 2

    def test_export_middleware_model_roundtrips(self, cvm_model_file):
        from repro.middleware.metamodel import middleware_metamodel
        from repro.modeling.serialize import model_from_json

        with open(cvm_model_file) as handle:
            model = model_from_json(handle.read(), middleware_metamodel())
        assert model.roots[0].get("domain") == "communication"

    def test_export_middleware_unknown_domain(self, capsys):
        assert main(["export-middleware-model", "nope"]) == 2


class TestInspectValidate:
    def test_inspect(self, cvm_model_file, capsys):
        assert main(["inspect", cvm_model_file]) == 0
        out = capsys.readouterr().out
        assert "'cvm'" in out
        assert "procedures=" in out

    def test_validate_ok(self, cvm_model_file, capsys):
        assert main(["validate", cvm_model_file]) == 0
        assert "OK" in capsys.readouterr().out

    def test_validate_broken_model(self, cvm_model_file, capsys, tmp_path):
        doc = json.loads(open(cvm_model_file).read())
        del doc["roots"][0]["attrs"]["name"]  # required attribute gone
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        assert main(["validate", str(bad)]) == 1


class TestConformance:
    @pytest.mark.parametrize(
        "domain", ["communication", "microgrid", "smartspace", "crowdsensing"]
    )
    def test_all_shipped_domains_conform(self, domain, capsys):
        assert main(["conformance", domain]) == 0
        assert "OK" in capsys.readouterr().out

    def test_conformance_detects_gap(self, cvm_model_file, capsys, tmp_path):
        doc = json.loads(open(cvm_model_file).read())
        broker = doc["roots"][0]["refs"]["broker"]
        broker["refs"]["actions"] = [
            a for a in broker["refs"]["actions"]
            if a["attrs"]["name"] != "ncb-add-party"
        ]
        bad = tmp_path / "gap.json"
        bad.write_text(json.dumps(doc))
        assert main(["conformance", "communication", "--model", str(bad)]) == 1
        out = capsys.readouterr().out
        assert "ncb.add_party" in out

    def test_conformance_unknown_domain(self):
        assert main(["conformance", "nope"]) == 2


class TestRunCml:
    def test_runs_scenario(self, tmp_path, capsys):
        scenario = tmp_path / "s.cml"
        scenario.write_text(
            "scenario t\nperson a initiator\nperson b\n"
            "connection c a b : audio\n"
        )
        assert main(["run-cml", str(scenario)]) == 0
        out = capsys.readouterr().out
        assert "comm.session.establish" in out
        assert "open_session" in out

    def test_teardown_flag(self, tmp_path, capsys):
        scenario = tmp_path / "s.cml"
        scenario.write_text(
            "scenario t\nperson a initiator\nperson b\nconnection c a b\n"
        )
        assert main(["run-cml", str(scenario), "--teardown"]) == 0
        assert "close_session" in capsys.readouterr().out


class TestBench:
    def test_retired_migrate_suite_is_an_invalid_choice(self):
        """Sessions move only between worker processes; the in-process
        move benchmark is gone from the suite list."""
        src = str(Path(repro.__file__).resolve().parents[1])
        result = subprocess.run(
            [sys.executable, "-m", "repro", "bench", "migrate"],
            capture_output=True, text=True, timeout=60,
            env={**os.environ, "PYTHONPATH": src},
        )
        assert result.returncode == 2
        assert "invalid choice: 'migrate'" in result.stderr


# -- trace --replay over the logs the fabric writes ---------------------------

_COMM_OPS = [
    {"op": "api", "api": "ncb.open_session", "args": {"connection": "c1"}},
    {"op": "api", "api": "ncb.add_party",
     "args": {"connection": "c1", "party": "alice"}},
    {"op": "api", "api": "ncb.add_party",
     "args": {"connection": "c1", "party": "bob"}},
]


def _pool_log(root):
    """A one-shard durable pool: open, shard checkpoint (``covers_all``,
    under the platform's name), two more steps.  Returns the session."""
    from repro.domains.communication.cvm import build_cvm
    from repro.middleware.platform import PlatformPool
    from repro.runtime.durability import DurabilityPolicy
    from repro.sim.network import CommService

    pool = PlatformPool(
        lambda shard: build_cvm(
            service=CommService("net0", op_cost=0.0), bus=shard.bus,
            clock=shard.clock, metrics=shard.metrics,
        ),
        name="trace-pool", shards=1, inline=True,
        durability=DurabilityPolicy(log_root=str(root), fsync=False),
    )
    pool.start()
    try:
        pool.attach_cluster(
            None, apply=lambda platform, key, doc: platform.broker.call_api(
                doc["api"], **doc.get("args", {})))
        for index, doc in enumerate(_COMM_OPS):
            pool.submit_doc("conn-1", doc)
            pool.drain()
            if index == 0:
                pool.checkpoint_now()
    finally:
        pool.stop()
    return "conn-1"


def _worker_backend(root):
    """A durable worker backend that ran the ops on one session."""
    from repro.middleware.cluster import RegistryBackend
    from repro.runtime.durability import DurabilityPolicy

    backend = RegistryBackend(
        durability=DurabilityPolicy(log_root=str(root), fsync=False))
    backend.worker_id = 0
    backend.enable_durability()
    backend.open("w-1", {"domain": "communication", "autonomic": False})
    for doc in _COMM_OPS:
        backend.apply("w-1", doc)
    return backend


def _worker_log(root):
    backend = _worker_backend(root)
    backend.shutdown()
    return "w-1"


def _standby_copy(root):
    """The worker's frames shipped into a coordinator standby copy."""
    from types import SimpleNamespace

    from repro.runtime.cluster import LogShipper

    backend = _worker_backend(root.parent / "worker")
    shipper = LogShipper(SimpleNamespace(handles=[]), root / "standby")
    try:
        assert shipper.receive(0, backend.ship_tail())
    finally:
        shipper.close()
        backend.shutdown()
    return "w-1"


def _log_dir(root):
    """The one directory holding segment files under ``root``."""
    directories = {path.parent for path in root.rglob("*.log")}
    assert len(directories) == 1, directories
    return directories.pop()


def _hashes(directory):
    import hashlib

    return {
        path: hashlib.sha256(path.read_bytes()).hexdigest()
        for path in directory.rglob("*") if path.is_file()
    }


def _last_entry_trace(directory, session):
    from repro.runtime.wal import read_log_directory

    return max(
        doc["sig"]["trace_id"]
        for docs in read_log_directory(directory).values()
        for doc in docs
        if doc["k"] == "entry" and doc["session"] == session
    )


_WRITERS = {"pool": _pool_log, "worker": _worker_log,
            "standby": _standby_copy}


class TestTraceReplay:
    @pytest.mark.parametrize("writer", sorted(_WRITERS))
    def test_plain_replay_reads_the_log_in_place(self, writer, tmp_path,
                                                 capsys):
        session = _WRITERS[writer](tmp_path / "logs")
        directory = _log_dir(tmp_path / "logs")
        before = _hashes(directory)
        code = main(["trace", "--replay", str(directory),
                     "--session", session])
        out = capsys.readouterr().out
        assert code == 0, out
        assert "1 checkpoints" in out
        # the pool checkpointed after the first op: two entries follow
        expected = 2 if writer == "pool" else len(_COMM_OPS)
        assert f"replayed {expected} entries" in out
        assert ", 0 errors" in out
        assert _hashes(directory) == before

    @pytest.mark.parametrize("writer", sorted(_WRITERS))
    def test_slice_replay_reads_the_logs_in_place(self, writer, tmp_path,
                                                  capsys):
        session = _WRITERS[writer](tmp_path / "logs")
        root = tmp_path / "logs"
        trace_id = _last_entry_trace(_log_dir(root), session)
        before = _hashes(root)
        code = main(["trace", "--replay", str(root), "--slice",
                     "--trace-id", str(trace_id)])
        out = capsys.readouterr().out
        assert code == 0, out
        assert "slice reproduced exactly" in out
        assert ", 0 errors" in out
        assert _hashes(root) == before
