"""End-to-end tests for the fault-tolerance layer.

The ISSUE acceptance criterion: under the seeded fault-injection
harness (op failure rate >= 10 %) the E5 recovery scenarios complete
with zero unhandled exceptions, breaker transitions are visible in
``repro metrics`` output, and recovery latency lands in
``BENCH_PR2.json``.
"""

from __future__ import annotations

import json

from repro.bench.faults import (
    breaker_outage_demo,
    build_faulty_broker,
    determinism_check,
    run_recovery_episodes,
)
from repro.cli import main
from repro.middleware.broker.autonomic import Symptom
from repro.runtime.clock import VirtualClock


class TestRecoveryUnderFaults:
    def test_e5_survives_seeded_faults_without_exceptions(self):
        report = run_recovery_episodes(
            episodes=5, seed=101, failure_rate=0.15
        )
        assert report["failure_rate"] >= 0.10
        assert report["unhandled_exceptions"] == 0
        assert report["injected_faults"] > 0       # faults really fired
        assert report["retries"] > 0               # and were retried
        assert report["recoveries"] > 0
        latency = report["recovery_latency"]
        assert latency is not None and latency["count"] > 0

    def test_determinism_same_seed_same_logs(self):
        assert determinism_check(seed=9)["replay_matches"] is True


class TestBreakerOutage:
    def test_full_state_walk_and_autonomic_requests(self):
        report = breaker_outage_demo(seed=21)
        walk = [(t["from"], t["to"]) for t in report["transitions"]]
        assert walk == [
            ("closed", "open"), ("open", "half_open"), ("half_open", "closed")
        ]
        assert report["final_state"] == "closed"
        assert report["rejected_while_open"] > 0
        kinds = [r["kind"] for r in report["autonomic_requests"]]
        assert "resource-outage" in kinds           # breaker open symptom
        assert "resource-restored" in kinds         # breaker closed symptom

    def test_breaker_symptom_helper_wires_topic(self):
        symptom = Symptom.for_breaker("net0")
        assert symptom.on_topic == "resource.net0.breaker_open"
        assert symptom.request_kind == "resource-outage"


class TestGuardedBrokerStack:
    def test_guarded_api_degrades_instead_of_raising(self):
        clock = VirtualClock()
        broker, _service, _injector = build_faulty_broker(
            seed=5, failure_rate=1.0, clock=clock
        )
        outcome = broker.call_api_guarded("ncb.open_session", connection="c1")
        assert not outcome.ok
        assert outcome.status in ("failed", "rejected")
        broker.stop()

    def test_stats_expose_breaker_and_retries(self):
        clock = VirtualClock()
        broker, _service, _injector = build_faulty_broker(
            seed=6, failure_rate=0.5, clock=clock
        )
        for _ in range(5):
            broker.call_api_guarded("ncb.probe")
        stats = broker.stats()
        assert "breakers" in stats
        assert stats["breakers"]["net0"] in ("closed", "open", "half_open")
        broker.stop()


class TestBenchFaultsCli:
    def test_bench_faults_writes_report(self, tmp_path, capsys, monkeypatch):
        out = tmp_path / "BENCH_PR2.json"
        monkeypatch.setattr(
            "repro.bench.faults.run_recovery_episodes",
            lambda **kw: run_recovery_episodes(episodes=2, seed=1),
        )
        assert main(["bench", "faults", "--output", str(out)]) == 0
        printed = capsys.readouterr().out
        assert "0 unhandled exceptions" in printed
        report = json.loads(out.read_text())
        assert report["bench"] == "PR2-fault-tolerance"
        assert report["recovery"]["unhandled_exceptions"] == 0
        assert report["recovery"]["recovery_latency"]["count"] > 0
        assert report["determinism"]["replay_matches"] is True
        assert report["breaker_outage"]["final_state"] == "closed"

    def test_metrics_faults_shows_breaker_transitions(self, capsys):
        assert main(["metrics", "--faults"]) == 0
        out = capsys.readouterr().out
        assert "faults.breaker_transition[net0:open]" in out
        assert "faults.breaker_transition[net0:closed]" in out
        assert "faults.retries[net0]" in out
