"""Tests for the benchmark harness utilities themselves."""

import pytest

from repro.bench.harness import (
    STATISTIC,
    Measurement,
    ResultTable,
    fresh_handcrafted_broker,
    fresh_model_based_broker,
    measure,
    paired_overhead,
)
from repro.bench.loc import (
    comment_ratio,
    count_callable_loc,
    count_source_loc,
    count_source_tokens,
    loc_report,
)
from repro.bench.repo_factory import (
    ROOT_CLASSIFIER,
    build_generator,
    build_repository,
)
from repro.bench.workloads import (
    COMMUNICATION_SCENARIOS,
    adaptation_wiring,
    adaptation_wiring_reliable,
    scenario_names,
)


class TestWorkloads:
    def test_eight_scenarios(self):
        assert len(COMMUNICATION_SCENARIOS) == 8
        assert scenario_names() == list(COMMUNICATION_SCENARIOS)

    def test_scenarios_are_well_formed(self):
        for name, steps in COMMUNICATION_SCENARIOS.items():
            assert steps, name
            for step in steps:
                assert step[0] in ("api", "fail", "recover"), (name, step)

    def test_failure_scenario_has_recovery(self):
        tags = [s[0] for s in COMMUNICATION_SCENARIOS["failure-recovery"]]
        assert "fail" in tags and "recover" in tags
        assert tags.index("fail") < tags.index("recover")

    def test_reliable_wiring_extends_fast_wiring(self):
        fast = adaptation_wiring()
        reliable = adaptation_wiring_reliable()
        assert set(fast) == set(reliable)
        assert len(reliable["comm.stream.open"]) > len(fast["comm.stream.open"])
        assert reliable["comm.stream.open"][0][0] == "ncb.probe"


class TestRunners:
    def test_both_factories_replay_all_scenarios(self):
        for factory in (fresh_model_based_broker, fresh_handcrafted_broker):
            broker, service, runner = factory()
            service.op_cost = 0.0
            for steps in COMMUNICATION_SCENARIOS.values():
                runner.run(steps)
            assert runner.steps_run == sum(
                len(s) for s in COMMUNICATION_SCENARIOS.values()
            )

    def test_unknown_step_tag_rejected(self):
        _b, _s, runner = fresh_handcrafted_broker()
        with pytest.raises(ValueError, match="unknown scenario step"):
            runner.run([("explode",)])

    def test_model_based_lean_flag(self):
        broker, _service, _runner = fresh_model_based_broker(lean=True)
        assert broker.autonomic.enabled is False


class TestMeasurement:
    def test_measure_statistics(self):
        measurement = measure("m", lambda: sum(range(100)), repeat=4)
        assert len(measurement.samples) == 4
        assert measurement.minimum <= measurement.mean
        assert measurement.median >= 0
        assert measurement.total == pytest.approx(sum(measurement.samples))

    def test_ratio(self):
        a = Measurement("a", samples=[2.0, 2.0])
        b = Measurement("b", samples=[1.0, 1.0])
        assert a.ratio_to(b) == 2.0


class TestPairedOverhead:
    """The one overhead statistic, driven by fake timers (no wall clock)."""

    def _timers(self, bare_samples, treated_samples):
        order = []
        bare_iter, treated_iter = iter(bare_samples), iter(treated_samples)

        def bare():
            order.append("bare")
            return next(bare_iter)

        def treated():
            order.append("treated")
            return next(treated_iter)

        return bare, treated, order

    def test_pair_order_alternates(self):
        bare, treated, order = self._timers([1.0] * 4, [1.0] * 4)
        paired_overhead(bare, treated, pairs=4)
        assert order == [
            "bare", "treated",
            "treated", "bare",
            "bare", "treated",
            "treated", "bare",
        ]

    def test_median_of_ratios_and_quartiles(self):
        # pair ratios - 1: 0.3, 0.1, 0.4, 0.2 (deliberately unsorted)
        bare, treated, _order = self._timers(
            [2.0, 1.0, 1.0, 2.0], [2.6, 1.1, 1.4, 2.4]
        )
        result = paired_overhead(bare, treated, pairs=4)
        assert result["statistic"] == STATISTIC == "median of paired ratios"
        assert result["pairs"] == 4
        assert result["overhead_pct"] == pytest.approx(25.0)
        # inclusive quartiles of [0.1, 0.2, 0.3, 0.4]
        assert result["p25_pct"] == pytest.approx(17.5)
        assert result["p75_pct"] == pytest.approx(32.5)
        # medians of the bare samples and of the per-pair deltas
        assert result["bare_us_per_step"] == pytest.approx(1.5e6)
        assert result["delta_us_per_step"] == pytest.approx(0.4e6)

    def test_median_ignores_one_contaminated_pair(self):
        bare, treated, _order = self._timers(
            [1.0, 1.0, 1.0], [1.05, 3.0, 1.05]
        )
        result = paired_overhead(bare, treated, pairs=3)
        assert result["overhead_pct"] == pytest.approx(5.0)

    def test_needs_two_pairs(self):
        with pytest.raises(ValueError, match="two pairs"):
            paired_overhead(lambda: 1.0, lambda: 1.0, pairs=1)


class TestResultTable:
    def test_render(self):
        table = ResultTable("T", ["name", "value"])
        table.add("x", 1.23456)
        table.add("longer-name", 2)
        text = table.render()
        assert "== T ==" in text
        assert "1.235" in text  # float formatting
        assert "longer-name" in text

    def test_cell_count_checked(self):
        table = ResultTable("T", ["a", "b"])
        with pytest.raises(ValueError):
            table.add("only-one")

    def test_empty_table_renders(self):
        assert "== T ==" in ResultTable("T", ["a"]).render()


class TestLocAccounting:
    def test_count_source_loc_excludes_noise(self):
        source = (
            '"""module docstring\nspanning lines\n"""\n'
            "\n"
            "# a comment\n"
            "x = 1\n"
            "def f():\n"
            '    """doc"""\n'
            "    return x\n"
        )
        assert count_source_loc(source) == 3  # x = 1, def, return

    def test_tokens_are_formatting_independent(self):
        dense = "d = {'a': 1, 'b': 2}\n"
        sparse = "d = {\n    'a': 1,\n    'b': 2\n}\n"
        assert count_source_tokens(dense) == count_source_tokens(sparse)
        assert count_source_loc(dense) != count_source_loc(sparse)

    def test_count_callable(self):
        assert count_callable_loc(scenario_names) >= 2

    def test_comment_ratio(self):
        assert comment_ratio("# only a comment\n") > 0
        assert comment_ratio("x = 1\n") == 0

    def test_loc_report_shape(self):
        report = loc_report()
        assert set(report) == {
            "handcrafted_loc", "model_based_loc", "reduction_loc",
            "handcrafted_tokens", "model_based_tokens", "reduction_tokens",
        }
        # E4's asserted shape: token reduction positive
        assert report["reduction_tokens"] > 0


class TestRepoFactory:
    def test_exact_count_and_closure(self):
        for count in (24, 100, 250):
            repository = build_repository(procedures=count)
            assert len(repository) == count
            assert repository.check_closure() == []

    def test_root_resolvable(self):
        generator = build_generator(build_repository(procedures=100))
        model = generator.generate(ROOT_CLASSIFIER)
        assert model.size() >= 1

    def test_too_few_procedures_rejected(self):
        with pytest.raises(ValueError):
            build_repository(procedures=3, depth=4)

    def test_deterministic(self):
        a = build_repository(procedures=60)
        b = build_repository(procedures=60)
        assert sorted(p.name for p in a) == sorted(p.name for p in b)
