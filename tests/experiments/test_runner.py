"""Tests for the experiment harness."""

import pytest

from repro.experiments import (CHECKS, BenchmarkRow, ExperimentConfig,
                               run_benchmark_row, run_one_case, run_table)
from repro.generators import figure2b
from repro.jobs.worker import clear_caches

TINY = ExperimentConfig(selections=1, errors=3, patterns=100, seed=7,
                        benchmarks=["alu4"])


class TestRunOneCase:
    def test_all_checks_reported(self):
        spec, partial = figure2b()
        results = run_one_case(spec, partial, CHECKS, patterns=100,
                               seed=0)
        assert set(results) == set(CHECKS)
        assert not results["0,1,X"].error_found
        assert results["loc."].error_found
        assert results["ie"].error_found

    def test_stats_present(self):
        spec, partial = figure2b()
        results = run_one_case(spec, partial, ("loc.", "oe"), 10, seed=0)
        for result in results.values():
            assert "impl_nodes" in result.stats
            assert result.stats["peak_nodes"] > 0


class TestRunBenchmarkRow:
    def test_row_shape_and_monotonicity(self):
        config = ExperimentConfig(selections=2, errors=4, patterns=200,
                                  seed=3)
        row = run_benchmark_row("alu4", config)
        assert row.cases == 8
        assert row.inputs == 14 and row.outputs == 8
        assert row.spec_nodes > 0
        ratios = [row.detection_ratio(c) for c in CHECKS]
        # aggregate detection hierarchy (strict per-case property)
        assert ratios[0] <= ratios[1] <= ratios[2] <= ratios[3] \
            <= ratios[4]
        for check in CHECKS:
            assert row.runtime[check] >= 0.0

    def test_deterministic_in_seed(self):
        config = ExperimentConfig(selections=1, errors=4, patterns=50,
                                  seed=11)
        r1 = run_benchmark_row("alu4", config)
        clear_caches()  # rebuild the spec and partials from scratch
        r2 = run_benchmark_row("alu4", config)
        assert r1.detected == r2.detected

    def test_progress_callback(self):
        seen = []
        config = ExperimentConfig(selections=1, errors=2, patterns=10,
                                  seed=1)
        run_benchmark_row("alu4", config, progress=seen.append)
        assert len(seen) == 2
        assert "alu4" in seen[0]


class TestRunTable:
    def test_subset_table(self):
        rows = run_table(TINY)
        assert [r.circuit for r in rows] == ["alu4"]

    def test_paper_scale_factory(self):
        config = ExperimentConfig.paper_scale(fraction=0.4)
        assert config.selections == 5
        assert config.errors == 100
        assert config.patterns == 5000
        assert config.fraction == 0.4


class TestErrors:
    def test_unknown_check_rejected(self):
        spec, partial = figure2b()
        with pytest.raises(ValueError):
            run_one_case(spec, partial, ("bogus",), 10, seed=0)
