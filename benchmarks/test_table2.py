"""Regenerates Table 2: 10% of the gates in FIVE Black Boxes."""

import pytest

from repro.experiments import (CHECKS, PAPER_TABLE2,
                               format_comparison, format_table,
                               run_benchmark_row)
from repro.generators.benchmarks import BENCHMARK_NAMES

from conftest import table_config

CONFIG = table_config(fraction=0.1, num_boxes=5, seed=2002)


@pytest.mark.parametrize("name", BENCHMARK_NAMES)
def test_table2_row(benchmark, name, bench_rows_cache):
    def campaign():
        return run_benchmark_row(name, CONFIG)

    row = benchmark.pedantic(campaign, rounds=1, iterations=1)
    bench_rows_cache[("table2", name)] = row
    ratios = [row.detection_ratio(c) for c in CHECKS]
    assert ratios == sorted(ratios), (name, ratios)


def test_table2_print(benchmark, bench_rows_cache, capsys):
    rows = [bench_rows_cache[("table2", name)]
            for name in BENCHMARK_NAMES
            if ("table2", name) in bench_rows_cache]
    if not rows:
        pytest.skip("row benchmarks did not run")
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    with capsys.disabled():
        print()
        print(format_table(
            rows,
            "Table 2: 10%% of the gates included in five Black Boxes "
            "(%d selections x %d errors)"
            % (CONFIG.selections, CONFIG.errors)))
        print()
        print("measured vs paper (detection ratios):")
        print(format_comparison(rows, PAPER_TABLE2))
