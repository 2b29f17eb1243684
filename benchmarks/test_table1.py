"""Regenerates Table 1: 10% of the gates in ONE Black Box.

One benchmark per circuit row; the final test assembles and prints the
table in the paper's layout.  Campaign size is controlled by
``REPRO_BENCH_SCALE`` (see conftest).
"""

import pytest

from repro.experiments import (CHECKS, PAPER_TABLE1,
                               format_comparison, format_table,
                               run_benchmark_row)
from repro.generators.benchmarks import BENCHMARK_NAMES

from conftest import table_config

CONFIG = table_config(fraction=0.1, num_boxes=1, seed=2001)


@pytest.mark.parametrize("name", BENCHMARK_NAMES)
def test_table1_row(benchmark, name, bench_rows_cache):
    def campaign():
        return run_benchmark_row(name, CONFIG)

    row = benchmark.pedantic(campaign, rounds=1, iterations=1)
    bench_rows_cache[("table1", name)] = row
    # qualitative shape of the paper's Table 1: monotone detection power
    ratios = [row.detection_ratio(c) for c in CHECKS]
    assert ratios == sorted(ratios), (name, ratios)


def test_table1_print(benchmark, bench_rows_cache, capsys):
    rows = [bench_rows_cache[("table1", name)]
            for name in BENCHMARK_NAMES
            if ("table1", name) in bench_rows_cache]
    if not rows:
        pytest.skip("row benchmarks did not run")
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    with capsys.disabled():
        print()
        print(format_table(
            rows,
            "Table 1: 10%% of the gates included in one Black Box "
            "(%d selections x %d errors)"
            % (CONFIG.selections, CONFIG.errors)))
        print()
        print("measured vs paper (detection ratios):")
        print(format_comparison(rows, PAPER_TABLE1))
