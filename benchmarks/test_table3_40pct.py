"""Regenerates the Section 3 variant: 40% of the gates in one Black Box.

The paper reports this experiment led "to comparable results" and defers
the table to the technical report; we regenerate it the same way as
Table 1 with fraction = 0.4.
"""

import pytest

from repro.experiments import CHECKS, format_table, run_benchmark_row
from repro.generators.benchmarks import BENCHMARK_NAMES

from conftest import table_config

CONFIG = table_config(fraction=0.4, num_boxes=1, seed=2040)

# apex3 is excluded at the 40% fraction: its PLA structure gives the
# carved box a ~40-pin interface whose input-exact relation exceeds a
# pure-Python BDD budget (the analogue of the paper's own C880
# 22-minute outlier).  The exclusion is printed, never silent.
NAMES_40 = [n for n in BENCHMARK_NAMES if n != "apex3"]


@pytest.mark.parametrize("name", NAMES_40)
def test_table40_row(benchmark, name, bench_rows_cache):
    def campaign():
        return run_benchmark_row(name, CONFIG)

    row = benchmark.pedantic(campaign, rounds=1, iterations=1)
    bench_rows_cache[("table40", name)] = row
    ratios = [row.detection_ratio(c) for c in CHECKS]
    assert ratios == sorted(ratios), (name, ratios)


def test_table40_print(benchmark, bench_rows_cache, capsys):
    rows = [bench_rows_cache[("table40", name)]
            for name in NAMES_40
            if ("table40", name) in bench_rows_cache]
    if not rows:
        pytest.skip("row benchmarks did not run")
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    with capsys.disabled():
        print()
        print("note: apex3 omitted at 40% (intractable box interface; "
              "see module docstring)")
        print(format_table(
            rows,
            "40%% variant: 40%% of the gates in one Black Box "
            "(%d selections x %d errors)"
            % (CONFIG.selections, CONFIG.errors)))
