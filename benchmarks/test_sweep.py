"""Regenerates the fraction-sweep data series (the evaluation's
natural "figure": detection vs boxed fraction, cf. the paper's 40%
remark in Section 3)."""

import pytest

from repro.experiments import format_sweep, run_fraction_sweep

from conftest import table_config

_BASE = table_config()


@pytest.mark.parametrize("name", ["alu4", "comp", "term1"])
def test_fraction_sweep(benchmark, name, capsys):
    def sweep():
        return run_fraction_sweep(
            name, fractions=(0.1, 0.25, 0.4),
            selections=_BASE.selections, errors=_BASE.errors,
            patterns=_BASE.patterns, seed=77)

    points = benchmark.pedantic(sweep, rounds=1, iterations=1)
    with capsys.disabled():
        print()
        print(format_sweep(name, points))
    # the input-exact rung dominates every weaker rung at each fraction
    for point in points:
        assert point.detection["ie"] >= point.detection["oe"] \
            >= point.detection["loc."]
