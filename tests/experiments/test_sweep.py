"""Tests for the fraction-sweep experiment."""

from repro.experiments import format_sweep, run_fraction_sweep


class TestFractionSweep:
    def test_points_and_monotone_checks(self):
        points = run_fraction_sweep(
            "alu4", fractions=(0.1, 0.3), selections=1,
            errors=3, patterns=100, seed=5)
        assert [p.fraction for p in points] == [0.1, 0.3]
        for point in points:
            assert set(point.detection) == {"r.p.", "0,1,X", "loc.",
                                            "oe", "ie"}
            assert point.detection["ie"] >= point.detection["oe"]
            assert all(v >= 0 for v in point.mean_seconds.values())

    def test_formatting(self):
        points = run_fraction_sweep(
            "alu4", fractions=(0.15,), selections=1,
            errors=2, patterns=50, seed=1)
        text = format_sweep("alu4", points)
        assert "alu4" in text
        assert "15%" in text

    def test_cli_sweep(self, capsys):
        from repro.experiments.cli import main

        assert main(["sweep", "--benchmarks", "alu4", "--errors", "2",
                     "--selections", "1", "--patterns", "50"]) == 0
        out = capsys.readouterr().out
        assert "Detection vs boxed fraction" in out
