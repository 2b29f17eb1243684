"""Tests for the experiments command-line interface."""

import json

import pytest

from repro.experiments.cli import main


class TestCli:
    def test_figures_command(self, capsys):
        assert main(["figures"]) == 0
        out = capsys.readouterr().out
        assert "figure3b" in out
        assert "MISMATCH" not in out

    def test_tiny_table_run(self, capsys):
        code = main(["table1", "--selections", "1", "--errors", "2",
                     "--patterns", "50", "--benchmarks", "alu4",
                     "--quiet"])
        assert code == 0
        out = capsys.readouterr().out
        assert "alu4" in out
        assert "one Black Box" in out

    def test_table2_uses_five_boxes(self, capsys):
        code = main(["table2", "--selections", "1", "--errors", "1",
                     "--patterns", "20", "--benchmarks", "alu4",
                     "--quiet"])
        assert code == 0
        assert "five Black Boxes" in capsys.readouterr().out

    def test_unknown_benchmark_rejected(self):
        with pytest.raises(SystemExit):
            main(["table1", "--benchmarks", "c17"])

    def test_unknown_experiment_rejected(self):
        with pytest.raises(SystemExit):
            main(["table9"])

    def test_format_json_stdout_is_clean(self, capsys):
        # Progress goes to stderr, so stdout must parse as JSON even
        # without --quiet.
        code = main(["table1", "--selections", "1", "--errors", "1",
                     "--patterns", "20", "--benchmarks", "alu4",
                     "--format", "json"])
        assert code == 0
        captured = capsys.readouterr()
        data = json.loads(captured.out)
        assert data[0]["circuit"] == "alu4"
        assert "checks" in data[0]

    def test_format_csv_stdout_is_clean(self, capsys):
        code = main(["table1", "--selections", "1", "--errors", "1",
                     "--patterns", "20", "--benchmarks", "alu4",
                     "--quiet", "--format", "csv"])
        assert code == 0
        out = capsys.readouterr().out
        assert out.startswith("circuit,")
        assert ",ie," in out

    def test_parallel_run_with_journal(self, tmp_path, capsys):
        journal = tmp_path / "journal.jsonl"
        code = main(["table1", "--selections", "1", "--errors", "2",
                     "--patterns", "20", "--benchmarks", "alu4",
                     "--quiet", "--jobs", "2",
                     "--journal", str(journal)])
        assert code == 0
        assert "alu4" in capsys.readouterr().out
        lines = journal.read_text().strip().splitlines()
        assert len(lines) == 2
        assert all(json.loads(line)["case"]["benchmark"] == "alu4"
                   for line in lines)

    def test_timeout_keeps_the_campaign_identity(self, tmp_path):
        # A hard deadline is not part of a case's coordinates, so
        # resuming a serial journal with --jobs/--timeout finds every
        # case done and appends nothing.
        journal = str(tmp_path / "journal.jsonl")
        campaign = ["table1", "--selections", "1", "--errors", "2",
                    "--patterns", "50", "--benchmarks", "alu4,comp",
                    "--quiet"]
        assert main(campaign + ["--journal", journal]) == 0
        assert main(campaign + ["--jobs", "2", "--timeout", "60",
                                "--resume", journal]) == 0
        with open(journal) as handle:
            lines = handle.read().splitlines()
        assert len(lines) == 4
        assert all("soft_timeout" not in json.loads(line)["case"]
                   for line in lines)

    def test_bad_jobs_and_timeout_rejected(self):
        with pytest.raises(SystemExit):
            main(["table1", "--jobs", "0"])
        with pytest.raises(SystemExit):
            main(["table1", "--timeout", "0"])

    def test_compare_flag(self, capsys):
        code = main(["table1", "--selections", "1", "--errors", "1",
                     "--patterns", "20", "--benchmarks", "alu4",
                     "--quiet", "--compare"])
        assert code == 0
        out = capsys.readouterr().out
        assert "measured vs paper" in out
