"""Campaign determinism and journaling under ``strategy="portfolio"``.

The race's winner must be a pure function of the case, so a portfolio
campaign keeps the engine's determinism contract: the journal written
by a serial run is byte-identical to the spawn-pool run's, and both
aggregate identically.  ``seconds`` fields are wall-clock
measurements, so the task wrapper canonicalises them to zero before
journaling — every remaining byte (including the journaled winner)
must match.
"""

import json
import os
import tempfile

from repro.experiments.export import rows_to_csv, rows_to_json
from repro.experiments.runner import ExperimentConfig
from repro.jobs.engine import run_campaign
from repro.jobs.spec import enumerate_cases
from repro.jobs.worker import execute_case

CONFIG = ExperimentConfig(selections=1, errors=2, patterns=50,
                          benchmarks=["comp"], strategy="portfolio")


def canon_task(case):
    """execute_case with wall-clock fields zeroed (module-level so the
    spawn pool can pickle it)."""
    record = execute_case(case)
    record.seconds = 0.0
    for outcome in record.checks.values():
        outcome.seconds = 0.0
    return record


def _run(**kwargs):
    with tempfile.TemporaryDirectory() as td:
        journal = os.path.join(td, "journal.jsonl")
        result = run_campaign(CONFIG, task=canon_task, journal=journal,
                              **kwargs)
        with open(journal) as handle:
            raw = handle.read()
    rows = [result.rows[name] for name in result.rows]
    return raw, rows_to_json(rows), rows_to_csv(rows)


class TestPortfolioDeterminism:
    def test_strategy_recorded_in_case_spec(self):
        cases = enumerate_cases(CONFIG)
        assert all(c.strategy == "portfolio" for c in cases)
        assert all(c.to_dict()["strategy"] == "portfolio"
                   for c in cases)

    def test_serial_and_jobs_agree(self):
        assert _run(jobs=2) == _run()

    def test_winner_journaled_per_raced_check(self):
        raw, _, _ = _run()
        for line in raw.splitlines():
            doc = json.loads(line)
            for check in ("0,1,X", "oe"):
                assert doc["checks"][check]["engine"] in ("sat", "bdd")
            for check in ("r.p.", "loc.", "ie"):
                assert "engine" not in doc["checks"][check]

    def test_default_strategy_journal_bytes_unchanged(self):
        """A strategy-free campaign must not gain any new keys."""
        config = ExperimentConfig(selections=1, errors=1, patterns=50,
                                  benchmarks=["comp"])
        with tempfile.TemporaryDirectory() as td:
            journal = os.path.join(td, "journal.jsonl")
            run_campaign(config, task=canon_task, journal=journal)
            with open(journal) as handle:
                doc = json.loads(handle.read().splitlines()[0])
        assert "strategy" not in doc["case"]
        assert not any("engine" in slice_
                       for slice_ in doc["checks"].values())
