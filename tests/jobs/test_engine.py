"""End-to-end campaign engine tests: determinism, resume, timeouts.

The real-execution tests run a deliberately tiny campaign (alu4, a
handful of cases) so they stay in the seconds range even on one core.
"""

import os
import tempfile

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.result import OUTCOME_OK, OUTCOME_TIMEOUT
from repro.experiments.export import rows_to_csv, rows_to_json
from repro.experiments.runner import CHECKS, ExperimentConfig
from repro.jobs import (enumerate_cases, execute_case, read_journal,
                        run_campaign)

from .test_pool import hang_task, stub_task

CONFIG = ExperimentConfig(selections=1, errors=3, patterns=30,
                          benchmarks=["alu4"])

#: Six stub cases: enough for a worker to finish out of order.
STUB_CONFIG = ExperimentConfig(selections=2, errors=3, patterns=30,
                               benchmarks=["alu4"])

#: Directory holding the marker files of ``die_once_task``.
KILL_DIR_ENV = "REPRO_TEST_KILL_DIR"


def _marker(directory, case):
    return os.path.join(directory, "kill-%d-%d"
                        % (case.selection, case.error_index))


def die_once_task(case):
    """``stub_task``, except that the worker dies on its first attempt
    at a case whose marker file exists (the attempt removes it)."""
    marker = _marker(os.environ[KILL_DIR_ENV], case)
    if os.path.exists(marker):
        os.remove(marker)
        os._exit(3)
    return stub_task(case)


def _stub_campaign(journal, **kwargs):
    """(journal text, JSON, CSV) of one stub campaign."""
    result = run_campaign(STUB_CONFIG, journal=journal, **kwargs)
    with open(journal) as handle:
        raw = handle.read()
    rows = [result.rows[name] for name in result.rows]
    return raw, rows_to_json(rows), rows_to_csv(rows)


def deterministic_fields(row):
    """Everything in a row except the wall-clock measurements."""
    return (row.circuit, row.inputs, row.outputs, row.spec_nodes,
            row.cases, row.detected, row.impl_nodes, row.peak_nodes,
            row.valid, row.timeouts, row.check_errors)


class TestDeterminism:
    def test_serial_and_parallel_aggregate_identically(self):
        serial = run_campaign(CONFIG)
        parallel = run_campaign(CONFIG, jobs=2)
        assert serial.executed == parallel.executed == 3
        assert deterministic_fields(serial.rows["alu4"]) \
            == deterministic_fields(parallel.rows["alu4"])
        for ours, theirs in zip(serial.records, parallel.records):
            assert ours.case == theirs.case
            assert ours.outcome == theirs.outcome == OUTCOME_OK
            assert ours.mutation == theirs.mutation
            for check in CHECKS:
                assert ours.checks[check].error_found \
                    == theirs.checks[check].error_found
                assert ours.checks[check].peak_nodes \
                    == theirs.checks[check].peak_nodes

    # A timeout puts jobs=1 on the pool too; the stub's seconds are
    # fixed, so every byte of the outputs must match.
    @settings(max_examples=5, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(jobs=st.integers(min_value=1, max_value=4))
    def test_any_job_count_matches_serial(self, jobs):
        with tempfile.TemporaryDirectory() as td:
            serial = _stub_campaign(os.path.join(td, "serial.jsonl"),
                                    task=stub_task)
            pooled = _stub_campaign(os.path.join(td, "pooled.jsonl"),
                                    task=stub_task, jobs=jobs,
                                    timeout=60.0)
        assert pooled == serial

    @settings(max_examples=5, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(jobs=st.integers(min_value=1, max_value=4),
           victim=st.integers(min_value=0, max_value=5))
    def test_killed_worker_matches_serial(self, jobs, victim):
        with tempfile.TemporaryDirectory() as td:
            serial = _stub_campaign(os.path.join(td, "serial.jsonl"),
                                    task=stub_task)
            marker = _marker(td, enumerate_cases(STUB_CONFIG)[victim])
            open(marker, "w").close()
            os.environ[KILL_DIR_ENV] = td
            try:
                pooled = _stub_campaign(os.path.join(td, "pooled.jsonl"),
                                        task=die_once_task, jobs=jobs,
                                        timeout=60.0)
            finally:
                del os.environ[KILL_DIR_ENV]
            assert not os.path.exists(marker)  # the worker did die
        assert pooled == serial

    def test_single_case_matches_campaign(self):
        # Sharding/resume soundness: a case executed on its own yields
        # the same record as inside the full campaign.
        campaign = run_campaign(CONFIG)
        case = enumerate_cases(CONFIG)[2]
        alone = execute_case(case)
        twin = next(r for r in campaign.records if r.case == case)
        assert alone.mutation == twin.mutation
        for check in CHECKS:
            assert alone.checks[check].error_found \
                == twin.checks[check].error_found
            assert alone.checks[check].impl_nodes \
                == twin.checks[check].impl_nodes


class TestResume:
    def test_resume_from_truncated_journal(self, tmp_path):
        path = str(tmp_path / "campaign.jsonl")
        full = run_campaign(CONFIG, journal=path)
        with open(path) as handle:
            lines = handle.readlines()
        assert len(lines) == 3
        # Simulate a crash: keep one complete record plus a torn line.
        with open(path, "w") as handle:
            handle.write(lines[0])
            handle.write(lines[1][:50])
        resumed = run_campaign(CONFIG, resume=path)
        assert resumed.resumed == 1
        assert resumed.executed == 2
        assert deterministic_fields(resumed.rows["alu4"]) \
            == deterministic_fields(full.rows["alu4"])
        # The journal is whole again and replays to the full campaign.
        assert len(read_journal(path)) == 3

    def test_resume_complete_journal_executes_nothing(self, tmp_path):
        path = str(tmp_path / "campaign.jsonl")
        run_campaign(CONFIG, journal=path, jobs=2)
        again = run_campaign(CONFIG, resume=path)
        assert again.resumed == 3
        assert again.executed == 0

    def test_resume_into_fresh_journal_is_self_contained(self, tmp_path):
        old = str(tmp_path / "old.jsonl")
        new = str(tmp_path / "new.jsonl")
        run_campaign(CONFIG, journal=old)
        result = run_campaign(CONFIG, resume=old, journal=new)
        assert result.resumed == 3
        assert len(read_journal(new)) == 3

    def test_resume_ignores_foreign_records(self, tmp_path):
        # A journal from a different campaign (other seed) must not
        # satisfy this campaign's cases.
        path = str(tmp_path / "campaign.jsonl")
        other = ExperimentConfig(selections=1, errors=3, patterns=30,
                                 seed=7, benchmarks=["alu4"])
        run_campaign(other, journal=path, task=stub_task)
        result = run_campaign(CONFIG, resume=path, task=stub_task)
        assert result.resumed == 0
        assert result.executed == 3


    def test_interrupt_keeps_records_waiting_on_a_straggler(self,
                                                            tmp_path):
        # error_index 0 hangs, so 1 and 2 finish first and wait in the
        # reorder buffer; Ctrl-C must still land them in the journal.
        path = str(tmp_path / "campaign.jsonl")
        seen = []

        def progress(message):
            seen.append(message)
            if len(seen) == 2:
                raise KeyboardInterrupt

        with pytest.raises(KeyboardInterrupt):
            run_campaign(CONFIG, jobs=2, timeout=60.0, task=hang_task,
                         journal=path, progress=progress)
        assert [r.case.error_index for r in read_journal(path)] == [1, 2]
        again = run_campaign(CONFIG, resume=path, task=stub_task)
        assert (again.resumed, again.executed) == (2, 1)


class TestTimeouts:
    def test_timeout_recorded_and_excluded_from_denominators(self):
        # hang_task sleeps on error_index 0, stubs the rest; the stub
        # "detects" only even error indices, so with index 0 timed out
        # the survivors are index 1 (missed) and index 2 (detected).
        result = run_campaign(CONFIG, jobs=2, timeout=1.0,
                              task=hang_task)
        row = result.rows["alu4"]
        assert result.timeouts == len(CHECKS)
        by_index = {r.case.error_index: r for r in result.records}
        assert by_index[0].outcome == OUTCOME_TIMEOUT
        for check in CHECKS:
            assert row.timeouts[check] == 1
            assert row.valid[check] == 2
            assert row.detection_ratio(check) == pytest.approx(50.0)
