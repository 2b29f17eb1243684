"""End-to-end fleet tests: determinism, crash drills, stealing.

Tasks live at module level so spawned shard children can import them
by reference (same convention as ``tests.jobs.test_pool``).  All
drills pace supervision with a fast :class:`FleetConfig` so detection
happens in tenths of seconds, and arm faults through
``REPRO_FLEET_FAULTS`` — the same channel the CI drill uses.
"""

import json
import os
import time
from dataclasses import replace
from types import SimpleNamespace

import pytest

from repro.core.result import (OUTCOME_ERROR, OUTCOME_OK,
                               OUTCOME_TIMEOUT)
from repro.experiments.export import rows_to_csv, rows_to_json
from repro.experiments.runner import ExperimentConfig
from repro.fleet import (FleetConfig, ShardJournal, Supervisor,
                         case_key_hash, partition, run_fleet, shard_of)
from repro.fleet.supervisor import _ShardHandle
from repro.jobs.engine import run_campaign
from repro.jobs.spec import enumerate_cases
from repro.obs import Tracer
from repro.resilience import BackoffPolicy

from ..jobs.test_pool import stub_task

CONFIG = ExperimentConfig(selections=2, errors=4, patterns=30,
                          benchmarks=["alu4"])

FAST = FleetConfig(heartbeat_interval=0.05, heartbeat_miss=0.4,
                   startup_grace=15.0, poll=0.01, steal_poll=0.02,
                   backoff=BackoffPolicy(base=0.01, multiplier=2.0,
                                         cap=0.1, jitter=0.25,
                                         seed=2001))

# Drills that arm a fault *on a specific shard at a specific ordinal*
# disable stealing: on a loaded single-core runner, a fast shard can
# otherwise drain the victim's whole queue before the victim wins one
# lease, and the fault never fires.  Recovery itself (reschedule over
# the pipe) does not involve stealing.
NOSTEAL = replace(FAST, steal=False)


def slow_task(case):
    """Every case takes long enough for liveness checks to fire."""
    time.sleep(0.7)
    return stub_task(case)


def half_slow_task(case):
    """Cases homed on shard 0 (of 2) are slow; the rest instant."""
    if shard_of(case, 2) == 0:
        time.sleep(0.5)
    return stub_task(case)


def poison_task(case):
    """The first error index kills its whole shard, every attempt."""
    if case.error_index == 0:
        os._exit(3)
    return stub_task(case)


def wedge_task(case):
    """The first error index wedges (runaway check); rest instant."""
    if case.error_index == 0:
        time.sleep(300)
    return stub_task(case)


def _serial_then_fleet(tmp_path, shards, config=CONFIG, task=stub_task,
                       fleet_config=FAST, **fleet_kwargs):
    serial_journal = str(tmp_path / "serial.jsonl")
    fleet_journal = str(tmp_path / ("fleet-%d.jsonl" % shards))
    serial = run_campaign(config, task=task, journal=serial_journal)
    fleet = run_campaign(config, task=task, journal=fleet_journal,
                         shards=shards, fleet_config=fleet_config,
                         **fleet_kwargs)
    with open(serial_journal) as handle:
        serial_bytes = handle.read()
    with open(fleet_journal) as handle:
        fleet_bytes = handle.read()
    return serial, fleet, serial_bytes, fleet_bytes, fleet_journal


def _supervisor_events(fleet_journal):
    path = os.path.join(fleet_journal + ".fleet", "supervisor.jsonl")
    with open(path) as handle:
        return [json.loads(line) for line in handle if line.strip()]


def _nonempty_shard(config, shards):
    """(shard, assigned count) of a shard that owns at least one case."""
    cases = enumerate_cases(config)
    for shard, indices in enumerate(partition(cases, shards)):
        if indices:
            return shard, len(indices)
    raise AssertionError("no shard owns any case")


class TestByteIdentity:
    @pytest.mark.parametrize("shards", [1, 2, 3])
    def test_fleet_matches_serial_exactly(self, tmp_path, shards):
        serial, fleet, a, b, _ = _serial_then_fleet(tmp_path, shards)
        assert a == b
        names = list(serial.rows)
        assert rows_to_json([serial.rows[n] for n in names]) \
            == rows_to_json([fleet.rows[n] for n in names])
        assert rows_to_csv([serial.rows[n] for n in names]) \
            == rows_to_csv([fleet.rows[n] for n in names])

    def test_shards_and_jobs_are_mutually_exclusive(self):
        with pytest.raises(ValueError, match="mutually exclusive"):
            run_campaign(CONFIG, task=stub_task, jobs=2, shards=2)


class TestKillShardDrill:
    def test_killed_shard_loses_nothing(self, tmp_path, monkeypatch):
        victim, assigned = _nonempty_shard(CONFIG, 2)
        monkeypatch.setenv("REPRO_FLEET_FAULTS",
                           "kill-shard:%d@%d" % (victim,
                                                 min(2, assigned)))
        serial, fleet, a, b, fleet_journal = _serial_then_fleet(
            tmp_path, 2, fleet_config=NOSTEAL)
        assert a == b
        events = {e["ev"] for e in _supervisor_events(fleet_journal)}
        assert "shard_dead" in events
        assert "case_lost" in events
        assert "reschedule" in events

    def test_kill_with_single_shard_respawns(self, tmp_path,
                                             monkeypatch):
        # No survivors: recovery must come from the respawn budget,
        # and the respawned incarnation runs clean (faults only arm
        # incarnation 0), so the drill terminates.
        monkeypatch.setenv("REPRO_FLEET_FAULTS", "kill-shard:0@1")
        serial, fleet, a, b, fleet_journal = _serial_then_fleet(
            tmp_path, 1)
        assert a == b
        events = [e for e in _supervisor_events(fleet_journal)
                  if e["ev"] == "respawn"]
        assert events and events[0]["shard"] == 0

    def test_replacement_ignores_its_predecessors_events(self, tmp_path):
        # A replacement tails the journal its dead predecessor wrote.
        # That hello must not count as the replacement's liveness (it
        # would skip the startup grace) nor that claim as in flight (a
        # phantom claim burns a retry when the replacement dies).
        cases = enumerate_cases(CONFIG)
        key = case_key_hash(cases[0])
        supervisor = Supervisor(cases, 1, str(tmp_path), config=FAST)
        journal = ShardJournal(supervisor.paths.shard_journal(0), 0)
        journal.hello(101, 0, len(cases))
        journal.claim(key, None)
        handle = _ShardHandle(0, 1, SimpleNamespace(pid=202), None, 0.0)
        supervisor._tail(handle, 1.0)
        assert handle.last_beat is None
        assert handle.claims == {}
        journal.hello(202, 1, len(cases))
        journal.claim(key, None)
        journal.close()
        supervisor._tail(handle, 2.0)
        assert handle.last_beat == 2.0
        assert handle.claims == {key: 2.0}


class TestHeartbeatBlackholeDrill:
    def test_silent_shard_is_declared_dead(self, tmp_path,
                                           monkeypatch):
        config = ExperimentConfig(selections=1, errors=3, patterns=30,
                                  benchmarks=["alu4"])
        victim, _ = _nonempty_shard(config, 2)
        monkeypatch.setenv("REPRO_FLEET_FAULTS",
                           "heartbeat-blackhole:%d" % victim)
        # Slow cases keep the blackholed shard busy past the miss
        # window, so quietness — not completion — decides its fate.
        serial, fleet, a, b, fleet_journal = _serial_then_fleet(
            tmp_path, 2, config=config, task=slow_task,
            fleet_config=NOSTEAL)
        assert a == b
        deaths = [e for e in _supervisor_events(fleet_journal)
                  if e["ev"] == "shard_dead"]
        assert any(e["reason"] == "heartbeat-miss" and
                   e["shard"] == victim for e in deaths)


class TestTornJournalDrill:
    def test_torn_tail_is_healed_and_skipped(self, tmp_path,
                                             monkeypatch):
        monkeypatch.setenv("REPRO_FLEET_FAULTS",
                           "torn-journal:0,torn-journal:1")
        serial, fleet, a, b, _ = _serial_then_fleet(tmp_path, 2)
        assert a == b


class TestWorkStealing:
    def test_idle_shard_steals_from_the_straggler(self, tmp_path):
        serial, fleet, a, b, fleet_journal = _serial_then_fleet(
            tmp_path, 2, task=half_slow_task)
        assert a == b
        steals = [e for e in _supervisor_events(fleet_journal)
                  if e["ev"] == "steal"]
        assert steals, "the fast shard never stole from the slow one"
        assert all(e["thief"] != e["victim"] for e in steals)

    def test_stealing_can_be_disabled(self, tmp_path):
        config = ExperimentConfig(selections=1, errors=3, patterns=30,
                                  benchmarks=["alu4"])
        serial, fleet, a, b, fleet_journal = _serial_then_fleet(
            tmp_path, 2, config=config,
            fleet_config=FleetConfig(
                heartbeat_interval=0.05, heartbeat_miss=5.0,
                poll=0.01, steal=False))
        assert a == b
        assert not [e for e in _supervisor_events(fleet_journal)
                    if e["ev"] == "steal"]


class TestRetryExhaustion:
    def test_poison_case_gets_terminal_error_record(self, tmp_path):
        config = ExperimentConfig(selections=1, errors=3, patterns=30,
                                  benchmarks=["alu4"])
        cases = enumerate_cases(config)
        merged = run_fleet(cases, shards=2,
                           base_dir=str(tmp_path / "fleet"),
                           config=NOSTEAL, task=poison_task,
                           max_retries=1)
        assert set(merged) == {c.key for c in cases}
        poison = next(c for c in cases if c.error_index == 0)
        record = merged[poison.key]
        assert record.outcome == OUTCOME_ERROR
        assert "retries exhausted" in record.checks["r.p."].detail
        for case in cases:
            if case.error_index != 0:
                assert merged[case.key].outcome == OUTCOME_OK

    def test_wedged_case_times_out_terminally(self, tmp_path):
        config = ExperimentConfig(selections=1, errors=3, patterns=30,
                                  benchmarks=["alu4"])
        cases = enumerate_cases(config)
        merged = run_fleet(cases, shards=2,
                           base_dir=str(tmp_path / "fleet"),
                           config=NOSTEAL, task=wedge_task,
                           case_timeout=0.5, max_retries=0)
        wedged = next(c for c in cases if c.error_index == 0)
        assert merged[wedged.key].outcome == OUTCOME_TIMEOUT
        for case in cases:
            if case.error_index != 0:
                assert merged[case.key].outcome == OUTCOME_OK


class TestResume:
    def test_completed_fleet_dir_resumes_without_rerunning(
            self, tmp_path):
        cases = enumerate_cases(CONFIG)
        base = str(tmp_path / "fleet")
        first = run_fleet(cases, shards=2, base_dir=base,
                          config=FAST, task=stub_task)
        second = run_fleet(cases, shards=2, base_dir=base,
                          config=FAST, task=stub_task)
        assert {k: r.to_json_line() for k, r in first.items()} \
            == {k: r.to_json_line() for k, r in second.items()}
        path = os.path.join(base, "supervisor.jsonl")
        with open(path) as handle:
            starts = [json.loads(line) for line in handle
                      if '"fleet_start"' in line]
        assert starts[0]["resumed"] == 0
        assert starts[1]["resumed"] == len(cases)
        assert starts[1]["cases"] == 0


class TestSupervisorTracing:
    def test_recovery_decisions_become_trace_events(self, tmp_path,
                                                    monkeypatch):
        config = ExperimentConfig(selections=1, errors=3, patterns=30,
                                  benchmarks=["alu4"])
        cases = enumerate_cases(config)
        victim, assigned = _nonempty_shard(config, 2)
        monkeypatch.setenv("REPRO_FLEET_FAULTS",
                           "kill-shard:%d@1" % victim)
        tracer = Tracer()
        run_fleet(cases, shards=2, base_dir=str(tmp_path / "fleet"),
                  config=NOSTEAL, task=stub_task, tracer=tracer)
        names = {event.get("name") for event in tracer.events}
        assert "fleet" in names
        assert "fleet:shard-dead" in names
        assert "fleet:lost" in names
        assert "fleet:reschedule" in names
