"""Property test: the fleet's output is interleaving-independent.

For any shard count — and any kill-shard fault injected at a random
shard and ordinal — the campaign journal, tables, JSON and CSV must be
byte-identical to a serial run.  The serial reference is computed once
per config; each example replays the fleet against it.
"""

import os
import tempfile

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.experiments.export import rows_to_csv, rows_to_json
from repro.experiments.runner import ExperimentConfig
from repro.fleet import FleetConfig, partition
from repro.jobs.engine import run_campaign
from repro.jobs.spec import enumerate_cases
from repro.resilience import BackoffPolicy

from ..jobs.test_pool import stub_task

CONFIG = ExperimentConfig(selections=2, errors=3, patterns=30,
                          benchmarks=["alu4"])

FAST = FleetConfig(heartbeat_interval=0.05, heartbeat_miss=0.4,
                   startup_grace=15.0, poll=0.01, steal_poll=0.02,
                   backoff=BackoffPolicy(base=0.01, multiplier=2.0,
                                         cap=0.1, jitter=0.25,
                                         seed=2001))

_SERIAL = {}


def _serial_reference():
    """(journal bytes, json, csv) of the serial run, computed once."""
    if "ref" not in _SERIAL:
        with tempfile.TemporaryDirectory() as td:
            journal = os.path.join(td, "serial.jsonl")
            result = run_campaign(CONFIG, task=stub_task,
                                  journal=journal)
            with open(journal) as handle:
                bytes_ = handle.read()
        rows = [result.rows[n] for n in result.rows]
        _SERIAL["ref"] = (bytes_, rows_to_json(rows),
                          rows_to_csv(rows))
    return _SERIAL["ref"]


def _run_fleet_campaign(shards, fault):
    with tempfile.TemporaryDirectory() as td:
        journal = os.path.join(td, "fleet.jsonl")
        if fault:
            os.environ["REPRO_FLEET_FAULTS"] = fault
        try:
            result = run_campaign(CONFIG, task=stub_task,
                                  journal=journal, shards=shards,
                                  fleet_config=FAST)
        finally:
            os.environ.pop("REPRO_FLEET_FAULTS", None)
        with open(journal) as handle:
            bytes_ = handle.read()
    rows = [result.rows[n] for n in result.rows]
    return bytes_, rows_to_json(rows), rows_to_csv(rows)


@settings(max_examples=5, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(shards=st.integers(min_value=1, max_value=4))
def test_any_shard_count_matches_serial(shards):
    assert _run_fleet_campaign(shards, None) == _serial_reference()


@settings(max_examples=5, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(shards=st.integers(min_value=1, max_value=3),
       choice=st.integers(min_value=0, max_value=10 ** 6))
@example(shards=1, choice=0)
def test_random_kill_drill_matches_serial(shards, choice):
    # Aim the kill at a shard that owns at least one case, at a random
    # ordinal within its assignment.  Whether the fault actually fires
    # under a given interleaving (stealing may drain the victim first)
    # is irrelevant to the property: the output must match regardless.
    cases = enumerate_cases(CONFIG)
    assignment = partition(cases, shards)
    nonempty = [s for s, idx in enumerate(assignment) if idx]
    victim = nonempty[choice % len(nonempty)]
    ordinal = 1 + (choice // 7) % len(assignment[victim])
    fault = "kill-shard:%d@%d" % (victim, ordinal)
    assert _run_fleet_campaign(shards, fault) == _serial_reference()
