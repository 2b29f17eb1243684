"""The benchmark's own tests.

Run from the root of the repository::

    PYTHONPATH=src python3 -m pytest perfbench -q

They drive the runner the way a measuring harness does: as a command
in a checkout, and (for the failure accounting) through ``measure``.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

sys.path.insert(0, os.path.join(ROOT, "src"))

import common  # noqa: E402
import run  # noqa: E402  (needs the program on sys.path)


def die(case):
    """A campaign task whose worker process dies on every case."""
    os._exit(3)


def _bench(workload, *, seed, seconds, trace, cwd=ROOT, env=None):
    command = [sys.executable, os.path.join(HERE, "run.py"),
               "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(trace)]
    return subprocess.run(command, cwd=cwd, env=env, capture_output=True,
                          text=True, timeout=300)


def test_dying_workers_make_every_attempt_a_failure(tmp_path,
                                                    monkeypatch):
    monkeypatch.chdir(tmp_path)
    result = run.measure("campaign_portfolio", seed=5, seconds=0,
                         trace=False, task=die)
    assert result["attempted"] > 0
    assert result["failed"] == result["attempted"]
    assert result["metrics"]["ok_share"]["value"] == 0.0
    assert result["correct"] is False


@pytest.mark.parametrize("workload", sorted(run.DETERMINISTIC))
def test_work_counters_ignore_hash_randomisation(workload):
    counters = []
    for hash_seed in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed)
        done = _bench(workload, seed=common.DEFAULT_SEED, seconds=1,
                      trace=1, env=env)
        assert done.returncode == 0, done.stderr
        result = json.loads(done.stdout.splitlines()[-1])
        assert result["correct"], done.stderr
        metrics = result["metrics"]
        counters.append({name: metrics[name]["value"]
                         for name in run.DETERMINISTIC[workload]})
    assert counters[0] == counters[1]
    assert any(counters[0].values())


def _session_members(sid):
    members = []
    for name in os.listdir("/proc"):
        try:
            with open("/proc/%s/stat" % name) as handle:
                fields = handle.read().rsplit(")", 1)[1].split()
        except (OSError, IndexError):
            continue
        if int(fields[3]) == sid:
            members.append(int(name))
    return members


@pytest.mark.skipif(not os.path.isdir("/proc"), reason="needs procfs")
@pytest.mark.parametrize("workload", ["campaign_portfolio", "serve_open"])
def test_no_process_outlives_a_run(workload):
    """Spawn pools start multiprocessing's resource tracker, and the
    server starts its own; a run must reap both before it exits."""
    command = [sys.executable, os.path.join(HERE, "run.py"),
               "--workload", workload, "--seed", "5", "--seconds", "0",
               "--trace", "0"]
    child = subprocess.Popen(command, cwd=ROOT, stdout=subprocess.PIPE,
                             stderr=subprocess.PIPE, text=True,
                             start_new_session=True)
    _, err = child.communicate(timeout=300)
    assert child.returncode == 0, err
    assert _session_members(child.pid) == []


def test_bare_directory_exits_without_a_result(tmp_path):
    shutil.copytree(HERE, str(tmp_path / "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), str(tmp_path))
    done = _bench("prove_serial", seed=1, seconds=1, trace=0,
                  cwd=str(tmp_path))
    assert done.returncode != 0
    assert done.stdout.strip() == ""
