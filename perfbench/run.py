"""Run one workload of the repository benchmark and print its result.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload prove_serial --seed 1 \\
        --seconds 35 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off;
``--trace 1`` is the separate traced run that reports the per-layer
metrics.  The last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``; progress
and failure reasons go to standard error.  The program is imported
from ``src/`` of the current directory; without it the run exits with
code 2 and prints no result.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import ctypes
import importlib
import json
import os
import shutil
import signal
import sys
import time

import common

WORKLOADS = ("prove_serial", "campaign_portfolio", "serve_open")

#: Set-ups per run; ``setup_s`` is their median.
SETUP_REPEATS = 3

#: Per-layer metrics and the workload that measures each; a workload
#: reports 0 for a layer it does not exercise.
PER_LAYER = {
    "prove_serial": (
        "core.random_pattern_s", "core.symbolic_01x_s", "core.local_s",
        "core.output_exact_s", "core.input_exact_s", "core.context_s",
        "analysis.lint_s", "bdd.cache_misses", "bdd.cache_hit_rate",
        "bdd.peak_nodes", "bdd.gc_runs", "bdd.reorders", "bdd.reorder_s",
        "bdd.quant_picks"),
    "campaign_portfolio": (
        "jobs.first_record_s", "jobs.busy_share", "jobs.journal_write_s",
        "jobs.journal_bytes", "jobs.aggregate_s", "jobs.retries",
        "portfolio.sat_wins", "portfolio.bdd_wins",
        "portfolio.race_steps", "portfolio.unaccounted_share",
        "portfolio.pick_accuracy", "sat.propagations", "sat.conflicts",
        "sat.cnf_clauses", "sat.solve_s"),
    "serve_open": (
        "serve.admit_p50_s", "serve.dispatch_p50_s", "serve.exec_p50_s",
        "serve.queue_p90_s", "serve.rejected",
        "serve.generator_lag_p90_s", "static.cache_hits",
        "static.cache_misses", "static.cache_stores"),
    "all": ("obs.overhead_share", "host.calib_s"),
}

#: Work counters of the traced run that must not depend on the host,
#: the timing or hash randomisation: each covers a fixed prefix of the
#: seeded inputs.
DETERMINISTIC = {
    "prove_serial": ("bdd.cache_misses", "bdd.reorders", "bdd.gc_runs",
                     "bdd.peak_nodes", "bdd.quant_picks"),
    "campaign_portfolio": ("portfolio.race_steps", "portfolio.sat_wins",
                           "portfolio.bdd_wins", "sat.propagations",
                           "sat.conflicts", "sat.cnf_clauses"),
    "serve_open": ("static.cache_hits", "static.cache_misses",
                   "static.cache_stores"),
}

#: ``prctl`` option that makes orphaned descendants this process's
#: children (Linux).
PR_SET_CHILD_SUBREAPER = 36

#: How long leftover children may take to exit before they are killed.
REAP_GRACE_S = 5.0

UNITS = {"cases_per_s": "1/s", "peak_rss_mb": "MiB", "_s": "s",
         "_share": "ratio", "_rate": "ratio", "_accuracy": "ratio",
         "_bytes": "bytes"}


def unit_of(name: str) -> str:
    for suffix, unit in UNITS.items():
        if name.endswith(suffix):
            return unit
    return "count"


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(
        prog="python3 perfbench/run.py",
        description="Run one workload of the repository benchmark.")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=common.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def measure(workload: str, seed: int, seconds: float, trace: bool,
            task=None) -> dict:
    """Set up ``workload`` several times, run it once, and return the
    result document (without printing it)."""
    calib_s = common.calibrate_host()
    print("host.calib_s %.4f" % calib_s, file=sys.stderr)
    clock = common.HostClock()
    start = time.perf_counter()
    module = importlib.import_module(workload)
    import repro.api  # noqa: F401  (the program's import cost)
    import_s = (time.perf_counter() - start) * clock.factor()
    teardown = getattr(module, "teardown", lambda state: None)
    setups = []
    state = None
    try:
        for _ in range(SETUP_REPEATS):
            if state is not None:
                teardown(state)
                clock.factor()  # the set-up's own bracket starts here
            start = time.perf_counter()
            state = module.setup(seed, seconds)
            setups.append((time.perf_counter() - start) * clock.factor())
        extra = {} if task is None else {"task": task}
        tally, pinned, metrics = module.run(state, seconds, trace,
                                            **extra)
    finally:
        if state is not None:
            teardown(state)
        shutil.rmtree(os.path.join(os.getcwd(), ".perfbench_work"),
                      ignore_errors=True)
    for reason in tally.reasons:
        print("FAILED: %s" % reason, file=sys.stderr)
    if trace:
        names = [name for group in PER_LAYER.values() for name in group]
        values = dict.fromkeys(names, 0)
        values.update(metrics)
        values["host.calib_s"] = calib_s
    else:
        values = dict(metrics)
        values["setup_s"] = import_s + common.median(setups)
        values["peak_rss_mb"] = common.peak_rss_mb()
        values["ok_share"] = ((tally.attempted - tally.failed)
                              / tally.attempted)
    return {"correct": tally.failed == 0 and pinned,
            "attempted": tally.attempted, "failed": tally.failed,
            "metrics": {name: {"value": value, "unit": unit_of(name)}
                        for name, value in values.items()}}


def adopt_orphans() -> None:
    """Become the reaper of orphaned descendants, such as the resource
    tracker of the server's spawn pool, so that none outlives the run."""
    try:
        ctypes.CDLL(None, use_errno=True).prctl(
            PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0)
    except (OSError, AttributeError):
        pass  # not Linux: orphans go to init as usual


def _children() -> list:
    pids = []
    for name in os.listdir("/proc"):
        try:
            with open("/proc/%s/stat" % name) as handle:
                fields = handle.read().rsplit(")", 1)[1].split()
        except (OSError, IndexError):
            continue
        if int(fields[1]) == os.getpid():
            pids.append(int(name))
    return pids


def stop_children() -> None:
    """Stop multiprocessing's resource tracker, then reap every child
    left; one that has not exited within the grace period is killed."""
    from multiprocessing import resource_tracker

    tracker = resource_tracker._resource_tracker
    if getattr(tracker, "_pid", None) is not None:
        tracker._stop()
    deadline = time.monotonic() + REAP_GRACE_S
    while True:
        try:
            pid, _ = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return
        if pid:
            continue
        if time.monotonic() > deadline + REAP_GRACE_S:
            return  # unkillable; waiting longer would break the time limit
        if time.monotonic() > deadline and os.path.isdir("/proc"):
            for child in _children():
                try:
                    os.kill(child, signal.SIGKILL)
                except ProcessLookupError:
                    pass
        time.sleep(0.02)


def main(argv=None) -> int:
    args = parse_args(argv)
    source = os.path.join(os.getcwd(), "src")
    if not os.path.isdir(os.path.join(source, "repro")):
        print("perfbench: no src/repro under %s; run from the root of "
              "a checkout" % os.getcwd(), file=sys.stderr)
        return 2
    sys.path.insert(0, source)
    adopt_orphans()
    try:
        result = measure(args.workload, args.seed, args.seconds,
                         bool(args.trace))
    finally:
        stop_children()
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
