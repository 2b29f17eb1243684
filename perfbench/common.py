"""Shared helpers of the benchmark: statistics, host calibration,
memory, the work directory and the known-answer checks.

Everything here is stdlib-only and imports nothing from ``repro``, so
the runner can report a missing program cleanly.
"""

from __future__ import annotations

import hashlib
import json
import os
import resource
import shutil
import statistics
import time
from typing import Dict, Iterable, List, Sequence

HERE = os.path.dirname(os.path.abspath(__file__))

#: Rung names of the paper's ladder, cheapest first.
RUNGS = ("random_pattern", "symbolic_01x", "local", "output_exact",
         "input_exact")

#: The seed whose verdict digests are pinned in ``pinned.json``.
DEFAULT_SEED = 1

#: Iterations of the fixed CPython loop behind ``host.calib_s``.
CALIB_ITERATIONS = 3_000_000

#: Iterations of one pass of the reference loop that brackets every
#: timed stretch, and the passes whose median is one reference sample.
REF_ITERATIONS = 200_000
REF_PASSES = 3

#: Seconds one reference sample takes on the nominal host: the 2-vCPU
#: Xeon VM the bounds were set on, in a calm period.
NOMINAL_REF_S = 0.0080


def calibrate_host() -> float:
    """Seconds one fixed pure-Python loop takes right now.

    Recorded before every run so that a slow host can be told apart
    from a slow program when two runs disagree.
    """
    start = time.perf_counter()
    total = 0
    for i in range(CALIB_ITERATIONS):
        total += i
    elapsed = time.perf_counter() - start
    if total != CALIB_ITERATIONS * (CALIB_ITERATIONS - 1) // 2:
        raise RuntimeError("calibration loop miscounted")
    return elapsed


def reference_s() -> float:
    """One reference sample: the median time of a few passes of a
    short pure-Python loop that shares nothing with the program."""
    passes = []
    for _ in range(REF_PASSES):
        start = time.perf_counter()
        total = 0
        for i in range(REF_ITERATIONS):
            total += i
        passes.append(time.perf_counter() - start)
    return float(statistics.median(passes))


class HostClock:
    """Turns wall seconds into nominal-host seconds.

    The shared host's speed drifts by a third over tens of seconds,
    which no length of run averages away.  So every timed stretch of a
    closed loop is bracketed by reference samples, and its wall time is
    scaled by ``NOMINAL_REF_S`` over the mean of the two samples around
    it.  A change to the program moves the stretch and not the
    reference, so it shows in full.
    """

    def __init__(self) -> None:
        self.samples: List[float] = [reference_s()]

    def factor(self) -> float:
        """Scale for the stretch that ended just now."""
        self.samples.append(reference_s())
        return NOMINAL_REF_S / ((self.samples[-2] + self.samples[-1]) / 2)


def median(values: Sequence[float]) -> float:
    return float(statistics.median(values)) if values else 0.0


def percentile(values: Sequence[float], pct: int) -> float:
    """Interpolated percentile (``statistics.quantiles``, inclusive)."""
    if not values:
        return 0.0
    if len(values) == 1:
        return float(values[0])
    return float(statistics.quantiles(values, n=100,
                                      method="inclusive")[pct - 1])


def peak_rss_mb() -> float:
    """Peak RSS of this process plus that of its largest reaped
    descendant, in MiB (``ru_maxrss`` is KiB on Linux)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def work_dir(name: str) -> str:
    """A fresh scratch directory inside the checkout, for journals,
    traces and caches (ignored by git)."""
    path = os.path.join(os.getcwd(), ".perfbench_work", name)
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)
    return path


def digest(items: Iterable) -> str:
    """Stable short digest of a JSON-serialisable verdict list."""
    text = json.dumps(list(items), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


class Tally:
    """Attempts, failures and the reasons for them."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.reasons: List[str] = []

    def fail(self, reason: str) -> None:
        self.failed += 1
        if len(self.reasons) < 20:
            self.reasons.append(reason)


def check_monotone(detections: Sequence[bool]) -> bool:
    """The ladder property: once a rung detects the error, every more
    accurate rung detects it too."""
    seen = False
    for found in detections:
        if seen and not found:
            return False
        seen = seen or found
    return True


def pinned_ok(workload: str, seed: int, verdicts: List,
              tally: Tally) -> bool:
    """For the default seed, the verdict digest must match the pinned
    one; other seeds only get the per-case properties."""
    if seed != DEFAULT_SEED:
        return True
    got = digest(verdicts)
    with open(os.path.join(HERE, "pinned.json")) as handle:
        want = json.load(handle).get(workload)
    if got != want:
        tally.reasons.append("verdict digest %s != pinned %s"
                             % (got, want))
        return False
    return True


def tune_spec(spec):
    """Sift a specification once and bake the order into it, as a
    campaign does before carving boxes."""
    from repro.bdd import default_bdd
    from repro.sim.symbolic import symbolic_simulate

    bdd = default_bdd()
    functions = symbolic_simulate(spec, bdd)
    bdd.reorder()
    inputs = set(spec.inputs)
    order = [var for var in bdd.var_order if var in inputs]
    del functions
    return spec.with_input_order(order)


def span_durations(events: Sequence[Dict]) -> List[tuple]:
    """``(name, seconds, begin_args, end_args)`` for every closed
    ``B``/``E`` span of a trace, in close order."""
    stack: List[Dict] = []
    out: List[tuple] = []
    for event in events:
        ph = event.get("ph")
        if ph == "B":
            stack.append(event)
        elif ph == "E" and stack:
            begin = stack.pop()
            out.append((begin["name"],
                        (event["ts"] - begin["ts"]) / 1e6,
                        begin.get("args", {}), event.get("args", {})))
    return out
