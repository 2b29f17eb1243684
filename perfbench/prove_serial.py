"""``prove_serial``: one client proving clean partials in a closed loop.

Each request is an in-process ``BlackBoxChecker.check`` call (the
``run_ladder`` path) with the default strategy and backend, on an
error-free one-box partial implementation (10% of the gates boxed).
Nothing refutes a clean pair, so all five rungs run to completion and
BDD construction, quantification, GC and sifting do most of the work.

Requests come in stratified blocks: every block holds the same number
of cases of each circuit, in a seeded order with seeded box
selections, so two seeds ask for the same kind of work.
"""

from __future__ import annotations

import contextlib
import random
import sys
import time
from typing import Dict, List

from common import RUNGS, HostClock, Tally, median, percentile, \
    pinned_ok, span_durations, tune_spec

#: Cases per circuit in one block.  C1908, whose per-case cost varies
#: least between box selections, is three quarters of every block, so
#: both latency percentiles fall well inside its cases.  apex3, C499,
#: C1355 and term1 are left out: single boxes on them can take 1.5 to
#: 9 s, so one draw would dominate a run (see README.md).
BLOCK = {"C1908": 9, "C880": 1, "alu4": 1, "comp": 1}

#: Blocks whose verdicts are pinned and whose work counters are
#: reported; every run completes at least these.
PREFIX_BLOCKS = 2


def setup(seed: int, seconds: float) -> Dict:
    from repro.api import BlackBoxChecker
    from repro.generators.benchmarks import benchmark_circuit

    checkers = {name: BlackBoxChecker(tune_spec(benchmark_circuit(name)))
                for name in BLOCK}
    state = {"checkers": checkers, "seed": seed}
    # Generating the first block's cases is part of the set-up users
    # wait for; later blocks are generated between timed blocks.
    state["first_block"] = _block(state, 0)
    return state


def _block(state: Dict, index: int) -> List[tuple]:
    rng = random.Random("prove_serial:%d:%d" % (state["seed"], index))
    names = [name for name, count in BLOCK.items()
             for _ in range(count)]
    rng.shuffle(names)
    cases = []
    for name in names:
        partial = state["checkers"][name].carve(
            fraction=0.1, num_boxes=1, seed=rng.getrandbits(32))
        cases.append((name, partial, rng.getrandbits(32)))
    return cases


def _prove(state: Dict, case: tuple, tally: Tally, verdicts: List)\
        -> bool:
    name, partial, pattern_seed = case
    tally.attempted += 1
    try:
        results = state["checkers"][name].check(partial,
                                                seed=pattern_seed)
    except Exception as exc:  # a crash is a failed attempt, not a stop
        tally.fail("%s: %s: %s" % (name, type(exc).__name__, exc))
        return False
    verdicts.append([name, [[r.check, r.error_found, r.exact]
                            for r in results]])
    if [r.check for r in results] != list(RUNGS):
        tally.fail("%s: ladder ran %s" % (name,
                                          [r.check for r in results]))
    elif any(r.outcome != "ok" for r in results):
        tally.fail("%s: non-ok outcome" % name)
    elif any(r.error_found for r in results):
        tally.fail("%s: a clean pair was refuted" % name)
    else:
        return True
    return False


@contextlib.contextmanager
def _layer_timers(totals: Dict[str, float]):
    """Time the context build and the lint from outside the program by
    wrapping the module attributes the ladder calls through."""
    import repro.analysis.lint as lint_module
    import repro.core.ladder as ladder_module

    def timed(key, function):
        def wrapper(*args, **kwargs):
            start = time.perf_counter()
            try:
                return function(*args, **kwargs)
            finally:
                totals[key] += time.perf_counter() - start
        return wrapper

    saved = (ladder_module.prepare_context, lint_module.lint_partial)
    ladder_module.prepare_context = timed("context", saved[0])
    lint_module.lint_partial = timed("lint", saved[1])
    try:
        yield
    finally:
        ladder_module.prepare_context, lint_module.lint_partial = saved


def _traced_block(state: Dict, cases: List[tuple], prefix: bool,
                  acc: Dict) -> float:
    """Prove ``cases`` again under a tracer and fold the layer numbers
    into ``acc``; returns the block's wall time."""
    from repro.obs import Tracer, set_tracer

    tracer = Tracer()
    previous = set_tracer(tracer)
    start = time.perf_counter()
    try:
        with _layer_timers(acc):
            for case in cases:
                _prove(state, case, Tally(), [])
    finally:
        set_tracer(previous)
    wall = time.perf_counter() - start
    acc["traced_s"] += wall
    acc["cases"] += len(cases)
    for name, dur, _begin, end in span_durations(tracer.events):
        if name.startswith("rung:"):
            acc[name[5:]] += dur
            # Work counters cover the prefix blocks only, so they do not
            # depend on how many blocks the host managed in the window.
            if prefix:
                for key in ("cache_hits", "cache_misses", "gc_runs",
                            "reorders"):
                    acc[key] += end.get(key, 0)
                acc["peak_nodes"] = max(acc["peak_nodes"],
                                        end.get("peak_nodes", 0))
        elif name == "reorder":
            acc["reorder_s"] += dur
    if prefix:
        acc["quant_picks"] += sum(1 for event in tracer.events
                                  if event.get("name") == "quant_pick")
    return wall


def run(state: Dict, seconds: float, trace: bool) -> tuple:
    tally = Tally()
    verdicts: List = []
    latencies: List[float] = []
    good = 0
    untraced_s = 0.0
    acc: Dict = dict.fromkeys(RUNGS + ("context", "lint", "reorder_s",
                                       "traced_s"), 0.0)
    acc.update(dict.fromkeys(("cases", "cache_hits", "cache_misses",
                              "gc_runs", "reorders", "peak_nodes",
                              "quant_picks"), 0))
    rates: List[float] = []
    clock = HostClock()
    measured = 0.0
    index = 0
    while index < PREFIX_BLOCKS or measured < seconds:
        cases = state.pop("first_block") if index == 0 \
            else _block(state, index)
        block: List[float] = []
        start = time.perf_counter()
        for case in cases:
            begin = time.perf_counter()
            if _prove(state, case, tally,
                      verdicts if index < PREFIX_BLOCKS else []):
                good += 1
                block.append(time.perf_counter() - begin)
        wall = time.perf_counter() - start
        factor = clock.factor()
        latencies.extend(latency * factor for latency in block)
        rates.append(len(block) / (wall * factor))
        untraced_s += wall
        measured += wall
        if trace:
            measured += _traced_block(state, cases,
                                      index < PREFIX_BLOCKS, acc)
        index += 1
    pinned = pinned_ok("prove_serial", state["seed"], verdicts, tally)
    if not trace:
        print("wall cases_per_s %.4f" % (good / untraced_s),
              file=sys.stderr)
        return tally, pinned, {
            "cases_per_s": median(rates),
            "verdict_p50_s": median(latencies),
            "verdict_p90_s": percentile(latencies, 90)}
    per_case = 1.0 / acc["cases"]
    lookups = acc["cache_hits"] + acc["cache_misses"]
    layer = {"core.%s_s" % rung: acc[rung] * per_case for rung in RUNGS}
    layer.update({
        "core.context_s": acc["context"] * per_case,
        "analysis.lint_s": acc["lint"] * per_case,
        "bdd.cache_misses": acc["cache_misses"],
        "bdd.cache_hit_rate": acc["cache_hits"] / lookups
        if lookups else 0.0,
        "bdd.peak_nodes": acc["peak_nodes"],
        "bdd.gc_runs": acc["gc_runs"],
        "bdd.reorders": acc["reorders"],
        "bdd.reorder_s": acc["reorder_s"] * per_case,
        "bdd.quant_picks": acc["quant_picks"],
        "obs.overhead_share": acc["traced_s"] / untraced_s - 1.0})
    return tally, pinned, layer
