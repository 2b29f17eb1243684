#!/usr/bin/env python
"""Tracked before/after benchmark of the check stack (BENCH_*.json).

Three workload families, mirroring the paper's experiment structure:

* ``ladder_t2_*`` / ``ladder_t3_*`` — full check ladders on Table-2 /
  Table-3 shaped cases with one inserted error (the campaign's "find
  the bug" path);
* ``ladder_clean_*`` — the same shapes without an inserted error, so
  every rung up to the exact proofs runs to completion (the campaign's
  "prove it correct" path — this is where the symbolic rungs dominate);
* ``rp_*`` — the paper's "r.p." column: the random-pattern rung alone
  at the paper's 5000-pattern budget on an error-free partial, i.e. a
  full pattern sweep with no early exit.

Every workload is timed on two stacks, same interpreter, same host
(per-bench ratios are therefore host-independent, unlike absolute
seconds):

* **legacy** — the frozen pre-rewrite reference (:mod:`repro.bdd._legacy`:
  recursive kernels, unbounded single computed table, historic sifting
  swap) plus the scalar one-pattern-at-a-time random-pattern engine;
* **current** — the iterative dict manager plus the bit-parallel
  bigint pattern engine (``wall_s``/``speedup`` keep their BENCH_PR4
  meaning).

Each ladder check runs on a fresh manager (``run_one_case``), exactly
as the campaign that produces the paper's tables does.

Output schema::

    {"meta":    {"python": "3.11.7", "quick": false, "patterns": 5000},
     "benches": {"ladder_t2_alu4": {"wall_s": 0.41,
                                    "peak_nodes": 9182,
                                    "cache_hit_rate": 0.41,
                                    "legacy_wall_s": 0.58,
                                    "legacy_peak_nodes": 9182,
                                    "speedup": 1.41}, ...},
     "aggregate": {"wall_s": ..., "legacy_wall_s": ..., "speedup": ...},
     "sat_vs_bdd": {"sat_vs_bdd_comp": {"symbolic_01x": {
                        "bdd_wall_s": ..., "sat_wall_s": ...,
                        "ratio": ..., "portfolio_winner": "bdd"},
                    "output_exact": {...}}, ...}}

The ``sat_vs_bdd`` section times the two rungs with CNF encodings on
both engines and records the deterministic portfolio's pick; it is
trajectory only — never compared by ``--baseline`` (``--no-sat``
skips it; see docs/sat.md and docs/performance.md).

Usage::

    python benchmarks/run_bench.py                      # full suite
    python benchmarks/run_bench.py --quick              # CI smoke (fast)
    python benchmarks/run_bench.py --baseline BENCH_PR9.json
    python benchmarks/run_bench.py -o BENCH_NEW.json

``--baseline`` compares the measured per-bench *speedup ratios* against
a committed BENCH_*.json and exits non-zero when any common bench
regressed by more than ``--tolerance`` (default 25%).  Columns of the
retired numpy arena stack (``arena_*``, still present in the historic
BENCH_PR9.json) are ignored.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import sys
import time
from typing import Dict, List, Optional, Tuple

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "src"))

from repro.bdd._legacy import default_legacy_bdd          # noqa: E402
from repro.bdd.function import default_bdd                # noqa: E402
from repro.core.random_pattern import check_random_patterns  # noqa: E402
from repro.experiments.runner import CHECKS, run_one_case  # noqa: E402
from repro.generators.benchmarks import BENCHMARK_FACTORIES  # noqa: E402
from repro.partial.blackbox import PartialImplementation  # noqa: E402
from repro.partial.extraction import make_partial         # noqa: E402
from repro.partial.mutations import insert_random_error   # noqa: E402

#: (bench key, circuit, fraction, num_boxes, kind).  Kind ``error`` is
#: a full ladder on a case with one inserted error, ``clean`` a full
#: ladder with no error (all rungs run to completion), ``rp`` the
#: random-pattern rung alone on an error-free partial (the paper's
#: "r.p." column — a full pattern sweep, no early exit).
FULL_BENCHES: List[Tuple[str, str, float, int, str]] = [
    ("ladder_t2_alu4", "alu4", 0.1, 5, "error"),
    ("ladder_t2_C499", "C499", 0.1, 5, "error"),
    ("ladder_t2_C880", "C880", 0.1, 5, "error"),
    ("ladder_t2_comp", "comp", 0.1, 5, "error"),
    ("ladder_t2_term1", "term1", 0.1, 5, "error"),
    ("ladder_t3_alu4_40pct", "alu4", 0.4, 1, "error"),
    ("ladder_clean_alu4", "alu4", 0.1, 5, "clean"),
    ("ladder_clean_comp", "comp", 0.1, 5, "clean"),
    ("ladder_clean_term1", "term1", 0.1, 5, "clean"),
    ("ladder_clean_C880", "C880", 0.1, 5, "clean"),
    ("ladder_clean_C1908", "C1908", 0.1, 5, "clean"),
    ("ladder_clean_apex3", "apex3", 0.1, 5, "clean"),
    ("rp_alu4", "alu4", 0.1, 5, "rp"),
    ("rp_C499", "C499", 0.1, 5, "rp"),
    ("rp_C880", "C880", 0.1, 5, "rp"),
    ("rp_C1355", "C1355", 0.1, 5, "rp"),
    ("rp_C1908", "C1908", 0.1, 5, "rp"),
    ("rp_apex3", "apex3", 0.1, 5, "rp"),
    ("rp_comp", "comp", 0.1, 5, "rp"),
    ("rp_term1", "term1", 0.1, 5, "rp"),
    ("rp_C499_40pct", "C499", 0.4, 1, "rp"),
    ("rp_C1355_40pct", "C1355", 0.4, 1, "rp"),
    ("rp_apex3_40pct", "apex3", 0.4, 1, "rp"),
]

#: SAT-vs-BDD trajectory benches: the two rungs with CNF encodings,
#: timed on both engines (clean partials, so every check runs to
#: completion).  Trajectory only — reported and recorded, never gated:
#: which engine wins is a property of the netlist family, not a
#: regression signal (docs/sat.md, docs/performance.md).
SAT_BENCHES: List[Tuple[str, str, float, int]] = [
    ("sat_vs_bdd_comp", "comp", 0.1, 5),
    ("sat_vs_bdd_alu4", "alu4", 0.1, 5),
    ("sat_vs_bdd_term1", "term1", 0.1, 5),
]

QUICK_SAT_BENCHES: List[Tuple[str, str, float, int]] = [
    ("sat_vs_bdd_comp", "comp", 0.1, 5),
]

#: CI smoke subset: finishes in well under a minute.  apex3 is the
#: anchor — its multi-second walls on every stack give the pooled
#: ratio comparisons a noise-proof denominator; the sub-second
#: benches ride along for coverage and the hit-rate assert.
QUICK_BENCHES: List[Tuple[str, str, float, int, str]] = [
    ("ladder_t2_alu4", "alu4", 0.1, 5, "error"),
    ("ladder_t2_comp", "comp", 0.1, 5, "error"),
    ("ladder_clean_apex3", "apex3", 0.1, 5, "clean"),
    ("rp_alu4", "alu4", 0.1, 5, "rp"),
]


def _build_case(circuit: str, fraction: float, num_boxes: int,
                seed: int, kind: str = "error"):
    """(spec, partial) for one bench, deterministically.

    ``error`` benches get one random gate mutation inside the partial;
    ``clean``/``rp`` benches keep the extracted partial untouched.
    """
    from repro.experiments.runner import _tune_spec

    spec = BENCHMARK_FACTORIES[circuit]()
    tuned, _ = _tune_spec(spec)
    partial = make_partial(tuned, fraction=fraction,
                           num_boxes=num_boxes, seed=seed)
    if kind != "error":
        return tuned, partial
    mutated, _ = insert_random_error(partial.circuit,
                                     random.Random(seed + 6))
    return tuned, PartialImplementation(mutated, partial.boxes)


def _time_ladder(spec, impl, patterns: int, seed: int,
                 factory, rp_engine: str) -> Tuple[float, int, float]:
    """(wall seconds, peak live nodes, cache hit rate) of one ladder.

    All five checks run, each on a fresh manager from ``factory`` —
    the campaign workload.  Peak nodes is the max over the checks;
    the hit rate pools the per-check computed-table counters.
    """
    start = time.perf_counter()
    results = run_one_case(spec, impl, CHECKS, patterns, seed=seed,
                           bdd_factory=factory, rp_engine=rp_engine)
    wall = time.perf_counter() - start
    peak = max((r.stats.get("peak_nodes", 0) for r in results.values()),
               default=0)
    hits = sum(r.stats.get("cache_hits", 0) for r in results.values())
    misses = sum(r.stats.get("cache_misses", 0)
                 for r in results.values())
    rate = hits / (hits + misses) if hits + misses else 0.0
    return wall, peak, rate


def _time_rp(spec, impl, patterns: int, seed: int,
             engine: str) -> Tuple[float, int, float]:
    """Wall seconds of the random-pattern rung alone (``rp`` benches).

    The partial is error-free, so every engine sweeps the full pattern
    budget — no early exit to mask the per-pattern cost.
    """
    start = time.perf_counter()
    result = check_random_patterns(spec, impl, patterns=patterns,
                                   seed=seed, engine=engine)
    wall = time.perf_counter() - start
    if result.error_found:
        raise RuntimeError("rp bench found an error in an error-free "
                           "partial; bench is mis-specified")
    return wall, 0, 0.0


def run_benches(benches, patterns: int, seed: int, repeats: int,
                progress=print) -> Dict[str, Dict[str, float]]:
    """Measure every bench; returns the ``benches`` mapping."""
    out: Dict[str, Dict[str, float]] = {}
    for key, circuit, fraction, num_boxes, kind in benches:
        spec, impl = _build_case(circuit, fraction, num_boxes, seed,
                                 kind)
        if kind == "rp":
            timer = lambda factory, engine: _time_rp(  # noqa: E731
                spec, impl, patterns, seed, engine)
        else:
            timer = lambda factory, engine: _time_ladder(  # noqa: E731
                spec, impl, patterns, seed, factory, engine)
        sides = [("", default_bdd, "packed"),
                 ("legacy_", default_legacy_bdd, "scalar")]
        best: Dict[str, float] = {}
        for prefix, factory, engine in sides:
            wall = float("inf")
            peak = 0
            hit_rate = 0.0
            # Best-of-N on every side damps scheduler noise equally.
            for _ in range(repeats):
                w, p, rate = timer(factory, engine)
                if w < wall:
                    wall, peak, hit_rate = w, p, rate
            best[prefix + "wall_s"] = round(wall, 4)
            best[prefix + "peak_nodes"] = peak
            if prefix != "legacy_":
                best[prefix + "cache_hit_rate"] = round(hit_rate, 4)
        entry = {
            "wall_s": best["wall_s"],
            "peak_nodes": best["peak_nodes"],
            "cache_hit_rate": best["cache_hit_rate"],
            "legacy_wall_s": best["legacy_wall_s"],
            "legacy_peak_nodes": best["legacy_peak_nodes"],
            "speedup": round(best["legacy_wall_s"] / best["wall_s"], 3),
        }
        line = ("%-22s %7.2fs vs legacy %7.2fs  speedup %.2fx"
                % (key, entry["wall_s"], entry["legacy_wall_s"],
                   entry["speedup"]))
        out[key] = entry
        progress(line)
    return out


def run_sat_benches(benches, seed: int, repeats: int,
                    progress=print) -> Dict[str, Dict]:
    """Time the symbolic-0,1,X and output-exact rungs on both engines.

    Each check runs on a fresh manager / fresh solver per repeat
    (best-of-N both sides), and the deterministic portfolio race
    (:mod:`repro.core.portfolio`) is run once to record which engine
    it picks.  ``ratio`` is bdd_wall / sat_wall (> 1 means SAT is
    faster).  Nothing here gates: the numbers track the trajectory.
    """
    from repro.core.output_exact import check_output_exact
    from repro.core.portfolio import (race_output_exact,
                                      race_symbolic_01x)
    from repro.core.symbolic01x import check_symbolic_01x
    from repro.sat import (check_output_exact_sat,
                           check_symbolic_01x_sat)

    checks = {
        "symbolic_01x": (
            lambda spec, impl: check_symbolic_01x(spec, impl,
                                                  default_bdd()),
            check_symbolic_01x_sat,
            lambda spec, impl: race_symbolic_01x(spec, impl,
                                                 default_bdd()),
        ),
        "output_exact": (
            lambda spec, impl: check_output_exact(spec, impl),
            check_output_exact_sat,
            lambda spec, impl: race_output_exact(spec, impl,
                                                 default_bdd()),
        ),
    }
    out: Dict[str, Dict] = {}
    for key, circuit, fraction, num_boxes in benches:
        spec, impl = _build_case(circuit, fraction, num_boxes, seed,
                                 kind="clean")
        entry: Dict[str, Dict[str, float]] = {}
        for name, (bdd_check, sat_check, racer) in checks.items():
            bdd_wall = sat_wall = float("inf")
            for _ in range(repeats):
                start = time.perf_counter()
                bdd_check(spec, impl)
                bdd_wall = min(bdd_wall, time.perf_counter() - start)
                start = time.perf_counter()
                sat_check(spec, impl)
                sat_wall = min(sat_wall, time.perf_counter() - start)
            winner = racer(spec, impl).stats["engine"]
            entry[name] = {
                "bdd_wall_s": round(bdd_wall, 4),
                "sat_wall_s": round(sat_wall, 4),
                "ratio": round(bdd_wall / sat_wall, 3),
                "portfolio_winner": winner,
            }
            progress("%-22s %-13s bdd %7.3fs  sat %7.3fs  "
                     "ratio %.2fx  portfolio -> %s"
                     % (key, name, bdd_wall, sat_wall,
                        entry[name]["ratio"], winner))
        out[key] = entry
    return out


#: Ratio checks need signal.  Below _COMPARE_WALL_FLOOR combined
#: baseline wall seconds a bench is noise-dominated outright and is
#: reported informationally, excluded even from the pool (tens of ms
#: of scheduler jitter on a ~0.1 s ladder swings every number).
_COMPARE_WALL_FLOOR = 1.0
#: A bench's individual ratio is legacy/current: below this many
#: baseline wall seconds on the *current* side the denominator alone
#: (e.g. a ~20 ms packed sweep against a multi-second scalar one) makes
#: the per-bench ratio swing past any sane tolerance, so such benches
#: participate in the pooled comparison only.
_COMPARE_DENOM_FLOOR = 0.05


def compare_to_baseline(benches: Dict[str, Dict], baseline: Dict,
                        tolerance: float, report=print) -> bool:
    """True when the speedup did not regress past ``tolerance``.

    Two layers, both on *ratios* (host-independent), over common
    benches whose baseline spent at least ``_COMPARE_WALL_FLOOR``
    combined wall seconds:

    * each such bench whose baseline current-stack wall also reaches
      ``_COMPARE_DENOM_FLOOR`` is compared individually;
    * the pooled ratio (sum of legacy walls over sum of current
      walls) is compared.
    """
    ok = True
    base_benches = baseline.get("benches", {})
    walls = legacy_walls = base_walls = base_legacy_walls = 0.0
    for key, entry in benches.items():
        base = base_benches.get(key)
        if base is None or "speedup" not in base:
            continue
        if base["wall_s"] + base["legacy_wall_s"] < _COMPARE_WALL_FLOOR:
            report("-- %s: sub-second bench, not gated "
                   "(speedup %.2fx, baseline %.2fx)"
                   % (key, entry["speedup"], base["speedup"]))
            continue
        walls += entry["wall_s"]
        legacy_walls += entry["legacy_wall_s"]
        base_walls += base["wall_s"]
        base_legacy_walls += base["legacy_wall_s"]
        floor = base["speedup"] * (1.0 - tolerance)
        if base["wall_s"] < _COMPARE_DENOM_FLOOR:
            report("-- %s: denominator too small, pooled only "
                   "(speedup %.2fx, baseline %.2fx)"
                   % (key, entry["speedup"], base["speedup"]))
        elif entry["speedup"] < floor:
            report("REGRESSION %s: speedup %.2fx < %.2fx "
                   "(baseline %.2fx - %d%%)"
                   % (key, entry["speedup"], floor, base["speedup"],
                      round(100 * tolerance)))
            ok = False
        else:
            report("ok %s: speedup %.2fx (baseline %.2fx)"
                   % (key, entry["speedup"], base["speedup"]))
    if walls and base_walls:
        pooled = legacy_walls / walls
        base_pooled = base_legacy_walls / base_walls
        floor = base_pooled * (1.0 - tolerance)
        if pooled < floor:
            report("REGRESSION pooled: speedup %.2fx < %.2fx "
                   "(baseline %.2fx - %d%%)"
                   % (pooled, floor, base_pooled,
                      round(100 * tolerance)))
            ok = False
        else:
            report("ok pooled: speedup %.2fx (baseline %.2fx)"
                   % (pooled, base_pooled))
    return ok


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="Before/after BDD kernel benchmark (BENCH_*.json)")
    parser.add_argument("--quick", action="store_true",
                        help="CI smoke subset with fewer patterns; "
                             "also asserts the computed table is live "
                             "(hit rate > 0 on every bench)")
    parser.add_argument("--patterns", type=int, default=None,
                        help="random patterns for the r.p. rung "
                             "(default 5000 — the paper's budget — "
                             "or 100 with --quick)")
    parser.add_argument("--seed", type=int, default=2004)
    parser.add_argument("--repeats", type=int, default=1,
                        help="best-of-N timing repetitions per side")
    parser.add_argument("--benchmarks", type=str, default=None,
                        help="comma-separated bench-key subset")
    parser.add_argument("--baseline", metavar="FILE", default=None,
                        help="committed BENCH_*.json to compare "
                             "speedup ratios against")
    parser.add_argument("--tolerance", type=float, default=0.25,
                        help="allowed fractional speedup regression "
                             "vs --baseline (default 0.25)")
    parser.add_argument("-o", "--output", metavar="FILE", default=None,
                        help="write the result JSON here")
    parser.add_argument("--no-sat", action="store_true",
                        help="skip the SAT-vs-BDD trajectory column")
    args = parser.parse_args(argv)

    benches = QUICK_BENCHES if args.quick else FULL_BENCHES
    if args.benchmarks:
        wanted = {k.strip() for k in args.benchmarks.split(",")}
        known = {b[0] for b in FULL_BENCHES}
        unknown = wanted - known
        if unknown:
            parser.error("unknown benches: %s (known: %s)"
                         % (", ".join(sorted(unknown)),
                            ", ".join(sorted(known))))
        benches = [b for b in FULL_BENCHES if b[0] in wanted]
    patterns = args.patterns or (100 if args.quick else 5000)

    measured = run_benches(benches, patterns, args.seed, args.repeats,
                           progress=lambda msg: print(msg,
                                                      file=sys.stderr))
    walls = [e["wall_s"] for e in measured.values()]
    legacy_walls = [e["legacy_wall_s"] for e in measured.values()]
    aggregate = {
        "wall_s": round(sum(walls), 4),
        "legacy_wall_s": round(sum(legacy_walls), 4),
        "speedup": round(sum(legacy_walls) / sum(walls), 3),
    }
    result = {
        "meta": {
            "python": platform.python_version(),
            "quick": args.quick,
            "patterns": patterns,
            "seed": args.seed,
            "repeats": args.repeats,
        },
        "benches": measured,
        "aggregate": aggregate,
    }
    if not args.no_sat and not args.benchmarks:
        sat_benches = QUICK_SAT_BENCHES if args.quick else SAT_BENCHES
        result["sat_vs_bdd"] = run_sat_benches(
            sat_benches, args.seed, args.repeats,
            progress=lambda msg: print(msg, file=sys.stderr))
    text = json.dumps(result, indent=2, sort_keys=True)
    if args.output:
        with open(args.output, "w") as handle:
            handle.write(text + "\n")
        print("wrote %s" % args.output, file=sys.stderr)
    else:
        print(text)
    print("aggregate speedup: %.2fx" % aggregate["speedup"],
          file=sys.stderr)

    status = 0
    if args.quick:
        kinds = {b[0]: b[4] for b in FULL_BENCHES + QUICK_BENCHES}
        dead = [k for k, e in measured.items()
                if kinds.get(k) != "rp" and e["cache_hit_rate"] <= 0.0]
        if dead:
            print("FAIL: computed table saw no hits on: %s"
                  % ", ".join(dead), file=sys.stderr)
            status = 1
    if args.baseline:
        with open(args.baseline) as handle:
            baseline = json.load(handle)
        if not compare_to_baseline(
                measured, baseline, args.tolerance,
                report=lambda msg: print(msg, file=sys.stderr)):
            status = 1
    return status


if __name__ == "__main__":
    sys.exit(main())
