"""``campaign_portfolio``: Table-1-shaped campaigns as batches.

Each batch is one ``run_campaign(jobs=2)`` call with
``strategy="portfolio"`` over alu4, comp and C1908: eight box
selections per circuit, one inserted error per selection, and all five
checks on every case, each on a fresh manager.  Cases are cheap, so
the spawn pool, the journal and the SAT/BDD race carry the cost.  A run
is a sequence of batches with seeded campaign seeds; throughput counts
the pool spawn of every batch.
"""

from __future__ import annotations

import contextlib
import os
import random
import sys
import time
from typing import Dict, List, Optional

from common import HostClock, Tally, check_monotone, median, \
    percentile, pinned_ok, span_durations, tune_spec, work_dir

#: term1 and C880 are left out: the cost of their cases varies so much
#: between box selections that batch rates spread by 20 to 40% between
#: seeds (see README.md).
BENCHMARKS = ("alu4", "comp", "C1908")
SELECTIONS = 8
ERRORS = 1
JOBS = 2

#: Batches whose verdicts are pinned and whose work counters are
#: reported; every run completes at least these.
PREFIX_BATCHES = 1

#: Raced rungs timed engine against engine for ``pick_accuracy``.
PICK_SAMPLE = 6

#: Wall-clock cap on one standalone engine run in that sample.
PICK_CAP_S = 3.0

#: Journal names of the rungs the portfolio races, and their ladder
#: names.
RACED = {"0,1,X": "symbolic_01x", "oe": "output_exact"}


def _config(seed: int, index: int, benchmarks=BENCHMARKS,
            selections: int = SELECTIONS, errors: int = ERRORS):
    from repro.experiments.runner import ExperimentConfig

    campaign_seed = random.Random(
        "campaign_portfolio:%d:%d" % (seed, index)).getrandbits(31)
    return ExperimentConfig(fraction=0.1, num_boxes=1,
                            selections=selections, errors=errors,
                            seed=campaign_seed, strategy="portfolio",
                            benchmarks=list(benchmarks))


def setup(seed: int, seconds: float) -> Dict:
    """Case generation for the first batch plus a two-case warm-up
    campaign, which pays the worker spawn and imports."""
    from repro.jobs.engine import run_campaign
    from repro.jobs.spec import enumerate_cases

    enumerate_cases(_config(seed, 0))
    warm = run_campaign(_config(seed, -1, benchmarks=("comp",),
                                selections=1, errors=2), jobs=JOBS)
    if any(record.outcome != "ok" for record in warm.records):
        raise RuntimeError("warm-up campaign failed")
    return {"seed": seed, "dir": work_dir("campaign_portfolio")}


def _validate(record, tally: Tally) -> bool:
    tally.attempted += 1
    where = record.case.describe()
    if record.outcome != "ok":
        tally.fail("%s: outcome %s" % (where, record.outcome))
        return False
    checks = [record.checks.get(name) for name in record.case.checks]
    if any(check is None or check.outcome != "ok" for check in checks):
        tally.fail("%s: a check did not finish ok" % where)
        return False
    if not check_monotone([check.error_found for check in checks]):
        tally.fail("%s: check detections not monotone" % where)
        return False
    if any(record.checks[name].engine not in ("sat", "bdd")
           for name in RACED):
        tally.fail("%s: raced check without a winner" % where)
        return False
    return True


@contextlib.contextmanager
def _job_timers(stats: Dict):
    """Time journal writes and the aggregation from outside the
    program by wrapping what ``run_campaign`` calls through."""
    import repro.jobs.engine as engine

    writer_class, fold = engine.JournalWriter, engine.fold_records

    class TimedWriter(writer_class):
        def write(self, record):
            start = time.perf_counter()
            super().write(record)
            stats["journal_write_s"] += time.perf_counter() - start
            if stats["first_record_at"] is None:
                stats["first_record_at"] = start

    def timed_fold(*args, **kwargs):
        start = time.perf_counter()
        try:
            return fold(*args, **kwargs)
        finally:
            stats["aggregate_s"] += time.perf_counter() - start

    engine.JournalWriter, engine.fold_records = TimedWriter, timed_fold
    try:
        yield
    finally:
        engine.JournalWriter, engine.fold_records = writer_class, fold


def _batch(state: Dict, index: int, task, trace_dir: Optional[str]):
    from repro.jobs.engine import run_campaign

    journal = os.path.join(state["dir"], "batch%d%s.jsonl"
                           % (index, "t" if trace_dir else ""))
    previous = os.environ.pop("REPRO_TRACE_DIR", None)
    if trace_dir:
        os.makedirs(trace_dir)
        os.environ["REPRO_TRACE_DIR"] = trace_dir
    try:
        start = time.perf_counter()
        result = run_campaign(_config(state["seed"], index), jobs=JOBS,
                              journal=journal, task=task)
        wall = time.perf_counter() - start
    finally:
        os.environ.pop("REPRO_TRACE_DIR", None)
        if previous is not None:
            os.environ["REPRO_TRACE_DIR"] = previous
    return result, wall, journal, start


def _pick_accuracy(records, seed: int) -> float:
    """Time both engines standalone on a seeded sample of raced rungs;
    the share where the journaled winner was also the faster one."""
    from repro.experiments.runner import run_one_case
    from repro.generators.benchmarks import benchmark_circuit
    from repro.partial.blackbox import PartialImplementation
    from repro.partial.extraction import make_partial
    from repro.partial.mutations import insert_random_error
    from repro.resilience.budget import Budget, BudgetExceededError

    rungs = [(record, name) for record in records for name in RACED]
    sample = random.Random("pick:%d" % seed).sample(
        rungs, min(PICK_SAMPLE, len(rungs)))
    specs: Dict[str, object] = {}
    agree = timed = 0
    for record, name in sample:
        case = record.case
        if case.benchmark not in specs:
            specs[case.benchmark] = tune_spec(
                benchmark_circuit(case.benchmark))
        spec = specs[case.benchmark]
        partial = make_partial(spec, fraction=case.fraction,
                               num_boxes=case.num_boxes,
                               seed=case.partial_seed)
        mutated, _ = insert_random_error(
            partial.circuit, random.Random(case.mutation_seed))
        impl = PartialImplementation(mutated, partial.boxes)
        wall = {}
        for engine, strategy in (("sat", "sat"), ("bdd", None)):
            # An engine stuck past the cap is the slower one; the cap
            # keeps one pathological rung from eating the run.
            start = time.perf_counter()
            try:
                run_one_case(spec, impl, (name,), case.patterns,
                             seed=case.case_seed, strategy=strategy,
                             budget=Budget(wall_seconds=PICK_CAP_S))
            except BudgetExceededError:
                wall[engine] = float("inf")
            else:
                wall[engine] = time.perf_counter() - start
        if wall["sat"] == wall["bdd"]:
            continue  # neither finished: no evidence either way
        timed += 1
        faster = "sat" if wall["sat"] < wall["bdd"] else "bdd"
        agree += record.checks[name].engine == faster
    return agree / timed if timed else 0.0


def _read_traces(trace_dir: str) -> List[Dict]:
    from repro.obs import read_jsonl

    return [event for name in sorted(os.listdir(trace_dir))
            for event in read_jsonl(os.path.join(trace_dir, name))]


def _traced_batch(state: Dict, index: int, task, acc: Dict) -> float:
    """Run batch ``index`` again with per-case traces on and fold its
    layer numbers into ``acc``; returns the batch's wall time."""
    trace_dir = os.path.join(state["dir"], "trace%d" % index)
    timers = {"journal_write_s": 0.0, "aggregate_s": 0.0,
              "first_record_at": None}
    with _job_timers(timers):
        result, wall, journal, start = _batch(state, index, task,
                                              trace_dir)
    records = result.records
    acc["traced_s"] += wall
    acc["batches"] += 1
    acc["records"] += len(records)
    acc["journal_write_s"] += timers["journal_write_s"]
    acc["aggregate_s"] += timers["aggregate_s"]
    if timers["first_record_at"] is not None:
        acc["first_record"].append(timers["first_record_at"] - start)
    acc["worker_s"] += sum(record.seconds for record in records)
    acc["jobs.retries"] += sum(record.attempt - 1 for record in records)
    acc["raced_journal_s"] += sum(record.checks[name].seconds
                                  for record in records for name in RACED)
    # Work counters cover the prefix batches only, so they do not
    # depend on how many batches the host managed in the window.
    prefix = index < PREFIX_BATCHES
    if prefix:
        acc["prefix_records"].extend(records)
        acc["jobs.journal_bytes"] += os.path.getsize(journal)
        for record in records:
            for name in RACED:
                engine = record.checks[name].engine
                if engine in ("sat", "bdd"):
                    acc["portfolio.%s_wins" % engine] += 1
    events = _read_traces(trace_dir)
    for name, dur, begin, end in span_durations(events):
        if name in ("check:symbolic_01x", "check:output_exact"):
            acc["raced_span_s"] += dur
        elif name.startswith("sat:"):
            acc["sat_s"] += dur
            if prefix:
                # sat:dual_rail reports solver counters, sat:cegar the
                # sat_-prefixed totals of its two solvers.
                acc["sat.propagations"] += end.get(
                    "propagations", end.get("sat_propagations", 0))
                acc["sat.conflicts"] += end.get(
                    "conflicts", end.get("sat_conflicts", 0))
                acc["sat.cnf_clauses"] += begin.get("clauses", 0)
    if prefix:
        acc["portfolio.race_steps"] += sum(
            event["args"]["steps"] for event in events
            if event.get("name") == "portfolio")
    return wall


def run(state: Dict, seconds: float, trace: bool, task=None) -> tuple:
    tally = Tally()
    verdicts: List = []
    latencies: List[float] = []
    good = 0
    untraced_s = 0.0
    acc: Dict = dict.fromkeys(
        ("traced_s", "journal_write_s", "aggregate_s", "worker_s",
         "raced_journal_s", "raced_span_s", "sat_s"), 0.0)
    acc.update(dict.fromkeys(
        ("batches", "records", "jobs.retries", "jobs.journal_bytes",
         "portfolio.sat_wins", "portfolio.bdd_wins",
         "portfolio.race_steps", "sat.propagations", "sat.conflicts",
         "sat.cnf_clauses"), 0))
    acc.update(first_record=[], prefix_records=[])
    rates: List[float] = []
    clock = HostClock()
    measured = 0.0
    index = 0
    while index < PREFIX_BATCHES or measured < seconds:
        result, wall, _, _ = _batch(state, index, task, None)
        factor = clock.factor()
        untraced_s += wall
        measured += wall
        batch_good = 0
        for record in result.records:
            if _validate(record, tally):
                batch_good += 1
                latencies.append(record.seconds * factor)
            if index < PREFIX_BATCHES:
                verdicts.append([
                    record.case.benchmark, record.case.selection,
                    record.case.error_index,
                    [[name, check.error_found, check.engine]
                     for name, check in sorted(record.checks.items())]])
        good += batch_good
        rates.append(batch_good / (wall * factor))
        if trace:
            measured += _traced_batch(state, index, task, acc)
        index += 1
    pinned = pinned_ok("campaign_portfolio", state["seed"], verdicts,
                       tally)
    if not trace:
        print("wall cases_per_s %.4f" % (good / untraced_s),
              file=sys.stderr)
        return tally, pinned, {
            "cases_per_s": median(rates),
            "verdict_p50_s": median(latencies),
            "verdict_p90_s": percentile(latencies, 90)}
    layer = {name: value for name, value in acc.items() if "." in name}
    layer.update({
        "jobs.first_record_s": median(acc["first_record"]),
        "jobs.busy_share": acc["worker_s"] / (JOBS * acc["traced_s"]),
        "jobs.journal_write_s": acc["journal_write_s"] / acc["records"],
        "jobs.aggregate_s": acc["aggregate_s"] / acc["batches"],
        "portfolio.unaccounted_share": 1.0 - acc["raced_journal_s"]
        / acc["raced_span_s"] if acc["raced_span_s"] else 0.0,
        "portfolio.pick_accuracy": _pick_accuracy(acc["prefix_records"],
                                                  state["seed"]),
        "sat.solve_s": acc["sat_s"] / acc["records"],
        "obs.overhead_share": acc["traced_s"] / untraced_s - 1.0})
    return tally, pinned, layer
