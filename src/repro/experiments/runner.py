"""Experiment driver reproducing the paper's evaluation (Section 3).

For each benchmark circuit: carve a fraction of the gates into Black
Boxes (several random selections), insert random errors into the kept
logic, and run all five checks on every mutated partial implementation.
Reported per circuit, averaged over selections: detection ratio per
check, BDD node counts (specification, implementation, peak during
check) and run times — the columns of Tables 1 and 2.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..bdd import default_bdd
from ..circuit.netlist import Circuit
from ..obs import ManagerSnapshot, get_tracer
from ..core.input_exact import input_exact_from_context
from ..core.local_check import local_check_from_context
from ..core.output_exact import output_exact_from_context
from ..core.common import prepare_context
from ..core.random_pattern import check_random_patterns
from ..core.result import CheckResult
from ..core.symbolic01x import check_symbolic_01x
from ..generators.benchmarks import BENCHMARK_FACTORIES
from ..partial.blackbox import PartialImplementation
from ..sim.symbolic import symbolic_simulate

# NOTE: repro.jobs imports this module at import time (for
# BenchmarkRow / run_one_case), so everything from repro.jobs must be
# imported lazily inside functions here.

__all__ = ["CHECKS", "ExperimentConfig", "BenchmarkRow", "run_one_case",
           "run_benchmark_row", "run_table"]

#: Check short names in paper column order.
CHECKS = ("r.p.", "0,1,X", "loc.", "oe", "ie")

_CHECK_KEYS = {
    "r.p.": "random_pattern",
    "0,1,X": "symbolic_01x",
    "loc.": "local",
    "oe": "output_exact",
    "ie": "input_exact",
}


@dataclass
class ExperimentConfig:
    """Parameters of one table experiment.

    The paper's setting is ``selections=5, errors=100, patterns=5000``;
    the defaults here are scaled down so a full table regenerates in
    minutes of pure-Python time.  Pass ``full=True`` factory for the
    paper-scale campaign.
    """

    fraction: float = 0.1
    num_boxes: int = 1
    selections: int = 2
    errors: int = 10
    patterns: int = 500
    seed: int = 2001
    checks: Sequence[str] = CHECKS
    benchmarks: Optional[Sequence[str]] = None
    #: In-process resource governance (see :mod:`repro.resilience`):
    #: per-check live BDD node ceiling and cooperative per-case
    #: wall-clock deadline.  ``None`` disables the respective limit;
    #: a governed check that overruns degrades to ``inconclusive``
    #: instead of running away or being SIGKILLed.
    node_limit: Optional[int] = None
    soft_timeout: Optional[float] = None
    #: Static analysis (see :mod:`repro.analysis.static` and
    #: ``docs/static-analysis.md``): run the cone-hash/ternary
    #: preflight before each case's checks, and/or replay verdicts
    #: from a content-addressed check cache rooted at ``check_cache``.
    preflight: bool = False
    check_cache: Optional[str] = None
    #: Engine strategy for the symbolic 0,1,X and output exact checks
    #: (see :mod:`repro.core.portfolio` and ``docs/sat.md``):
    #: ``None``/``"bdd"`` runs the BDD algorithms, ``"sat"`` the SAT
    #: encodings, ``"portfolio"`` races both deterministically and
    #: keeps the first answer (winner journaled per check).
    strategy: Optional[str] = None

    @classmethod
    def paper_scale(cls, **overrides) -> "ExperimentConfig":
        """The paper's original campaign size (slow in pure Python)."""
        params = dict(selections=5, errors=100, patterns=5000)
        params.update(overrides)
        return cls(**params)


@dataclass
class BenchmarkRow:
    """One row of a results table (aggregated over all cases).

    A campaign may degrade gracefully: cases whose check was killed at
    a deadline (``timeouts``) or raised (``check_errors``) are excluded
    from the per-check denominators (``valid``) and from the node/time
    averages, and counted separately so tables can report them.
    """

    circuit: str
    inputs: int
    outputs: int
    spec_nodes: int
    cases: int = 0
    detected: Dict[str, float] = field(default_factory=dict)
    impl_nodes: Dict[str, float] = field(default_factory=dict)
    peak_nodes: Dict[str, float] = field(default_factory=dict)
    #: mean seconds per case, per check
    runtime: Dict[str, float] = field(default_factory=dict)
    #: seconds-per-case distribution tails over valid cases, per check
    #: (nearest-rank percentiles — deterministic, no interpolation)
    runtime_p50: Dict[str, float] = field(default_factory=dict)
    runtime_p95: Dict[str, float] = field(default_factory=dict)
    #: total dynamic-reordering passes / garbage collections, per check
    #: (summed over valid cases, from the per-check manager counters)
    reorders: Dict[str, int] = field(default_factory=dict)
    gc_runs: Dict[str, int] = field(default_factory=dict)
    #: total computed-table hits / misses / evictions, per check
    #: (summed over valid cases; see :meth:`cache_hit_rate`)
    cache_hits: Dict[str, int] = field(default_factory=dict)
    cache_misses: Dict[str, int] = field(default_factory=dict)
    cache_evictions: Dict[str, int] = field(default_factory=dict)
    #: cases with a usable verdict, per check (defaults to ``cases``)
    valid: Dict[str, int] = field(default_factory=dict)
    #: cases killed at the campaign deadline, per check
    timeouts: Dict[str, int] = field(default_factory=dict)
    #: cases whose check raised, per check
    check_errors: Dict[str, int] = field(default_factory=dict)
    #: cases stopped cooperatively at a resource budget, per check
    #: (their best-effort verdict lives in the strongest-level fold)
    inconclusive: Dict[str, int] = field(default_factory=dict)
    #: budget-degraded cases whose strongest *completed* level still
    #: detected the error (numerator) / reached any verdict at all
    #: (denominator) — the best-effort detection the tables footnote
    strongest_detected: int = 0
    strongest_valid: int = 0
    #: verdicts replayed from the content-addressed check cache, per
    #: check (the replayed numbers are byte-identical to an execution,
    #: so these cases also count in ``valid`` and the averages)
    check_cache_hits: Dict[str, int] = field(default_factory=dict)
    #: portfolio race outcomes, per check: how many valid cases each
    #: engine answered first (all zero without ``strategy=``; see
    #: :mod:`repro.core.portfolio`)
    sat_wins: Dict[str, int] = field(default_factory=dict)
    bdd_wins: Dict[str, int] = field(default_factory=dict)
    #: output cones the static preflight discharged, summed over cases
    discharged_outputs: int = 0
    #: total wall-clock spent on this row's cases
    wall_seconds: float = 0.0

    def detection_ratio(self, check: str) -> float:
        """Fraction of inserted errors the check reported, in percent.

        Timed-out / errored cases do not count as "not detected": the
        denominator is the number of cases with a usable verdict.
        """
        denominator = self.valid.get(check, self.cases)
        if not denominator:
            return 0.0
        return 100.0 * self.detected.get(check, 0) / denominator

    def cache_hit_rate(self, check: str) -> float:
        """Computed-table hit rate of one check, over its valid cases."""
        hits = self.cache_hits.get(check, 0)
        lookups = hits + self.cache_misses.get(check, 0)
        if not lookups:
            return 0.0
        return hits / lookups

    @property
    def degraded_cases(self) -> int:
        """Check executions without an authoritative verdict
        (timeouts + errors + budget-inconclusive)."""
        return (sum(self.timeouts.values())
                + sum(self.check_errors.values())
                + sum(self.inconclusive.values()))


def run_one_case(spec: Circuit, partial: PartialImplementation,
                 checks: Sequence[str], patterns: int,
                 seed: int, budget=None,
                 bdd_factory=None,
                 rp_engine: str = "packed",
                 strategy: Optional[str] = None)\
        -> Dict[str, CheckResult]:
    """All requested checks on one (spec, partial) pair.

    Each symbolic check runs on a fresh BDD manager so that the node and
    peak statistics are attributable to that check alone (matching how
    the paper reports per-check peaks).  ``bdd_factory`` supplies those
    managers (default :func:`~repro.bdd.function.default_bdd`); the
    before/after benchmark passes the legacy reference factory here,
    together with ``rp_engine="scalar"`` so its "before" side also runs
    the historic one-pattern-at-a-time random-pattern engine.

    A ``budget`` (:class:`repro.resilience.budget.Budget`) is attached
    to every fresh manager; an overrunning check raises
    ``BudgetExceededError`` for the caller (the campaign worker) to
    degrade into an ``inconclusive`` outcome.  Because each check gets
    its own manager, the node ceiling governs each check separately
    while the wall clock spans the whole case.

    ``strategy`` selects the engine for the symbolic 0,1,X and output
    exact checks (``None``/``"bdd"``, ``"sat"``, ``"portfolio"`` —
    see :mod:`repro.core.portfolio`); the winning engine lands in the
    result's ``stats["engine"]``.
    """
    from ..core.portfolio import (normalize_strategy,
                                  race_output_exact, race_symbolic_01x)

    strategy = normalize_strategy(strategy)
    if bdd_factory is None:
        bdd_factory = default_bdd
    tracer = get_tracer()
    results: Dict[str, CheckResult] = {}
    for short in checks:
        try:
            key = _CHECK_KEYS[short]
        except KeyError:
            raise ValueError("unknown check %r (choose from %s)"
                             % (short, ", ".join(CHECKS))) from None
        span = None if tracer is None \
            else tracer.span("check:%s" % key)
        try:
            if key == "random_pattern":
                results[short] = check_random_patterns(
                    spec, partial, patterns=patterns, seed=seed,
                    budget=budget, engine=rp_engine)
                if span is not None:
                    result = results[short]
                    span.note(verdict=result.outcome,
                              error_found=result.error_found,
                              seconds=result.seconds)
            else:
                bdd = bdd_factory()
                if budget is not None:
                    budget.start()
                    bdd.set_budget(budget)
                if tracer is not None:
                    bdd.set_tracer(tracer)
                before = ManagerSnapshot.capture(bdd)
                if key == "symbolic_01x":
                    if strategy is not None:
                        results[short] = race_symbolic_01x(
                            spec, partial, bdd, budget=budget,
                            strategy=strategy)
                    else:
                        results[short] = check_symbolic_01x(
                            spec, partial, bdd)
                elif key == "output_exact" and strategy is not None:
                    results[short] = race_output_exact(
                        spec, partial, bdd, budget=budget,
                        strategy=strategy)
                else:
                    ctx = prepare_context(spec, partial, bdd)
                    if key == "local":
                        results[short] = local_check_from_context(ctx)
                    elif key == "output_exact":
                        results[short] = output_exact_from_context(ctx)
                    else:
                        results[short] = input_exact_from_context(ctx)
                _attach_cache_stats(results[short], bdd, before)
                if span is not None:
                    result = results[short]
                    span.note(verdict=result.outcome,
                              error_found=result.error_found,
                              seconds=result.seconds,
                              peak_nodes=bdd.peak_live_nodes,
                              cache_hits=result.stats["cache_hits"],
                              cache_misses=result.stats["cache_misses"])
        finally:
            if span is not None:
                span.done()
    return results


def _attach_cache_stats(result: CheckResult, bdd,
                        before: Optional[ManagerSnapshot] = None)\
        -> None:
    """Fold the manager's computed-table traffic into ``result.stats``.

    The traffic is the *delta* against the ``before`` snapshot taken
    when this check started on the manager.  For the usual fresh
    manager the delta equals the totals; when a caller reuses one
    manager across consecutive checks (a custom ``bdd_factory``), the
    snapshot keeps each check's numbers its own — attributing the
    cumulative totals to every check double-counted the earlier
    checks' traffic (regression-tested in
    ``tests/obs/test_ladder_tracing.py``).  The maintenance deltas
    (``gc_runs``, ``reorders``) ride along for campaign aggregation.
    """
    if before is None:
        before = ManagerSnapshot()
    result.stats.update(before.delta(ManagerSnapshot.capture(bdd)))


def _tune_spec(spec: Circuit) -> Tuple[Circuit, int]:
    """Sift the specification once; bake the order into the circuit.

    Returns ``(spec with tuned input order, spec BDD node count)``.
    Re-declaring the inputs in the sifted order warm-starts every
    subsequent per-case BDD manager, which cuts the dynamic-reordering
    cost of the campaign dramatically (the checks still reorder when a
    particular case blows up).
    """
    bdd = default_bdd()
    fns = symbolic_simulate(spec, bdd)
    roots = [fns[n].node for n in spec.outputs]
    bdd.reorder()
    nodes = bdd.manager.size(roots)
    input_set = set(spec.inputs)
    tuned = [v for v in bdd.var_order if v in input_set]
    return spec.with_input_order(tuned), nodes


def run_benchmark_row(name: str, spec: Circuit,
                      config: ExperimentConfig,
                      progress: Optional[Callable[[str], None]] = None)\
        -> BenchmarkRow:
    """Run the full campaign for one benchmark circuit, in-process.

    Cases are enumerated and executed through :mod:`repro.jobs`, so the
    per-case seeds are derived from coordinates (benchmark, selection,
    error index) rather than consumed from a shared sequential stream:
    re-running any subset of the campaign — or sharding it across
    workers — reproduces exactly the same cases.
    """
    from ..jobs.engine import run_campaign

    return run_campaign(config, [name], spec_overrides={name: spec},
                        progress=progress).rows[name]


def run_table(config: ExperimentConfig,
              progress: Optional[Callable[[str], None]] = None,
              jobs: int = 1,
              timeout: Optional[float] = None,
              journal: Optional[str] = None,
              resume: Optional[str] = None) -> List[BenchmarkRow]:
    """Run the campaign for every benchmark (one table of the paper).

    Execution goes through :func:`repro.jobs.engine.run_campaign`:
    ``jobs``/``timeout`` select parallel workers and per-case
    deadlines, ``journal``/``resume`` checkpointing; the defaults run
    every case in-process.  All paths aggregate identically.
    """
    from ..jobs.engine import run_campaign

    names = list(config.benchmarks or BENCHMARK_FACTORIES)
    result = run_campaign(config, benchmarks=names, jobs=jobs,
                          timeout=timeout, journal=journal,
                          resume=resume, progress=progress)
    return [result.rows[name] for name in names]
