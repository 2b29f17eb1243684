"""Experiment driver reproducing the paper's evaluation (Section 3).

For each benchmark circuit: carve a fraction of the gates into Black
Boxes (several random selections), insert random errors into the kept
logic, and run all five checks on every mutated partial implementation.
Reported per circuit, averaged over selections: detection ratio per
check, BDD node counts (specification, implementation, peak during
check) and run times — the columns of Tables 1 and 2.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..bdd import default_bdd
from ..circuit.netlist import Circuit
from ..core.ladder import close_rung, run_rung
from ..core.portfolio import normalize_strategy
from ..core.result import CheckResult
from ..generators.benchmarks import BENCHMARK_FACTORIES
from ..jobs.aggregate import BenchmarkRow
from ..jobs.engine import run_campaign
from ..obs import ManagerSnapshot, get_tracer
from ..partial.blackbox import PartialImplementation
from ..sim.symbolic import symbolic_simulate

__all__ = ["CHECKS", "CHECK_RUNGS", "ExperimentConfig", "BenchmarkRow",
           "run_one_case", "run_benchmark_row", "run_table"]

#: Check short names in paper column order.
CHECKS = ("r.p.", "0,1,X", "loc.", "oe", "ie")

#: Column name -> the ladder rung it runs (:data:`repro.core.CHECK_ORDER`).
CHECK_RUNGS = {
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
    strategy = normalize_strategy(strategy)
    if bdd_factory is None:
        bdd_factory = default_bdd
    tracer = get_tracer()
    results: Dict[str, CheckResult] = {}
    for short in checks:
        try:
            name = CHECK_RUNGS[short]
        except KeyError:
            raise ValueError("unknown check %r (choose from %s)"
                             % (short, ", ".join(CHECKS))) from None
        span = None if tracer is None \
            else tracer.span("check:%s" % name)
        try:
            bdd = before = None
            if name != "random_pattern":
                bdd = bdd_factory()
                if budget is not None:
                    budget.start()
                    bdd.set_budget(budget)
                if tracer is not None:
                    bdd.set_tracer(tracer)
                before = ManagerSnapshot.capture(bdd)
            result = run_rung(name, spec, partial, bdd, [None], patterns,
                              seed, budget=budget, strategy=strategy,
                              rp_engine=rp_engine)
            close_rung(result, before, bdd, span)
            results[short] = result
        finally:
            if span is not None:
                span.done()
    return results


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


def run_benchmark_row(name: str, config: ExperimentConfig,
                      progress: Optional[Callable[[str], None]] = None)\
        -> BenchmarkRow:
    """Run the full campaign for one factory benchmark, in-process.

    Cases are enumerated and executed through :mod:`repro.jobs`, so the
    per-case seeds are derived from coordinates (benchmark, selection,
    error index) rather than consumed from a shared sequential stream,
    and every case rebuilds its spec from
    :data:`~repro.generators.benchmarks.BENCHMARK_FACTORIES` by name:
    re-running any subset of the campaign — or spreading it across
    workers — reproduces exactly the same cases.
    """
    return run_campaign(config, [name], progress=progress).rows[name]


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
    names = list(config.benchmarks or BENCHMARK_FACTORIES)
    result = run_campaign(config, benchmarks=names, jobs=jobs,
                          timeout=timeout, journal=journal,
                          resume=resume, progress=progress)
    return [result.rows[name] for name in names]
