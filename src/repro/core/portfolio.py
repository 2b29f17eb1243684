"""Deterministic BDD/SAT portfolio racing for the ladder's rungs.

Two engines can decide the symbolic rungs: the BDD implementations of
:mod:`repro.core` and the SAT encodings of :mod:`repro.sat` (dual-rail
miter for the 0,1,X check, CEGAR between two solvers for the output
exact check).  Neither dominates — XOR-heavy cones blow up the BDDs
while deep reconvergence can stall the SAT search — so the portfolio
runs both and keeps the first answer.

A wall-clock race would make the winner depend on machine load, and the
campaign layer promises that serial and ``--jobs N`` journals match
byte for byte, timings aside.  The race is therefore *iterative deepening
over deterministic step budgets*: each engine in turn gets a
:class:`~repro.resilience.budget.Budget` slice of ``max_steps`` steps
(SAT charges one step per propagated literal, the BDD manager one per
``mk``/``ite`` recursion); an engine that exhausts its slice is parked
and the quantum grows geometrically for the next round.  The winner is
a pure function of the case, not of the hardware.  Only the BDD engine
keeps partial work between rounds: the manager's computed table and,
for the output exact rung, the symbolic context built inside its slice.
Every SAT attempt re-encodes its CNF and builds new solvers, so a
parked SAT attempt's learned clauses are lost.  The geometric quanta
bound the steps the race burns to a constant factor of the winning
slice, but not its time: CNF construction is not charged in steps.

The winning engine lands in ``CheckResult.stats["engine"]`` and is
journaled by the campaign worker (:class:`repro.jobs.CheckOutcome`).
An outer budget (node limit, soft deadline, step cap) is honoured: its
limits are carried into every slice, slice steps are charged back, and
any trip other than slice exhaustion re-raises for the ladder's normal
degradation path.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Tuple

from ..circuit.netlist import Circuit
from ..obs import get_tracer
from ..partial.blackbox import PartialImplementation
from ..resilience.budget import Budget, BudgetExceededError
from ..sat.qbf import check_output_exact_sat, check_symbolic_01x_sat
from .common import prepare_context
from .output_exact import output_exact_from_context
from .result import CheckResult
from .symbolic01x import check_symbolic_01x

__all__ = ["STRATEGIES", "BASE_QUANTUM", "GROWTH", "normalize_strategy",
           "race", "race_symbolic_01x", "race_output_exact"]

#: Valid ``strategy=`` values (``None`` is accepted as ``"bdd"``).
STRATEGIES = ("bdd", "portfolio", "sat")

#: First-round step quantum.  Small enough that an easy case never pays
#: more than a trivial amount for the losing engine, large enough that
#: the textbook examples finish in round one.
BASE_QUANTUM = 2048

#: Geometric growth factor between rounds.  With growth g, total steps
#: burnt across all rounds are at most g/(g-1) times the winning slice.
GROWTH = 4

_Attempt = Callable[[Budget], CheckResult]


def normalize_strategy(value: Optional[str]) -> Optional[str]:
    """Map a strategy string to canonical form; validate it.

    Returns ``None`` for the default BDD-only ladder (``None``, ``""``
    or ``"bdd"``), else ``"portfolio"`` or ``"sat"``.
    """
    if value is None or value == "" or value == "bdd":
        return None
    if value not in STRATEGIES:
        raise ValueError("unknown strategy %r (choose from %s)"
                         % (value, ", ".join(STRATEGIES)))
    return value


def _slice_budget(outer: Optional[Budget], quantum: int) -> Budget:
    """A started step-limited slice honouring the outer budget's limits.

    Raises the *outer* budget's error when it is already exhausted, so
    a portfolio rung degrades exactly like a plain rung would.
    """
    wall = nodes = None
    max_steps = quantum
    if outer is not None:
        nodes = outer.max_live_nodes
        if outer.max_steps is not None:
            remaining = outer.max_steps - outer.steps
            if remaining <= 0:
                raise BudgetExceededError(
                    "steps", "portfolio", outer.steps, outer.max_steps,
                    steps=outer.steps, elapsed=outer.elapsed())
            max_steps = min(quantum, remaining)
        if outer.wall_seconds is not None:
            left = outer.wall_seconds - outer.elapsed()
            if left <= 0:
                raise BudgetExceededError(
                    "wall_clock", "portfolio", outer.elapsed(),
                    outer.wall_seconds, steps=outer.steps,
                    elapsed=outer.elapsed())
            wall = left
    return Budget(wall_seconds=wall, max_live_nodes=nodes,
                  max_steps=max_steps).start()


def _charge(outer: Optional[Budget], used: int) -> None:
    """Charge a finished slice's steps back to the outer budget."""
    if outer is None or used == 0:
        return
    outer.steps += used
    outer.next_check_at = outer.steps + outer.check_interval


def race(check_name: str, attempts: List[Tuple[str, _Attempt]],
         budget: Optional[Budget] = None,
         base_quantum: int = BASE_QUANTUM,
         growth: int = GROWTH) -> CheckResult:
    """Race engines round-robin under doubling step quanta.

    ``attempts`` is an ordered list of ``(engine_name, callable)``; each
    callable takes the slice :class:`Budget` and either returns a
    finished :class:`CheckResult` or raises
    :class:`BudgetExceededError`.  A ``"steps"`` trip parks the engine
    until the next (bigger) round; any other resource re-raises.  The
    round-robin order is part of the determinism contract: ties (both
    engines could finish in the same round) go to the earlier engine.
    """
    if not attempts:
        raise ValueError("race needs at least one engine")
    tracer = get_tracer()
    quantum = base_quantum
    rounds = 0
    burnt = 0
    while True:
        for engine, attempt in attempts:
            rounds += 1
            piece = _slice_budget(budget, quantum)
            try:
                result = attempt(piece)
            except BudgetExceededError as exc:
                burnt += piece.steps
                _charge(budget, piece.steps)
                if exc.resource != "steps":
                    raise
                continue
            burnt += piece.steps
            _charge(budget, piece.steps)
            result.check = check_name
            result.stats["engine"] = engine
            result.stats["race_rounds"] = rounds
            result.stats["race_steps"] = burnt
            if tracer is not None:
                tracer.instant("portfolio", check=check_name,
                               winner=engine, rounds=rounds,
                               quantum=quantum, steps=burnt)
            return result
        quantum *= growth


def race_symbolic_01x(spec: Circuit, partial: PartialImplementation,
                      bdd, budget: Optional[Budget] = None,
                      strategy: str = "portfolio") -> CheckResult:
    """The symbolic 0,1,X rung under a strategy.

    ``"portfolio"`` races :func:`check_symbolic_01x_sat` against
    :func:`check_symbolic_01x`; ``"sat"`` runs the SAT engine alone
    (under the outer budget).  The result's ``check`` is always the
    rung name ``"symbolic_01x"`` so caching, journaling and
    aggregation are strategy-agnostic.
    """
    if strategy == "sat":
        result = check_symbolic_01x_sat(spec, partial, budget=budget)
        result.check = "symbolic_01x"
        result.stats["engine"] = "sat"
        return result

    def sat_attempt(piece: Budget) -> CheckResult:
        return check_symbolic_01x_sat(spec, partial, budget=piece)

    def bdd_attempt(piece: Budget) -> CheckResult:
        previous = bdd.budget
        bdd.set_budget(piece)
        try:
            return check_symbolic_01x(spec, partial, bdd)
        finally:
            bdd.set_budget(previous)

    return race("symbolic_01x",
                [("sat", sat_attempt), ("bdd", bdd_attempt)],
                budget=budget)


def race_output_exact(spec: Circuit, partial: PartialImplementation,
                      bdd, ctx_ref: Optional[list] = None,
                      budget: Optional[Budget] = None,
                      strategy: str = "portfolio") -> CheckResult:
    """The output exact rung under a strategy.

    ``"portfolio"`` races the CEGAR 2QBF decision procedure
    (:func:`check_output_exact_sat`) against the BDD quantification of
    :func:`output_exact_from_context`.  The symbolic context is built
    lazily *inside* the BDD engine's slice (its construction is often
    the expensive part) and shared with the caller through ``ctx_ref``,
    a one-slot list: pass ``[ctx_or_None]`` and read the slot back so
    later rungs reuse whatever the race built.
    """
    if ctx_ref is None:
        ctx_ref = [None]
    if strategy == "sat":
        result = check_output_exact_sat(spec, partial, budget=budget)
        result.check = "output_exact"
        result.stats["engine"] = "sat"
        return result

    def sat_attempt(piece: Budget) -> CheckResult:
        return check_output_exact_sat(spec, partial, budget=piece)

    def bdd_attempt(piece: Budget) -> CheckResult:
        previous = bdd.budget
        bdd.set_budget(piece)
        try:
            if ctx_ref[0] is None:
                ctx_ref[0] = prepare_context(spec, partial, bdd)
            return output_exact_from_context(ctx_ref[0])
        finally:
            bdd.set_budget(previous)

    return race("output_exact",
                [("sat", sat_attempt), ("bdd", bdd_attempt)],
                budget=budget)
