"""Folding a budget kill into a usable partial verdict.

When a ladder rung overruns its :class:`~repro.resilience.budget.Budget`
the right answer is not a crash and not a bare TIMEOUT: every *completed*
rung already produced a verdict, and the strongest of those is exactly
the information the paper's tables are built from.  This module builds
the ``inconclusive`` :class:`~repro.core.result.CheckResult` that
carries it.
"""

from __future__ import annotations

from typing import List, Optional

from ..core.result import (OUTCOME_INCONCLUSIVE, OUTCOME_OK, CheckResult)
from .budget import BudgetExceededError

__all__ = ["strongest_completed", "inconclusive_result",
           "describe_strongest"]


def strongest_completed(completed: List[CheckResult])\
        -> Optional[CheckResult]:
    """The most accurate completed rung (``None`` if nothing finished).

    ``completed`` must be in ladder order (cheapest first); results
    without an ``ok`` outcome do not count.
    """
    strongest = None
    for result in completed:
        if result.outcome == OUTCOME_OK:
            strongest = result
    return strongest


def describe_strongest(check: Optional[str], error_found: bool) -> str:
    """Human-readable "strongest completed level" clause for the level
    ``check`` (``None`` if none completed) and its verdict."""
    if check is None:
        return "no level completed"
    verdict = "error found" if error_found else "no error found"
    return "strongest completed level: %s (%s)" % (check, verdict)


def inconclusive_result(check: str, completed: List[CheckResult],
                        exc: BudgetExceededError,
                        peak_nodes: int = 0) -> CheckResult:
    """Build the degraded result for the rung that blew its budget.

    The result's ``error_found`` carries the strongest *completed*
    level's verdict (``False`` when nothing completed), ``exact`` is
    always ``False``, and ``stats`` records the kill reason plus the
    per-level timings and node peaks of every completed rung.
    """
    strongest = strongest_completed(completed)
    stats = {
        "budget_resource": exc.resource,
        "budget_where": exc.where,
        "budget_value": exc.value,
        "budget_limit": exc.limit,
        "budget_steps": exc.steps,
        "completed_levels": sum(
            1 for r in completed if r.outcome == OUTCOME_OK),
        "peak_nodes": peak_nodes,
    }
    for result in completed:
        if result.outcome != OUTCOME_OK:
            continue
        stats["%s_seconds" % result.check] = result.seconds
        stats["%s_peak_nodes" % result.check] = int(
            result.stats.get("peak_nodes", 0))
    found = strongest.error_found if strongest else False
    detail = "%s; %s" % (exc, describe_strongest(
        strongest.check if strongest else None, found))
    return CheckResult(
        check=check,
        error_found=found,
        exact=False,
        counterexample=strongest.counterexample if strongest else None,
        failing_output=strongest.failing_output if strongest else None,
        detail=detail,
        seconds=exc.elapsed,
        outcome=OUTCOME_INCONCLUSIVE,
        stats=stats,
    )
