"""Folding case records back into table rows.

Serial and parallel campaigns both end here: records are folded in
canonical enumeration order (benchmark, selection, error index), so the
floating-point sums — and therefore the rendered tables — are identical
no matter how many workers executed the cases or in which order they
finished.

Degraded cases are first-class: a check whose outcome is ``timeout``,
``error`` or ``inconclusive`` is *excluded* from that check's
detection-ratio denominator and node/time averages, and counted in
``BenchmarkRow.timeouts`` / ``check_errors`` / ``inconclusive``
instead, so a partially-failed campaign is visibly degraded rather than
silently averaged.  Budget-inconclusive cases additionally contribute
their strongest *completed* check's verdict to the row's best-effort
detection counters (``strongest_detected`` / ``strongest_valid``).
"""

from __future__ import annotations

from typing import Dict, List, Sequence

from ..core.result import (OUTCOME_INCONCLUSIVE, OUTCOME_OK,
                           OUTCOME_TIMEOUT)
from ..experiments.runner import BenchmarkRow
from .journal import CaseRecord

__all__ = ["row_from_records", "fold_records", "sort_records",
           "nearest_rank"]


def sort_records(records: Sequence[CaseRecord]) -> List[CaseRecord]:
    """Records in canonical enumeration order."""
    return sorted(records, key=lambda r: (r.case.benchmark,
                                          r.case.selection,
                                          r.case.error_index))


def nearest_rank(values: Sequence[float], quantile: float) -> float:
    """Nearest-rank percentile: always an observed value, never an
    interpolation, so campaign summaries are deterministic and robust
    to float noise.  Empty input yields 0.0."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    # ceil(q * n) in integer arithmetic: 0.95 * 20 must be rank 19,
    # not 20, however 0.95 rounds in binary floating point.
    percent = int(round(quantile * 100))
    rank = max(1, -(-percent * len(ordered) // 100))
    return ordered[rank - 1]


def _strongest_ok(record: CaseRecord, checks: Sequence[str]):
    """Last (most accurate) check slice of a record with an ok outcome."""
    strongest = None
    for check in checks:
        outcome = record.checks.get(check)
        if outcome is not None and outcome.outcome == OUTCOME_OK:
            strongest = outcome
    return strongest


def row_from_records(name: str, records: Sequence[CaseRecord],
                     checks: Sequence[str]) -> BenchmarkRow:
    """Fold one benchmark's records into a table row.

    ``records`` may arrive in any order; they are folded in canonical
    order for float determinism.
    """
    row = BenchmarkRow(circuit=name, inputs=0, outputs=0, spec_nodes=0)
    seconds_seen: Dict[str, List[float]] = {}
    for check in checks:
        row.detected[check] = 0
        row.impl_nodes[check] = 0.0
        row.peak_nodes[check] = 0.0
        row.runtime[check] = 0.0
        row.runtime_p50[check] = 0.0
        row.runtime_p95[check] = 0.0
        row.reorders[check] = 0
        row.gc_runs[check] = 0
        row.cache_hits[check] = 0
        row.cache_misses[check] = 0
        row.cache_evictions[check] = 0
        row.valid[check] = 0
        row.timeouts[check] = 0
        row.check_errors[check] = 0
        row.inconclusive[check] = 0
        row.check_cache_hits[check] = 0
        row.sat_wins[check] = 0
        row.bdd_wins[check] = 0
        seconds_seen[check] = []
    for record in sort_records(records):
        row.cases += 1
        row.wall_seconds += record.seconds
        if record.spec_nodes and not row.spec_nodes:
            row.inputs = record.inputs
            row.outputs = record.outputs
            row.spec_nodes = record.spec_nodes
        if record.discharged is not None:
            row.discharged_outputs += record.discharged
        if record.outcome == OUTCOME_INCONCLUSIVE:
            # Best-effort fold: the strongest completed check's verdict
            # for a budget-degraded case (mirrored into every
            # inconclusive slice's ``error_found`` by the worker).
            strongest = _strongest_ok(record, checks)
            if strongest is not None:
                row.strongest_valid += 1
                row.strongest_detected += int(strongest.error_found)
        for check in checks:
            outcome = record.checks.get(check)
            if outcome is None or outcome.outcome == OUTCOME_TIMEOUT:
                # A missing slice only happens when the whole case was
                # killed before the check could report — a timeout.
                row.timeouts[check] += 1
            elif outcome.outcome == OUTCOME_INCONCLUSIVE:
                # Stopped cooperatively at a resource budget: no
                # authoritative verdict for *this* check, so it stays
                # out of the detection denominator, but unlike a
                # timeout the case still carries its best-effort
                # verdict (folded above).
                row.inconclusive[check] += 1
            elif outcome.outcome != OUTCOME_OK:
                row.check_errors[check] += 1
            else:
                row.valid[check] += 1
                row.check_cache_hits[check] += int(outcome.cached)
                row.detected[check] += int(outcome.error_found)
                row.impl_nodes[check] += outcome.impl_nodes
                row.peak_nodes[check] += outcome.peak_nodes
                row.runtime[check] += outcome.seconds
                seconds_seen[check].append(outcome.seconds)
                row.reorders[check] += outcome.reorders
                row.gc_runs[check] += outcome.gc_runs
                row.cache_hits[check] += outcome.cache_hits
                row.cache_misses[check] += outcome.cache_misses
                row.cache_evictions[check] += outcome.cache_evictions
                # Portfolio outcomes record which engine answered
                # (empty on the default BDD-only ladder).
                if outcome.engine == "sat":
                    row.sat_wins[check] += 1
                elif outcome.engine == "bdd":
                    row.bdd_wins[check] += 1
    for check in checks:
        if row.valid[check]:
            row.impl_nodes[check] /= row.valid[check]
            row.peak_nodes[check] /= row.valid[check]
            row.runtime[check] /= row.valid[check]
            row.runtime_p50[check] = nearest_rank(seconds_seen[check],
                                                  0.50)
            row.runtime_p95[check] = nearest_rank(seconds_seen[check],
                                                  0.95)
    return row


def fold_records(records: Sequence[CaseRecord],
                 checks: Sequence[str]) -> Dict[str, BenchmarkRow]:
    """Group records by benchmark (first-appearance order) and fold."""
    grouped: Dict[str, List[CaseRecord]] = {}
    for record in records:
        grouped.setdefault(record.case.benchmark, []).append(record)
    return {name: row_from_records(name, group, checks)
            for name, group in grouped.items()}
