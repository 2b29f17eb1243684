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

from dataclasses import dataclass, field
from typing import Dict, List, Sequence

from ..core.result import (OUTCOME_INCONCLUSIVE, OUTCOME_OK,
                           OUTCOME_TIMEOUT)
from .journal import CaseRecord

__all__ = ["BenchmarkRow", "row_from_records", "fold_records",
           "sort_records", "nearest_rank"]


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
