"""Paper-style text rendering of experiment results."""

from __future__ import annotations

from typing import Sequence

from .runner import CHECKS, BenchmarkRow

__all__ = ["format_table", "average_row", "format_detection_summary",
           "format_cache_stats"]


def average_row(rows: Sequence[BenchmarkRow]) -> BenchmarkRow:
    """The "average" line the paper prints under each table."""
    if not rows:
        raise ValueError("no rows to average")
    avg = BenchmarkRow(circuit="average", inputs=0, outputs=0,
                       spec_nodes=0)
    checks = list(rows[0].detected)
    avg.cases = 1
    for check in checks:
        avg.detected[check] = 0
        ratios = [row.detection_ratio(check) for row in rows]
        avg.impl_nodes[check] = sum(
            row.impl_nodes[check] for row in rows) / len(rows)
        avg.peak_nodes[check] = sum(
            row.peak_nodes[check] for row in rows) / len(rows)
        avg.runtime[check] = sum(
            row.runtime[check] for row in rows) / len(rows)
        avg.timeouts[check] = sum(
            row.timeouts.get(check, 0) for row in rows)
        avg.check_errors[check] = sum(
            row.check_errors.get(check, 0) for row in rows)
        avg.inconclusive[check] = sum(
            row.inconclusive.get(check, 0) for row in rows)
        avg.check_cache_hits[check] = sum(
            row.check_cache_hits.get(check, 0) for row in rows)
        # Encode the average ratio via detected/cases = ratio/100.
        avg.detected[check] = sum(ratios) / len(ratios)
    avg.strongest_detected = sum(row.strongest_detected for row in rows)
    avg.strongest_valid = sum(row.strongest_valid for row in rows)
    avg.discharged_outputs = sum(row.discharged_outputs for row in rows)
    avg.wall_seconds = sum(row.wall_seconds for row in rows)
    avg.cases = 100  # so detection_ratio() returns the mean percentage
    # avg.valid stays empty so detection_ratio falls back to cases.
    return avg


def _degradation_note(row: BenchmarkRow) -> str:
    """Per-check breakdown of a row's missing verdicts, or ""."""
    parts = []
    for check in row.detected:
        t = row.timeouts.get(check, 0)
        e = row.check_errors.get(check, 0)
        i = row.inconclusive.get(check, 0)
        if t or e or i:
            detail = []
            if t:
                detail.append("%d timeout%s" % (t, "s" if t > 1 else ""))
            if e:
                detail.append("%d error%s" % (e, "s" if e > 1 else ""))
            if i:
                detail.append("%d inconclusive" % i)
            parts.append("%s: %s" % (check, ", ".join(detail)))
    return "; ".join(parts)


def format_table(rows: Sequence[BenchmarkRow], title: str,
                 checks: Sequence[str] = CHECKS) -> str:
    """Render rows in the layout of the paper's Tables 1 and 2.

    Campaigns that ran with a deadline may have degraded cases; those
    rows gain a trailing ``t/o err`` column plus footnotes, so a table
    with missing verdicts is visibly different from a clean one.
    """
    sym_checks = [c for c in checks if c != "r.p."]
    degraded = any(row.degraded_cases for row in rows)
    header_1 = ("circuit  in out  #nodes | detected errors | "
                "avg #nodes impl/peak | run time [s]"
                + (" | degraded" if degraded else ""))
    lines = [title, "=" * len(title), header_1, "-" * len(header_1)]
    det_hdr = " ".join("%7s" % c for c in checks)
    node_hdr = " ".join("%9s" % c for c in sym_checks)
    time_hdr = " ".join("%8s" % c for c in checks)
    header_2 = ("%-8s %3s %3s %7s | %s | %s | %s"
                % ("", "", "", "spec", det_hdr, node_hdr, time_hdr))
    if degraded:
        header_2 += " | %4s %4s %4s" % ("t/o", "err", "inc")
    lines.append(header_2)
    body_rows = list(rows)
    body_rows.append(average_row(rows))
    footnotes = []
    for row in body_rows:
        det = " ".join("%6.0f%%" % row.detection_ratio(c) for c in checks)
        nodes = " ".join("%9s" % ("%d/%d" % (row.impl_nodes[c],
                                             row.peak_nodes[c]))
                         for c in sym_checks)
        times = " ".join("%8.2f" % row.runtime[c] for c in checks)
        if row.circuit == "average":
            head = "%-8s %3s %3s %7s" % ("average", "", "", "")
        else:
            head = "%-8s %3d %3d %7d" % (row.circuit, row.inputs,
                                         row.outputs, row.spec_nodes)
        line = "%s | %s | %s | %s" % (head, det, nodes, times)
        if degraded:
            line += " | %4d %4d %4d" % (sum(row.timeouts.values()),
                                        sum(row.check_errors.values()),
                                        sum(row.inconclusive.values()))
            if row.circuit != "average" and row.degraded_cases:
                note = _degradation_note(row)
                if row.strongest_valid:
                    note += ("; best-effort (strongest completed "
                             "level): %d/%d detected"
                             % (row.strongest_detected,
                                row.strongest_valid))
                footnotes.append("  %s — %s" % (row.circuit, note))
        lines.append(line)
    if footnotes:
        lines.append("degraded checks (excluded from detection "
                     "denominators and node/time averages):")
        lines.extend(footnotes)
    cache_hits = sum(sum(row.check_cache_hits.values())
                     for row in rows)
    discharged = sum(row.discharged_outputs for row in rows)
    if cache_hits or discharged:
        lines.append("static analysis: %d check-cache hit(s), %d "
                     "output cone(s) statically discharged"
                     % (cache_hits, discharged))
    winners = []
    for check in checks:
        sat = sum(row.sat_wins.get(check, 0) for row in rows)
        bdd = sum(row.bdd_wins.get(check, 0) for row in rows)
        if sat or bdd:
            winners.append("%s: sat %d / bdd %d" % (check, sat, bdd))
    if winners:
        lines.append("portfolio winners (first engine to answer, "
                     "per check): " + "; ".join(winners))
    return "\n".join(lines)


def format_cache_stats(rows: Sequence[BenchmarkRow],
                       checks: Sequence[str] = CHECKS) -> str:
    """Computed-table traffic per circuit and check (``--stats`` view).

    The random-pattern check runs no symbolic operations, so only the
    symbolic columns are shown.  Totals are summed over the row's valid
    cases; the hit rate is hits / (hits + misses) over those totals.
    """
    sym_checks = [c for c in checks if c != "r.p."]
    title = ("computed-table traffic (hits/misses/evictions, "
             "hit rate over valid cases)")
    lines = [title, "-" * len(title)]
    lines.append("circuit   " + " ".join("%26s" % c for c in sym_checks))
    for row in rows:
        cells = []
        for check in sym_checks:
            cells.append("%26s" % (
                "%d/%d/%d %5.1f%%" % (
                    row.cache_hits.get(check, 0),
                    row.cache_misses.get(check, 0),
                    row.cache_evictions.get(check, 0),
                    100.0 * row.cache_hit_rate(check))))
        lines.append("%-9s " % row.circuit + " ".join(cells))
    return "\n".join(lines)


def format_detection_summary(rows: Sequence[BenchmarkRow],
                             checks: Sequence[str] = CHECKS) -> str:
    """Compact detection-only view (the paper's headline numbers)."""
    lines = ["circuit   " + " ".join("%7s" % c for c in checks)]
    for row in list(rows) + [average_row(rows)]:
        lines.append("%-9s " % row.circuit + " ".join(
            "%6.0f%%" % row.detection_ratio(c) for c in checks))
    return "\n".join(lines)
