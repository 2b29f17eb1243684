"""Parameter sweeps: detection ratio as a function of the boxed fraction.

Section 3 of the paper reports that repeating the experiments with 40%
instead of 10% of the gates in Black Boxes "lead[s] to comparable
results" (table deferred to the technical report).  This module turns
that remark into a measured data series: detection ratio per check as
the boxed fraction grows — the natural "figure" of the evaluation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence

from ..jobs.engine import run_campaign
from .runner import CHECKS, ExperimentConfig

__all__ = ["SweepPoint", "run_fraction_sweep", "format_sweep"]


@dataclass
class SweepPoint:
    """Detection ratios for one boxed-gate fraction."""

    fraction: float
    detection: Dict[str, float] = field(default_factory=dict)
    mean_seconds: Dict[str, float] = field(default_factory=dict)
    #: checks without a verdict at this fraction (timeouts + errors)
    degraded: int = 0


def run_fraction_sweep(name: str,
                       fractions: Sequence[float] = (0.1, 0.2, 0.3, 0.4),
                       num_boxes: int = 1,
                       selections: int = 1, errors: int = 6,
                       patterns: int = 300, seed: int = 2001,
                       checks: Sequence[str] = CHECKS,
                       progress: Optional[Callable[[str], None]] = None,
                       jobs: int = 1,
                       timeout: Optional[float] = None,
                       journal: Optional[str] = None,
                       resume: Optional[str] = None,
                       node_limit: Optional[int] = None,
                       soft_timeout: Optional[float] = None)\
        -> List[SweepPoint]:
    """Detection ratio per check over a range of boxed fractions.

    ``name`` is a factory benchmark: every case rebuilds its spec from
    :data:`~repro.generators.benchmarks.BENCHMARK_FACTORIES` by name.
    Each fraction's campaign runs through
    :func:`repro.jobs.engine.run_campaign`, with
    ``jobs``/``timeout``/``journal``/``resume`` passed on; one journal
    can hold the whole sweep, since the boxed fraction is part of every
    case key.
    """
    points: List[SweepPoint] = []
    for fraction in fractions:
        config = ExperimentConfig(
            fraction=fraction, num_boxes=num_boxes,
            selections=selections, errors=errors, patterns=patterns,
            seed=seed, checks=checks, node_limit=node_limit,
            soft_timeout=soft_timeout)
        row = run_campaign(config, benchmarks=[name], jobs=jobs,
                           timeout=timeout, journal=journal,
                           resume=resume, progress=progress).rows[name]
        point = SweepPoint(fraction=fraction, degraded=row.degraded_cases)
        for check in checks:
            point.detection[check] = row.detection_ratio(check)
            point.mean_seconds[check] = row.runtime[check]
        points.append(point)
    return points


def format_sweep(name: str, points: Sequence[SweepPoint],
                 checks: Sequence[str] = CHECKS) -> str:
    """ASCII rendering of the sweep series (one row per fraction)."""
    lines = ["Detection vs boxed fraction — %s" % name,
             "fraction  " + " ".join("%7s" % c for c in checks)]
    for point in points:
        lines.append("%7.0f%%  " % (100 * point.fraction) + " ".join(
            "%6.0f%%" % point.detection[c] for c in checks))
    return "\n".join(lines)
