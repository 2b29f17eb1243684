"""Point-in-time snapshots of a BDD manager's monotone counters.

The manager's traffic counters (computed-table hits/misses/evictions,
GC runs, reorder passes) are monotone: ``clear_cache`` drops entries,
never counts.  Per-phase accounting is therefore a *delta of two
snapshots* — one at span enter, one at span exit — which is exact even
when several phases share one manager.  This is the primitive that
fixed the historic double-count: attributing a manager's cumulative
totals to each phase over-reports as soon as two consecutive phases
reuse the manager (see ``repro.core.ladder.close_rung``, which the
ladder and campaign cases share, and the regression test in
``tests/obs/test_ladder_tracing.py``).

Duck-typed on purpose: ``capture`` accepts either a
``repro.bdd.Bdd`` wrapper or a raw ``BddManager`` — anything with
``cache_stats()``, ``__len__``, ``peak_live_nodes`` and (directly or
via ``.manager``) the ``n_gc_runs`` / ``n_reorderings`` counters — so
this module stays a stdlib-only leaf.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict

__all__ = ["ManagerSnapshot"]


@dataclass(frozen=True)
class ManagerSnapshot:
    """Frozen reading of one manager's counters."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    live_nodes: int = 0
    peak_nodes: int = 0
    gc_runs: int = 0
    reorderings: int = 0

    @classmethod
    def capture(cls, bdd: Any) -> "ManagerSnapshot":
        """Read a ``Bdd`` wrapper or a raw manager."""
        manager = getattr(bdd, "manager", bdd)
        total = bdd.cache_stats()["total"]
        return cls(hits=total["hits"], misses=total["misses"],
                   evictions=total["evictions"],
                   live_nodes=len(bdd),
                   peak_nodes=bdd.peak_live_nodes,
                   gc_runs=manager.n_gc_runs,
                   reorderings=manager.n_reorderings)

    def delta(self, later: "ManagerSnapshot") -> Dict[str, Any]:
        """Stats-dict of what happened between ``self`` and ``later``.

        Keys match the ``CheckResult.stats`` conventions:
        ``cache_hits`` / ``cache_misses`` / ``cache_evictions`` /
        ``cache_hit_rate`` plus the maintenance counters ``gc_runs``
        and ``reorders``.
        """
        hits = later.hits - self.hits
        misses = later.misses - self.misses
        return {
            "cache_hits": hits,
            "cache_misses": misses,
            "cache_evictions": later.evictions - self.evictions,
            "cache_hit_rate": (hits / (hits + misses)
                               if hits + misses else 0.0),
            "gc_runs": later.gc_runs - self.gc_runs,
            "reorders": later.reorderings - self.reorderings,
        }
