"""Computed-table configuration and statistics for the BDD manager.

The manager keeps one bounded *segment* (a dict) per operation code
instead of a single unbounded table.  Bounding the segments turns the
computed table into a lossy cache in the spirit of CUDD's: a full
segment evicts its oldest entry on insert (cheap O(1) eviction; the
classic hashed-slot overwrite was measured slower in CPython, where the
C-implemented dict probe beats any Python-level slot arithmetic — see
``docs/performance.md``).  Losing an entry only costs recomputation;
results stay canonical because every node goes through the unique
table.

Segments also survive garbage collection: entries whose operands and
result are still live are kept instead of the historic wholesale
``clear()``, so the table stays warm across GC.  Reordering still
clears everything — a level swap changes what a node id *means*, so
cached results would be wrong, not just stale.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["CacheConfig", "DEFAULT_CACHE_CONFIG", "OP_NAMES"]

#: Operation names, in opcode order (see ``repro.bdd.manager._OP_*``).
OP_NAMES = ("and", "or", "xor", "not", "ite", "exists", "forall",
            "compose", "restrict", "and_exists")


@dataclass(frozen=True)
class CacheConfig:
    """Sizing of the segmented computed table.

    Parameters
    ----------
    segment_entries:
        Upper bound on the number of entries *per operation segment*.
        ``0`` means unbounded (no eviction).  Small powers of two are
        useful in tests; the default is large enough that eviction is
        rare on the paper's circuits while still bounding memory.
    """

    segment_entries: int = 1 << 16

    def __post_init__(self) -> None:
        if not isinstance(self.segment_entries, int) \
                or isinstance(self.segment_entries, bool):
            raise TypeError("segment_entries must be an int")
        if self.segment_entries < 0:
            raise ValueError("segment_entries must be >= 0 (0 = unbounded)")

    @property
    def entry_limit(self) -> int:
        """The per-segment bound as a plain comparison limit."""
        return self.segment_entries if self.segment_entries else (1 << 62)


DEFAULT_CACHE_CONFIG = CacheConfig()
