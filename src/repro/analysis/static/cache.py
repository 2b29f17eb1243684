"""Content-addressed on-disk cache for check verdicts ("rung 0").

Entries are keyed by SHA-256 over::

    (cache format version,
     spec interface digest,   # canonical cone hashes, see .hashing
     impl interface digest,   # includes the Black Box interfaces
     rung name,               # "random_pattern", "input_exact", ...
     budget class,            # node limit + soft timeout, canonical
     patterns, seed,          # random-pattern checks only
     variant)                 # "preflight", the strategy, and
                              # "fresh-manager" for campaign entries

and the payload is the stored verdict dict, replayed *exactly* on a
hit (including its measured ``seconds`` and manager counters), so
warm-cache aggregation is byte-identical to the cold run that filled
the cache.  The key rule and the payload codec live in
:mod:`repro.core.ladder` (``replay``/``store``), shared by the ladder
and campaign cases; this module only stores and counts.

Invalidation is purely content-addressed: there is none to manage.
Renaming nets, reordering gate declarations or re-running an identical
campaign hits; any semantic change to a cone changes its hash and
misses.  Bumping :data:`CACHE_VERSION` (a key ingredient) retires
every existing entry when the canonicalization or payload format
changes.  Entries are one JSON file each under a two-level fan-out
directory; writes go through a temp file + :func:`os.replace`, so
concurrent workers (and concurrent campaigns) can share a cache
directory — last atomic write wins, and every candidate payload for a
key is identical by construction.

A cache must never fail a check: unreadable/corrupt entries count as
misses, failed writes are dropped silently.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from typing import Dict, Optional

__all__ = ["CACHE_VERSION", "CheckCache", "budget_class"]

#: Bump to retire all existing entries (key scheme / payload change).
CACHE_VERSION = 2


def budget_class(node_limit: Optional[int] = None,
                 soft_timeout: Optional[float] = None) -> str:
    """Canonical text form of a resource-budget configuration.

    Part of every cache key: a verdict reached under one budget is not
    replayed under another (a bigger node ceiling may turn an
    inconclusive into a definite verdict).  ``repr`` for the float so
    the class survives JSON round trips unchanged.
    """
    return "nodes=%s;soft=%s" % (
        node_limit,
        repr(soft_timeout) if soft_timeout is not None else None)


class CheckCache:
    """Content-addressed store of check verdicts on disk.

    ``hits``/``misses``/``stores`` count this instance's traffic; the
    callers (ladder, campaign worker) surface them through stats and
    :mod:`repro.obs` events.
    """

    def __init__(self, root: str):
        self.root = root
        self.hits = 0
        self.misses = 0
        self.stores = 0
        os.makedirs(root, exist_ok=True)

    # -- keys ----------------------------------------------------------

    def key(self, spec_digest: str, impl_digest: str, check: str,
            budget: str = "", patterns: Optional[int] = None,
            seed: Optional[int] = None, variant: str = "") -> str:
        """The content address of one (pair, check, budget) verdict."""
        material = "\x1f".join([
            "v%d" % CACHE_VERSION, spec_digest, impl_digest, check,
            budget, str(patterns), str(seed), variant])
        return hashlib.sha256(material.encode("utf-8")).hexdigest()

    def path_for(self, key: str) -> str:
        """On-disk location of a key's entry."""
        return os.path.join(self.root, key[:2], key + ".json")

    # -- traffic -------------------------------------------------------

    def get(self, key: str) -> Optional[Dict]:
        """The stored payload, or ``None`` (counted as hit/miss)."""
        try:
            with open(self.path_for(key), "r", encoding="utf-8")\
                    as handle:
                payload = json.load(handle)
        except (OSError, ValueError):
            self.misses += 1
            return None
        if not isinstance(payload, dict):
            self.misses += 1
            return None
        self.hits += 1
        return payload

    def put(self, key: str, payload: Dict) -> None:
        """Store a payload atomically; failures are silent (a full or
        read-only cache directory must never fail the check)."""
        path = self.path_for(key)
        try:
            os.makedirs(os.path.dirname(path), exist_ok=True)
            handle = tempfile.NamedTemporaryFile(
                "w", encoding="utf-8", dir=os.path.dirname(path),
                prefix=".tmp-", suffix=".json", delete=False)
            try:
                with handle:
                    json.dump(payload, handle, sort_keys=True,
                              separators=(",", ":"))
                os.replace(handle.name, path)
            except BaseException:
                try:
                    os.unlink(handle.name)
                except OSError:
                    pass
                raise
        except OSError:
            return
        self.stores += 1

    def stats(self) -> Dict[str, int]:
        """Traffic counters of this instance."""
        return {"hits": self.hits, "misses": self.misses,
                "stores": self.stores}

    # -- housekeeping --------------------------------------------------

    def _entries(self):
        """Yield ``(path, size, atime)`` for every entry on disk.

        Unstat-able files (concurrently pruned by another process) are
        skipped — housekeeping has the same never-fail contract as
        traffic.
        """
        try:
            fanouts = sorted(os.listdir(self.root))
        except OSError:
            return
        for fanout in fanouts:
            subdir = os.path.join(self.root, fanout)
            try:
                names = sorted(os.listdir(subdir))
            except (OSError, NotADirectoryError):
                continue
            for name in names:
                if not name.endswith(".json") \
                        or name.startswith(".tmp-"):
                    continue
                path = os.path.join(subdir, name)
                try:
                    info = os.stat(path)
                except OSError:
                    continue
                yield path, info.st_size, info.st_atime

    def info(self) -> Dict[str, int]:
        """On-disk footprint: entry count and total payload bytes."""
        entries = 0
        total = 0
        for _path, size, _atime in self._entries():
            entries += 1
            total += size
        return {"entries": entries, "bytes": total}

    def prune(self, max_bytes: int) -> Dict[str, int]:
        """Evict least-recently-used entries until the cache fits.

        Eviction order is oldest access time first (``atime``; falls
        back to mtime semantics on ``noatime`` mounts, which still
        orders by write age).  Deleting an entry another process is
        reading is safe — the reader counts it as a miss and re-checks.
        Returns ``{"removed", "removed_bytes", "entries", "bytes"}``
        describing what was evicted and what remains.
        """
        if max_bytes < 0:
            raise ValueError("max_bytes must be >= 0")
        entries = list(self._entries())
        total = sum(size for _p, size, _a in entries)
        removed = 0
        removed_bytes = 0
        entries.sort(key=lambda entry: (entry[2], entry[0]))
        for path, size, _atime in entries:
            if total <= max_bytes:
                break
            try:
                os.unlink(path)
            except OSError:
                continue
            total -= size
            removed += 1
            removed_bytes += size
        return {"removed": removed, "removed_bytes": removed_bytes,
                "entries": len(entries) - removed, "bytes": total}

    def __repr__(self) -> str:
        return "<CheckCache %s: %d hits, %d misses, %d stores>" % (
            self.root, self.hits, self.misses, self.stores)
