"""Coordinate-derived seeds: the one hashing scheme every layer shares.

A leaf module (standard library only), so the campaign engine
(:mod:`repro.jobs.spec`, which re-exports :func:`derive_seed`), the
fault injectors and the backoff policy (:mod:`repro.resilience`) can
all seed from coordinates without importing one another.
"""

from __future__ import annotations

import hashlib

__all__ = ["derive_seed"]


def _canon(part: object) -> str:
    """Canonical text form of one seed coordinate.

    ``repr`` for floats so 0.1 survives a JSON round trip unchanged;
    plain ``str`` for ints/strings.
    """
    if isinstance(part, float):
        return repr(part)
    return str(part)


def derive_seed(*coords: object) -> int:
    """A 64-bit seed derived purely from coordinates (SHA-256 based).

    Unlike the builtin ``hash`` this is stable across processes and
    Python versions (no hash randomisation), which is what makes journal
    resume and cross-worker reproducibility possible.
    """
    text = "\x1f".join(_canon(c) for c in coords)
    digest = hashlib.sha256(text.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")
