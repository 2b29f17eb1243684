"""Deterministic capped exponential backoff.

One policy object shared by every retry path in the tree — the serve
executor throttling a crash-looping worker slot
(:mod:`repro.serve.slots`) and the blocking service client honouring
``Retry-After`` (:mod:`repro.serve.client`).

The jitter is *seeded*: it comes from
:func:`repro.seeds.derive_seed` over ``(seed, "backoff", attempt)``,
never from ``random``.  Two processes configured with the same policy
therefore compute the same delays, which is what lets tests assert
exact retry schedules and keeps recovery replayable from journals.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..seeds import derive_seed

__all__ = ["BackoffPolicy"]


@dataclass(frozen=True)
class BackoffPolicy:
    """Capped exponential backoff with deterministic jitter.

    ``delay(attempt)`` for attempts 1, 2, 3... grows as
    ``base * multiplier**(attempt-1)``, is raised to at least ``floor``
    (a server-provided ``Retry-After``), clamped to ``cap``, and then
    stretched by up to ``jitter`` (a fraction, e.g. 0.1 = +0..10%)
    using a seeded hash of the attempt number.
    """

    base: float = 0.1
    multiplier: float = 2.0
    cap: float = 30.0
    jitter: float = 0.1
    seed: int = 0

    def delay(self, attempt: int, floor: float = 0.0) -> float:
        """Seconds to wait before retry number ``attempt`` (1-based)."""
        if attempt < 1:
            raise ValueError("attempt is 1-based")
        raw = self.base * self.multiplier ** (attempt - 1)
        if floor > raw:
            raw = floor
        if raw > self.cap:
            raw = self.cap
        if self.jitter:
            unit = (derive_seed(self.seed, "backoff", attempt)
                    % 1_000_000) / 1_000_000.0
            raw *= 1.0 + self.jitter * unit
        return raw

    def schedule(self, attempts: int, floor: float = 0.0) -> list:
        """The full delay sequence for ``attempts`` retries."""
        return [self.delay(i, floor) for i in range(1, attempts + 1)]
