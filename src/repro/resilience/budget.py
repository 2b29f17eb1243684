"""In-process resource budgets for the symbolic checks.

The paper's five-check ladder is a cost/accuracy trade-off: the exact
checks (Lemma 2.2 / Theorem 2.1) can blow up in BDD size while the
cheaper rungs almost always finish.  A :class:`Budget` turns a blow-up
from a process kill (SIGKILL at the pool's hard deadline, all completed
work lost) into a structured, catchable :class:`BudgetExceededError`
raised *inside* the operation that overran — at a point where the BDD
manager is still consistent and usable.

Three resources are tracked:

``wall_seconds``
    Cooperative soft deadline.  Checked every ``check_interval``
    recursion steps (one ``time.monotonic`` call per interval), so the
    cost is amortised to almost nothing.
``max_live_nodes``
    Upper bound on the manager's live node count.  The manager
    amortises the check behind a countdown clamped to the remaining
    headroom, so the trip still fires exactly at the node creation that
    crosses the limit.
``max_steps``
    Upper bound on recursion steps across ``mk`` / ``_ite`` /
    quantification — a machine-independent cost metric, useful for
    reproducible degradation tests.

A budget with no limit set is inert; a manager whose ``budget`` is
``None`` pays one attribute test per hot call (see
``benchmarks/test_bdd_micro.py::test_bench_budget_overhead``).
"""

from __future__ import annotations

import time
from typing import Optional

__all__ = ["Budget", "BudgetExceededError"]


class BudgetExceededError(RuntimeError):
    """A resource budget was exceeded inside a symbolic operation.

    Attributes
    ----------
    resource:
        Which limit tripped: ``"wall_clock"``, ``"live_nodes"`` or
        ``"steps"``.
    where:
        The operation that was running (``"mk"``, ``"ite"``,
        ``"quantify"``, ``"and_exists"``, ``"reorder"``,
        ``"random_pattern"``, ...).
    value / limit:
        The measured value and the limit it crossed.
    steps / elapsed:
        Total recursion steps charged and wall-clock seconds elapsed on
        this budget when the limit tripped.
    """

    def __init__(self, resource: str, where: str, value: float,
                 limit: float, steps: int = 0,
                 elapsed: float = 0.0) -> None:
        self.resource = resource
        self.where = where
        self.value = value
        self.limit = limit
        self.steps = steps
        self.elapsed = elapsed
        if resource == "wall_clock":
            detail = "%.2fs > soft deadline %.2fs" % (value, limit)
        else:
            detail = "%d > %d" % (value, limit)
        super().__init__("budget exceeded in %s: %s %s"
                         % (where, resource, detail))


class Budget:
    """Resource envelope threaded through BDD / check hot loops.

    One budget may outlive a single manager: the campaign worker
    attaches the same (already ticking) budget to every fresh per-check
    manager, so the soft deadline spans the whole case while the node
    limit applies to each manager's own live count.
    """

    __slots__ = ("wall_seconds", "max_live_nodes", "max_steps",
                 "check_interval", "started_at", "steps", "next_check_at")

    def __init__(self, wall_seconds: Optional[float] = None,
                 max_live_nodes: Optional[int] = None,
                 max_steps: Optional[int] = None,
                 check_interval: int = 256) -> None:
        # 256 keeps the manager's countdown inside CPython's small-int
        # cache (decrementing a larger counter heap-allocates an int
        # per hot-loop event) while still amortising one
        # time.monotonic call over hundreds of operations.
        if wall_seconds is not None and wall_seconds <= 0:
            raise ValueError("wall_seconds must be positive")
        if max_live_nodes is not None and max_live_nodes <= 0:
            raise ValueError("max_live_nodes must be positive")
        if max_steps is not None and max_steps <= 0:
            raise ValueError("max_steps must be positive")
        if check_interval <= 0:
            raise ValueError("check_interval must be positive")
        self.wall_seconds = wall_seconds
        self.max_live_nodes = max_live_nodes
        self.max_steps = max_steps
        self.check_interval = check_interval
        self.started_at: Optional[float] = None
        self.steps = 0
        self.next_check_at = check_interval

    @classmethod
    def from_limits(cls, node_limit: Optional[int] = None,
                    soft_timeout: Optional[float] = None,
                    max_steps: Optional[int] = None)\
            -> Optional["Budget"]:
        """A budget from optional CLI-style limits; ``None`` if all unset."""
        if node_limit is None and soft_timeout is None \
                and max_steps is None:
            return None
        return cls(wall_seconds=soft_timeout, max_live_nodes=node_limit,
                   max_steps=max_steps)

    @property
    def limited(self) -> bool:
        """Whether any limit is actually set."""
        return (self.wall_seconds is not None
                or self.max_live_nodes is not None
                or self.max_steps is not None)

    def start(self) -> "Budget":
        """Start the wall clock (idempotent); returns ``self``."""
        if self.started_at is None:
            self.started_at = time.monotonic()
        return self

    def elapsed(self) -> float:
        """Seconds since :meth:`start` (0 when never started)."""
        if self.started_at is None:
            return 0.0
        return time.monotonic() - self.started_at

    def expired(self) -> bool:
        """Whether the soft deadline has already passed (no raise)."""
        return (self.wall_seconds is not None
                and self.started_at is not None
                and self.elapsed() > self.wall_seconds)

    # -- hot path ------------------------------------------------------

    def tick(self, where: str = "op") -> None:
        """Charge one recursion step; periodically check the slow limits.

        ``steps``, ``next_check_at``, ``check_interval`` and
        :meth:`slow_check` are public so hot loops can do their own
        amortisation (the BDD manager batches steps behind a countdown
        and charges them in ``_budget_poll``) — keep them in sync with
        any change here.
        """
        self.steps += 1
        if self.steps >= self.next_check_at:
            self.next_check_at = self.steps + self.check_interval
            self.slow_check(where)

    def trip_nodes(self, live_nodes: int, where: str = "mk") -> None:
        """Raise the node-limit error (cold path for inlined callers).

        The BDD manager compares its live count against a cached copy of
        ``max_live_nodes`` itself — one integer compare per ``mk``, no
        method call — and only calls here once the limit is crossed.
        """
        raise BudgetExceededError(
            "live_nodes", where, live_nodes, self.max_live_nodes,
            steps=self.steps, elapsed=self.elapsed())

    # -- slow path -----------------------------------------------------

    def checkpoint(self, where: str,
                   live_nodes: Optional[int] = None) -> None:
        """Unconditional check of every limit (for safe points only).

        Used where charging per step is too coarse (between random
        patterns, between reorder swaps) or where raising must happen at
        a structurally safe boundary (before a level swap mutates the
        manager).
        """
        if live_nodes is not None and self.max_live_nodes is not None \
                and live_nodes > self.max_live_nodes:
            raise BudgetExceededError(
                "live_nodes", where, live_nodes, self.max_live_nodes,
                steps=self.steps, elapsed=self.elapsed())
        self.slow_check(where)

    def slow_check(self, where: str) -> None:
        if self.max_steps is not None and self.steps > self.max_steps:
            raise BudgetExceededError(
                "steps", where, self.steps, self.max_steps,
                steps=self.steps, elapsed=self.elapsed())
        if self.wall_seconds is not None:
            if self.started_at is None:
                # Auto-start on first use so a budget attached directly
                # to a manager works without an explicit start().
                self.started_at = time.monotonic()
                return
            elapsed = time.monotonic() - self.started_at
            if elapsed > self.wall_seconds:
                raise BudgetExceededError(
                    "wall_clock", where, elapsed, self.wall_seconds,
                    steps=self.steps, elapsed=elapsed)

    def __repr__(self) -> str:
        limits = []
        if self.wall_seconds is not None:
            limits.append("wall=%.3gs" % self.wall_seconds)
        if self.max_live_nodes is not None:
            limits.append("nodes=%d" % self.max_live_nodes)
        if self.max_steps is not None:
            limits.append("steps=%d" % self.max_steps)
        return "<Budget %s steps=%d>" % (
            " ".join(limits) or "unlimited", self.steps)
