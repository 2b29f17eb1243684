"""Deterministic fault injection for the recovery paths.

Every claim the resilience layer makes — "a MemoryError in ``mk``
degrades to an ERROR record", "an aborted reordering leaves the manager
consistent", "an ENOSPC during a journal append is retried once and
then diagnosed" — is only worth anything if a test can *make* the fault
happen, at a reproducible instant.  This module provides that: each
injector is a context manager that patches exactly one seam, fires at a
deterministic trigger point, and restores the seam on exit.

Trigger points are derived from coordinates via
:func:`repro.seeds.derive_seed` (the same SHA-256 scheme the campaign
engine uses), so a fault schedule is a pure function of the
case it torments — stable across processes, machines and Python
versions.

Faults raise *real* exception types where the production code must
handle real ones (``MemoryError``, ``OSError(ENOSPC)``); only the
reorder abort uses the :class:`InjectedFault` marker, because no
organic exception type exists for "sifting died mid-pass".
"""

from __future__ import annotations

import errno
import os
from contextlib import contextmanager
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterator, List

from ..seeds import derive_seed

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..jobs.spec import CaseSpec

__all__ = ["InjectedFault", "FaultPlan", "inject_mk_memory_error",
           "inject_reorder_abort", "inject_journal_fault",
           "crashy_stub_task", "planned_crash"]


class InjectedFault(RuntimeError):
    """Marker exception for injected faults with no organic type."""


@dataclass(frozen=True)
class FaultPlan:
    """Deterministic fault schedule derived from case coordinates."""

    seed: int

    @classmethod
    def for_case(cls, case: CaseSpec, salt: str = "faults")\
            -> "FaultPlan":
        """The plan every process derives identically for ``case``."""
        return cls(derive_seed(case.seed, case.benchmark, case.selection,
                               case.error_index, salt))

    def trigger(self, site: str, lo: int, hi: int) -> int:
        """Deterministic trigger count in ``[lo, hi)`` for one site."""
        if hi <= lo:
            raise ValueError("empty trigger range")
        return lo + derive_seed(self.seed, site) % (hi - lo)

    def fires(self, site: str, one_in: int) -> bool:
        """Deterministic coin flip: fire at this site with odds 1/n."""
        return derive_seed(self.seed, site) % one_in == 0


@contextmanager
def inject_mk_memory_error(manager, at_call: int) -> Iterator[List[int]]:
    """Raise ``MemoryError`` at the manager's ``at_call``-th governed event.

    Simulates the allocator failing mid-operation — the manager must
    stay consistent and the caller must degrade, not crash.  The seam
    is the budget countdown every kernel already polls: a governed
    event is a node creation (``mk`` or a kernel's inlined copy of it)
    or one ITE, quantification or relational-product step.  A creation
    fails after its node is inserted, a step before it pushes work, so
    every invariant holds at the raise.

    The injector borrows the countdown, so it refuses a manager with a
    budget attached; on exit the seam is reset with ``set_budget(None)``.
    Yields a one-element counter of the governed events seen: exactly
    ``at_call`` once the fault fired, and final once the context exits.
    """
    if at_call < 1:
        raise ValueError("at_call is 1-based")
    if manager.budget is not None:
        raise ValueError("inject_mk_memory_error borrows the budget "
                         "countdown; detach the budget first")
    calls = [0]

    def fail(where: str) -> None:
        calls[0] = at_call
        manager._budget_countdown = None  # fire once
        raise MemoryError("injected: governed event %d (%s)"
                          % (at_call, where))

    manager._budget_poll = fail
    manager._budget_countdown = at_call - 1
    try:
        yield calls
    finally:
        left = manager._budget_countdown
        if left is not None:
            calls[0] = at_call - 1 - left
        del manager._budget_poll
        manager.set_budget(None)


@contextmanager
def inject_reorder_abort(at_swap: int) -> Iterator[List[int]]:
    """Abort dynamic reordering before its ``at_swap``-th level swap.

    The fault fires *before* the swap mutates anything, which is the
    strongest claim the reorder path makes: any interruption surfacing
    at a swap boundary leaves every manager invariant intact
    (verifiable via ``BddManager.invariant_violations()``).
    """
    if at_swap < 1:
        raise ValueError("at_swap is 1-based")
    from ..bdd import reorder

    original = reorder.swap_adjacent_levels
    swaps = [0]

    def faulty_swap(mgr, level: int) -> int:
        swaps[0] += 1
        if swaps[0] == at_swap:
            raise InjectedFault("injected: reorder abort at swap %d"
                                % at_swap)
        return original(mgr, level)

    reorder.swap_adjacent_levels = faulty_swap
    try:
        yield swaps
    finally:
        reorder.swap_adjacent_levels = original


class _FaultyFile:
    """File proxy failing the Nth raw ``write`` in a chosen mode.

    ``mode="enospc"`` raises ``OSError(ENOSPC)`` before writing a byte;
    ``mode="torn"`` writes half the payload first, leaving a torn tail
    the writer's truncate-and-retry recovery must clean up.  With
    ``repeat=True`` every subsequent write fails too (a genuinely full
    disk); the default fails once (transient pressure).
    """

    def __init__(self, handle, at_write: int, mode: str,
                 repeat: bool) -> None:
        self._handle = handle
        self._at_write = at_write
        self._mode = mode
        self._repeat = repeat
        self.writes = 0
        self.fired = 0

    def write(self, data) -> int:
        self.writes += 1
        if self.writes == self._at_write \
                or (self._repeat and self.writes > self._at_write):
            self.fired += 1
            if self._mode == "torn":
                self._handle.write(bytes(data)[:max(1, len(data) // 2)])
            raise OSError(errno.ENOSPC,
                          "No space left on device (injected)")
        return self._handle.write(data)

    def __getattr__(self, name):
        return getattr(self._handle, name)


@contextmanager
def inject_journal_fault(writer, at_write: int = 1,
                         mode: str = "enospc",
                         repeat: bool = False)\
        -> Iterator[_FaultyFile]:
    """Fail the journal writer's ``at_write``-th raw file write.

    ``writer`` is a :class:`repro.jobs.journal.JournalWriter`; the
    injected failure exercises its fsync-truncate-retry path.  Yields
    the proxy so tests can assert how often the fault fired.
    """
    if mode not in ("enospc", "torn"):
        raise ValueError("unknown journal fault mode %r" % mode)
    original = writer._handle
    proxy = _FaultyFile(original, at_write, mode, repeat)
    writer._handle = proxy
    try:
        yield proxy
    finally:
        writer._handle = original


def planned_crash(case: CaseSpec, one_in: int = 3) -> bool:
    """Whether the shared fault plan says this case's worker crashes."""
    return FaultPlan.for_case(case).fires("worker-crash", one_in)


def crashy_stub_task(case: CaseSpec):
    """Pool task whose workers die on plan-selected cases.

    Importable at top level (spawn children rebuild it by reference);
    the crash decision is a pure function of the case coordinates, so
    the *retry* of a crashed case crashes again and ends in a terminal
    ERROR record — the recovery path the pool tests must prove.
    Non-crashing cases return a minimal OK record.
    """
    from ..core.result import OUTCOME_OK
    from ..jobs.journal import CaseRecord, CheckOutcome

    if planned_crash(case):
        os._exit(3)
    return CaseRecord(
        case=case, outcome=OUTCOME_OK, seconds=0.001,
        inputs=2, outputs=1, spec_nodes=3, mutation="stub",
        checks={c: CheckOutcome(error_found=case.error_index % 2 == 0)
                for c in case.checks})
