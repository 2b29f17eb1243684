"""SlotPool: K single-slot worker pools behind an async gate.

The generic substrate under the service's :class:`JobExecutor`
(:mod:`repro.serve.executor`): each slot is one single-slot
:class:`repro.jobs.pool.WorkerPool` whose spawned worker survives
across work items, fronted by an ``asyncio.Queue`` of idle slots so an
event loop dispatches the moment a slot frees.

What this layer adds over K bare pools is *crash governance*: a
slot whose worker keeps dying (a tenant submitting allocator-killing
jobs, a poisoned input) is throttled with
:class:`repro.resilience.BackoffPolicy` delays while the slot is still
held — so a crash loop costs its own tenant latency instead of burning
the host respawning workers at full speed — and every respawn shows up
as a ``slot:respawn`` complete-event on the installed tracer.  A clean
run resets the slot's streak.
"""

from __future__ import annotations

import asyncio
from typing import Callable, Dict, List, Optional

from ..jobs.pool import CaseCodec, WorkerPool
from ..resilience.backoff import BackoffPolicy

__all__ = ["SlotPool"]

#: Streak cap so the backoff exponent cannot overflow into hours.
_MAX_STREAK = 8


class SlotPool:
    """Async front over K single-slot pools with crash backoff."""

    def __init__(self, slots: int, timeout: Optional[float] = None,
                 task: Optional[Callable] = None, codec=CaseCodec,
                 backoff: Optional[BackoffPolicy] = None,
                 tracer=None):
        if slots < 1:
            raise ValueError("slots must be >= 1")
        self.slots = int(slots)
        self.timeout = timeout
        self.task = task
        self.codec = codec
        self.backoff = backoff if backoff is not None \
            else BackoffPolicy(base=0.05, multiplier=2.0, cap=5.0,
                               jitter=0.25, seed=11)
        self.tracer = tracer
        self._pools: List[WorkerPool] = []
        self._idle: Optional[asyncio.Queue] = None
        self._streaks: Dict[int, int] = {}

    async def start(self) -> None:
        """Spawn every slot's worker (in a thread: spawn blocks)."""
        self._pools = [WorkerPool(jobs=1, timeout=self.timeout,
                                  task=self.task, codec=self.codec)
                       for _ in range(self.slots)]
        await asyncio.gather(*(asyncio.to_thread(pool.start)
                               for pool in self._pools))
        self._idle = asyncio.Queue()
        for pool in self._pools:
            self._idle.put_nowait(pool)

    @property
    def idle_slots(self) -> int:
        """Slots currently free (0 before :meth:`start`)."""
        return self._idle.qsize() if self._idle is not None else 0

    async def acquire(self) -> WorkerPool:
        """Wait for a free slot."""
        return await self._idle.get()

    def release(self, pool: WorkerPool) -> None:
        self._idle.put_nowait(pool)

    async def run(self, pool: WorkerPool, item):
        """Execute one item on an acquired slot; ``None`` if aborted.

        If the slot's worker died during the run, the call sleeps the
        slot's backoff delay *before returning* — the slot is still
        held, so the crash loop, not the healthy slots, absorbs the
        wait.
        """
        slot = self._pools.index(pool)
        crashes_before = pool.crashes + pool.timeout_kills
        records = await asyncio.to_thread(pool.run, [item])
        crashed = (pool.crashes + pool.timeout_kills) > crashes_before
        if crashed:
            streak = min(self._streaks.get(slot, 0) + 1, _MAX_STREAK)
            self._streaks[slot] = streak
            delay = self.backoff.delay(streak)
            if self.tracer is not None:
                self.tracer.complete("slot:respawn", delay, slot=slot,
                                     streak=streak)
            await asyncio.sleep(delay)
        else:
            self._streaks.pop(slot, None)
        return records[0] if records else None

    def stats(self) -> Dict:
        """Aggregate slot health for ``/stats``."""
        return {"slots": self.slots,
                "idle": self.idle_slots,
                "crashes": sum(p.crashes for p in self._pools),
                "timeout_kills": sum(p.timeout_kills
                                     for p in self._pools),
                "throttled": sum(1 for s in self._streaks.values()
                                 if s > 0)}

    def abort(self) -> None:
        """Kill every in-flight worker immediately (abrupt shutdown)."""
        for pool in self._pools:
            pool.abort()

    def close(self) -> None:
        """Reap every worker process."""
        pools, self._pools = self._pools, []
        for pool in pools:
            pool.close()
