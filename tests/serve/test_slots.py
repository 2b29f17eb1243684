"""SlotPool: the async slot substrate with crash governance."""

import asyncio
import time

import pytest

from repro.core.result import OUTCOME_ERROR, OUTCOME_OK
from repro.serve.slots import SlotPool
from repro.obs import Tracer
from repro.resilience import BackoffPolicy

from ..jobs.test_pool import crash_task, make_cases, stub_task

FAST_BACKOFF = BackoffPolicy(base=0.01, multiplier=2.0, cap=0.05,
                             jitter=0.25, seed=11)


def _slot_pool(task, slots=2, tracer=None):
    return SlotPool(slots=slots, task=task, backoff=FAST_BACKOFF,
                    tracer=tracer)


class TestSlotFleet:
    def test_rejects_zero_slots(self):
        with pytest.raises(ValueError):
            SlotPool(slots=0)

    def test_runs_items_and_recycles_slots(self):
        async def scenario():
            slot_pool = _slot_pool(stub_task)
            await slot_pool.start()
            try:
                assert slot_pool.idle_slots == 2
                records = []
                for case in make_cases(4):
                    pool = await slot_pool.acquire()
                    try:
                        records.append(await slot_pool.run(pool, case))
                    finally:
                        slot_pool.release(pool)
                assert slot_pool.idle_slots == 2
                return records
            finally:
                slot_pool.close()

        records = asyncio.run(scenario())
        assert [r.outcome for r in records] == [OUTCOME_OK] * 4
        assert all(r.case.error_index == i
                   for i, r in enumerate(records))

    def test_crash_throttles_slot_and_traces_respawn(self):
        tracer = Tracer()

        async def scenario():
            slot_pool = _slot_pool(crash_task, tracer=tracer)
            await slot_pool.start()
            try:
                crashing = make_cases(1)[0]  # error_index 0 crashes
                pool = await slot_pool.acquire()
                start = time.monotonic()
                record = await slot_pool.run(pool, crashing)
                elapsed = time.monotonic() - start
                throttled = slot_pool.stats()["throttled"]
                slot_pool.release(pool)

                healthy = make_cases(2)[1]
                pool = await slot_pool.acquire()
                clean = await slot_pool.run(pool, healthy)
                slot_pool.release(pool)
                return record, elapsed, throttled, clean, slot_pool.stats()
            finally:
                slot_pool.close()

        record, elapsed, throttled, clean, stats = asyncio.run(scenario())
        # The pool retried the deterministic crasher to a terminal
        # ERROR record; the slot layer added a backoff sleep.
        assert record.outcome == OUTCOME_ERROR
        assert elapsed >= 0.01
        assert throttled == 1
        assert stats["crashes"] >= 1
        # A clean run on any slot resets that slot's streak.
        assert clean.outcome == OUTCOME_OK
        names = [e.get("name") for e in tracer.events]
        assert "slot:respawn" in names

    def test_stats_shape(self):
        async def scenario():
            slot_pool = _slot_pool(stub_task, slots=3)
            await slot_pool.start()
            try:
                return slot_pool.stats()
            finally:
                slot_pool.close()

        stats = asyncio.run(scenario())
        assert stats == {"slots": 3, "idle": 3, "crashes": 0,
                         "timeout_kills": 0, "throttled": 0}
