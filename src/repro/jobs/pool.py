"""Spawn-based worker pool with per-case timeouts and bounded retry.

Design notes
------------
* **spawn, not fork.**  Workers are started with the ``spawn`` start
  method: each child imports :mod:`repro` fresh instead of inheriting
  the parent's BDD managers, open files and locks.  That costs a few
  hundred milliseconds per worker once, buys identical behaviour on
  Linux/macOS/Windows, and guarantees a worker's unique-table state is
  a pure function of the cases it executed — part of the determinism
  contract.
* **One persistent process per slot.**  A worker loops over cases sent
  down a :class:`multiprocessing.Pipe`; per-benchmark setup is memoised
  inside the worker (:mod:`repro.jobs.worker`), so the pool does not
  pay a process start per case.
* **Timeouts kill, results survive.**  Pure-Python BDD operations
  cannot be interrupted in-process, so the deadline is enforced from
  the parent: an overdue worker is ``kill()``-ed, a terminal ``TIMEOUT``
  record is emitted for its case, and a fresh worker takes the slot.
* **Crash != timeout.**  A worker that dies *without* hitting the
  deadline (segfault, OOM kill) gets its case retried on a fresh worker
  up to ``max_attempts`` times, then a terminal ``ERROR`` record.  The
  retry goes to the front of the queue, so the campaign journal's
  reorder buffer (:mod:`repro.jobs.engine`) is not held back by it.
* **Records do not name their worker.**  A record keeps the ``worker``
  and ``attempt`` values its task gave it, so its bytes do not depend
  on which worker ran it or whether a retry was needed, and a
  ``--jobs N`` journal matches a serial one byte for byte, timings
  aside.  Only the terminal ``TIMEOUT``/``ERROR`` records the pool
  builds itself, which have no serial twin, carry slot and attempt.
"""

from __future__ import annotations

import multiprocessing
import time
from collections import deque
from multiprocessing.connection import Connection, wait
from typing import Callable, Deque, List, Optional, Tuple

from .journal import CaseRecord, failed_record, timeout_record
from .spec import CaseSpec

__all__ = ["CaseCodec", "WorkerPool", "run_parallel",
           "DEFAULT_MAX_ATTEMPTS"]

#: Attempts per case before a crashing case is recorded as ERROR.
DEFAULT_MAX_ATTEMPTS = 2

#: How long the shutdown path waits for a worker to exit voluntarily.
_JOIN_GRACE = 5.0

#: Upper bound on one poll cycle, so crashes surface promptly even
#: under long/no deadlines.
_POLL_CAP = 0.5


class _WorkerDied(Exception):
    """Internal marker: the child's pipe hit EOF mid-case."""


class CaseCodec:
    """Wire protocol between the pool and its workers (campaign flavor).

    The pool itself is agnostic about *what* it executes: everything it
    needs from a work item is ``to_dict()`` (duck-typed on the object)
    plus the four hooks below.  The default codec speaks the campaign
    vocabulary (:class:`CaseSpec` in, :class:`CaseRecord` out); other
    subsystems (the equivalence-checking service in :mod:`repro.serve`)
    plug in their own job/record types without touching the pool's
    dispatch, kill, retry or timeout machinery.  A codec must be a
    top-level class: it travels to spawned children by reference.
    """

    #: Rebuild a work item from its wire dict (child side).
    decode_case = staticmethod(CaseSpec.from_dict)
    #: Rebuild a result from its wire dict (parent side).
    decode_record = staticmethod(CaseRecord.from_dict)
    #: Terminal record for a crashed/raising case.
    failed = staticmethod(failed_record)
    #: Terminal record for a case killed at the hard deadline.
    timeout = staticmethod(timeout_record)


def _child_main(conn: Connection, task: Callable, codec=CaseCodec)\
        -> None:
    """Worker loop: receive a case dict, execute, send a record dict."""
    try:
        while True:
            try:
                message = conn.recv()
            except (EOFError, OSError, KeyboardInterrupt):
                break
            if message is None:
                break
            case = codec.decode_case(message)
            try:
                record = task(case)
            except BaseException as exc:  # last-resort guard
                record = codec.failed(case, exc)
            try:
                conn.send(record.to_dict())
            except (BrokenPipeError, OSError):
                break
    finally:
        conn.close()


class _Slot:
    """One worker process and its in-flight case, parent side."""

    def __init__(self, slot_id: int, context, task: Callable,
                 codec=CaseCodec):
        self.slot_id = slot_id
        self._context = context
        self._task = task
        self._codec = codec
        self.case: Optional[CaseSpec] = None
        self.attempt = 0
        self.started = 0.0
        self.deadline: Optional[float] = None
        self._start_process()

    def _start_process(self) -> None:
        parent_conn, child_conn = self._context.Pipe()
        self.process = self._context.Process(
            target=_child_main,
            args=(child_conn, self._task, self._codec),
            name="repro-jobs-%d" % self.slot_id, daemon=True)
        self.process.start()
        child_conn.close()
        self.conn = parent_conn

    @property
    def busy(self) -> bool:
        return self.case is not None

    def dispatch(self, case: CaseSpec, attempt: int,
                 timeout: Optional[float]) -> None:
        self.conn.send(case.to_dict())
        self.case = case
        self.attempt = attempt
        self.started = time.monotonic()
        self.deadline = self.started + timeout if timeout else None

    def take_case(self) -> Tuple[CaseSpec, int, float]:
        """Clear the in-flight case, returning (case, attempt, elapsed)."""
        case, attempt = self.case, self.attempt
        elapsed = time.monotonic() - self.started
        self.case = None
        self.deadline = None
        return case, attempt, elapsed

    def receive(self) -> CaseRecord:
        try:
            payload = self.conn.recv()
        except (EOFError, OSError) as exc:
            raise _WorkerDied() from exc
        return self._codec.decode_record(payload)

    def kill_and_respawn(self) -> None:
        self.kill()
        self._start_process()

    def kill(self) -> None:
        if self.process.is_alive():
            self.process.kill()
        self.process.join(_JOIN_GRACE)
        self.conn.close()

    def shutdown(self) -> None:
        """Polite shutdown of an idle worker; escalates to kill."""
        try:
            self.conn.send(None)
        except (BrokenPipeError, OSError):
            pass
        self.process.join(_JOIN_GRACE)
        if self.process.is_alive():
            self.process.kill()
            self.process.join(_JOIN_GRACE)
        self.conn.close()


class WorkerPool:
    """A reusable pool of spawned workers, usable as a context manager.

    Separating construction (:meth:`start`) from case execution
    (:meth:`run`) makes the cleanup obligations explicit: however
    :meth:`run` exits — normally, on a worker crash, or because the
    driving process was interrupted — ``with WorkerPool(...) as pool:``
    guarantees every child process is reaped.  :func:`run_parallel`
    remains the one-shot convenience wrapper.
    """

    def __init__(self, jobs: int, timeout: Optional[float] = None,
                 task: Optional[Callable] = None,
                 max_attempts: int = DEFAULT_MAX_ATTEMPTS,
                 codec=CaseCodec):
        if jobs < 1:
            raise ValueError("jobs must be >= 1")
        if task is None:
            from .worker import execute_case as task
        self.jobs = int(jobs)
        self.timeout = timeout
        self.task = task
        self.max_attempts = max_attempts
        self.codec = codec
        self._aborted = False
        self._slots: List[_Slot] = []
        #: Monotone counters: workers that died mid-case (crash) and
        #: workers SIGKILLed at the hard deadline.  The service's slot
        #: governor (:class:`repro.serve.slots.SlotPool`) reads these
        #: to throttle crash-looping slots with backoff.
        self.crashes = 0
        self.timeout_kills = 0

    @property
    def started(self) -> bool:
        return bool(self._slots)

    def start(self) -> "WorkerPool":
        """Spawn the worker processes (idempotent).

        Startup is exception-safe: if the N-th worker fails to spawn,
        the N-1 already-running ones are shut down before the error
        propagates, so a failed start never leaks children.
        """
        if self._slots:
            return self
        context = multiprocessing.get_context("spawn")
        slots: List[_Slot] = []
        try:
            for i in range(self.jobs):
                slots.append(_Slot(i, context, self.task, self.codec))
        except BaseException:
            for slot in slots:
                slot.kill()
            raise
        self._slots = slots
        return self

    def close(self) -> None:
        """Reap every worker: polite shutdown when idle, kill if busy."""
        slots, self._slots = self._slots, []
        for slot in slots:
            if slot.busy:
                slot.kill()
            else:
                slot.shutdown()

    def abort(self) -> None:
        """Kill every worker NOW and make a concurrent :meth:`run` stop.

        Unlike :meth:`close` this is safe to call from another thread
        while ``run()`` is blocked in its poll loop (the service's
        abrupt-shutdown path): the killed pipes wake the loop, in-flight
        cases are dropped without retry or respawn, and ``run()``
        returns the records completed so far.  The pool is dead
        afterwards; call :meth:`close` to reap the processes.
        """
        self._aborted = True
        for slot in self._slots:
            if slot.process.is_alive():
                slot.process.kill()

    def __enter__(self) -> "WorkerPool":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.close()

    def run(self, cases: List[CaseSpec],
            on_record: Optional[Callable[[CaseRecord], None]] = None)\
            -> List[CaseRecord]:
        """Execute ``cases``, returning records in completion order.

        ``on_record`` is additionally called as each record lands, which
        is how the engine journals and reports progress incrementally.
        """
        if not cases:
            return []
        self.start()
        timeout, max_attempts = self.timeout, self.max_attempts
        codec = self.codec
        slots = self._slots
        pending: Deque[Tuple[CaseSpec, int]] = deque(
            (case, 1) for case in cases)
        records: List[CaseRecord] = []

        def emit(record: CaseRecord) -> None:
            records.append(record)
            if on_record is not None:
                on_record(record)

        while not self._aborted \
                and (pending or any(slot.busy for slot in slots)):
            for slot in slots:
                if not slot.busy and pending:
                    case, attempt = pending.popleft()
                    slot.dispatch(case, attempt, timeout)
            busy = [slot for slot in slots if slot.busy]
            if not busy:
                continue
            now = time.monotonic()
            poll = _POLL_CAP
            if timeout:
                nearest = min(slot.deadline for slot in busy)
                poll = min(poll, max(0.0, nearest - now))
            ready = wait([slot.conn for slot in busy], timeout=poll)
            for slot in busy:
                if slot.conn not in ready or not slot.busy:
                    continue
                try:
                    record = slot.receive()
                except _WorkerDied:
                    case, attempt, elapsed = slot.take_case()
                    if self._aborted:
                        continue
                    self.crashes += 1
                    slot.kill_and_respawn()
                    if attempt < max_attempts:
                        pending.appendleft((case, attempt + 1))
                    else:
                        emit(codec.failed(
                            case,
                            RuntimeError("worker died (attempt %d/%d)"
                                         % (attempt, max_attempts)),
                            seconds=elapsed, worker=slot.slot_id,
                            attempt=attempt))
                    continue
                slot.take_case()
                emit(record)
            if timeout and not self._aborted:
                now = time.monotonic()
                for slot in slots:
                    if slot.busy and slot.deadline is not None \
                            and now >= slot.deadline:
                        case, attempt, elapsed = slot.take_case()
                        self.timeout_kills += 1
                        slot.kill_and_respawn()
                        emit(codec.timeout(case, elapsed,
                                           worker=slot.slot_id,
                                           attempt=attempt))
        return records


def run_parallel(cases: List[CaseSpec], jobs: int,
                 timeout: Optional[float] = None,
                 task: Optional[Callable] = None,
                 on_record: Optional[Callable[[CaseRecord], None]] = None,
                 max_attempts: int = DEFAULT_MAX_ATTEMPTS)\
        -> List[CaseRecord]:
    """Execute ``cases`` on ``jobs`` spawned workers (one-shot pool).

    Returns one record per case (in completion order); ``on_record`` is
    additionally called as each record lands.  ``task`` defaults to
    :func:`repro.jobs.worker.execute_case` and must be an importable
    top-level callable (it is sent to spawned children by reference).
    """
    if not cases:
        return []
    jobs = max(1, min(int(jobs), len(cases)))
    with WorkerPool(jobs=jobs, timeout=timeout, task=task,
                    max_attempts=max_attempts) as pool:
        return pool.run(cases, on_record=on_record)
