"""Campaign orchestration: enumerate, (re)execute, journal, aggregate.

:func:`run_campaign` is the one entry point both the serial and the
parallel paths share.  The flow is:

1. :func:`repro.jobs.spec.enumerate_cases` flattens the config into
   coordinate-seeded :class:`CaseSpec` records;
2. with ``--resume``, the journal is replayed and every record whose
   case key matches the current campaign is kept — only the remainder
   executes;
3. pending cases run inline (``jobs == 1`` and no timeout) or on the
   spawn pool (:mod:`repro.jobs.pool`); either way
   :func:`~repro.jobs.worker.execute_case` rebuilds each case from its
   coordinates alone.  Finished cases are appended to the journal in
   canonical case order.  A case that finishes before an earlier one
   waits in memory until its predecessors are written,
   so a serial and a ``--jobs N`` journal match byte for byte except
   for the measured ``seconds`` fields.  An exception or Ctrl-C writes
   the waiting records before the journal closes; a SIGKILL of the
   driver loses the cases in flight plus the finished cases still
   waiting on an earlier one;
4. :mod:`repro.jobs.aggregate` folds all records — resumed and fresh —
   into table rows in canonical order, making serial, parallel and
   resumed runs aggregate identically.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field
from typing import (TYPE_CHECKING, Callable, Dict, List, Optional,
                    Sequence)

from .aggregate import BenchmarkRow, fold_records
from .journal import CaseRecord, JournalWriter, read_journal
from .pool import DEFAULT_MAX_ATTEMPTS, run_parallel
from .spec import CaseSpec, enumerate_cases
from .worker import execute_case

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..experiments.runner import ExperimentConfig

__all__ = ["CampaignResult", "run_campaign"]


@dataclass
class CampaignResult:
    """Everything a campaign run produced."""

    #: One record per enumerated case, in canonical enumeration order.
    records: List[CaseRecord] = field(default_factory=list)
    #: Folded table rows, keyed by benchmark, in campaign order.
    rows: Dict[str, BenchmarkRow] = field(default_factory=dict)
    #: Cases skipped because a resumed journal already had them.
    resumed: int = 0
    #: Cases actually executed by this run.
    executed: int = 0
    #: Wall-clock of this run (excludes resumed work).
    wall_seconds: float = 0.0

    @property
    def timeouts(self) -> int:
        return sum(sum(row.timeouts.values())
                   for row in self.rows.values())

    @property
    def errors(self) -> int:
        return sum(sum(row.check_errors.values())
                   for row in self.rows.values())


def run_campaign(config: "ExperimentConfig",
                 benchmarks: Optional[Sequence[str]] = None,
                 jobs: int = 1,
                 timeout: Optional[float] = None,
                 journal: Optional[str] = None,
                 resume: Optional[str] = None,
                 progress: Optional[Callable[[str], None]] = None,
                 task: Optional[Callable] = None,
                 max_attempts: int = DEFAULT_MAX_ATTEMPTS)\
        -> CampaignResult:
    """Run (or finish) a campaign; see the module docstring.

    Parameters worth spelling out:

    jobs / timeout:
        ``jobs > 1`` or any ``timeout`` routes execution through the
        spawn pool; a timeout with ``jobs=1`` still uses one pooled
        worker so runaway checks can be killed from outside.
    journal / resume:
        ``journal`` appends every finished case to a JSONL checkpoint.
        ``resume`` replays an existing journal first; new records are
        appended to the same file unless a distinct ``journal`` path is
        given, in which case the resumed records are copied over so the
        new journal is self-contained.
    task:
        Test hook: replaces :func:`repro.jobs.worker.execute_case`.
    """
    start = time.monotonic()
    cases = enumerate_cases(config, benchmarks)
    done: Dict[tuple, CaseRecord] = {}
    if resume and os.path.exists(resume):
        wanted = {case.key for case in cases}
        for record in read_journal(resume):
            if record.case.key in wanted:
                done[record.case.key] = record
    resumed = len(done)
    pending = [case for case in cases if case.key not in done]

    journal_path = journal or resume
    writer = JournalWriter(journal_path) if journal_path else None
    if (writer and resume and journal
            and os.path.abspath(journal) != os.path.abspath(resume)):
        for record in done.values():
            writer.write(record)

    total = len(cases)
    written = 0  # pending[:written] are in the journal

    def emit(record: CaseRecord) -> None:
        nonlocal written
        done[record.case.key] = record
        if progress is not None:
            progress("[%d/%d] %s %s" % (len(done), total,
                                        record.case.describe(),
                                        record.outcome))
        # The reorder buffer is ``done`` itself: write every record
        # whose predecessors in ``pending`` are all written.
        while written < len(pending) and pending[written].key in done:
            if writer is not None:
                writer.write(done[pending[written].key])
            written += 1

    try:
        if pending:
            if jobs > 1 or timeout is not None:
                run_parallel(pending, jobs=jobs, timeout=timeout,
                             task=task, on_record=emit,
                             max_attempts=max_attempts)
            else:
                run_task = task if task is not None else execute_case
                for case in pending:
                    emit(run_task(case))
    finally:
        if writer is not None:
            try:
                # Cut short (an exception or Ctrl-C): keep the finished
                # records still waiting on an unfinished predecessor.
                # Resume dedups by case key, so their order is moot.
                for case in pending[written:]:
                    if case.key in done:
                        writer.write(done[case.key])
            finally:
                writer.close()

    records = [done[case.key] for case in cases]
    rows = fold_records(records, checks=config.checks)
    return CampaignResult(records=records, rows=rows, resumed=resumed,
                          executed=len(pending),
                          wall_seconds=time.monotonic() - start)
