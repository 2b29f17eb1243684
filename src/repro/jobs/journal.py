"""Append-only JSONL checkpoint journal for campaign runs.

One line per completed case, written atomically (single buffered write
of the full line, then flush), so a campaign killed at any instant
leaves at most one truncated final line — which :func:`read_journal`
tolerates and skips.  ``--resume`` replays the journal, keeps every
record whose case key matches the current campaign, and only executes
the remainder.

Record format (version 1)::

    {"v": 1,
     "case": {"benchmark": "alu4", "selection": 0, "error_index": 3,
              "fraction": 0.1, "num_boxes": 1, "patterns": 500,
              "seed": 2001, "checks": ["r.p.", "0,1,X", ...]},
     "outcome": "ok" | "timeout" | "error",
     "seconds": 1.84, "worker": 0, "attempt": 1,
     "spec": {"inputs": 14, "outputs": 8, "nodes": 1083},
     "mutation": "change_gate_type at gate 'n42'",
     "checks": {"ie": {"outcome": "ok", "error_found": true,
                       "seconds": 0.31, "impl_nodes": 911,
                       "peak_nodes": 2010, "detail": ""}, ...}}
"""

from __future__ import annotations

import errno
import hashlib
import json
import os
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..core.result import OUTCOME_ERROR, OUTCOME_OK, OUTCOME_TIMEOUT
from .spec import CaseSpec

__all__ = ["JOURNAL_VERSION", "CheckOutcome", "CaseRecord",
           "LineJournalWriter", "JournalWriter", "JournalWriteError",
           "read_journal", "iter_journal_dicts", "failed_record",
           "timeout_record", "trace_filename"]

JOURNAL_VERSION = 1


def trace_filename(case: CaseSpec) -> str:
    """Deterministic trace-file name for one case.

    A pure function of the case key: the journal never stores trace
    paths (its bytes must not depend on whether tracing was on), yet
    any reader holding a record can reconstruct where the worker put
    that case's trace — ``$REPRO_TRACE_DIR/<trace_filename(case)>``.
    The hash suffix disambiguates same-coordinate cases from campaigns
    with different parameters (patterns, checks, limits...).
    """
    digest = hashlib.sha256(
        repr(case.key).encode("utf-8")).hexdigest()[:8]
    return "%s-s%d-e%d-%s.trace.jsonl" % (
        case.benchmark, case.selection, case.error_index, digest)


@dataclass
class CheckOutcome:
    """Per-check slice of one case result.

    The ``cache_*`` counters (computed-table traffic of the check's
    fresh manager) and the maintenance counters (``reorders`` sifting
    passes, ``gc_runs`` collections) were added after version-1
    journals shipped; they default to 0 on records written before
    them, so old journals still resume cleanly and the version number
    stays 1.  All of them are deterministic manager counters, recorded
    whether or not tracing is enabled — journal bytes never depend on
    the observability layer.
    """

    outcome: str = OUTCOME_OK
    error_found: bool = False
    seconds: float = 0.0
    impl_nodes: int = 0
    peak_nodes: int = 0
    cache_hits: int = 0
    cache_misses: int = 0
    cache_evictions: int = 0
    reorders: int = 0
    gc_runs: int = 0
    detail: str = ""
    #: True when the verdict was replayed from the content-addressed
    #: check cache (:mod:`repro.analysis.static.cache`) instead of
    #: executed.  Serialised only when set, so journals written without
    #: a cache stay byte-identical to pre-cache ones.
    cached: bool = False
    #: Engine that decided this check under a portfolio/SAT strategy
    #: (``"bdd"`` or ``"sat"``, see :mod:`repro.core.portfolio`).
    #: Empty on the default BDD-only ladder and serialised only when
    #: set, so strategy-free journals stay byte-identical to
    #: pre-portfolio ones.
    engine: str = ""

    def to_dict(self) -> Dict:
        data = {"outcome": self.outcome,
                "error_found": self.error_found,
                "seconds": self.seconds,
                "impl_nodes": self.impl_nodes,
                "peak_nodes": self.peak_nodes,
                "cache_hits": self.cache_hits,
                "cache_misses": self.cache_misses,
                "cache_evictions": self.cache_evictions,
                "reorders": self.reorders,
                "gc_runs": self.gc_runs,
                "detail": self.detail}
        if self.cached:
            data["cached"] = True
        if self.engine:
            data["engine"] = self.engine
        return data

    @classmethod
    def from_dict(cls, data: Dict) -> "CheckOutcome":
        return cls(outcome=data["outcome"],
                   error_found=bool(data["error_found"]),
                   seconds=float(data["seconds"]),
                   impl_nodes=int(data["impl_nodes"]),
                   peak_nodes=int(data["peak_nodes"]),
                   cache_hits=int(data.get("cache_hits", 0)),
                   cache_misses=int(data.get("cache_misses", 0)),
                   cache_evictions=int(data.get("cache_evictions", 0)),
                   reorders=int(data.get("reorders", 0)),
                   gc_runs=int(data.get("gc_runs", 0)),
                   detail=data.get("detail", ""),
                   cached=bool(data.get("cached", False)),
                   engine=data.get("engine", ""))


@dataclass
class CaseRecord:
    """Everything the aggregator needs about one executed case."""

    case: CaseSpec
    outcome: str = OUTCOME_OK
    checks: Dict[str, CheckOutcome] = field(default_factory=dict)
    seconds: float = 0.0
    worker: int = 0
    attempt: int = 1
    inputs: int = 0
    outputs: int = 0
    spec_nodes: int = 0
    mutation: str = ""
    #: Number of output cones the static preflight discharged for this
    #: case (``None`` when the preflight did not run — distinguishes
    #: "preflight found nothing" from "no preflight", and keeps
    #: journals without ``--preflight`` byte-identical to old ones).
    discharged: Optional[int] = None

    def to_dict(self) -> Dict:
        data = {
            "v": JOURNAL_VERSION,
            "case": self.case.to_dict(),
            "outcome": self.outcome,
            "seconds": self.seconds,
            "worker": self.worker,
            "attempt": self.attempt,
            "spec": {"inputs": self.inputs, "outputs": self.outputs,
                     "nodes": self.spec_nodes},
            "mutation": self.mutation,
            "checks": {name: out.to_dict()
                       for name, out in self.checks.items()},
        }
        if self.discharged is not None:
            data["discharged"] = self.discharged
        return data

    @classmethod
    def from_dict(cls, data: Dict) -> "CaseRecord":
        if data.get("v") != JOURNAL_VERSION:
            raise ValueError("unsupported journal record version %r"
                             % data.get("v"))
        spec_meta = data.get("spec", {})
        return cls(
            case=CaseSpec.from_dict(data["case"]),
            outcome=data["outcome"],
            seconds=float(data["seconds"]),
            worker=int(data.get("worker", 0)),
            attempt=int(data.get("attempt", 1)),
            inputs=int(spec_meta.get("inputs", 0)),
            outputs=int(spec_meta.get("outputs", 0)),
            spec_nodes=int(spec_meta.get("nodes", 0)),
            mutation=data.get("mutation", ""),
            discharged=int(data["discharged"])
            if data.get("discharged") is not None else None,
            checks={name: CheckOutcome.from_dict(out)
                    for name, out in data.get("checks", {}).items()})

    def to_json_line(self) -> str:
        """One compact, newline-free JSON line."""
        return json.dumps(self.to_dict(), sort_keys=True,
                          separators=(",", ":"))

    @classmethod
    def from_json_line(cls, line: str) -> "CaseRecord":
        return cls.from_dict(json.loads(line))


def failed_record(case: CaseSpec, error: BaseException,
                  seconds: float = 0.0, worker: int = 0,
                  attempt: int = 1) -> CaseRecord:
    """Terminal ERROR record: the case (or its setup) raised/crashed."""
    detail = "%s: %s" % (type(error).__name__, error)
    return CaseRecord(
        case=case, outcome=OUTCOME_ERROR, seconds=seconds,
        worker=worker, attempt=attempt,
        checks={check: CheckOutcome(outcome=OUTCOME_ERROR, detail=detail)
                for check in case.checks})


def timeout_record(case: CaseSpec, seconds: float, worker: int = 0,
                   attempt: int = 1) -> CaseRecord:
    """Terminal TIMEOUT record: the worker was killed at the deadline."""
    return CaseRecord(
        case=case, outcome=OUTCOME_TIMEOUT, seconds=seconds,
        worker=worker, attempt=attempt,
        checks={check: CheckOutcome(
            outcome=OUTCOME_TIMEOUT,
            detail="killed after %.1fs" % seconds)
            for check in case.checks})


class JournalWriteError(OSError):
    """Appending to the campaign journal failed even after one retry.

    Raised instead of a bare ``OSError`` so the campaign driver can
    tell the operator *which* file is full/broken and that completed
    work up to the previous record is safely on disk.
    """

    def __init__(self, path: str, cause: BaseException):
        self.path = path
        self.cause = cause
        super().__init__(
            "cannot append to campaign journal %s (%s: %s); records "
            "written before this one are intact — free space or point "
            "--journal elsewhere and --resume" % (
                path, type(cause).__name__, cause))


class LineJournalWriter:
    """Append-only JSONL writer with one atomic line per payload.

    The machinery under :class:`JournalWriter`, factored out so other
    append-only journals (the service's job store in
    :mod:`repro.serve.store`) inherit the same contract: each payload
    is serialised to a single compact line and written unbuffered
    (``O_APPEND`` raw I/O), so concurrent readers (and post-crash
    resumes) see only whole lines plus at most one truncated tail.
    Pass ``fsync=True`` to force every line to disk (slower; protects
    against OS crashes, not just process death).

    Disk-full robustness: on ``ENOSPC``/short writes the partial line
    is truncated away, the write retried once (after an fsync that may
    release cached space), and a persistent failure surfaces as
    :class:`JournalWriteError` naming the journal path — with the file
    left whole-line clean for a later resume.
    """

    def __init__(self, path: str, fsync: bool = False):
        self.path = path
        self._fsync = fsync
        parent = os.path.dirname(os.path.abspath(path))
        if parent and not os.path.isdir(parent):
            os.makedirs(parent, exist_ok=True)
        self._handle = open(path, "ab", buffering=0)
        # Self-heal a torn tail from a killed run: without this, the
        # first appended record would concatenate onto the truncated
        # line and both records would be lost to the parser.
        if self._handle.tell() > 0:
            with open(path, "rb") as probe:
                probe.seek(-1, os.SEEK_END)
                if probe.read(1) != b"\n":
                    self._handle.write(b"\n")

    def _write_all(self, data: bytes) -> None:
        """Write every byte, treating a 0-byte write as disk-full."""
        view = memoryview(data)
        while view:
            written = self._handle.write(view)
            if not written:
                raise OSError(errno.ENOSPC,
                              "short write: 0 of %d bytes accepted"
                              % len(view))
            view = view[written:]

    def write_line(self, payload: Dict) -> None:
        """Append one dict as one atomic JSONL line."""
        data = (json.dumps(payload, sort_keys=True,
                           separators=(",", ":")) + "\n").encode("utf-8")
        start = self._handle.tell()
        try:
            self._write_all(data)
        except OSError as first:
            # A torn line would poison this record AND the next one;
            # cut it off before anything else (O_APPEND re-positions
            # the retry correctly after the truncate).
            try:
                os.fsync(self._handle.fileno())
            except OSError:
                pass
            try:
                os.ftruncate(self._handle.fileno(), start)
                self._write_all(data)
            except OSError:
                raise JournalWriteError(self.path, first) from first
        if self._fsync:
            os.fsync(self._handle.fileno())

    def close(self) -> None:
        if not self._handle.closed:
            self._handle.close()

    def __enter__(self) -> "LineJournalWriter":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class JournalWriter(LineJournalWriter):
    """Campaign-flavored :class:`LineJournalWriter`: appends
    :class:`CaseRecord` lines (see the base class for the atomic-append
    and disk-full contract)."""

    def write(self, record: CaseRecord) -> None:
        self.write_line(record.to_dict())


def iter_journal_dicts(path: str):
    """Yield one parsed dict per journal line, skipping torn/corrupt
    lines (the truncated tail of a killed run, or foreign garbage)."""
    with open(path, "r", encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if not line:
                continue
            try:
                payload = json.loads(line)
            except ValueError:
                continue
            if isinstance(payload, dict):
                yield payload


def read_journal(path: str) -> List[CaseRecord]:
    """Load a journal, skipping corrupt/truncated lines.

    Duplicate case keys (e.g. a case re-run after a resume) keep the
    *last* record, at the position of its first appearance.
    """
    records: Dict[tuple, CaseRecord] = {}
    for payload in iter_journal_dicts(path):
        try:
            record = CaseRecord.from_dict(payload)
        except (ValueError, KeyError, TypeError):
            continue
        records[record.case.key] = record
    return list(records.values())
