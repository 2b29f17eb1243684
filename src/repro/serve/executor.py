"""Job execution: the service's work unit on the spawn worker pool.

A submitted pair runs in a child process of :class:`repro.jobs.pool`
— never in the server process — so a wedged check (pure-Python BDD
operations cannot be interrupted in-process) is killed with SIGKILL at
the hard deadline and the event loop stays responsive no matter what a
tenant submits.  The pool's wire protocol is pluggable
(:class:`~repro.jobs.pool.CaseCodec`); this module provides the
service flavor: :class:`JobSpec` in, :class:`JobRecord` out, with
:func:`execute_job` as the importable task spawned children resolve.

:class:`JobExecutor` is the parent-side front: a service-flavored
:class:`repro.serve.slots.SlotPool` — one single-slot
:class:`~repro.jobs.pool.WorkerPool` per configured job slot, behind
an async idle queue.  Each slot keeps its worker process alive across
jobs (spawn cost is paid once at server start), jobs dispatch the
moment a slot frees, and the slot layer throttles a
crash-looping slot with deterministic backoff so a poisoned tenant
burns its own latency, not the host's respawn budget.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..core.result import (OUTCOME_ERROR, OUTCOME_INCONCLUSIVE,
                           OUTCOME_OK, OUTCOME_TIMEOUT)
from .slots import SlotPool
from ..jobs.pool import WorkerPool

__all__ = ["JobSpec", "JobRecord", "ServeCodec", "execute_job",
           "JobExecutor"]

_OUTCOME_RANK = {OUTCOME_OK: 0, OUTCOME_INCONCLUSIVE: 1,
                 OUTCOME_TIMEOUT: 2, OUTCOME_ERROR: 2}


@dataclass(frozen=True)
class JobSpec:
    """Everything a worker needs to execute one submission from
    scratch in a fresh process: the netlist texts, the Black Box
    interfaces, the selected checks, and the server-assigned budgets
    and cache mount."""

    id: str
    tenant: str
    fmt: str
    spec_text: str
    impl_text: str
    boxes: Tuple[Dict, ...]
    checks: Tuple[str, ...]
    patterns: int = 1000
    seed: Optional[int] = None
    preflight: bool = False
    cache_dir: Optional[str] = None
    node_limit: Optional[int] = None
    soft_timeout: Optional[float] = None

    def to_dict(self) -> Dict:
        return {"id": self.id, "tenant": self.tenant, "fmt": self.fmt,
                "spec_text": self.spec_text,
                "impl_text": self.impl_text,
                "boxes": list(self.boxes),
                "checks": list(self.checks),
                "patterns": self.patterns, "seed": self.seed,
                "preflight": self.preflight,
                "cache_dir": self.cache_dir,
                "node_limit": self.node_limit,
                "soft_timeout": self.soft_timeout}

    @classmethod
    def from_dict(cls, data: Dict) -> "JobSpec":
        return cls(id=data["id"], tenant=data["tenant"],
                   fmt=data["fmt"], spec_text=data["spec_text"],
                   impl_text=data["impl_text"],
                   boxes=tuple(data.get("boxes", [])),
                   checks=tuple(data["checks"]),
                   patterns=int(data.get("patterns", 1000)),
                   seed=data.get("seed"),
                   preflight=bool(data.get("preflight", False)),
                   cache_dir=data.get("cache_dir"),
                   node_limit=data.get("node_limit"),
                   soft_timeout=data.get("soft_timeout"))


@dataclass
class JobRecord:
    """The executed job's complete, JSON-ready outcome.

    ``verdict`` and ``checks`` are the replayable part: on a warm
    cache hit they are byte-identical to the cold run that filled the
    cache (each check's ``seconds`` is the *original* measurement).
    ``seconds`` (job wall time), ``cache`` traffic and the per-check
    ``cached`` flags describe *this* execution and legitimately differ
    between a cold run and its warm replay.
    """

    id: str
    outcome: str = OUTCOME_OK
    refuted: bool = False
    exact: bool = False
    cached: bool = False
    checks: List[Dict] = field(default_factory=list)
    failing_output: Optional[str] = None
    counterexample: Optional[Dict[str, bool]] = None
    error: str = ""
    seconds: float = 0.0
    cache_hits: int = 0
    cache_misses: int = 0
    cache_stores: int = 0
    worker: int = 0
    attempt: int = 1

    def verdict(self) -> Dict:
        """The deterministic, replayable slice of the outcome."""
        return {"outcome": self.outcome, "refuted": self.refuted,
                "exact": self.exact,
                "failing_output": self.failing_output,
                "counterexample": self.counterexample,
                "checks": [
                    {k: v for k, v in check.items() if k != "cached"}
                    for check in self.checks]}

    def to_dict(self) -> Dict:
        return {"id": self.id, "outcome": self.outcome,
                "refuted": self.refuted, "exact": self.exact,
                "cached": self.cached, "checks": list(self.checks),
                "failing_output": self.failing_output,
                "counterexample": self.counterexample,
                "error": self.error, "seconds": self.seconds,
                "cache": {"hits": self.cache_hits,
                          "misses": self.cache_misses,
                          "stores": self.cache_stores},
                "worker": self.worker, "attempt": self.attempt}

    @classmethod
    def from_dict(cls, data: Dict) -> "JobRecord":
        cache = data.get("cache", {})
        return cls(id=data["id"], outcome=data["outcome"],
                   refuted=bool(data.get("refuted", False)),
                   exact=bool(data.get("exact", False)),
                   cached=bool(data.get("cached", False)),
                   checks=list(data.get("checks", [])),
                   failing_output=data.get("failing_output"),
                   counterexample=data.get("counterexample"),
                   error=data.get("error", ""),
                   seconds=float(data.get("seconds", 0.0)),
                   cache_hits=int(cache.get("hits", 0)),
                   cache_misses=int(cache.get("misses", 0)),
                   cache_stores=int(cache.get("stores", 0)),
                   worker=int(data.get("worker", 0)),
                   attempt=int(data.get("attempt", 1)))


def _failed_job(job: JobSpec, error: BaseException, seconds: float = 0.0,
                worker: int = 0, attempt: int = 1) -> JobRecord:
    """Terminal record: the job (or its worker) crashed."""
    return JobRecord(id=job.id, outcome=OUTCOME_ERROR,
                     error="%s: %s" % (type(error).__name__, error),
                     seconds=seconds, worker=worker, attempt=attempt)


def _timeout_job(job: JobSpec, seconds: float, worker: int = 0,
                 attempt: int = 1) -> JobRecord:
    """Terminal record: the worker was SIGKILLed at the hard deadline."""
    return JobRecord(id=job.id, outcome=OUTCOME_TIMEOUT,
                     error="killed after %.1fs at the per-job "
                           "deadline" % seconds,
                     seconds=seconds, worker=worker, attempt=attempt)


class ServeCodec:
    """Service wire protocol for :class:`repro.jobs.pool.WorkerPool`."""

    decode_case = staticmethod(JobSpec.from_dict)
    decode_record = staticmethod(JobRecord.from_dict)
    failed = staticmethod(_failed_job)
    timeout = staticmethod(_timeout_job)


def _check_dict(result) -> Dict:
    """JSON-ready view of one ladder rung's :class:`CheckResult`."""
    return {"check": result.check, "outcome": result.outcome,
            "error_found": result.error_found, "exact": result.exact,
            "seconds": result.seconds, "detail": result.detail,
            "failing_output": result.failing_output,
            "counterexample": result.counterexample,
            "cached": result.stats.get("check_cache") == "hit"}


def execute_job(job: JobSpec) -> JobRecord:
    """Run one submission's check ladder (worker-process side).

    Never raises for per-job problems: anything wrong with the
    submission or the checks becomes a terminal ERROR record (the
    last-resort guard in the pool's child loop catches the rest).
    Heavy imports happen here, not at module import, to keep the
    spawned child's startup cost down until its first job.
    """
    from ..core.ladder import run_ladder
    from ..resilience.budget import Budget
    from .protocol import ProtocolError, load_pair

    start = time.perf_counter()
    try:
        spec, partial = load_pair({
            "fmt": job.fmt, "spec_text": job.spec_text,
            "impl_text": job.impl_text, "boxes": list(job.boxes)})
    except ProtocolError as exc:
        return _failed_job(job, exc,
                           seconds=time.perf_counter() - start)
    cache = None
    if job.cache_dir:
        from ..analysis.static.cache import CheckCache

        cache = CheckCache(job.cache_dir)
    budget = Budget.from_limits(node_limit=job.node_limit,
                                soft_timeout=job.soft_timeout)
    try:
        results = run_ladder(spec, partial, checks=job.checks,
                             patterns=job.patterns, seed=job.seed,
                             budget=budget, preflight=job.preflight,
                             cache=cache)
    except Exception as exc:
        return _failed_job(job, exc,
                           seconds=time.perf_counter() - start)
    checks = [_check_dict(result) for result in results]
    outcome = OUTCOME_OK
    for result in results:
        if _OUTCOME_RANK.get(result.outcome, 2) \
                > _OUTCOME_RANK[outcome]:
            outcome = result.outcome if result.outcome \
                in _OUTCOME_RANK else OUTCOME_ERROR
    refuted = any(r.error_found for r in results
                  if r.outcome == OUTCOME_OK)
    witness = next((r for r in results
                    if r.error_found and r.outcome == OUTCOME_OK), None)
    exact = bool(results) and results[-1].exact and not refuted \
        and outcome == OUTCOME_OK
    record = JobRecord(
        id=job.id, outcome=outcome, refuted=refuted, exact=exact,
        cached=bool(checks) and all(c["cached"] for c in checks),
        checks=checks,
        failing_output=witness.failing_output if witness else None,
        counterexample=witness.counterexample if witness else None,
        seconds=time.perf_counter() - start)
    if cache is not None:
        stats = cache.stats()
        record.cache_hits = stats["hits"]
        record.cache_misses = stats["misses"]
        record.cache_stores = stats["stores"]
    return record


class JobExecutor(SlotPool):
    """The service's :class:`~repro.serve.slots.SlotPool` flavor.

    The scheduler acquires a slot, runs exactly one job on it (in a
    thread, because :meth:`WorkerPool.run` blocks), and releases it.
    The per-slot worker process survives across jobs; a hard-deadline
    kill or a crash costs that slot one respawn (handled inside the
    pool) plus a slot-governed backoff sleep while the slot is still
    held, so a crash loop cannot hot-spin worker spawns.
    """

    def __init__(self, slots: int, timeout: Optional[float] = None,
                 tracer=None):
        super().__init__(slots=slots, timeout=timeout,
                         task=execute_job, codec=ServeCodec,
                         tracer=tracer)

    async def run(self, pool: WorkerPool, job: JobSpec) -> JobRecord:
        """Execute ``job`` on an acquired slot."""
        record = await super().run(pool, job)
        if record is None:  # aborted mid-job (server shutdown)
            return _failed_job(job, RuntimeError("server shut down "
                                                 "mid-job"))
        return record
