"""The fleet supervisor: spawn shards, watch journals, recover.

:func:`run_fleet` is the fleet's one entry point, called by
:func:`repro.jobs.engine.run_campaign` when ``--shards`` is set.  The
supervisor

1. partitions the pending cases by their coordinate-derived keys
   (:mod:`repro.fleet.shard`) and spawns one
   :func:`repro.fleet.shardproc.shard_main` process per shard;
2. *tails* every shard journal — the journal, not the pipe, is the
   liveness and progress channel, so recovery replays from disk alone:
   hello/heartbeat events refresh the liveness clock, ``claim`` events
   mark cases in flight, ``case`` events complete them;
3. declares a shard dead when its process exits **or** its heartbeat
   goes quiet past ``heartbeat_miss`` (the blackhole drill: a shard
   may be alive-but-silent — it is SIGKILLed and treated as dead;
   leases plus the deterministic merge keep a duplicate record
   harmless) **or** one claim outlives ``case_timeout`` (a wedged
   case: the shard is killed the way the spawn pool kills a wedged
   worker);
4. recovers: in-flight cases are marked ``lost`` and rescheduled onto
   survivors with bounded per-case retries under
   :class:`repro.resilience.BackoffPolicy` delays (retry exhaustion
   produces a terminal ERROR/TIMEOUT record, never a missing row);
   never-claimed cases reschedule immediately with no retry cost;
   when no survivors remain, a replacement shard is respawned
   (bounded by ``max_respawns``, and fault drills only arm
   incarnation 0, so drills always terminate);
5. journals every decision to ``supervisor.jsonl`` and mirrors it as
   :meth:`repro.obs.Tracer.complete` events, so a campaign's
   steal/recovery history shows up in ``trace summary``.

The return value is the deterministic merge
(:mod:`repro.fleet.merge`): exactly one record per requested case.
"""

from __future__ import annotations

import itertools
import json
import os
import shutil
import tempfile
import time
from dataclasses import dataclass, field, replace
from heapq import heappop, heappush
from multiprocessing import get_context
from typing import Callable, Dict, List, Optional, Sequence

from ..jobs.journal import CaseRecord, failed_record, timeout_record
from ..jobs.spec import CaseSpec
from ..resilience.backoff import BackoffPolicy
from .journal import (FleetPaths, SupervisorJournal,
                      collect_case_events)
from .leases import LeaseDir
from .merge import merge_case_events
from .shard import case_key_hash, partition
from .shardproc import shard_main

__all__ = ["HEARTBEAT_ENV", "FleetConfig", "Supervisor", "run_fleet"]

#: ``interval:miss`` override for drills/CI, e.g. ``0.05:0.4``.
HEARTBEAT_ENV = "REPRO_FLEET_HEARTBEAT"

#: Trace file the supervisor writes its decision events to (under
#: ``$REPRO_TRACE_DIR``), next to the per-case worker traces.
SUPERVISOR_TRACE = "fleet-supervisor.trace.jsonl"


@dataclass(frozen=True)
class FleetConfig:
    """Supervision knobs; defaults are production-paced."""

    heartbeat_interval: float = 0.5
    #: Quiet time after which a shard is presumed dead (must comfortably
    #: exceed the interval; heartbeats come from a dedicated thread, so
    #: long-running cases do not go quiet).
    heartbeat_miss: float = 5.0
    #: Extra patience before the first hello (spawn + import cost).
    startup_grace: float = 30.0
    #: Per-case wall-clock deadline (``--timeout``); a claim older than
    #: this gets its shard killed.
    case_timeout: Optional[float] = None
    #: In-flight deaths one case may cause before its terminal record.
    max_retries: int = 2
    #: Whole-shard respawns when no survivors remain.
    max_respawns: int = 3
    steal: bool = True
    steal_poll: float = 0.05
    poll: float = 0.02
    backoff: BackoffPolicy = field(
        default_factory=lambda: BackoffPolicy(
            base=0.05, multiplier=2.0, cap=2.0, jitter=0.25, seed=2001))

    @classmethod
    def from_env(cls, **overrides) -> "FleetConfig":
        """Defaults, with ``REPRO_FLEET_HEARTBEAT=interval:miss``
        applied (the CI fault drills pace detection this way)."""
        text = os.environ.get(HEARTBEAT_ENV)
        if text:
            interval, _, miss = text.partition(":")
            overrides.setdefault("heartbeat_interval", float(interval))
            if miss:
                overrides.setdefault("heartbeat_miss", float(miss))
        return cls(**overrides)


class _ShardHandle:
    """Supervisor-side state of one live shard process."""

    def __init__(self, shard: int, incarnation: int, proc, conn,
                 spawned: float):
        self.shard = shard
        self.incarnation = incarnation
        self.proc = proc
        self.conn = conn
        self.spawned = spawned
        #: None until this process's own hello.  The shard journal is
        #: append-only across respawns (and resumed runs) and is tailed
        #: from offset 0, so events before that hello belong to a dead
        #: predecessor: they neither prove liveness nor put claims in
        #: flight.
        self.last_beat: Optional[float] = None
        self.offset = 0
        self.tail = b""
        self.claims: Dict[str, float] = {}  # key -> claimed-at


class Supervisor:
    """One fleet run; see the module docstring for the life cycle."""

    def __init__(self, cases: Sequence[CaseSpec], shards: int,
                 base_dir: str,
                 config: Optional[FleetConfig] = None,
                 task: Optional[Callable] = None,
                 progress: Optional[Callable[[str], None]] = None,
                 tracer=None):
        self.cases = list(cases)
        self.shards = shards
        self.config = config if config is not None \
            else FleetConfig.from_env()
        self.task = task
        self.progress = progress
        self.tracer = tracer
        self.paths = FleetPaths(base_dir)
        os.makedirs(base_dir, exist_ok=True)
        self.leases = LeaseDir(self.paths.leases)
        self.keymap: Dict[str, CaseSpec] = {
            case_key_hash(c): c for c in self.cases}
        #: Duplicate-tolerant record candidates per key hash.
        self.candidates: Dict[str, List[CaseRecord]] = {}
        self.done: set = set()
        self.retries: Dict[str, int] = {}
        self.owner: Dict[str, Optional[int]] = {}
        self._live: Dict[int, _ShardHandle] = {}
        self._incarnations: Dict[int, int] = {}
        self._sched: list = []  # (due, seq, key) reschedule heap
        self._seq = itertools.count()
        self._rr = 0
        self.respawns = 0
        self.steals = 0
        self.lost = 0
        self._ctx = get_context("spawn")
        self._journal: Optional[SupervisorJournal] = None

    # -- observability -------------------------------------------------

    def _trace(self, name: str, seconds: float = 0.0, **args) -> None:
        if self.tracer is not None:
            self.tracer.complete(name, seconds, **args)

    def _decide(self, kind: str, **fields) -> None:
        if self._journal is not None:
            self._journal.decision(kind, **fields)

    def _report(self, text: str) -> None:
        if self.progress is not None:
            self.progress(text)

    # -- lifecycle -----------------------------------------------------

    def run(self) -> Dict[tuple, CaseRecord]:
        # Resume: records already in this fleet directory count as done
        # (covers fleets run without a campaign journal, and the window
        # where shards finished cases the campaign journal never saw).
        for key, records in collect_case_events(
                self.paths.shard_journals()
                + [self.paths.supervisor_journal]).items():
            if key in self.keymap:
                self.candidates[key] = records
                self.done.add(key)
        # Stale leases from a previous killed run would starve their
        # cases forever; within *this* run leases double as done
        # markers, so only unfinished keys are released.
        self.leases.release_many(
            k for k in self.leases.held_keys() if k not in self.done)

        pending = [c for c in self.cases
                   if case_key_hash(c) not in self.done]
        self._case_dicts = [c.to_dict() for c in pending]
        self._assignment = partition(pending, self.shards)
        for case in pending:
            key = case_key_hash(case)
            self.owner[key] = None
        for shard, indices in enumerate(self._assignment):
            for index in indices:
                self.owner[case_key_hash(pending[index])] = shard

        self._journal = SupervisorJournal(
            self.paths.supervisor_journal)
        self._decide("fleet_start", shards=self.shards,
                     cases=len(pending), resumed=len(self.done))
        span = self.tracer.span("fleet", shards=self.shards,
                                cases=len(pending)) \
            if self.tracer is not None else None
        try:
            for shard in range(self.shards):
                self._spawn(shard)
            self._supervise()
        finally:
            self._shutdown()
            if span is not None:
                span.done(done=len(self.done), steals=self.steals,
                          lost=self.lost, respawns=self.respawns)
            self._decide("fleet_done", cases=len(self.done),
                         steals=self.steals, lost=self.lost,
                         respawns=self.respawns)
            if self._journal is not None:
                self._journal.close()
        return merge_case_events(self.cases, self.candidates)

    def _spawn(self, shard: int) -> None:
        incarnation = self._incarnations.get(shard, 0)
        self._incarnations[shard] = incarnation + 1
        parent_conn, child_conn = self._ctx.Pipe()
        options = {"heartbeat_interval": self.config.heartbeat_interval,
                   "steal": self.config.steal,
                   "steal_poll": self.config.steal_poll}
        proc = self._ctx.Process(
            target=shard_main,
            args=(child_conn, shard, incarnation, self.paths.base,
                  self._case_dicts, self._assignment, self.task,
                  options),
            daemon=True, name="fleet-shard-%d" % shard)
        proc.start()
        child_conn.close()
        self._live[shard] = _ShardHandle(shard, incarnation, proc,
                                         parent_conn, time.monotonic())

    def _supervise(self) -> None:
        total = len(self.keymap)
        while len(self.done) < total:
            now = time.monotonic()
            for handle in list(self._live.values()):
                self._tail(handle, now)
            self._check_liveness(now)
            self._dispatch(time.monotonic())
            time.sleep(self.config.poll)

    def _shutdown(self) -> None:
        for handle in list(self._live.values()):
            try:
                handle.conn.send({"op": "stop"})
            except OSError:
                pass
        deadline = time.monotonic() + 5.0
        for handle in list(self._live.values()):
            handle.proc.join(max(0.1, deadline - time.monotonic()))
            if handle.proc.is_alive():
                handle.proc.kill()
                handle.proc.join(5.0)
            self._tail(handle, time.monotonic())
            try:
                handle.conn.close()
            except OSError:
                pass
        self._live.clear()

    # -- journal tailing ----------------------------------------------

    def _tail(self, handle: _ShardHandle, now: float) -> None:
        try:
            with open(self.paths.shard_journal(handle.shard),
                      "rb") as stream:
                stream.seek(handle.offset)
                data = stream.read()
        except FileNotFoundError:
            return
        if not data:
            return
        handle.offset += len(data)
        lines = (handle.tail + data).split(b"\n")
        handle.tail = lines.pop()
        for raw in lines:
            if not raw:
                continue
            try:
                event = json.loads(raw.decode("utf-8"))
            except (ValueError, UnicodeDecodeError):
                continue  # torn/garbage line (torn-journal drill)
            if isinstance(event, dict):
                self._on_event(handle, event, now)

    def _on_event(self, handle: _ShardHandle, event: Dict,
                  now: float) -> None:
        kind = event.get("ev")
        if handle.last_beat is None:
            if kind == "hello" \
                    and event.get("incarnation") == handle.incarnation \
                    and event.get("pid") == handle.proc.pid:
                handle.last_beat = now
            return
        if kind in ("hello", "heartbeat"):
            handle.last_beat = now
        elif kind == "claim":
            key = event.get("key")
            if key in self.keymap and key not in self.done:
                handle.claims[key] = now
                self.owner[key] = handle.shard
        elif kind == "case":
            self._on_case(handle, event)

    def _on_case(self, handle: _ShardHandle, event: Dict) -> None:
        key = event.get("key")
        if key not in self.keymap:
            return
        try:
            record = CaseRecord.from_dict(event["record"])
        except (KeyError, ValueError, TypeError):
            return
        handle.claims.pop(key, None)
        self.candidates.setdefault(key, []).append(record)
        stolen_from = event.get("stolen_from")
        if stolen_from is not None:
            self.steals += 1
            self._decide("steal", key=key, thief=handle.shard,
                         victim=stolen_from)
            self._trace("fleet:steal", record.seconds,
                        thief=handle.shard, victim=stolen_from,
                        case=record.case.describe())
        if key not in self.done:
            self.done.add(key)
            self._report("[%d/%d] %s %s (shard %d)"
                         % (len(self.done), len(self.keymap),
                            record.case.describe(), record.outcome,
                            handle.shard))

    # -- failure detection --------------------------------------------

    def _check_liveness(self, now: float) -> None:
        cfg = self.config
        for handle in list(self._live.values()):
            if not handle.proc.is_alive():
                self._on_dead(handle,
                              "exit:%s" % handle.proc.exitcode, now)
            elif handle.last_beat is None:
                if now - handle.spawned > cfg.startup_grace:
                    self._on_dead(handle, "startup-timeout", now)
            elif now - handle.last_beat > cfg.heartbeat_miss:
                self._on_dead(handle, "heartbeat-miss", now)
            elif cfg.case_timeout is not None:
                wedged = [key for key, since in handle.claims.items()
                          if now - since > cfg.case_timeout
                          and key not in self.done]
                if wedged:
                    self._decide("case_timeout", shard=handle.shard,
                                 keys=sorted(wedged))
                    self._on_dead(handle, "case-timeout", now,
                                  timeout_keys=frozenset(wedged))

    def _on_dead(self, handle: _ShardHandle, reason: str, now: float,
                 timeout_keys: frozenset = frozenset()) -> None:
        if handle.proc.is_alive():
            handle.proc.kill()
            handle.proc.join(5.0)
        self._tail(handle, now)  # drain its final records first
        self._live.pop(handle.shard, None)
        try:
            handle.conn.close()
        except OSError:
            pass

        in_flight = sorted(k for k in handle.claims
                           if k not in self.done)
        mine = sorted(k for k, s in self.owner.items()
                      if s == handle.shard and k not in self.done
                      and k not in in_flight)
        self._decide("shard_dead", shard=handle.shard,
                     incarnation=handle.incarnation, reason=reason,
                     in_flight=len(in_flight), pending=len(mine))
        self._trace("fleet:shard-dead", now - handle.spawned,
                    shard=handle.shard, reason=reason,
                    in_flight=len(in_flight), pending=len(mine))

        for key in in_flight:
            case = self.keymap[key]
            self.leases.release(key)
            self.retries[key] = self.retries.get(key, 0) + 1
            attempt = self.retries[key]
            flavor = "timeout" if key in timeout_keys else "crash"
            self.lost += 1
            self._decide("case_lost", key=key,
                         case=case.describe(), shard=handle.shard,
                         reason=flavor, retry=attempt)
            self._trace("fleet:lost", 0.0, case=case.describe(),
                        shard=handle.shard, reason=flavor)
            if attempt > self.config.max_retries:
                if flavor == "timeout":
                    record = timeout_record(
                        case, float(self.config.case_timeout or 0.0))
                else:
                    record = failed_record(case, RuntimeError(
                        "lost with its shard %d time(s); retries "
                        "exhausted" % attempt))
                self._terminal(key, record, flavor)
            else:
                delay = self.config.backoff.delay(attempt)
                heappush(self._sched,
                         (now + delay, next(self._seq), key))
                self.owner[key] = None
                self._decide("retry", key=key, case=case.describe(),
                             attempt=attempt, delay=round(delay, 6))
        for key in mine:
            # Innocent bystanders: never claimed, so no retry cost and
            # no backoff — they just need a new home.
            heappush(self._sched, (now, next(self._seq), key))
            self.owner[key] = None

    def _terminal(self, key: str, record: CaseRecord,
                  reason: str) -> None:
        self.candidates.setdefault(key, []).append(record)
        self.done.add(key)
        if self._journal is not None:
            self._journal.terminal_case(key, record, reason)
        self._trace("fleet:terminal", 0.0,
                    case=record.case.describe(), outcome=record.outcome,
                    reason=reason)
        self._report("[%d/%d] %s %s (supervisor: %s)"
                     % (len(self.done), len(self.keymap),
                        record.case.describe(), record.outcome, reason))

    # -- rescheduling -------------------------------------------------

    def _pick_target(self) -> Optional[_ShardHandle]:
        if not self._live:
            return None
        order = sorted(self._live)
        self._rr += 1
        return self._live[order[self._rr % len(order)]]

    def _dispatch(self, now: float) -> None:
        while self._sched and self._sched[0][0] <= now:
            due, _, key = heappop(self._sched)
            if key in self.done:
                continue
            target = self._pick_target()
            if target is None:
                if not self._respawn():
                    case = self.keymap[key]
                    self._terminal(key, failed_record(case, RuntimeError(
                        "no live shards and respawn budget exhausted")),
                        "abandoned")
                    continue
                target = self._pick_target()
                if target is None:  # pragma: no cover - spawn failed
                    heappush(self._sched,
                             (now + 1.0, next(self._seq), key))
                    continue
            case = self.keymap[key]
            try:
                target.conn.send({"op": "run", "case": case.to_dict(),
                                  "retry": self.retries.get(key, 0)})
            except OSError:
                # Died between liveness check and send; try again after
                # the death is processed.
                heappush(self._sched,
                         (now + self.config.poll, next(self._seq), key))
                continue
            self.owner[key] = target.shard
            self._decide("reschedule", key=key, case=case.describe(),
                         target=target.shard,
                         retry=self.retries.get(key, 0))
            self._trace("fleet:reschedule", 0.0, case=case.describe(),
                        target=target.shard,
                        retry=self.retries.get(key, 0))

    def _respawn(self) -> bool:
        """Replacement shard when no survivors remain; bounded."""
        if self.respawns >= self.config.max_respawns:
            return False
        self.respawns += 1
        shard = min(set(range(self.shards)) - set(self._live))
        self._decide("respawn", shard=shard,
                     incarnation=self._incarnations.get(shard, 0),
                     respawn=self.respawns)
        self._trace("fleet:respawn", 0.0, shard=shard,
                    respawn=self.respawns)
        self._spawn(shard)
        return True


def run_fleet(cases: Sequence[CaseSpec], shards: int,
              base_dir: Optional[str] = None,
              config: Optional[FleetConfig] = None,
              task: Optional[Callable] = None,
              progress: Optional[Callable[[str], None]] = None,
              tracer=None,
              case_timeout: Optional[float] = None,
              max_retries: Optional[int] = None)\
        -> Dict[tuple, CaseRecord]:
    """Run ``cases`` on a sharded fleet; one merged record per case.

    ``base_dir`` holds the shard/supervisor journals and leases
    (``<campaign journal>.fleet/`` when the engine has a journal); a
    temporary directory is used — and removed on success — when the
    caller has none, which also means crash resume needs a real one.
    When ``tracer`` is ``None`` and ``REPRO_TRACE_DIR`` is set, the
    supervisor records its decisions and writes them to
    ``$REPRO_TRACE_DIR/fleet-supervisor.trace.jsonl``.
    """
    if not cases:
        return {}
    cfg = config if config is not None else FleetConfig.from_env()
    if case_timeout is not None:
        cfg = replace(cfg, case_timeout=case_timeout)
    if max_retries is not None:
        cfg = replace(cfg, max_retries=max_retries)
    shards = max(1, min(shards, len(cases)))

    trace_dir = os.environ.get("REPRO_TRACE_DIR")
    owned_tracer = None
    if tracer is None and trace_dir:
        from ..obs import Tracer
        tracer = owned_tracer = Tracer()

    temp_base = None
    if base_dir is None:
        base_dir = temp_base = tempfile.mkdtemp(prefix="repro-fleet-")
    try:
        supervisor = Supervisor(cases, shards, base_dir, config=cfg,
                                task=task, progress=progress,
                                tracer=tracer)
        merged = supervisor.run()
    finally:
        if owned_tracer is not None and trace_dir:
            owned_tracer.close_all()
            try:
                from ..obs import write_jsonl
                os.makedirs(trace_dir, exist_ok=True)
                write_jsonl(owned_tracer.events,
                            os.path.join(trace_dir, SUPERVISOR_TRACE))
            except OSError:
                pass  # a full/readonly trace dir must not fail the run
    if temp_base is not None:
        shutil.rmtree(temp_base, ignore_errors=True)
    return merged
