"""Per-case execution: the unit of work the pool distributes.

:func:`execute_case` rebuilds everything a case needs from its
coordinates alone (benchmark factory -> tuned spec -> Black Box carving
-> error insertion -> checks), which is what lets any worker process
execute any case, inline or pooled.  Expensive per-benchmark artefacts
(the sifted specification and its cone hashes) and per-selection
artefacts (the carved partial) are memoised process-locally, so a
worker that receives many cases of the same benchmark pays the setup
cost once.

Rung 0, the check-cache codec and the rung dispatch come from
:mod:`repro.core.ladder`; this module adds the campaign's rules: a
fresh manager per check (via
:func:`repro.experiments.runner.run_one_case`), every column filled,
and a budget trip degrading only its own check.
"""

from __future__ import annotations

import os
import random
import time
from typing import Dict, Optional, Tuple

from ..circuit.netlist import Circuit
from ..core.ladder import replay, rung_zero, store
from ..core.result import (OUTCOME_ERROR, OUTCOME_INCONCLUSIVE,
                           OUTCOME_OK, CheckResult)
from ..generators.benchmarks import BENCHMARK_FACTORIES
from ..obs import Tracer, set_tracer, write_jsonl
from ..partial.blackbox import PartialImplementation
from ..partial.extraction import make_partial
from ..partial.mutations import insert_random_error
from ..resilience.budget import Budget, BudgetExceededError
from ..resilience.degrade import describe_strongest
from .journal import (CaseRecord, CheckOutcome, failed_record,
                      trace_filename)
from .spec import CaseSpec

__all__ = ["execute_case", "clear_caches"]

#: benchmark name -> (tuned spec, (inputs, outputs, nodes))
_SPEC_CACHE: Dict[str, Tuple[Circuit, Tuple[int, int, int]]] = {}
#: (benchmark, fraction, num_boxes, partial seed) -> carved partial
_PARTIAL_CACHE: Dict[Tuple, PartialImplementation] = {}
_PARTIAL_CACHE_MAX = 16
#: benchmark name -> the tuned spec's ConeHashes — the spec side of
#: the static analysis is per-benchmark, so a worker hashing many
#: cases of one benchmark pays the cone walk once.
_SPEC_HASH_CACHE: Dict[str, object] = {}


def clear_caches() -> None:
    """Drop the process-local spec/partial memos (mainly for tests)."""
    _SPEC_CACHE.clear()
    _PARTIAL_CACHE.clear()
    _SPEC_HASH_CACHE.clear()


def _tuned_spec(name: str) -> Tuple[Circuit, Tuple[int, int, int]]:
    """Sifted spec + (inputs, outputs, nodes) for a benchmark, memoised.

    The circuit always comes from :data:`BENCHMARK_FACTORIES` by name,
    so the memo is keyed by name alone.
    """
    from ..experiments.runner import _tune_spec

    cached = _SPEC_CACHE.get(name)
    if cached is None:
        try:
            factory = BENCHMARK_FACTORIES[name]
        except KeyError:
            raise ValueError(
                "benchmark %r is not in BENCHMARK_FACTORIES; campaign "
                "cases are rebuilt from their coordinates" % name
            ) from None
        tuned, nodes = _tune_spec(factory())
        cached = (tuned, (len(tuned.inputs), len(tuned.outputs), nodes))
        _SPEC_CACHE[name] = cached
    return cached


def _carved_partial(case: CaseSpec, tuned: Circuit)\
        -> PartialImplementation:
    memo_key = (case.benchmark, repr(case.fraction), case.num_boxes,
                case.partial_seed)
    partial = _PARTIAL_CACHE.get(memo_key)
    if partial is None:
        partial = make_partial(tuned, fraction=case.fraction,
                               num_boxes=case.num_boxes,
                               seed=case.partial_seed)
        if len(_PARTIAL_CACHE) >= _PARTIAL_CACHE_MAX:
            _PARTIAL_CACHE.pop(next(iter(_PARTIAL_CACHE)))
        _PARTIAL_CACHE[memo_key] = partial
    return partial


def _spec_cone_hashes(name: str, tuned: Circuit):
    """Canonical cone hashes of a benchmark's tuned spec, memoised."""
    from ..analysis.static.hashing import cone_hashes

    hashes = _SPEC_HASH_CACHE.get(name)
    if hashes is None:
        hashes = _SPEC_HASH_CACHE[name] = cone_hashes(tuned)
    return hashes


def _outcome(result: CheckResult, strategy: Optional[str],
             cached: bool = False) -> CheckOutcome:
    """The journal slice of one check's result, executed or replayed."""
    stats = result.stats
    return CheckOutcome(
        outcome=result.outcome,
        error_found=result.error_found,
        seconds=result.seconds,
        impl_nodes=int(stats.get("impl_nodes", 0)),
        peak_nodes=int(stats.get("peak_nodes", 0)),
        cache_hits=int(stats.get("cache_hits", 0)),
        cache_misses=int(stats.get("cache_misses", 0)),
        cache_evictions=int(stats.get("cache_evictions", 0)),
        reorders=int(stats.get("reorders", 0)),
        gc_runs=int(stats.get("gc_runs", 0)),
        detail=result.detail,
        cached=cached,
        # Only the rungs a strategy races journal their winning engine;
        # the random-pattern rung's stats["engine"] is its simulator.
        engine=str(stats.get("engine", "")) if strategy and result.check
        in ("symbolic_01x", "output_exact") else "")


def execute_case(case: CaseSpec) -> CaseRecord:
    """Run one campaign case and return its record.

    Never raises for per-case problems: setup failures yield a terminal
    ERROR record, and each check is isolated so one raising check
    degrades only its own column, not the case.

    When ``REPRO_TRACE_DIR`` is set (the environment is inherited by
    pool workers), the case runs under a fresh :class:`repro.obs.Tracer`
    and its events are written to ``$REPRO_TRACE_DIR/`` under the name
    :func:`repro.jobs.journal.trace_filename` derives from the case key.
    The journal record itself is byte-identical either way — tracing is
    a side channel, never part of the campaign's results.
    """
    trace_dir = os.environ.get("REPRO_TRACE_DIR")
    if not trace_dir:
        return _execute_case(case)
    tracer = Tracer()
    previous = set_tracer(tracer)
    span = tracer.span("case", benchmark=case.benchmark,
                       selection=case.selection,
                       error_index=case.error_index)
    try:
        record = _execute_case(case)
        span.done(outcome=record.outcome, seconds=record.seconds)
    finally:
        set_tracer(previous)
        tracer.close_all()
    try:
        write_jsonl(tracer.events,
                    os.path.join(trace_dir, trace_filename(case)))
    except OSError:
        pass  # a full/readonly trace dir must not fail the case
    return record


def _execute_case(case: CaseSpec) -> CaseRecord:
    from ..experiments.runner import CHECK_RUNGS, run_one_case

    start = time.perf_counter()
    cache = None
    try:
        tuned, (n_inputs, n_outputs, spec_nodes) = _tuned_spec(
            case.benchmark)
        partial = _carved_partial(case, tuned)
        mutated, mutation = insert_random_error(
            partial.circuit, random.Random(case.mutation_seed))
        impl = PartialImplementation(mutated, partial.boxes)
        if case.check_cache:
            from ..analysis.static.cache import CheckCache

            cache = CheckCache(case.check_cache)
        spec_hashes = None
        if cache is not None or case.preflight:
            spec_hashes = _spec_cone_hashes(case.benchmark, tuned)
        zero = rung_zero(tuned, impl, case.preflight, cache is not None,
                         spec_hashes)
    except Exception as exc:
        return failed_record(case, exc,
                             seconds=time.perf_counter() - start)

    def record(outcome: str, checks: Dict[str, CheckOutcome])\
            -> CaseRecord:
        return CaseRecord(
            case=case, outcome=outcome, checks=checks,
            seconds=time.perf_counter() - start,
            inputs=n_inputs, outputs=n_outputs, spec_nodes=spec_nodes,
            mutation=mutation.describe(),
            discharged=None if zero.report is None
            else len(zero.report.discharged))

    if zero.decided is not None:
        # The preflight decided the whole case: every check level
        # agrees statically, no BDD (and no cache entry) is needed.
        # ``seconds=0.0`` deliberately — measured preflight time would
        # make otherwise-identical campaign aggregations differ.
        return record(OUTCOME_OK, {
            check: CheckOutcome(error_found=zero.decided.error_found,
                                detail=zero.decided.detail)
            for check in case.checks})

    # One Budget per case: the cooperative soft deadline spans all the
    # case's checks, while the node ceiling governs each check's fresh
    # manager separately.  A budget kill degrades that check's column to
    # ``inconclusive`` carrying the strongest *completed* check's
    # verdict (ladder order == case.checks order) instead of poisoning
    # the whole case or waiting for the pool's SIGKILL hard deadline.
    budget = Budget.from_limits(node_limit=case.node_limit,
                                soft_timeout=case.soft_timeout)
    outcomes: Dict[str, CheckOutcome] = {}
    worst = OUTCOME_OK
    strongest_check: Optional[str] = None
    strongest_found = False
    out_of_time = False
    for check in case.checks:
        if out_of_time:
            outcomes[check] = CheckOutcome(
                outcome=OUTCOME_INCONCLUSIVE,
                error_found=strongest_found,
                detail="soft deadline exhausted before this check; %s"
                       % describe_strongest(strongest_check,
                                            strongest_found))
            continue
        key = None
        if cache is not None:
            key, result = replay(cache, zero, CHECK_RUNGS.get(check, check),
                                 budget, case.patterns, case.case_seed,
                                 case.strategy, fresh_manager=True)
            if result is not None:
                outcomes[check] = _outcome(result, case.strategy,
                                           cached=True)
                strongest_check = check
                strongest_found = result.error_found
                continue
        check_start = time.perf_counter()
        try:
            result = run_one_case(zero.spec, zero.partial, (check,),
                                  case.patterns,
                                  seed=case.case_seed,
                                  budget=budget,
                                  strategy=case.strategy)[check]
            outcomes[check] = _outcome(result, case.strategy)
            if cache is not None:
                store(cache, key, result)
            if result.outcome == OUTCOME_OK:
                strongest_check = check
                strongest_found = result.error_found
            elif result.outcome == OUTCOME_INCONCLUSIVE:
                if worst == OUTCOME_OK:
                    worst = OUTCOME_INCONCLUSIVE
            else:
                worst = OUTCOME_ERROR
        except BudgetExceededError as exc:
            outcomes[check] = CheckOutcome(
                outcome=OUTCOME_INCONCLUSIVE,
                error_found=strongest_found,
                seconds=time.perf_counter() - check_start,
                peak_nodes=exc.value if exc.resource == "live_nodes"
                else 0,
                detail="%s; %s" % (exc, describe_strongest(
                    strongest_check, strongest_found)))
            if worst == OUTCOME_OK:
                worst = OUTCOME_INCONCLUSIVE
            if exc.resource == "wall_clock":
                # The deadline is per-case: later (more expensive)
                # checks cannot fit either; mark them without running.
                out_of_time = True
        except Exception as exc:
            outcomes[check] = CheckOutcome(
                outcome=OUTCOME_ERROR,
                detail="%s: %s" % (type(exc).__name__, exc))
            worst = OUTCOME_ERROR
    if out_of_time and worst == OUTCOME_OK:
        worst = OUTCOME_INCONCLUSIVE
    return record(worst, outcomes)
