"""Per-case execution: the unit of work the pool distributes.

:func:`execute_case` rebuilds everything a case needs from its
coordinates alone (benchmark factory -> tuned spec -> Black Box carving
-> error insertion -> checks), which is what lets any worker process
execute any case.  Expensive per-benchmark artefacts (the sifted
specification) and per-selection artefacts (the carved partial) are
memoised process-locally, so a worker that receives many cases of the
same benchmark pays the setup cost once — mirroring what the serial
runner gets for free from its loop nesting.
"""

from __future__ import annotations

import os
import random
import time
from typing import Dict, Optional, Tuple

from ..circuit.netlist import Circuit
from ..core.result import (OUTCOME_ERROR, OUTCOME_INCONCLUSIVE,
                           OUTCOME_OK)
from ..generators.benchmarks import BENCHMARK_FACTORIES
from ..obs import Tracer, get_tracer, set_tracer, write_jsonl
from ..partial.blackbox import PartialImplementation
from ..partial.extraction import make_partial
from ..partial.mutations import insert_random_error
from ..resilience.budget import Budget, BudgetExceededError
from .journal import (CaseRecord, CheckOutcome, failed_record,
                      trace_filename)
from .spec import CaseSpec

__all__ = ["execute_case", "clear_caches"]

#: benchmark name -> (fingerprint, tuned spec, (inputs, outputs, nodes))
_SPEC_CACHE: Dict[str, Tuple[str, Circuit, Tuple[int, int, int]]] = {}
#: (benchmark, fraction, num_boxes, partial seed) -> carved partial
_PARTIAL_CACHE: Dict[Tuple, PartialImplementation] = {}
_PARTIAL_CACHE_MAX = 16
#: benchmark name -> (spec fingerprint, spec ConeHashes) — the spec
#: side of the static analysis is per-benchmark, so a worker hashing
#: many cases of one benchmark pays the cone walk once.
_SPEC_HASH_CACHE: Dict[str, Tuple[str, object]] = {}


def clear_caches() -> None:
    """Drop the process-local spec/partial memos (mainly for tests)."""
    _SPEC_CACHE.clear()
    _PARTIAL_CACHE.clear()
    _SPEC_HASH_CACHE.clear()


def _fingerprint(circuit: Circuit) -> str:
    """Structural identity of a circuit, for cache validation."""
    import hashlib

    digest = hashlib.sha256()
    digest.update(repr((tuple(circuit.inputs),
                        tuple(circuit.outputs))).encode("utf-8"))
    for gate in sorted(circuit.gates, key=lambda g: g.output):
        digest.update(repr((gate.output, gate.gtype.name,
                            tuple(gate.inputs))).encode("utf-8"))
    return digest.hexdigest()[:16]


def _tuned_spec(name: str, spec: Optional[Circuit] = None)\
        -> Tuple[Circuit, Tuple[int, int, int]]:
    """Sifted spec + (inputs, outputs, nodes) for a benchmark, memoised.

    When an explicit ``spec`` circuit is supplied (serial in-process
    paths) its structure is fingerprinted so a cache entry built from a
    *different* circuit under the same name is never reused.  Without
    one, the circuit comes from :data:`BENCHMARK_FACTORIES` — the only
    mode available to pool workers, which hold no circuit objects.
    """
    from ..experiments.runner import _tune_spec

    fingerprint = _fingerprint(spec) if spec is not None else None
    cached = _SPEC_CACHE.get(name)
    if cached is not None and (fingerprint is None
                               or cached[0] == fingerprint):
        return cached[1], cached[2]
    if spec is None:
        try:
            factory = BENCHMARK_FACTORIES[name]
        except KeyError:
            raise ValueError(
                "benchmark %r is not in BENCHMARK_FACTORIES; parallel "
                "workers can only rebuild factory benchmarks" % name
            ) from None
        spec = factory()
        fingerprint = _fingerprint(spec)
    tuned, nodes = _tune_spec(spec)
    meta = (len(tuned.inputs), len(tuned.outputs), nodes)
    _SPEC_CACHE[name] = (fingerprint, tuned, meta)
    return tuned, meta


def _carved_partial(case: CaseSpec, tuned: Circuit)\
        -> PartialImplementation:
    cache_key = (case.benchmark, repr(case.fraction), case.num_boxes,
                 case.partial_seed)
    partial = _PARTIAL_CACHE.get(cache_key)
    if partial is None:
        partial = make_partial(tuned, fraction=case.fraction,
                               num_boxes=case.num_boxes,
                               seed=case.partial_seed)
        if len(_PARTIAL_CACHE) >= _PARTIAL_CACHE_MAX:
            _PARTIAL_CACHE.pop(next(iter(_PARTIAL_CACHE)))
        _PARTIAL_CACHE[cache_key] = partial
    return partial


def _spec_cone_hashes(name: str, tuned: Circuit):
    """Canonical cone hashes of a benchmark's tuned spec, memoised.

    Keyed like :data:`_SPEC_CACHE` — fingerprint-validated so an
    explicit same-named-but-different spec never reuses the memo.
    """
    from ..analysis.static.hashing import cone_hashes

    fingerprint = _fingerprint(tuned)
    cached = _SPEC_HASH_CACHE.get(name)
    if cached is not None and cached[0] == fingerprint:
        return cached[1]
    hashes = cone_hashes(tuned)
    _SPEC_HASH_CACHE[name] = (fingerprint, hashes)
    return hashes


def _strongest_clause(check: Optional[str], error_found: bool) -> str:
    """Human-readable "strongest completed level" suffix for details."""
    if check is None:
        return "no level completed"
    return "strongest completed level: %s (%s)" % (
        check, "error found" if error_found else "no error found")


def execute_case(case: CaseSpec,
                 spec: Optional[Circuit] = None) -> CaseRecord:
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
        return _execute_case(case, spec)
    tracer = Tracer()
    previous = set_tracer(tracer)
    span = tracer.span("case", benchmark=case.benchmark,
                       selection=case.selection,
                       error_index=case.error_index)
    try:
        record = _execute_case(case, spec)
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


def _execute_case(case: CaseSpec,
                  spec: Optional[Circuit] = None) -> CaseRecord:
    from ..experiments.runner import run_one_case

    start = time.perf_counter()
    tracer = get_tracer()
    # Static analysis state (all inert unless the case asks for it):
    # the preflight report, the possibly output-restricted pair the
    # checks actually run on, and the content-addressed verdict cache.
    report = None
    cache = None
    budget_cls = ""
    spec_digest = impl_digest = ""
    try:
        tuned, (n_inputs, n_outputs, spec_nodes) = _tuned_spec(
            case.benchmark, spec)
        partial = _carved_partial(case, tuned)
        mutated, mutation = insert_random_error(
            partial.circuit, random.Random(case.mutation_seed))
        impl = PartialImplementation(mutated, partial.boxes)
        run_spec, run_impl = tuned, impl
        if case.preflight or case.check_cache:
            from ..analysis.static.hashing import cone_hashes

            spec_hashes = _spec_cone_hashes(case.benchmark, tuned)
            impl_hashes = cone_hashes(impl.circuit, impl.boxes)
            spec_digest = spec_hashes.digest
            impl_digest = impl_hashes.digest
        if case.check_cache:
            from ..analysis.static.cache import (CheckCache,
                                                 budget_class)

            cache = CheckCache(case.check_cache)
            budget_cls = budget_class(case.node_limit,
                                      case.soft_timeout)
        if case.preflight:
            from ..analysis.static.preflight import (
                preflight as static_preflight, restrict_to_outputs)

            span = None if tracer is None else tracer.span("preflight")
            report = static_preflight(tuned, impl, spec_hashes,
                                      impl_hashes)
            if span is not None:
                span.done(**report.summary())
            if report.discharged and report.mismatch is None \
                    and not report.all_discharged:
                run_spec, run_impl = restrict_to_outputs(
                    tuned, impl, report.open_indices)
    except Exception as exc:
        return failed_record(case, exc,
                             seconds=time.perf_counter() - start)

    discharged = None if report is None else len(report.discharged)
    if report is not None and (report.mismatch is not None
                               or report.all_discharged):
        # The preflight decided the whole case: every check level
        # agrees statically, no BDD (and no cache entry) is needed.
        # ``seconds=0.0`` deliberately — measured preflight time would
        # make otherwise-identical campaign aggregations differ.
        mismatch = report.mismatch
        if mismatch is not None:
            found, detail = True, ("static preflight: %s"
                                   % mismatch.reason)
        else:
            found, detail = False, (
                "static preflight: all %d output cones discharged"
                % len(report.verdicts))
        return CaseRecord(
            case=case, outcome=OUTCOME_OK,
            checks={check: CheckOutcome(outcome=OUTCOME_OK,
                                        error_found=found,
                                        detail=detail)
                    for check in case.checks},
            seconds=time.perf_counter() - start,
            inputs=n_inputs, outputs=n_outputs, spec_nodes=spec_nodes,
            mutation=mutation.describe(), discharged=discharged)

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
                       % _strongest_clause(strongest_check,
                                           strongest_found))
            continue
        cache_key = None
        if cache is not None:
            cache_key = cache.key(
                spec_digest, impl_digest, check, budget=budget_cls,
                patterns=case.patterns if check == "r.p." else None,
                seed=case.case_seed if check == "r.p." else None,
                variant=",".join(
                    part for part in
                    ("preflight" if report is not None else "",
                     case.strategy or "") if part))
            payload = cache.get(cache_key)
            if tracer is not None:
                tracer.instant("check_cache", check=check,
                               hit=payload is not None)
            if payload is not None:
                try:
                    outcome = CheckOutcome.from_dict(payload)
                except (KeyError, TypeError, ValueError):
                    outcome = None  # foreign/corrupt entry: run it
                if outcome is not None and outcome.outcome == OUTCOME_OK:
                    outcome.cached = True
                    outcomes[check] = outcome
                    strongest_check = check
                    strongest_found = outcome.error_found
                    continue
        check_start = time.perf_counter()
        try:
            result = run_one_case(run_spec, run_impl, (check,),
                                  case.patterns,
                                  seed=case.case_seed,
                                  budget=budget,
                                  strategy=case.strategy)[check]
            outcomes[check] = CheckOutcome(
                outcome=result.outcome,
                error_found=result.error_found,
                seconds=result.seconds,
                impl_nodes=int(result.stats.get("impl_nodes", 0)),
                peak_nodes=int(result.stats.get("peak_nodes", 0)),
                cache_hits=int(result.stats.get("cache_hits", 0)),
                cache_misses=int(result.stats.get("cache_misses", 0)),
                cache_evictions=int(
                    result.stats.get("cache_evictions", 0)),
                reorders=int(result.stats.get("reorders", 0)),
                gc_runs=int(result.stats.get("gc_runs", 0)),
                detail=result.detail,
                # Which engine answered a raced rung (portfolio/sat
                # strategies only).  The random-pattern check has its
                # own unrelated stats["engine"] ("packed"/"scalar"),
                # so the journal field is filled only for the rungs a
                # strategy actually governs — default journals keep
                # their exact pre-portfolio bytes.
                engine=str(result.stats.get("engine", ""))
                if case.strategy and check in ("0,1,X", "oe") else "")
            if result.outcome == OUTCOME_OK:
                strongest_check = check
                strongest_found = result.error_found
                if cache is not None:
                    cache.put(cache_key, outcomes[check].to_dict())
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
                detail="%s; %s" % (exc, _strongest_clause(
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
    return CaseRecord(
        case=case, outcome=worst, checks=outcomes,
        seconds=time.perf_counter() - start,
        inputs=n_inputs, outputs=n_outputs, spec_nodes=spec_nodes,
        mutation=mutation.describe(), discharged=discharged)
