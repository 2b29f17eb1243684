"""The check ladder: run the algorithms in order of increasing accuracy.

The paper's concluding recommendation: "first use 0,1,X based simulation
with only a few random patterns, then symbolic 0,1,X simulation, Z_i
simulation with local check, with output exact check and finally with
input exact check."  Each rung is strictly more accurate and strictly
more expensive; the ladder stops at the first error found.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Optional, Sequence

from ..bdd import default_bdd
from ..circuit.netlist import Circuit
from ..obs import ManagerSnapshot, get_tracer
from ..partial.blackbox import PartialImplementation
from ..resilience.budget import BudgetExceededError
from .common import prepare_context
from .input_exact import input_exact_from_context
from .local_check import local_check_from_context
from .output_exact import output_exact_from_context
from .portfolio import (normalize_strategy, race_output_exact,
                        race_symbolic_01x)
from .random_pattern import check_random_patterns
from .result import OUTCOME_OK, CheckResult
from .symbolic01x import check_symbolic_01x

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..resilience.budget import Budget

__all__ = ["CHECK_ORDER", "run_ladder", "check_partial_equivalence"]

#: Check names from cheapest/least accurate to priciest/most accurate.
CHECK_ORDER = ("random_pattern", "symbolic_01x", "local", "output_exact",
               "input_exact")


def run_ladder(spec: Circuit, partial: PartialImplementation,
               checks: Sequence[str] = CHECK_ORDER,
               patterns: int = 1000,
               seed: Optional[int] = None,
               stop_at_first_error: bool = True,
               lint: bool = True,
               budget: "Optional[Budget]" = None,
               bdd=None,
               preflight: bool = False,
               cache=None,
               strategy: Optional[str] = None) -> List[CheckResult]:
    """Run the selected checks in ladder order; returns all results.

    The Z_i-based rungs share one symbolic context (spec and impl BDDs
    are built once).  With ``stop_at_first_error`` (default) the ladder
    short-circuits as the paper suggests.

    ``bdd`` injects the shared manager (default: a fresh
    :func:`~repro.bdd.function.default_bdd`) — callers tuning the
    computed table pass a ``Bdd(cache_config=...)`` here.  Because the
    rungs share it, each result's ``stats`` records that rung's *delta*
    of the computed-table counters (``cache_hits``, ``cache_misses``,
    ``cache_evictions``, ``cache_hit_rate``).

    Unless ``lint=False``, the partial implementation is linted first
    and the findings are attached to every result's ``diagnostics`` —
    most importantly ``box-cone-overlap``, which marks the input-exact
    verdict as approximate (Theorem 2.2 exactness needs b = 1).

    With a ``budget``, the symbolic operations are governed: when the
    budget trips mid-rung, the ladder degrades gracefully instead of
    raising — the final result has ``outcome == "inconclusive"`` and
    carries the strongest *completed* rung's verdict plus per-rung
    timings and the kill reason (see :mod:`repro.resilience`).

    With a tracer installed (:func:`repro.obs.set_tracer`), the run
    records one ``ladder`` span with a child span per rung, annotated
    at exit with the verdict and the rung's node/cache numbers; the
    shared manager contributes GC/reorder/budget events.  Tracing
    never changes verdicts, node ids or stats — see
    ``docs/observability.md``.

    ``preflight=True`` runs the static analysis of
    :mod:`repro.analysis.static` first (no BDD involved): a statically
    proven constant mismatch returns a single ``"preflight"`` result
    with a counterexample; a pair whose output cones are all
    discharged returns a single exact ``"preflight"`` OK without
    constructing any BDD; a partial discharge restricts the pair to
    the undecided outputs before the rungs run (verdicts are
    unchanged — discharged cones cannot disagree on any rung), and a
    statically box-free pair stops after the symbolic 0,1,X rung,
    whose miter verdict is then exact.

    ``cache`` (a :class:`repro.analysis.static.CheckCache` or a
    directory path) consults the content-addressed check cache as
    "rung 0": a rung whose (spec hash, impl hash, check, budget
    class) verdict is stored replays it exactly instead of running;
    completed authoritative rungs are stored back.  See
    ``docs/static-analysis.md``.

    ``strategy`` selects the engine for the symbolic 0,1,X and output
    exact rungs: ``None``/``"bdd"`` (default) runs the BDD algorithms,
    ``"sat"`` the SAT encodings of :mod:`repro.sat`, and
    ``"portfolio"`` races both under deterministic step quanta and
    keeps the first answer (:mod:`repro.core.portfolio`).  The winning
    engine is recorded in the rung's ``stats["engine"]``; verdicts are
    engine-independent, and the winner is a pure function of the case,
    so campaign journals stay byte-identical across job counts.  See
    ``docs/sat.md``.
    """
    strategy = normalize_strategy(strategy)
    unknown = set(checks) - set(CHECK_ORDER)
    if unknown:
        raise ValueError("unknown checks: %s" % ", ".join(sorted(unknown)))
    diagnostics: List = []
    if lint:
        from ..analysis.lint import lint_partial

        diagnostics = list(lint_partial(partial))
    ordered = [c for c in CHECK_ORDER if c in checks]
    results: List[CheckResult] = []
    ctx = None
    tracer = get_tracer()

    # --- rung 0: static analysis (hashes, preflight, check cache) ---
    report = None
    static_stats: dict = {}
    spec_digest = impl_digest = None
    run_spec, run_partial = spec, partial
    if cache is not None and not hasattr(cache, "key"):
        from ..analysis.static.cache import CheckCache

        cache = CheckCache(str(cache))
    if preflight or cache is not None:
        from ..analysis.static.hashing import cone_hashes

        spec_hashes = cone_hashes(spec)
        impl_hashes = cone_hashes(partial.circuit, partial.boxes)
        spec_digest = spec_hashes.digest
        impl_digest = impl_hashes.digest
    if preflight:
        from ..analysis.static.preflight import (preflight as
                                                 static_preflight,
                                                 restrict_to_outputs)

        span = None if tracer is None else tracer.span("preflight")
        report = static_preflight(spec, partial, spec_hashes,
                                  impl_hashes)
        if span is not None:
            span.done(**report.summary())
        static_stats = {"static_" + k: v
                        for k, v in report.summary().items()}
        mismatch = report.mismatch
        if mismatch is not None or report.all_discharged:
            if mismatch is not None:
                result = CheckResult(
                    check="preflight", error_found=True,
                    counterexample=report.counterexample,
                    failing_output=report.failing_output,
                    detail="static preflight: %s" % mismatch.reason,
                    seconds=report.seconds)
            else:
                result = CheckResult(
                    check="preflight", error_found=False, exact=True,
                    detail="static preflight: all %d output cones "
                           "discharged" % len(report.verdicts),
                    seconds=report.seconds)
            result.stats.update(static_stats)
            result.diagnostics = list(diagnostics)
            return [result]
        if report.discharged:
            run_spec, run_partial = restrict_to_outputs(
                spec, partial, report.open_indices)

    if bdd is None:
        bdd = default_bdd()
    if budget is not None:
        budget.start()
        bdd.set_budget(budget)

    # Observability: with a tracer installed, the shared manager feeds
    # its GC/reorder/budget events into it, the whole ladder becomes
    # one span, and every rung a child span whose exit annotations
    # carry the verdict and this rung's node/cache numbers.  Per-rung
    # counter accounting is a snapshot delta taken inside the span
    # enter/exit — deltas stay exact however many rungs (or ladders)
    # share the manager.
    previous_tracer = None
    ladder_span = None
    if tracer is not None:
        previous_tracer = bdd.tracer
        bdd.set_tracer(tracer)
        ladder_span = tracer.span("ladder", checks=list(ordered),
                                  circuit=spec.name)
    try:
        for name in ordered:
            cache_key = None
            if cache is not None:
                cache_key = cache.key(
                    spec_digest, impl_digest, name,
                    budget=_budget_class(budget),
                    patterns=patterns if name == "random_pattern"
                    else None,
                    seed=seed if name == "random_pattern" else None,
                    variant=",".join(
                        part for part in
                        ("preflight" if report is not None else "",
                         strategy or "") if part))
                payload = cache.get(cache_key)
                if tracer is not None:
                    tracer.instant("check_cache", check=name,
                                   hit=payload is not None)
                if payload is not None:
                    result = _result_from_payload(name, payload)
                    result.stats["check_cache"] = "hit"
                    result.diagnostics = list(diagnostics)
                    results.append(result)
                    if result.error_found and stop_at_first_error:
                        break
                    if report is not None and result.exact \
                            and not result.error_found:
                        break
                    continue
            span = None if tracer is None \
                else tracer.span("rung:%s" % name)
            before = ManagerSnapshot.capture(bdd)
            try:
                if name == "random_pattern":
                    result = check_random_patterns(
                        run_spec, run_partial, patterns=patterns,
                        seed=seed, budget=budget)
                elif name == "symbolic_01x":
                    if strategy is not None:
                        result = race_symbolic_01x(
                            run_spec, run_partial, bdd, budget=budget,
                            strategy=strategy)
                    else:
                        result = check_symbolic_01x(run_spec,
                                                    run_partial, bdd)
                elif name == "output_exact" and strategy is not None:
                    holder = [ctx]
                    result = race_output_exact(
                        run_spec, run_partial, bdd, holder,
                        budget=budget, strategy=strategy)
                    ctx = holder[0]
                else:
                    if ctx is None:
                        ctx = prepare_context(run_spec, run_partial,
                                              bdd)
                    if name == "local":
                        result = local_check_from_context(ctx)
                    elif name == "output_exact":
                        result = output_exact_from_context(ctx)
                    else:
                        result = input_exact_from_context(ctx)
            except BudgetExceededError as exc:
                from ..resilience.degrade import inconclusive_result

                result = inconclusive_result(
                    name, results, exc, peak_nodes=bdd.peak_live_nodes)
                _close_rung(result, before, bdd, span)
                result.diagnostics = list(diagnostics)
                results.append(result)
                break
            if (report is not None and name == "symbolic_01x"
                    and report.box_free and not result.error_found
                    and result.outcome == OUTCOME_OK):
                # The pair is statically box-free: the 0,1,X rung was a
                # plain miter and its verdict is exact — the pricier
                # rungs cannot add anything.
                result.exact = True
                result.detail = ((result.detail + "; ")
                                 if result.detail else "") + \
                    "statically box-free pair: miter verdict is exact"
            if static_stats:
                result.stats.update(static_stats)
            _close_rung(result, before, bdd, span)
            result.diagnostics = list(diagnostics)
            results.append(result)
            if cache is not None and result.outcome == OUTCOME_OK:
                cache.put(cache_key, _result_payload(result))
            if result.error_found and stop_at_first_error:
                break
            if report is not None and result.exact \
                    and not result.error_found:
                break
    finally:
        if tracer is not None:
            if ladder_span is not None:
                ladder_span.done(rungs=len(results))
            bdd.set_tracer(previous_tracer)
    return results


def _budget_class(budget) -> str:
    """Canonical budget-class string for cache keys (see
    :func:`repro.analysis.static.cache.budget_class`)."""
    from ..analysis.static.cache import budget_class

    if budget is None:
        return budget_class()
    return budget_class(getattr(budget, "max_live_nodes", None),
                        getattr(budget, "wall_seconds", None))


def _result_payload(result: CheckResult) -> dict:
    """JSON-safe dict of everything a replayed verdict must restore.

    ``seconds`` and the manager counters in ``stats`` are stored too:
    a cache hit replays the original measurement exactly, which is
    what makes warm-run aggregation byte-identical to the cold run.
    ``diagnostics`` are not stored — the ladder re-lints the model it
    was actually handed.
    """
    return {"error_found": result.error_found,
            "exact": result.exact,
            "counterexample": result.counterexample,
            "failing_output": result.failing_output,
            "detail": result.detail,
            "seconds": result.seconds,
            "outcome": result.outcome,
            "stats": dict(result.stats)}


def _result_from_payload(check: str, payload: dict) -> CheckResult:
    counterexample = payload.get("counterexample")
    if counterexample is not None:
        counterexample = {str(net): bool(bit)
                          for net, bit in counterexample.items()}
    return CheckResult(
        check=check,
        error_found=bool(payload["error_found"]),
        exact=bool(payload.get("exact", False)),
        counterexample=counterexample,
        failing_output=payload.get("failing_output"),
        detail=payload.get("detail", ""),
        seconds=float(payload.get("seconds", 0.0)),
        outcome=payload.get("outcome", OUTCOME_OK),
        stats=dict(payload.get("stats", {})))


def _close_rung(result: CheckResult, before: ManagerSnapshot, bdd,
                span) -> None:
    """Record one rung's manager-counter delta; close its span.

    The rungs share one manager, so per-rung numbers are deltas of the
    monotone counters (``clear_cache`` drops entries, never counts).
    The random-pattern rung never touches the manager; its all-zero
    delta is skipped to keep its stats free of BDD noise.
    """
    after = ManagerSnapshot.capture(bdd)
    delta = before.delta(after)
    touched = (delta["cache_hits"] or delta["cache_misses"]
               or delta["gc_runs"] or delta["reorders"])
    if result.check != "random_pattern" or touched:
        result.stats.update(delta)
    if span is not None:
        span.done(verdict=result.outcome,
                  error_found=result.error_found,
                  seconds=result.seconds,
                  live_nodes=after.live_nodes,
                  peak_nodes=after.peak_nodes,
                  cache_hits=delta["cache_hits"],
                  cache_misses=delta["cache_misses"],
                  gc_runs=delta["gc_runs"],
                  reorders=delta["reorders"])


def check_partial_equivalence(spec: Circuit,
                              partial: PartialImplementation,
                              patterns: int = 1000,
                              seed: Optional[int] = None) -> CheckResult:
    """One-call API: the final (most accurate) verdict of the ladder."""
    results = run_ladder(spec, partial, patterns=patterns, seed=seed)
    return results[-1]
