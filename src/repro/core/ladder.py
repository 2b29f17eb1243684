"""The check ladder: run the algorithms in order of increasing accuracy.

The paper's concluding recommendation: "first use 0,1,X based simulation
with only a few random patterns, then symbolic 0,1,X simulation, Z_i
simulation with local check, with output exact check and finally with
input exact check."  Each rung is strictly more accurate and strictly
more expensive; the ladder stops at the first error found.

This module also owns how a rung runs on a pair, for the ladder and
campaign cases alike: :func:`run_rung` (dispatch), :func:`rung_zero`
(static rung 0) and :func:`replay`/:func:`store` (check-cache key and
payload codec).  The ladder runs the rungs on one shared manager,
:func:`repro.experiments.runner.run_one_case` each on a fresh one.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, List, Optional, Sequence, Tuple

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
    from ..analysis.static.cache import CheckCache
    from ..analysis.static.preflight import PreflightReport
    from ..resilience.budget import Budget

__all__ = ["CHECK_ORDER", "run_ladder", "check_partial_equivalence",
           "run_rung", "close_rung", "RungZero", "rung_zero", "replay",
           "store"]

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
    tracer = get_tracer()

    if cache is not None and not hasattr(cache, "key"):
        from ..analysis.static.cache import CheckCache

        cache = CheckCache(str(cache))
    zero = rung_zero(spec, partial, preflight, hashed=cache is not None)
    static_stats = zero.stats
    if zero.decided is not None:
        zero.decided.stats.update(static_stats)
        zero.decided.diagnostics = list(diagnostics)
        return [zero.decided]

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
    context: list = [None]
    try:
        for name in ordered:
            key = result = None
            if cache is not None:
                key, result = replay(cache, zero, name, budget, patterns,
                                     seed, strategy)
            if result is not None:
                result.stats["check_cache"] = "hit"
            else:
                span = None if tracer is None \
                    else tracer.span("rung:%s" % name)
                before = ManagerSnapshot.capture(bdd)
                try:
                    result = run_rung(name, zero.spec, zero.partial, bdd,
                                      context, patterns, seed,
                                      budget=budget, strategy=strategy)
                except BudgetExceededError as exc:
                    from ..resilience.degrade import inconclusive_result

                    result = inconclusive_result(
                        name, results, exc, peak_nodes=bdd.peak_live_nodes)
                    close_rung(result, before, bdd, span)
                    result.diagnostics = list(diagnostics)
                    results.append(result)
                    break
                if (zero.report is not None and name == "symbolic_01x"
                        and zero.report.box_free and not result.error_found
                        and result.outcome == OUTCOME_OK):
                    # The pair is statically box-free: the 0,1,X rung was
                    # a plain miter and its verdict is exact — the
                    # pricier rungs cannot add anything.
                    result.exact = True
                    result.detail = ((result.detail + "; ")
                                     if result.detail else "") + \
                        "statically box-free pair: miter verdict is exact"
                result.stats.update(static_stats)
                close_rung(result, before, bdd, span)
                if cache is not None:
                    store(cache, key, result)
            result.diagnostics = list(diagnostics)
            results.append(result)
            if result.error_found and stop_at_first_error:
                break
            if zero.report is not None and result.exact \
                    and not result.error_found:
                break
    finally:
        if tracer is not None:
            if ladder_span is not None:
                ladder_span.done(rungs=len(results))
            bdd.set_tracer(previous_tracer)
    return results


def run_rung(name: str, spec: Circuit, partial: PartialImplementation,
             bdd, context: list, patterns: int, seed: Optional[int],
             budget: "Optional[Budget]" = None,
             strategy: Optional[str] = None) -> CheckResult:
    """Run rung ``name`` on one pair: the one rung dispatch.

    The random-pattern rung never touches ``bdd`` (campaigns pass
    ``None``).  ``context`` is a one-slot list holding the Z_i context:
    the first Z_i rung builds it on ``bdd``, later rungs on the same
    manager reuse it.  A budget trip raises :class:`BudgetExceededError`.
    """
    if name == "random_pattern":
        return check_random_patterns(spec, partial, patterns=patterns,
                                     seed=seed, budget=budget)
    if name == "symbolic_01x":
        if strategy is not None:
            return race_symbolic_01x(spec, partial, bdd, budget=budget,
                                     strategy=strategy)
        return check_symbolic_01x(spec, partial, bdd)
    if name == "output_exact" and strategy is not None:
        return race_output_exact(spec, partial, bdd, context,
                                 budget=budget, strategy=strategy)
    if context[0] is None:
        context[0] = prepare_context(spec, partial, bdd)
    if name == "local":
        return local_check_from_context(context[0])
    if name == "output_exact":
        return output_exact_from_context(context[0])
    return input_exact_from_context(context[0])


def close_rung(result: CheckResult, before: Optional[ManagerSnapshot],
               bdd, span) -> None:
    """Record one rung's manager-counter delta; close its span.

    Deltas of the monotone counters stay exact when rungs share a
    manager.  A random-pattern rung without a manager, or with an
    all-zero delta, keeps its stats free of BDD noise.
    """
    args = {}
    if bdd is not None:
        after = ManagerSnapshot.capture(bdd)
        delta = before.delta(after)
        touched = (delta["cache_hits"] or delta["cache_misses"]
                   or delta["gc_runs"] or delta["reorders"])
        if result.check != "random_pattern" or touched:
            result.stats.update(delta)
        args = dict(live_nodes=after.live_nodes,
                    peak_nodes=after.peak_nodes,
                    cache_hits=delta["cache_hits"],
                    cache_misses=delta["cache_misses"],
                    gc_runs=delta["gc_runs"], reorders=delta["reorders"])
    if span is not None:
        span.done(verdict=result.outcome, error_found=result.error_found,
                  seconds=result.seconds, **args)


@dataclass
class RungZero:
    """Rung 0's output: the pair the rungs run on (restricted to the
    undecided outputs after a partial discharge), the input pair's
    cache digests, the preflight report, and the preflight's verdict
    when it ``decided`` the whole pair."""

    spec: Circuit
    partial: PartialImplementation
    spec_digest: str = ""
    impl_digest: str = ""
    report: "Optional[PreflightReport]" = None
    decided: Optional[CheckResult] = None

    @property
    def stats(self) -> dict:
        """The preflight summary as ``static_*`` result stats."""
        if self.report is None:
            return {}
        return {"static_" + k: v for k, v in self.report.summary().items()}


def rung_zero(spec: Circuit, partial: PartialImplementation,
              preflight: bool, hashed: bool,
              spec_hashes=None) -> RungZero:
    """Static rung 0: cone hashes, preflight, output restriction.

    The pair is hashed when a check cache needs its digests
    (``hashed``) or the preflight runs; a caller checking many
    partials against one spec passes the spec's memoised
    ``spec_hashes``.  No BDD is involved.
    """
    zero = RungZero(spec, partial)
    if not (preflight or hashed):
        return zero
    from ..analysis.static.hashing import cone_hashes

    if spec_hashes is None:
        spec_hashes = cone_hashes(spec)
    impl_hashes = cone_hashes(partial.circuit, partial.boxes)
    zero.spec_digest = spec_hashes.digest
    zero.impl_digest = impl_hashes.digest
    if not preflight:
        return zero
    from ..analysis.static.preflight import (preflight as static_preflight,
                                             restrict_to_outputs)

    tracer = get_tracer()
    span = None if tracer is None else tracer.span("preflight")
    report = static_preflight(spec, partial, spec_hashes, impl_hashes)
    if span is not None:
        span.done(**report.summary())
    zero.report = report
    if report.mismatch is not None:
        zero.decided = CheckResult(
            check="preflight", error_found=True,
            counterexample=report.counterexample,
            failing_output=report.failing_output,
            detail="static preflight: %s" % report.mismatch.reason,
            seconds=report.seconds)
    elif report.all_discharged:
        zero.decided = CheckResult(
            check="preflight", error_found=False, exact=True,
            detail="static preflight: all %d output cones discharged"
                   % len(report.verdicts),
            seconds=report.seconds)
    elif report.discharged:
        zero.spec, zero.partial = restrict_to_outputs(
            spec, partial, report.open_indices)
    return zero


def replay(cache: "CheckCache", zero: RungZero, name: str,
           budget: "Optional[Budget]", patterns: int,
           seed: Optional[int], strategy: Optional[str],
           fresh_manager: bool = False)\
        -> Tuple[str, Optional[CheckResult]]:
    """Rung ``name``'s check-cache key and its stored verdict, if any.

    The key covers the budget class, the preflight (it may restrict
    the pair) and the strategy, plus the pattern count and seed of a
    random-pattern verdict.  ``fresh_manager`` marks a campaign entry:
    measured on a fresh manager per check, its counters differ from
    the ladder's shared-manager ones, so the two never share a key.
    An entry the codec cannot decode counts as a miss, and the caller
    re-runs the rung and overwrites it.
    """
    from ..analysis.static.cache import budget_class

    sampled = name == "random_pattern"
    key = cache.key(
        zero.spec_digest, zero.impl_digest, name,
        budget=budget_class(budget.max_live_nodes, budget.wall_seconds)
        if budget is not None else budget_class(),
        patterns=patterns if sampled else None,
        seed=seed if sampled else None,
        variant=",".join(part for part in (
            "preflight" if zero.report is not None else "",
            strategy or "", "fresh-manager" if fresh_manager else "")
            if part))
    payload = cache.get(key)
    result = None
    if payload is not None:
        try:
            result = _result_from_payload(name, payload)
        except (AttributeError, KeyError, TypeError, ValueError):
            cache.hits -= 1  # get() counted a hit for the foreign entry
            cache.misses += 1
    tracer = get_tracer()
    if tracer is not None:
        tracer.instant("check_cache", check=name, hit=result is not None)
    return key, result


def store(cache: "CheckCache", key: str, result: CheckResult) -> None:
    """Store an authoritative (``ok``) verdict under ``key``."""
    if result.outcome == OUTCOME_OK:
        cache.put(key, _result_payload(result))


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
    """Inverse of :func:`_result_payload`; raises on any other dict."""
    if payload["outcome"] != OUTCOME_OK:
        raise ValueError("only authoritative verdicts are stored")
    counterexample = payload["counterexample"]
    if counterexample is not None:
        counterexample = {str(net): bool(bit)
                          for net, bit in counterexample.items()}
    return CheckResult(
        check=check,
        error_found=bool(payload["error_found"]),
        exact=bool(payload["exact"]),
        counterexample=counterexample,
        failing_output=payload["failing_output"],
        detail=str(payload["detail"]),
        seconds=float(payload["seconds"]),
        stats=dict(payload["stats"]))


def check_partial_equivalence(spec: Circuit,
                              partial: PartialImplementation,
                              patterns: int = 1000,
                              seed: Optional[int] = None) -> CheckResult:
    """One-call API: the final (most accurate) verdict of the ladder."""
    results = run_ladder(spec, partial, patterns=patterns, seed=seed)
    return results[-1]
