"""Ladder/runner instrumentation: spans per rung, exact delta stats.

Includes the regression test for the cache-delta double-count: a
manager shared between consecutive checks (or rungs) must attribute to
each check only its *own* computed-table traffic, never the cumulative
totals.
"""

import pytest

from repro.bdd import Bdd
from repro.core.ladder import CHECK_ORDER, run_ladder
from repro.experiments.runner import run_one_case
from repro.generators import magnitude_comparator
from repro.obs import ManagerSnapshot, Tracer, set_tracer
from repro.partial.extraction import make_partial


@pytest.fixture()
def case():
    spec = magnitude_comparator(4)
    partial = make_partial(spec, fraction=0.3, num_boxes=1, seed=3)
    return spec, partial


@pytest.fixture()
def tracer():
    tracer = Tracer()
    previous = set_tracer(tracer)
    yield tracer
    set_tracer(previous)
    tracer.close_all()


def spans(tracer, ph="B"):
    return [e["name"] for e in tracer.events if e["ph"] == ph]


class TestLadderSpans:
    def test_one_span_per_rung_inside_one_ladder_span(self, case,
                                                      tracer):
        spec, partial = case
        results = run_ladder(spec, partial, patterns=50, seed=1,
                             stop_at_first_error=False)
        begins = spans(tracer)
        assert begins[0] == "ladder"
        assert [n for n in begins if n.startswith("rung:")] \
            == ["rung:%s" % c for c in CHECK_ORDER]
        assert len(results) == len(CHECK_ORDER)

    def test_rung_exit_args_carry_verdict_and_counters(self, case,
                                                       tracer):
        spec, partial = case
        results = run_ladder(spec, partial, patterns=50, seed=1,
                             stop_at_first_error=False)
        ends = {e["name"]: e.get("args", {})
                for e in tracer.events if e["ph"] == "E"}
        by_check = {r.check: r for r in results}
        for name in CHECK_ORDER:
            args = ends["rung:%s" % name]
            assert args["verdict"] == by_check[name].outcome
            assert args["error_found"] == by_check[name].error_found
            for key in ("live_nodes", "peak_nodes", "cache_hits",
                        "cache_misses", "gc_runs", "reorders"):
                assert isinstance(args[key], int)
        assert ends["ladder"]["rungs"] == len(results)

    def test_ladder_restores_previous_manager_tracer(self, case,
                                                     tracer):
        spec, partial = case
        bdd = Bdd()
        run_ladder(spec, partial, patterns=20, seed=1, bdd=bdd)
        assert bdd.tracer is None

    def test_untraced_ladder_emits_nothing(self, case):
        spec, partial = case
        results = run_ladder(spec, partial, patterns=50, seed=1)
        assert results  # and no tracer was ever consulted


class TestDeltaAccounting:
    def test_rung_deltas_sum_to_manager_totals(self, case):
        """Rungs share one manager; their deltas must partition it."""
        spec, partial = case
        bdd = Bdd()
        results = run_ladder(spec, partial, patterns=50, seed=1,
                             stop_at_first_error=False, bdd=bdd)
        totals = bdd.cache_stats()["total"]
        for key, stat in (("hits", "cache_hits"),
                          ("misses", "cache_misses")):
            summed = sum(r.stats.get(stat, 0) for r in results)
            assert summed == totals[key]

    def test_random_pattern_rung_stats_stay_clean(self, case):
        spec, partial = case
        results = run_ladder(spec, partial, patterns=50, seed=1,
                             checks=("random_pattern",))
        assert "cache_hits" not in results[0].stats

    def test_shared_factory_manager_does_not_double_count(self, case):
        """Regression: consecutive checks on one shared manager.

        Before the snapshot-delta fix, the second call attributed the
        manager's *cumulative* totals to its result, double-counting
        the first call's traffic.
        """
        spec, partial = case
        bdd = Bdd()
        first, = run_ladder(spec, partial, checks=("input_exact",),
                            patterns=10, seed=1, bdd=bdd)
        mid = ManagerSnapshot.capture(bdd)
        second, = run_ladder(spec, partial, checks=("input_exact",),
                             patterns=10, seed=1, bdd=bdd)
        after = ManagerSnapshot.capture(bdd)
        assert first.stats["cache_hits"] == mid.hits
        assert second.stats["cache_hits"] == after.hits - mid.hits
        # The warm second run re-resolves everything from the computed
        # table, so the totals roughly double — cumulative attribution
        # would report second ~= first + second.
        assert first.stats["cache_hits"] \
            + second.stats["cache_hits"] == after.hits

    def test_fresh_manager_delta_equals_totals(self, case):
        spec, partial = case
        result = run_one_case(spec, partial, ("ie",), patterns=10,
                              seed=1)["ie"]
        assert result.stats["cache_misses"] > 0
        assert set(result.stats) >= {"cache_hits", "cache_misses",
                                     "cache_evictions",
                                     "cache_hit_rate", "gc_runs",
                                     "reorders"}


class TestManagerHooks:
    def test_gc_instant_is_emitted(self, tracer):
        bdd = Bdd()
        bdd.set_tracer(tracer)
        a, b = bdd.add_var("a"), bdd.add_var("b")
        scratch = a & b
        del scratch
        bdd.collect_garbage()
        names = [e["name"] for e in tracer.events if e["ph"] == "i"]
        assert "gc" in names

    def test_reorder_span_wraps_sifting(self, tracer):
        bdd = Bdd()
        bdd.set_tracer(tracer)
        vs = bdd.add_vars(["x%d" % i for i in range(6)])
        keep = bdd.conj([vs[i] ^ vs[i + 3] for i in range(3)])
        bdd.reorder()
        assert "reorder" in spans(tracer)
        end = next(e for e in tracer.events
                   if e["ph"] == "E" and e["name"] == "reorder")
        assert "live_after" in end["args"]
        del keep
