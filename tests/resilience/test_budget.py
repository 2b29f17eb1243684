"""Budget governance: trip behaviour, ladder degradation, no-change.

Three claims are proved here:

1. the ``Budget`` primitive trips the right resource at the right place
   and leaves the BDD manager consistent and usable;
2. a budget kill at *each* ladder level yields an ``inconclusive``
   result carrying the strongest completed level's verdict;
3. (hypothesis property) attaching a budget whose limits are never hit
   changes no check verdict and no BDD result — governance is free.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bdd import Bdd, default_bdd
from repro.core import ladder as ladder_module
from repro.core import run_ladder
from repro.core.result import (OUTCOME_INCONCLUSIVE, OUTCOME_OK,
                               CheckResult)
from repro.generators import figure1, figure3b
from repro.resilience import Budget, BudgetExceededError


class TestBudgetPrimitive:
    def test_from_limits_all_unset_is_none(self):
        assert Budget.from_limits() is None
        assert Budget.from_limits(node_limit=5).max_live_nodes == 5
        assert Budget.from_limits(soft_timeout=1.5).wall_seconds == 1.5

    def test_invalid_limits_rejected(self):
        with pytest.raises(ValueError):
            Budget(wall_seconds=0)
        with pytest.raises(ValueError):
            Budget(max_live_nodes=-1)
        with pytest.raises(ValueError):
            Budget(max_steps=0)

    def test_node_limit_trips_in_mk_and_manager_survives(self):
        bdd = Bdd()
        xs = bdd.add_vars("abcdefgh")
        budget = Budget(max_live_nodes=30)
        bdd.set_budget(budget)
        with pytest.raises(BudgetExceededError) as info:
            acc = bdd.false
            for i, x in enumerate(xs):
                acc = acc | (x & xs[(i + 3) % len(xs)])
        assert info.value.resource == "live_nodes"
        assert info.value.where == "mk"
        assert info.value.value > info.value.limit == 30
        # The manager is consistent and usable after the trip.
        assert bdd.manager.invariant_violations() == []
        bdd.set_budget(None)
        assert ((xs[0] & xs[1]) | ~xs[0]).sat_one() is not None

    def test_steps_limit_trips(self):
        bdd = Bdd()
        xs = bdd.add_vars("abcdef")
        bdd.set_budget(Budget(max_steps=10, check_interval=1))
        with pytest.raises(BudgetExceededError) as info:
            acc = bdd.true
            for i, x in enumerate(xs):
                acc = acc & (x ^ xs[(i + 1) % len(xs)])
        assert info.value.resource == "steps"
        assert info.value.steps > 10

    def test_wall_clock_trips_at_checkpoint(self):
        budget = Budget(wall_seconds=1e-9).start()
        import time

        time.sleep(0.01)
        with pytest.raises(BudgetExceededError) as info:
            budget.checkpoint("test")
        assert info.value.resource == "wall_clock"

    def test_unlimited_budget_is_inert_but_counts(self):
        bdd = Bdd()
        xs = bdd.add_vars("abcd")
        budget = Budget()
        bdd.set_budget(budget)
        acc = bdd.true
        for x in xs:
            acc = acc & x
        assert budget.steps > 0
        assert not budget.limited


def _raise_budget(resource="live_nodes", where="mk"):
    def raiser(*args, **kwargs):
        raise BudgetExceededError(resource, where, 999, 100, steps=7,
                                  elapsed=0.25)
    return raiser


class TestLadderDegradation:
    """A budget kill at each rung degrades to the right inconclusive."""

    @pytest.mark.parametrize("kill,expect_completed", [
        ("random_pattern", []),
        ("symbolic_01x", ["random_pattern"]),
        ("local", ["random_pattern", "symbolic_01x"]),
        ("output_exact", ["random_pattern", "symbolic_01x", "local"]),
        ("input_exact", ["random_pattern", "symbolic_01x", "local",
                         "output_exact"]),
    ])
    def test_kill_at_each_level(self, monkeypatch, kill,
                                expect_completed):
        spec, partial = figure1()  # no error: every rung completes
        if kill == "random_pattern":
            monkeypatch.setattr(ladder_module, "check_random_patterns",
                                _raise_budget())
        elif kill == "symbolic_01x":
            monkeypatch.setattr(ladder_module, "check_symbolic_01x",
                                _raise_budget())
        elif kill == "local":
            monkeypatch.setattr(ladder_module, "local_check_from_context",
                                _raise_budget())
        elif kill == "output_exact":
            monkeypatch.setattr(ladder_module,
                                "output_exact_from_context",
                                _raise_budget())
        else:
            monkeypatch.setattr(ladder_module,
                                "input_exact_from_context",
                                _raise_budget())
        results = run_ladder(spec, partial, patterns=20, seed=0,
                             stop_at_first_error=False,
                             budget=Budget(max_live_nodes=10**9))
        assert [r.check for r in results] == expect_completed + [kill]
        last = results[-1]
        assert last.outcome == OUTCOME_INCONCLUSIVE
        assert all(r.outcome == OUTCOME_OK for r in results[:-1])
        # Strongest completed level's verdict is carried.
        assert last.error_found is False
        assert last.stats["completed_levels"] == len(expect_completed)
        assert last.stats["budget_resource"] == "live_nodes"
        if expect_completed:
            strongest = expect_completed[-1]
            assert strongest in last.detail
            assert "%s_seconds" % strongest in last.stats
        else:
            assert "no level completed" in last.detail

    def test_strongest_verdict_is_error_found(self, monkeypatch):
        # figure2a: every rung finds the error; killing input_exact
        # must carry output_exact's positive verdict.
        from repro.generators import figure2a

        spec, partial = figure2a()
        monkeypatch.setattr(ladder_module, "input_exact_from_context",
                            _raise_budget())
        results = run_ladder(spec, partial, patterns=20, seed=1,
                             stop_at_first_error=False,
                             budget=Budget(max_live_nodes=10**9))
        last = results[-1]
        assert last.outcome == OUTCOME_INCONCLUSIVE
        assert last.error_found is True
        assert "error found" in last.detail

    def test_real_node_limit_degrades_not_raises(self):
        spec, partial = figure3b()
        results = run_ladder(spec, partial, patterns=20, seed=1,
                             stop_at_first_error=False,
                             budget=Budget(max_live_nodes=10,
                                           check_interval=1))
        assert results[-1].outcome == OUTCOME_INCONCLUSIVE
        assert results[-1].stats["budget_resource"] == "live_nodes"

    @pytest.mark.parametrize("with_outer", [False, True])
    def test_caller_manager_gets_its_budget_back(self, with_outer):
        # The ladder governs a caller's manager only while it runs:
        # later operations on it must neither charge nor trip the spent
        # ladder budget (a wall-clock one would trip them all).
        spec, partial = figure1()
        bdd = default_bdd()
        outer = Budget(max_live_nodes=10**9) if with_outer else None
        bdd.set_budget(outer)
        ladder_budget = Budget(max_live_nodes=10**9, check_interval=1)
        run_ladder(spec, partial, patterns=20, seed=0, bdd=bdd,
                   budget=ladder_budget)
        assert bdd.budget is outer
        spent = ladder_budget.steps
        assert spent > 0
        xs = bdd.add_vars(["later%d" % i for i in range(6)])
        f = bdd.false
        for x, y in zip(xs, xs[1:]):
            f = f | (x & y)
        assert ladder_budget.steps == spent

    def test_no_budget_behaviour_unchanged(self):
        spec, partial = figure3b()
        plain = run_ladder(spec, partial, patterns=20, seed=1,
                           stop_at_first_error=False)
        governed = run_ladder(spec, partial, patterns=20, seed=1,
                              stop_at_first_error=False,
                              budget=Budget(max_live_nodes=10**9))
        assert [(r.check, r.outcome, r.error_found) for r in plain] \
            == [(r.check, r.outcome, r.error_found) for r in governed]


@st.composite
def _expressions(draw):
    """A small random Boolean expression over 4 variables, as a plan."""
    ops = draw(st.lists(
        st.tuples(st.sampled_from("&|^"), st.integers(0, 3),
                  st.booleans()),
        min_size=1, max_size=12))
    return ops


class TestBudgetNeverChangesResults:
    @settings(max_examples=30, deadline=None)
    @given(plan=_expressions())
    def test_governed_equals_ungoverned(self, plan):
        """An unhit budget never changes any BDD result (property)."""
        def build(bdd):
            xs = bdd.add_vars("wxyz")
            acc = xs[0]
            for op, idx, negate in plan:
                operand = ~xs[idx] if negate else xs[idx]
                if op == "&":
                    acc = acc & operand
                elif op == "|":
                    acc = acc | operand
                else:
                    acc = acc ^ operand
            return acc

        plain_bdd = Bdd()
        plain = build(plain_bdd)
        governed_bdd = Bdd()
        governed_bdd.set_budget(Budget(max_live_nodes=10**9,
                                       wall_seconds=10**6,
                                       max_steps=10**12,
                                       check_interval=1))
        governed = build(governed_bdd)
        assert plain.node == governed.node
        assert plain.size() == governed.size()
        assert plain.sat_count(nvars=4) == governed.sat_count(nvars=4)
