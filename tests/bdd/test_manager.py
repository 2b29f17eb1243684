"""Unit tests for the low-level BDD manager."""

import pytest

from repro.bdd import Bdd, FALSE, TRUE
from repro.bdd.manager import BddManager


@pytest.fixture
def bdd():
    b = Bdd()
    b.add_vars(["a", "b", "c", "d"])
    return b


def all_assignments(names):
    for bits in range(1 << len(names)):
        yield {n: bool((bits >> i) & 1) for i, n in enumerate(names)}


class TestNodeConstruction:
    def test_terminals_are_fixed(self):
        mgr = BddManager()
        assert FALSE == 0 and TRUE == 1
        assert mgr.is_terminal(FALSE) and mgr.is_terminal(TRUE)

    def test_mk_reduces_redundant_node(self):
        mgr = BddManager()
        v = mgr.add_var("x")
        assert mgr.mk(v, TRUE, TRUE) == TRUE
        assert mgr.mk(v, FALSE, FALSE) == FALSE

    def test_mk_hash_conses(self):
        mgr = BddManager()
        v = mgr.add_var("x")
        n1 = mgr.mk(v, FALSE, TRUE)
        n2 = mgr.mk(v, FALSE, TRUE)
        assert n1 == n2

    def test_var_node_and_negation(self, bdd):
        a = bdd.var("a")
        assert a.evaluate({"a": True})
        assert not a.evaluate({"a": False})
        na = ~a
        assert na.evaluate({"a": False})

    def test_duplicate_variable_name_rejected(self):
        bdd = Bdd()
        bdd.add_var("x")
        with pytest.raises(ValueError):
            bdd.add_var("x")

    def test_unknown_variable_rejected(self, bdd):
        with pytest.raises(ValueError):
            bdd.var("nope")
        with pytest.raises(ValueError):
            bdd.manager.var_id(99)

    def test_var_order_follows_declaration(self, bdd):
        assert bdd.var_order == ["a", "b", "c", "d"]
        assert bdd.num_vars == 4


class TestBooleanOperations:
    def test_and_or_xor_against_truth_tables(self, bdd):
        a, b = bdd.var("a"), bdd.var("b")
        for asg in all_assignments(["a", "b"]):
            assert (a & b).evaluate(asg) == (asg["a"] and asg["b"])
            assert (a | b).evaluate(asg) == (asg["a"] or asg["b"])
            assert (a ^ b).evaluate(asg) == (asg["a"] != asg["b"])

    def test_de_morgan(self, bdd):
        a, b = bdd.var("a"), bdd.var("b")
        assert ~(a & b) == (~a | ~b)
        assert ~(a | b) == (~a & ~b)

    def test_ite(self, bdd):
        a, b, c = bdd.var("a"), bdd.var("b"), bdd.var("c")
        f = a.ite(b, c)
        for asg in all_assignments(["a", "b", "c"]):
            want = asg["b"] if asg["a"] else asg["c"]
            assert f.evaluate(asg) == want

    def test_implies_equiv(self, bdd):
        a, b = bdd.var("a"), bdd.var("b")
        assert a.implies(b) == (~a | b)
        assert a.equiv(b) == ~(a ^ b)

    def test_xnor_of_equal_is_true(self, bdd):
        a, b = bdd.var("a"), bdd.var("b")
        f = (a & b) | (~a & ~b)
        assert a.equiv(b) == f

    def test_constant_folding(self, bdd):
        a = bdd.var("a")
        assert (a & bdd.false).is_false
        assert (a | bdd.true).is_true
        assert (a ^ a).is_false
        assert (a & a) == a

    def test_difference_operator(self, bdd):
        a, b = bdd.var("a"), bdd.var("b")
        assert (a - b) == (a & ~b)


class TestQuantification:
    def test_exists_removes_variable(self, bdd):
        a, b = bdd.var("a"), bdd.var("b")
        f = (a & b).exists(["a"])
        assert f == b
        assert "a" not in f.support()

    def test_forall(self, bdd):
        a, b = bdd.var("a"), bdd.var("b")
        assert (a | b).forall(["a"]) == b
        assert (a | ~a).forall(["a"]).is_true

    def test_quantifier_duality(self, bdd):
        a, b, c = bdd.var("a"), bdd.var("b"), bdd.var("c")
        f = (a & b) | (c ^ a)
        assert ~(f.exists(["a", "c"])) == (~f).forall(["a", "c"])

    def test_empty_quantifier_is_identity(self, bdd):
        a = bdd.var("a")
        assert a.exists([]) == a
        assert a.forall([]) == a

    def test_and_exists_matches_composition(self, bdd):
        a, b, c, d = (bdd.var(n) for n in "abcd")
        f = (a & b) | c
        g = (b ^ d) & a
        assert f.and_exists(g, ["b", "d"]) == (f & g).exists(["b", "d"])

    def test_quantify_absent_variable_is_noop(self, bdd):
        a, b = bdd.var("a"), bdd.var("b")
        f = a & b
        assert f.exists(["c"]) == f
        assert f.forall(["d"]) == f


class TestRestrictCompose:
    def test_restrict_cofactor(self, bdd):
        a, b = bdd.var("a"), bdd.var("b")
        f = (a & b) | (~a & ~b)
        assert f.restrict({"a": True}) == b
        assert f.restrict({"a": False}) == ~b

    def test_restrict_multiple(self, bdd):
        a, b, c = bdd.var("a"), bdd.var("b"), bdd.var("c")
        f = (a & b) | c
        assert f.restrict({"a": True, "b": True}).is_true

    def test_compose_substitutes_function(self, bdd):
        a, b, c = bdd.var("a"), bdd.var("b"), bdd.var("c")
        f = a & b
        g = f.compose({"a": b ^ c})
        for asg in all_assignments(["b", "c"]):
            want = (asg["b"] != asg["c"]) and asg["b"]
            assert g.evaluate(asg) == want

    def test_compose_simultaneous_not_sequential(self, bdd):
        a, b = bdd.var("a"), bdd.var("b")
        f = a & ~b
        swapped = f.compose({"a": b, "b": a})
        assert swapped == (b & ~a)


class TestSatOperations:
    def test_sat_one_of_false_is_none(self, bdd):
        assert bdd.false.sat_one() is None

    def test_sat_one_satisfies(self, bdd):
        a, b, c = bdd.var("a"), bdd.var("b"), bdd.var("c")
        f = (a ^ b) & c
        asg = f.sat_one()
        full = {n: asg.get(n, False) for n in "abc"}
        assert f.evaluate(full)

    def test_sat_count(self, bdd):
        a, b = bdd.var("a"), bdd.var("b")
        assert (a & b).sat_count() == 4      # 4 declared vars -> 2 free
        assert (a | b).sat_count() == 12
        assert bdd.true.sat_count() == 16
        assert bdd.false.sat_count() == 0

    def test_sat_count_custom_width(self, bdd):
        a = bdd.var("a")
        assert a.sat_count(nvars=5) == 16

    def test_sat_count_rejects_too_small_width(self, bdd):
        with pytest.raises(ValueError):
            bdd.var("a").sat_count(nvars=2)

    def test_sat_iter_covers_on_set(self, bdd):
        a, b = bdd.var("a"), bdd.var("b")
        f = a ^ b
        total = 0
        for cube in f.sat_iter():
            free = 4 - len(cube)
            total += 1 << free
            full = {n: cube.get(n, False) for n in "abcd"}
            assert f.evaluate(full)
        assert total == f.sat_count()

    def test_support(self, bdd):
        a, c = bdd.var("a"), bdd.var("c")
        assert (a & c).support() == ["a", "c"]
        assert bdd.true.support() == []

    def test_evaluate_missing_variable_raises(self, bdd):
        a, b = bdd.var("a"), bdd.var("b")
        with pytest.raises(ValueError):
            (a & b).evaluate({"a": True})


class TestGarbageCollection:
    def test_collect_reclaims_dead_nodes(self):
        bdd = Bdd()
        bdd.add_vars(["x", "y", "z"])
        keep = bdd.var("x") & bdd.var("y")
        temp = keep ^ bdd.var("z")
        before = len(bdd)
        del temp
        freed = bdd.collect_garbage()
        assert freed > 0
        assert len(bdd) < before
        bdd.manager.check_invariants()

    def test_referenced_nodes_survive(self):
        bdd = Bdd()
        bdd.add_vars(["x", "y"])
        f = bdd.var("x") ^ bdd.var("y")
        bdd.collect_garbage()
        assert f.evaluate({"x": True, "y": False})
        bdd.manager.check_invariants()

    def test_node_reuse_after_gc(self):
        bdd = Bdd()
        bdd.add_vars(["x", "y"])
        g = bdd.var("x") & bdd.var("y")
        del g
        bdd.collect_garbage()
        h = bdd.var("x") & bdd.var("y")
        assert h.evaluate({"x": True, "y": True})
        bdd.manager.check_invariants()

    def test_peak_tracking_monotone(self):
        bdd = Bdd()
        bdd.add_vars(["x", "y", "z"])
        _ = (bdd.var("x") ^ bdd.var("y")) & bdd.var("z")
        peak = bdd.peak_live_nodes
        bdd.collect_garbage()
        assert bdd.peak_live_nodes >= peak
        assert bdd.peak_live_nodes >= len(bdd)


class TestStructure:
    def test_size_counts_shared_nodes_once(self, bdd):
        a, b = bdd.var("a"), bdd.var("b")
        f = a ^ b
        assert f.size() == bdd.manager.size(f.node)
        pair = bdd.manager.size([f.node, f.node])
        assert pair == f.size()

    def test_profile_is_size_and_support_from_one_walk(self, bdd):
        f = bdd.var("a") ^ bdd.var("c")
        # The a node, c and ¬c below it, and both terminals.
        assert f.profile() == (5, ["a", "c"])
        assert bdd.true.profile() == (1, [])
        roots = [f.node, bdd.var("b").node]
        assert bdd.manager.profile(roots) == (6, ["a", "b", "c"])

    def test_incref_guard(self):
        mgr = BddManager()
        with pytest.raises(RuntimeError):
            mgr.decref(5) if False else mgr.decref(
                mgr.mk(mgr.add_var("x"), FALSE, TRUE))

    def test_node_var_of_terminal_raises(self):
        mgr = BddManager()
        with pytest.raises(ValueError):
            mgr.node_var(TRUE)
