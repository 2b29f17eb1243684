"""Tests for level swapping and sifting reordering."""

import pytest

from repro.bdd import Bdd, set_order, swap_adjacent_levels


def build_fixture():
    bdd = Bdd()
    names = ["a", "b", "c", "d", "e"]
    bdd.add_vars(names)
    a, b, c, d, e = (bdd.var(n) for n in names)
    functions = {
        "maj": (a & b) | (b & c) | (a & c),
        "parity": a ^ b ^ c ^ d ^ e,
        "chain": (a & b) | (c & d) | e,
        "eq": a.equiv(d) & b.equiv(e),
    }
    return bdd, names, functions


def truth_table(fn, names):
    out = []
    for bits in range(1 << len(names)):
        asg = {n: bool((bits >> i) & 1) for i, n in enumerate(names)}
        out.append(fn.evaluate(asg))
    return out


class TestSwap:
    def test_swap_preserves_semantics(self):
        bdd, names, functions = build_fixture()
        tables = {k: truth_table(f, names) for k, f in functions.items()}
        for level in range(len(names) - 1):
            bdd.collect_garbage()
            swap_adjacent_levels(bdd.manager, level)
            bdd.manager.check_invariants()
            for key, f in functions.items():
                assert truth_table(f, names) == tables[key], \
                    "swap at level %d broke %s" % (level, key)

    def test_swap_swaps_order(self):
        bdd, names, _ = build_fixture()
        bdd.collect_garbage()
        swap_adjacent_levels(bdd.manager, 0)
        assert bdd.var_order[:2] == ["b", "a"]

    def test_swap_out_of_range(self):
        bdd, _, _ = build_fixture()
        with pytest.raises(ValueError):
            swap_adjacent_levels(bdd.manager, 4)
        with pytest.raises(ValueError):
            swap_adjacent_levels(bdd.manager, -1)

    def test_double_swap_is_identity_on_order(self):
        bdd, names, _ = build_fixture()
        bdd.collect_garbage()
        before = bdd.var_order
        size_before = len(bdd)
        swap_adjacent_levels(bdd.manager, 2)
        swap_adjacent_levels(bdd.manager, 2)
        assert bdd.var_order == before
        assert len(bdd) == size_before
        bdd.manager.check_invariants()


class TestSetOrder:
    def test_set_order_applies_permutation(self):
        bdd, names, functions = build_fixture()
        tables = {k: truth_table(f, names) for k, f in functions.items()}
        bdd.collect_garbage()
        set_order(bdd.manager, ["e", "d", "c", "b", "a"])
        assert bdd.var_order == ["e", "d", "c", "b", "a"]
        bdd.manager.check_invariants()
        for key, f in functions.items():
            assert truth_table(f, names) == tables[key]

    def test_set_order_rejects_partial_permutation(self):
        bdd, _, _ = build_fixture()
        with pytest.raises(ValueError):
            set_order(bdd.manager, ["a", "b"])


class TestSift:
    def test_sift_reduces_interleaving_blowup(self):
        # The classic worst case: a1&b1 | a2&b2 | ... with all a's
        # declared before all b's is exponential; sifting must shrink it.
        bdd = Bdd()
        n = 6
        a_vars = [bdd.add_var("a%d" % i) for i in range(n)]
        b_vars = [bdd.add_var("b%d" % i) for i in range(n)]
        f = bdd.false
        for av, bv in zip(a_vars, b_vars):
            f = f | (av & bv)
        bad_size = f.size()
        bdd.reorder()
        bdd.manager.check_invariants()
        assert f.size() < bad_size / 2
        # semantics preserved
        assert f.evaluate({"a3": True, "b3": True,
                           **{v: False for v in
                              ["a%d" % i for i in range(n) if i != 3]
                              + ["b%d" % i for i in range(n) if i != 3]}})

    def test_sift_preserves_semantics(self):
        bdd, names, functions = build_fixture()
        tables = {k: truth_table(f, names) for k, f in functions.items()}
        bdd.reorder()
        for key, f in functions.items():
            assert truth_table(f, names) == tables[key]

    def test_auto_reorder_triggers(self):
        bdd = Bdd(auto_reorder=True, initial_reorder_threshold=64)
        n = 8
        a_vars = [bdd.add_var("a%d" % i) for i in range(n)]
        b_vars = [bdd.add_var("b%d" % i) for i in range(n)]
        f = bdd.false
        for av, bv in zip(a_vars, b_vars):
            f = f | (av & bv)
        _ = f & f  # one more op so the maintenance hook sees the growth
        assert bdd.manager.n_reorderings > 0
        # interleaved order keeps the function linear-sized
        assert f.size() <= 3 * n + 2
        bdd.manager.check_invariants()
