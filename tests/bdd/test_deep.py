"""Deep-BDD regression: the iterative kernels must not recurse.

The pre-rewrite kernels recursed once per BDD level, so any function
deeper than the interpreter's recursion limit (1000 by default) died
with ``RecursionError`` unless callers raised ``sys.setrecursionlimit``.
These tests build chains tens of thousands of levels deep and run every
hot kernel across them — under the *default* recursion limit, which is
asserted, never raised.
"""

import sys

import pytest

from repro.bdd import Bdd, constrain, minimize_restrict
from repro.bdd.function import Function
from repro.bdd.manager import FALSE, TRUE

#: Deeper than any plausible recursion limit by an order of magnitude.
DEPTH = 50_000
#: The bottom variable of the ``even`` chain.
BOTTOM_EVEN = DEPTH - 2 if DEPTH % 2 == 0 else DEPTH - 1


@pytest.fixture(scope="module")
def deep():
    """A manager with 50k variables and two interleaved AND chains.

    ``even``/``odd`` are conjunctions of the even/odd variables; their
    conjunction is a single 50k-level chain.  Built bottom-up with
    ``mk`` (O(n)); folding ``acc & var`` would be O(n^2).
    """
    bdd = Bdd()  # auto_reorder off: sifting 50k vars is not the point
    bdd.add_vars("x%d" % i for i in range(DEPTH))
    mgr = bdd.manager
    even = odd = TRUE
    for var in range(DEPTH - 1, -1, -1):
        if var % 2 == 0:
            even = mgr.mk(var, FALSE, even)
        else:
            odd = mgr.mk(var, FALSE, odd)
    mgr.incref(even)
    mgr.incref(odd)
    return bdd, even, odd


def test_recursion_limit_is_untouched():
    # The whole point: no test here may paper over recursion with a
    # raised limit.  (pytest itself never lowers it below the default.)
    assert sys.getrecursionlimit() <= 10_000


def test_apply_and_full_depth(deep):
    bdd, even, odd = deep
    mgr = bdd.manager
    both = mgr.apply_and(even, odd)
    # AND of the two cubes is the full 50k-variable cube: one node per
    # variable plus the two terminals.
    assert mgr.size(both) == DEPTH + 2


def test_apply_not_full_depth(deep):
    bdd, even, odd = deep
    mgr = bdd.manager
    # Raw-manager refcount contract: a returned node must be
    # protected before the next apply_* call, which may trigger GC.
    neg = mgr.apply_not(even)
    mgr.incref(neg)
    try:
        assert mgr.apply_not(neg) == even
    finally:
        mgr.decref(neg)


def test_apply_xor_full_depth(deep):
    bdd, even, odd = deep
    mgr = bdd.manager
    x = mgr.apply_xor(even, odd)
    mgr.incref(x)
    try:
        # f ^ f = 0 exercises the terminal fast path at full depth too.
        assert mgr.apply_xor(even, even) == FALSE
        assert x != FALSE
        # XOR is self-inverse: (even ^ odd) ^ odd = even.
        assert mgr.apply_xor(x, odd) == even
    finally:
        mgr.decref(x)


def test_exists_full_depth(deep):
    bdd, even, odd = deep
    mgr = bdd.manager
    # Quantifying the bottom-most variable of the 25k-level even chain
    # forces the resolve loop through every level above it.
    dropped = mgr.exists([BOTTOM_EVEN], even)
    assert mgr.size(dropped) == mgr.size(even) - 1


def test_sat_count_full_depth(deep):
    bdd, even, odd = deep
    mgr = bdd.manager
    # A cube over half the variables: exactly 2^(DEPTH/2) models.
    assert mgr.sat_count(even, nvars=DEPTH) == 1 << (DEPTH // 2)
    assert mgr.support(even) == ["x%d" % i for i in range(0, DEPTH, 2)]


def test_forall_full_depth(deep):
    bdd, even, odd = deep
    mgr = bdd.manager
    # ¬even is a 25k-literal clause; ∀ of its bottom literal drops it.
    neg = Function(bdd, mgr.apply_not(even))
    dropped = mgr.forall([BOTTOM_EVEN], neg.node)
    assert mgr.size(dropped) == neg.size() - 1


def test_restrict_full_depth(deep):
    bdd, even, odd = deep
    mgr = bdd.manager
    assert mgr.restrict(even, {BOTTOM_EVEN: False}) == FALSE
    kept = mgr.restrict(even, {BOTTOM_EVEN: True})
    assert mgr.size(kept) == mgr.size(even) - 1


def test_compose_full_depth(deep):
    bdd, even, odd = deep
    mgr = bdd.manager
    # Renaming the bottom even variable to the bottom odd one rebuilds
    # the whole chain through ITE.
    renamed = mgr.compose(even, {BOTTOM_EVEN: mgr.var_node(DEPTH - 1)})
    assert mgr.size(renamed) == mgr.size(even)
    assert mgr.support(renamed)[-1] == "x%d" % (DEPTH - 1)


def test_ite_full_depth(deep):
    bdd, even, odd = deep
    mgr = bdd.manager
    # No terminal rule applies at the root, so the ITE loop itself walks
    # every level: ite(e, o, ¬e) = (e ∧ o) ∨ ¬e.
    neg = Function(bdd, mgr.apply_not(even))
    result = Function(bdd, mgr.apply_ite(even, odd, neg.node))
    both = Function(bdd, mgr.apply_and(even, odd))
    assert result.node == mgr.apply_or(both.node, neg.node)


def test_and_exists_full_depth(deep):
    bdd, even, odd = deep
    mgr = bdd.manager
    # ∃ bottom . even ∧ odd: the full cube minus one literal, built in
    # one pass without the conjunction.
    product = mgr.and_exists([BOTTOM_EVEN], even, odd)
    assert mgr.size(product) == DEPTH + 1


@pytest.mark.parametrize("op", [constrain, minimize_restrict])
def test_dont_care_full_depth(deep, op):
    bdd, even, odd = deep
    # With odd as the care set, the odd literals of the full cube are
    # don't-cares: both operators leave the even chain.
    both = Function(bdd, bdd.manager.apply_and(even, odd))
    care = Function(bdd, odd)
    assert op(both, care).node == even
