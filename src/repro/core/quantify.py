"""Quantification scheduling (early quantification / bucket elimination).

Building ``⋀_j f_j`` monolithically and only then quantifying is the
memory peak the paper observes during its exact checks.  Both exact
checks are relational products at heart, so we schedule them:

* :func:`exists_conj` computes ``∃ V . ⋀ f_j`` by eliminating one
  variable at a time, conjoining only the functions that mention it —
  textbook bucket elimination, the image-computation technique the
  paper's reference [14] ("to split or to conjoin") studies.  Each
  bucket's last conjunction is fused with its quantification through
  the relational product :meth:`repro.bdd.Function.and_exists` (CUDD's
  ``Cudd_bddAndAbstract``), so the bucket's full product is never built.
* The input exact check additionally uses the identity
  ``∀x (¬H ∨ ⋀_j c_j) = ⋀_j ∀x (¬H ∨ c_j)`` to avoid ever building the
  full legality relation (see :mod:`repro.core.input_exact`).  Its
  conjuncts ``H`` are shared by every output's product, so they are
  profiled once (:func:`profile`) and passed to each call.
"""

from __future__ import annotations

from typing import (FrozenSet, Iterable, List, NamedTuple, Sequence, Set,
                    Tuple)

from ..bdd import Bdd, Function
from ..obs import get_tracer

__all__ = ["Operand", "profile", "exists_conj", "forall_disj"]


class Operand(NamedTuple):
    """A conjunct with its support and node count.

    The profile is tied to the live :class:`Function` it describes, never
    to a node id: garbage collection frees node ids and the manager
    reuses them, so a table keyed by id could hand a new function a
    stale support.  The support does not depend on the variable order;
    the size, which may go stale across a reordering, only breaks ties.
    """

    function: Function
    support: FrozenSet[str]
    size: int


def profile(functions: Iterable[Function]) -> List[Operand]:
    """One DAG walk per function: its :class:`Operand` profile."""
    operands = []
    for f in functions:
        size, support = f.profile()
        operands.append(Operand(f, frozenset(support), size))
    return operands


def exists_conj(bdd: Bdd, functions: Iterable[Function],
                variables: Iterable[str],
                profiled: Sequence[Operand] = ()) -> Function:
    """``∃ variables . ⋀ profiled ∧ ⋀ functions`` with early quantification.

    Repeatedly picks the variable whose *bucket* (the functions that
    mention it) is smallest, conjoins the bucket, quantifies out every
    target variable now confined to that product, and feeds the result
    back.  A bucket of several members conjoins all but the last and
    fuses the last conjunction with the quantification
    (:meth:`Function.and_exists`).  Equivalent to
    ``conj(functions).exists(variables)`` but with far smaller
    intermediates when each conjunct touches few variables.

    ``profiled`` are conjuncts already profiled by :func:`profile`;
    callers that quantify the same conjuncts against many others pass
    them here so they are walked once.
    """
    given = list(functions)
    if any(f.is_false for f in given) \
            or any(op.function.is_false for op in profiled):
        return bdd.false
    operands = [op for op in profiled if not op.function.is_true] \
        + profile(f for f in given if not f.is_true)
    if not operands:
        return bdd.true
    funcs = [op.function for op in operands]
    target: Set[str] = set(variables)
    supports = [op.support & target for op in operands]
    sizes = [op.size for op in operands]
    live = target & set().union(*supports)

    tracer = get_tracer()
    while live:
        # Cheapest variable first: fewest functions, then smallest
        # total, then name — the name tie-break keeps the elimination
        # schedule (and hence the BDD peak) independent of set
        # iteration order, i.e. of interpreter hash randomisation.
        def cost(var: str) -> Tuple[int, int, str]:
            members = [i for i, sup in enumerate(supports) if var in sup]
            return (len(members),
                    sum(sizes[i] for i in members),
                    var)

        var = min(live, key=cost)
        members = [i for i, sup in enumerate(supports) if var in sup]
        if tracer is not None:
            # The elimination schedule is the memory-peak decision the
            # paper's exact checks hinge on; record each pick.
            tracer.instant("quant_pick", var=var,
                           bucket=len(members),
                           bucket_nodes=sum(sizes[i] for i in members),
                           remaining=len(live))
        rest_support: Set[str] = set()
        for i, sup in enumerate(supports):
            if i not in members:
                rest_support |= sup
        bucket_support = set().union(*(supports[i] for i in members))
        # Quantify out every target variable local to this bucket.
        local = (bucket_support - rest_support) & live
        if len(members) == 1:
            reduced = funcs[members[0]].exists(local)
        else:
            head = bdd.conj([funcs[i] for i in members[:-1]])
            reduced = head.and_exists(funcs[members[-1]], local)
        if reduced.is_false:
            return bdd.false
        member_set = set(members)
        size, support = reduced.profile()
        funcs = [f for i, f in enumerate(funcs)
                 if i not in member_set] + [reduced]
        supports = [sup for i, sup in enumerate(supports)
                    if i not in member_set] + [set(support) & target]
        sizes = [s for i, s in enumerate(sizes)
                 if i not in member_set] + [size]
        live = target & set().union(*supports)
    return bdd.conj(funcs)


def forall_disj(bdd: Bdd, functions: Iterable[Function],
                variables: Iterable[str]) -> Function:
    """``∀ variables . ⋁ functions`` — the dual of :func:`exists_conj`."""
    negated = [~f for f in functions]
    return ~exists_conj(bdd, negated, variables)
