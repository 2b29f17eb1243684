"""Don't-care minimization operators: constrain and restrict.

The Coudert-Madre *constrain* (generalized cofactor) and Shiple-style
*restrict* operators: given a function ``f`` and a care set ``c``,
produce a function that agrees with ``f`` wherever ``c`` holds and is
chosen freely elsewhere to shrink the BDD.  Used by witness synthesis
to simplify the box functions against the set of box-input observations
that can actually occur.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from .function import Function
from .manager import FALSE, TRUE, BddManager

__all__ = ["constrain", "minimize_restrict"]


def _dont_care(mgr: BddManager, f: int, c: int, smooth: bool) -> int:
    """Constrain ``f`` by the care set ``c``, or Shiple-restrict it
    (``smooth``): then a care-set variable above ``f``'s top is smoothed
    out of ``c`` instead of introduced into ``f``, and the ``f == c``
    rule is skipped.

    An explicit-stack loop like the manager's kernels.  Frame: [key,
    var, f1, c1, state]; state -1 while the low pair is in flight, 0
    while the high pair runs (slot 2 then holds the low result), 2 for
    a pass-through (one cofactor of ``c`` is empty, or ``c`` was
    smoothed) that caches and propagates its one child's result.
    """
    var_a = mgr._var
    low_a = mgr._low
    high_a = mgr._high
    v2l = mgr._var2level
    cache: Dict[Tuple[int, int], int] = {}
    stack: List[list] = []
    push = stack.append
    while True:
        # RESOLVE the task (f, c).  c == FALSE only reaches here from a
        # caller that skipped the empty-care guard; returning f keeps
        # the identity f|c=1 -> f.
        if c <= TRUE or f <= TRUE:
            res = f
        elif f == c and not smooth:
            res = TRUE
        else:
            key = (f, c)
            res = cache.get(key)
            if res is None:
                level_f = v2l[var_a[f]]
                level_c = v2l[var_a[c]]
                if level_c < level_f and smooth:
                    push([key, 0, 0, 0, 2])
                    c = mgr._or(low_a[c], high_a[c])
                    continue
                if level_f <= level_c:
                    var = var_a[f]
                    f0, f1 = low_a[f], high_a[f]
                else:
                    var = var_a[c]
                    f0 = f1 = f
                if level_c <= level_f:
                    c0, c1 = low_a[c], high_a[c]
                else:
                    c0 = c1 = c
                if c0 == FALSE or c1 == FALSE:
                    push([key, 0, 0, 0, 2])
                    f, c = (f1, c1) if c0 == FALSE else (f0, c0)
                else:
                    push([key, var, f1, c1, -1])
                    f, c = f0, c0
                continue
        # UNWIND.
        while stack:
            top = stack[-1]
            state = top[4]
            if state < 0:
                f, c = top[2], top[3]
                top[2] = res
                top[4] = 0
                break
            stack.pop()
            if state == 0:
                res = mgr.mk(top[1], top[2], res)
            cache[top[0]] = res
        else:
            return res


def constrain(f: Function, care: Function) -> Function:
    """Coudert-Madre generalized cofactor ``f ⇓ care``.

    Agrees with ``f`` on the care set; off the care set the value is
    whatever makes the result small (the image of the nearest care
    point).  ``constrain(f, c) & c == f & c`` always holds.
    """
    if f.bdd is not care.bdd:
        raise ValueError("mixing functions from different managers")
    if care.is_false:
        raise ValueError("empty care set")
    mgr = f.bdd.manager
    mgr._maybe_maintain()
    node = _dont_care(mgr, f.node, care.node, smooth=False)
    return Function(f.bdd, node)


def minimize_restrict(f: Function, care: Function) -> Function:
    """Shiple restrict: don't-care minimization without support growth.

    Same care-set contract as :func:`constrain`
    (``result & care == f & care``) but never introduces variables that
    ``f`` does not already depend on.
    """
    if f.bdd is not care.bdd:
        raise ValueError("mixing functions from different managers")
    if care.is_false:
        raise ValueError("empty care set")
    mgr = f.bdd.manager
    mgr._maybe_maintain()
    node = _dont_care(mgr, f.node, care.node, smooth=True)
    return Function(f.bdd, node)
