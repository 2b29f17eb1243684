"""Test oracle: the manager with the pre-iterative recursive kernels.

This module preserves, verbatim, the recursive Boolean kernels, the
single unbounded computed table, and the sifting swap and walk the
manager shipped with before the iterative rewrite.  Differential tests
(``tests/bdd/test_cache.py``) drive it and :class:`repro.bdd.Bdd`
through the same operation sequences and assert identical node ids —
an independent implementation, so it checks hypothesis-generated
programs that golden traces cannot.

It is not part of the library: it recurses (deep BDDs can hit the
interpreter recursion limit) and its computed table grows without
bound.  Pytest does not collect it; tests import it as
``tests.bdd.legacy``.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple, Union

from repro.bdd.function import Bdd
from repro.bdd.manager import (FALSE, TRUE, BddManager, _OP_AND,
                               _OP_AND_EXISTS, _OP_COMPOSE, _OP_EXISTS,
                               _OP_FORALL, _OP_ITE, _OP_NOT, _OP_OR,
                               _OP_RESTRICT, _OP_XOR)

__all__ = ["LegacyBddManager", "LegacyBdd"]


def _legacy_swap_unchecked(mgr: BddManager, level: int) -> int:
    """The pre-rewrite adjacent-level swap, verbatim.

    Every node creation goes through the public ``mgr.mk`` and every
    release through ``mgr._free_node``, as before the rewrite.
    """
    u = mgr._level2var[level]
    v = mgr._level2var[level + 1]
    var_arr, low_arr, high_arr = mgr._var, mgr._low, mgr._high
    unodes = mgr._var_nodes[u]

    movers: List[int] = [n for n in unodes
                         if var_arr[low_arr[n]] == v
                         or var_arr[high_arr[n]] == v]
    for n in movers:
        del mgr._unique[(u, low_arr[n], high_arr[n])]
        unodes.discard(n)

    vnodes = mgr._var_nodes[v]
    pref = mgr._pref
    for n in movers:
        f0, f1 = low_arr[n], high_arr[n]
        if var_arr[f0] == v:
            f00, f01 = low_arr[f0], high_arr[f0]
        else:
            f00 = f01 = f0
        if var_arr[f1] == v:
            f10, f11 = low_arr[f1], high_arr[f1]
        else:
            f10 = f11 = f1
        g0 = mgr.mk(u, f00, f10)
        g1 = mgr.mk(u, f01, f11)
        key = (v, g0, g1)
        assert key not in mgr._unique, "swap produced duplicate node"
        var_arr[n] = v
        low_arr[n] = g0
        high_arr[n] = g1
        mgr._unique[key] = n
        vnodes.add(n)
        pref[g0] += 1
        pref[g1] += 1
        for child in (f0, f1):
            pref[child] -= 1
            if (child > TRUE and pref[child] == 0
                    and mgr._ref[child] == 0):
                mgr._free_node(child)

    mgr._level2var[level] = v
    mgr._level2var[level + 1] = u
    mgr._var2level[u] = level + 1
    mgr._var2level[v] = level
    return mgr._live_nodes


def _legacy_sift_one(mgr: BddManager, var: int, max_growth: float,
                     stall: int = 0) -> None:
    """The pre-rewrite per-variable sift walk, verbatim.

    Full span in both directions, abort only on the static
    ``max_growth`` blow-up bound — no stall cut (``stall`` is accepted
    for signature compatibility and ignored).
    """
    from repro.bdd.reorder import swap_adjacent_levels

    nvars = mgr.num_vars
    start = mgr._var2level[var]
    best_size = mgr._live_nodes
    best_level = start
    limit = int(best_size * max_growth) + 2

    def walk(level: int, stop: int, step: int) -> int:
        nonlocal best_size, best_level
        while level != stop:
            if step > 0:
                size = swap_adjacent_levels(mgr, level)
            else:
                size = swap_adjacent_levels(mgr, level - 1)
            level += step
            if size < best_size:
                best_size = size
                best_level = level
            if size > limit:
                break
        return level

    if start <= (nvars - 1) - start:
        level = walk(start, 0, -1)
        level = walk(level, nvars - 1, +1)
    else:
        level = walk(start, nvars - 1, +1)
        level = walk(level, 0, -1)
    while level < best_level:
        swap_adjacent_levels(mgr, level)
        level += 1
    while level > best_level:
        swap_adjacent_levels(mgr, level - 1)
        level -= 1


class LegacyBddManager(BddManager):
    """The historic recursive kernels on top of the current node store."""

    #: Pin the pre-rewrite sifting swap and per-variable walk (see
    #: module docstring).
    _swap_unchecked_impl = staticmethod(_legacy_swap_unchecked)
    _sift_one_impl = staticmethod(_legacy_sift_one)

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        # One unbounded computed table keyed by (op, operands...).
        self._cache: Dict[Tuple, int] = {}

    # -- computed-table plumbing (replaces the segmented table) --------

    def _sweep_cache(self, marked: bytearray) -> None:
        self._cache.clear()

    def clear_cache(self) -> None:
        self._cache.clear()

    def cache_stats(self) -> Dict:
        """Minimal stats: the legacy table never counted its traffic."""
        return {
            "ops": {},
            "total": {"hits": 0, "misses": 0, "evictions": 0,
                      "entries": len(self._cache), "hit_rate": 0.0},
        }

    # -- cofactor helpers of the recursive kernels ---------------------

    def _top_split(self, f: int, g: int) -> Tuple[int, int, int, int, int]:
        """Cofactor ``f`` and ``g`` against their topmost variable.

        Returns ``(var, f0, f1, g0, g1)``.
        """
        lf, lg = self._node_level(f), self._node_level(g)
        if lf <= lg:
            var = self._var[f]
            f0, f1 = self._low[f], self._high[f]
        else:
            var = self._var[g]
            f0 = f1 = f
        if lg <= lf:
            g0, g1 = self._low[g], self._high[g]
        else:
            g0 = g1 = g
        return var, f0, f1, g0, g1

    def _cofactors_at(self, f: int, level: int) -> Tuple[int, int]:
        if self._node_level(f) == level:
            return self._low[f], self._high[f]
        return f, f

    # -- Boolean kernels (verbatim pre-rewrite implementations) --------

    def _and(self, f: int, g: int) -> int:
        if f == FALSE or g == FALSE:
            return FALSE
        if f == TRUE:
            return g
        if g == TRUE or f == g:
            return f
        if f > g:
            f, g = g, f
        key = (_OP_AND, f, g)
        res = self._cache.get(key)
        if res is not None:
            return res
        var, f0, f1, g0, g1 = self._top_split(f, g)
        res = self.mk(var, self._and(f0, g0), self._and(f1, g1))
        self._cache[key] = res
        return res

    def _or(self, f: int, g: int) -> int:
        if f == TRUE or g == TRUE:
            return TRUE
        if f == FALSE:
            return g
        if g == FALSE or f == g:
            return f
        if f > g:
            f, g = g, f
        key = (_OP_OR, f, g)
        res = self._cache.get(key)
        if res is not None:
            return res
        var, f0, f1, g0, g1 = self._top_split(f, g)
        res = self.mk(var, self._or(f0, g0), self._or(f1, g1))
        self._cache[key] = res
        return res

    def _xor(self, f: int, g: int) -> int:
        if f == g:
            return FALSE
        if f == FALSE:
            return g
        if g == FALSE:
            return f
        if f == TRUE:
            return self._not(g)
        if g == TRUE:
            return self._not(f)
        if f > g:
            f, g = g, f
        key = (_OP_XOR, f, g)
        res = self._cache.get(key)
        if res is not None:
            return res
        var, f0, f1, g0, g1 = self._top_split(f, g)
        res = self.mk(var, self._xor(f0, g0), self._xor(f1, g1))
        self._cache[key] = res
        return res

    def _not(self, f: int) -> int:
        if f == FALSE:
            return TRUE
        if f == TRUE:
            return FALSE
        key = (_OP_NOT, f)
        res = self._cache.get(key)
        if res is not None:
            return res
        res = self.mk(self._var[f], self._not(self._low[f]),
                      self._not(self._high[f]))
        self._cache[key] = res
        return res

    def _ite(self, f: int, g: int, h: int) -> int:
        if f == TRUE:
            return g
        if f == FALSE:
            return h
        if g == h:
            return g
        if g == TRUE and h == FALSE:
            return f
        if g == FALSE and h == TRUE:
            return self._not(f)
        if g == TRUE:
            return self._or(f, h)
        if g == FALSE:
            return self._and(self._not(f), h)
        if h == FALSE:
            return self._and(f, g)
        if h == TRUE:
            return self._or(self._not(f), g)
        if f == g:
            return self._or(f, h)
        if f == h:
            return self._and(f, g)
        key = (_OP_ITE, f, g, h)
        res = self._cache.get(key)
        if res is not None:
            return res
        n = self._budget_countdown
        if n is not None:
            if n > 0:
                self._budget_countdown = n - 1
            else:
                self._budget_poll("ite")
        level = min(self._node_level(f), self._node_level(g),
                    self._node_level(h))
        var = self._level2var[level]
        f0, f1 = self._cofactors_at(f, level)
        g0, g1 = self._cofactors_at(g, level)
        h0, h1 = self._cofactors_at(h, level)
        res = self.mk(var, self._ite(f0, g0, h0), self._ite(f1, g1, h1))
        self._cache[key] = res
        return res

    def _quantify(self, f: int, var_set: frozenset, op: int) -> int:
        if f <= TRUE:
            return f
        max_level = max(self._var2level[v] for v in var_set)
        if self._node_level(f) > max_level:
            return f
        key = (op, f, var_set)
        res = self._cache.get(key)
        if res is not None:
            return res
        n = self._budget_countdown
        if n is not None:
            if n > 0:
                self._budget_countdown = n - 1
            else:
                self._budget_poll("quantify")
        var = self._var[f]
        lo = self._quantify(self._low[f], var_set, op)
        hi = self._quantify(self._high[f], var_set, op)
        if var in var_set:
            if op == _OP_EXISTS:
                res = self._or(lo, hi)
            else:
                res = self._and(lo, hi)
        else:
            res = self.mk(var, lo, hi)
        self._cache[key] = res
        return res

    def _and_exists(self, f: int, g: int, var_set: frozenset) -> int:
        if f == FALSE or g == FALSE:
            return FALSE
        if f == TRUE and g == TRUE:
            return TRUE
        if f == TRUE:
            return self._quantify(g, var_set, _OP_EXISTS)
        if g == TRUE or f == g:
            return self._quantify(f, var_set, _OP_EXISTS)
        if f > g:
            f, g = g, f
        key = (_OP_AND_EXISTS, f, g, var_set)
        res = self._cache.get(key)
        if res is not None:
            return res
        n = self._budget_countdown
        if n is not None:
            if n > 0:
                self._budget_countdown = n - 1
            else:
                self._budget_poll("and_exists")
        var, f0, f1, g0, g1 = self._top_split(f, g)
        if var in var_set:
            lo = self._and_exists(f0, g0, var_set)
            if lo == TRUE:
                res = TRUE
            else:
                res = self._or(lo, self._and_exists(f1, g1, var_set))
        else:
            res = self.mk(var, self._and_exists(f0, g0, var_set),
                          self._and_exists(f1, g1, var_set))
        self._cache[key] = res
        return res

    def restrict(self, f: int,
                 assignment: Dict[Union[str, int], bool]) -> int:
        self._maybe_maintain()
        fixed = {self.var_id(v): bool(val) for v, val in assignment.items()}
        if not fixed:
            return f
        key = (_OP_RESTRICT, f, tuple(sorted(fixed.items())))
        res = self._cache.get(key)
        if res is not None:
            return res
        res = self._restrict(f, fixed)
        self._cache[key] = res
        return res

    def _restrict(self, f: int, fixed: Dict[int, bool]) -> int:
        if f <= TRUE:
            return f
        key = (_OP_RESTRICT, f, tuple(sorted(fixed.items())))
        res = self._cache.get(key)
        if res is not None:
            return res
        var = self._var[f]
        if var in fixed:
            res = self._restrict(self._high[f] if fixed[var]
                                 else self._low[f], fixed)
        else:
            res = self.mk(var, self._restrict(self._low[f], fixed),
                          self._restrict(self._high[f], fixed))
        self._cache[key] = res
        return res

    def compose(self, f: int,
                substitution: Dict[Union[str, int], int]) -> int:
        self._maybe_maintain()
        subst = {self.var_id(v): g for v, g in substitution.items()}
        if not subst:
            return f
        subst_key = tuple(sorted(subst.items()))
        return self._compose(f, subst, subst_key)

    def _compose(self, f: int, subst: Dict[int, int], subst_key: Tuple)\
            -> int:
        if f <= TRUE:
            return f
        key = (_OP_COMPOSE, f, subst_key)
        res = self._cache.get(key)
        if res is not None:
            return res
        var = self._var[f]
        lo = self._compose(self._low[f], subst, subst_key)
        hi = self._compose(self._high[f], subst, subst_key)
        g = subst.get(var)
        if g is None:
            g = self.mk(var, FALSE, TRUE)
        res = self._ite(g, hi, lo)
        self._cache[key] = res
        return res

    def sat_count(self, f: int, nvars: Optional[int] = None) -> int:
        """The historic recursive model counter."""
        if nvars is None:
            nvars = self.num_vars
        if nvars < self.num_vars:
            raise ValueError("nvars smaller than the declared variable count")
        memo: Dict[int, int] = {}

        def count(u: int) -> int:
            if u == FALSE:
                return 0
            if u == TRUE:
                return 1
            base = memo.get(u)
            if base is not None:
                return base
            ulvl = self._node_level(u)
            lo, hi = self._low[u], self._high[u]
            lo_gap = (min(self._node_level(lo), nvars)) - ulvl - 1
            hi_gap = (min(self._node_level(hi), nvars)) - ulvl - 1
            base = (count(lo) << lo_gap) + (count(hi) << hi_gap)
            memo[u] = base
            return base

        top_gap = min(self._node_level(f), nvars)
        return count(f) << top_gap


class LegacyBdd(Bdd):
    """A :class:`Bdd` running on the recursive reference manager."""

    _manager_class = LegacyBddManager
