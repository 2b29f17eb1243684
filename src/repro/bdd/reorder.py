"""Dynamic variable reordering by Rudell's sifting algorithm.

The paper's experiments run with CUDD's dynamic reordering enabled
("Dynamic reordering [15] was activated during all experiments"); this
module provides the equivalent for our manager.

The central primitive is :func:`swap_adjacent_levels`, an in-place swap of
two neighbouring levels.  Node ids keep their Boolean semantics across the
swap, so user handles stay valid.  :func:`sift` moves each variable (most
populous first) through the whole order and parks it at the position that
minimised the live node count.

Correctness relies on exact parent-reference counts in the manager, which
is why callers must garbage-collect immediately before sifting (both
:meth:`repro.bdd.function.Bdd.reorder` and the automatic trigger do).

Computed-table hygiene: a raw :func:`swap_adjacent_levels` leaves the
manager's computed table dirty — swaps preserve node semantics, but ids
freed here may be recycled by later ``mk`` calls, so the *caller* must
invalidate the table before running any Boolean operation.  :func:`sift`
and :func:`set_order` do this via :meth:`BddManager.clear_cache` once at
the end of their swap sequences.
"""

from __future__ import annotations

from typing import List, Optional

from .manager import TRUE, BddManager, _TERMINAL_VAR

__all__ = ["swap_adjacent_levels", "sift", "set_order"]


def swap_adjacent_levels(mgr: BddManager, level: int) -> int:
    """Swap the variables at ``level`` and ``level + 1`` in place.

    Returns the live node count after the swap.  Semantics of every node
    id are preserved; nodes made unreachable by the restructuring are
    freed immediately (exact parent counts required).

    An attached budget is checked once *before* any mutation — the only
    safe point — and detached for the duration of the swap, so a
    :class:`~repro.resilience.budget.BudgetExceededError` can never
    surface from a half-rebuilt level.  Without a budget the countdown
    is parked instead: the fault injector arms it on its own, and the
    test oracle's swap creates nodes through ``mk``, which polls it.
    """
    if not 0 <= level < mgr.num_vars - 1:
        raise ValueError("level %d out of range" % level)
    budget = mgr.budget
    if budget is not None:
        budget.checkpoint("reorder", live_nodes=mgr._live_nodes)
        mgr.set_budget(None)
    else:
        countdown, mgr._budget_countdown = mgr._budget_countdown, None
    # A manager subclass may pin its own swap implementation: the
    # recursive test oracle (tests/bdd/legacy.py) keeps the historic one,
    # so the differential tests also check the rewritten swap.
    impl = getattr(type(mgr), "_swap_unchecked_impl", _swap_unchecked)
    try:
        return impl(mgr, level)
    finally:
        if budget is not None:
            mgr.set_budget(budget)
        else:
            mgr._budget_countdown = countdown


def _swap_unchecked(mgr: BddManager, level: int) -> int:
    # Sifting spends most of its time here, so the loop binds every
    # manager structure to a local and inlines both the node-creating
    # half of ``mk`` and the ``_free_node`` cascade.  The inlined
    # creations do not touch the budget countdown: the caller detaches
    # any budget, and the fault injector, which arms the countdown
    # without one, must not fire from a half-rebuilt level.  The
    # duplicate-node assert runs only under ``debug_checks``.
    u = mgr._level2var[level]
    v = mgr._level2var[level + 1]
    var_arr = mgr._var
    low_arr = mgr._low
    high_arr = mgr._high
    var_nodes = mgr._var_nodes
    unodes = var_nodes[u]
    unique = mgr._unique
    unique_get = unique.get
    pref = mgr._pref
    ref = mgr._ref
    free = mgr._free
    free_append = free.append
    debug = mgr.debug_checks

    movers: List[int] = [n for n in unodes
                         if var_arr[low_arr[n]] == v
                         or var_arr[high_arr[n]] == v]
    # Phase 1: take movers out of the unique table so lookups during
    # rebuilding only ever hit nodes that keep their identity.
    for n in movers:
        del unique[(u, low_arr[n], high_arr[n])]
        unodes.discard(n)

    vnodes = var_nodes[v]
    vnodes_add = vnodes.add
    unodes_add = unodes.add
    live = mgr._live_nodes
    peak = mgr.peak_live_nodes
    for n in movers:
        f0 = low_arr[n]
        f1 = high_arr[n]
        if var_arr[f0] == v:
            f00 = low_arr[f0]
            f01 = high_arr[f0]
        else:
            f00 = f01 = f0
        if var_arr[f1] == v:
            f10 = low_arr[f1]
            f11 = high_arr[f1]
        else:
            f10 = f11 = f1
        # Inline mk(u, f00, f10).
        if f00 == f10:
            g0 = f00
        else:
            ukey = (u, f00, f10)
            g0 = unique_get(ukey)
            if g0 is None:
                if free:
                    g0 = free.pop()
                    var_arr[g0] = u
                    low_arr[g0] = f00
                    high_arr[g0] = f10
                    ref[g0] = 0
                    pref[g0] = 0
                else:
                    g0 = len(var_arr)
                    var_arr.append(u)
                    low_arr.append(f00)
                    high_arr.append(f10)
                    ref.append(0)
                    pref.append(0)
                unique[ukey] = g0
                unodes_add(g0)
                pref[f00] += 1
                pref[f10] += 1
                live += 1
                if live > peak:
                    peak = live
        # Inline mk(u, f01, f11).
        if f01 == f11:
            g1 = f01
        else:
            ukey = (u, f01, f11)
            g1 = unique_get(ukey)
            if g1 is None:
                if free:
                    g1 = free.pop()
                    var_arr[g1] = u
                    low_arr[g1] = f01
                    high_arr[g1] = f11
                    ref[g1] = 0
                    pref[g1] = 0
                else:
                    g1 = len(var_arr)
                    var_arr.append(u)
                    low_arr.append(f01)
                    high_arr.append(f11)
                    ref.append(0)
                    pref.append(0)
                unique[ukey] = g1
                unodes_add(g1)
                pref[f01] += 1
                pref[f11] += 1
                live += 1
                if live > peak:
                    peak = live
        # Mutate n in place: it now tests v first.
        key = (v, g0, g1)
        if debug:
            assert key not in unique, "swap produced duplicate node"
        var_arr[n] = v
        low_arr[n] = g0
        high_arr[n] = g1
        unique[key] = n
        vnodes_add(n)
        pref[g0] += 1
        pref[g1] += 1
        # Release the old children; cascade into dead subgraphs
        # (inline _free_node).
        for child in (f0, f1):
            pref[child] -= 1
            if child > TRUE and pref[child] == 0 and ref[child] == 0:
                dstack = [child]
                while dstack:
                    d = dstack.pop()
                    w = var_arr[d]
                    del unique[(w, low_arr[d], high_arr[d])]
                    var_nodes[w].discard(d)
                    var_arr[d] = _TERMINAL_VAR
                    for c in (low_arr[d], high_arr[d]):
                        pref[c] -= 1
                        if c > TRUE and pref[c] == 0 and ref[c] == 0:
                            dstack.append(c)
                    free_append(d)
                    live -= 1

    mgr._live_nodes = live
    if peak > mgr.peak_live_nodes:
        mgr.peak_live_nodes = peak
    mgr._level2var[level] = v
    mgr._level2var[level + 1] = u
    mgr._var2level[u] = level + 1
    mgr._var2level[v] = level
    return live


def _sift_one(mgr: BddManager, var: int, max_growth: float,
              stall: int = 0) -> None:
    """Move one variable through the order, settle at its best level.

    The walk in each direction terminates early on two conditions:

    * the live count exceeds ``max_growth`` times the *best* size seen
      so far (the bound tightens as better positions are found), or
    * ``stall`` consecutive swaps have failed to improve on the best —
      the span cut that makes sifting affordable on wide orders, where
      a variable's useful positions cluster near a local optimum and
      the historic full-span walk spent most of its swaps shuffling a
      settled variable through levels it never belonged in.

    ``stall = 0`` disables the second condition (the historic walk).
    """
    nvars = mgr.num_vars
    start = mgr._var2level[var]
    best_size = mgr._live_nodes
    best_level = start

    def walk(level: int, stop: int, step: int) -> int:
        nonlocal best_size, best_level
        since_best = 0
        while level != stop:
            if step > 0:
                size = swap_adjacent_levels(mgr, level)
            else:
                size = swap_adjacent_levels(mgr, level - 1)
            level += step
            if size < best_size:
                best_size = size
                best_level = level
                since_best = 0
            else:
                since_best += 1
                if size > int(best_size * max_growth) + 2:
                    break
                if stall and since_best >= stall:
                    break
        return level

    # Visit the nearer end first, then sweep to the other end, then park
    # at the best position seen.
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


def sift(mgr: BddManager, max_growth: float = 1.2,
         max_vars: int = 0, stall: Optional[int] = None) -> int:
    """One full sifting pass; returns the resulting live node count.

    Variables are processed in decreasing order of their node count.
    ``max_growth`` bounds the tolerated intermediate blow-up per
    variable; ``max_vars`` (0 = all) limits how many variables are
    sifted, mirroring CUDD's ``siftMaxVar``; ``stall`` is the
    early-termination span cut of :func:`_sift_one` (``None`` reads the
    manager's ``sift_stall`` attribute, ``0`` forces the historic
    full-span walk).

    A manager subclass may pin the historic per-variable walk via a
    ``_sift_one_impl`` class attribute: the recursive test oracle
    (``tests/bdd/legacy.py``) does, so its differential tests reorder
    with the pre-rewrite walk.
    """
    order = sorted(range(mgr.num_vars),
                   key=lambda w: -len(mgr._var_nodes[w]))
    if max_vars:
        order = order[:max_vars]
    if stall is None:
        stall = getattr(mgr, "sift_stall", 0)
    sift_one = getattr(type(mgr), "_sift_one_impl", _sift_one)
    # Duck-typed observability hook (repro.obs.Tracer injected via
    # BddManager.set_tracer); one span per sifting pass covers both the
    # automatic trigger and explicit Bdd.reorder() calls.
    tracer = getattr(mgr, "_tracer", None)
    span = None if tracer is None \
        else tracer.span("reorder", live_before=mgr._live_nodes,
                         variables=len(order))
    try:
        for var in order:
            if len(mgr._var_nodes[var]) == 0:
                continue
            sift_one(mgr, var, max_growth, stall)
        mgr.clear_cache()
    finally:
        if span is not None:
            span.done(live_after=mgr._live_nodes)
    if mgr.debug_checks:
        mgr._selfcheck("reorder")
    return mgr._live_nodes


def set_order(mgr: BddManager, names_top_to_bottom: List[str]) -> None:
    """Force a specific variable order via bubble sort of level swaps.

    Mostly a testing aid; sifting is the production path.
    """
    want = [mgr.var_id(n) for n in names_top_to_bottom]
    if sorted(want) != list(range(mgr.num_vars)):
        raise ValueError("order must mention every variable exactly once")
    for target_level, var in enumerate(want):
        level = mgr._var2level[var]
        while level > target_level:
            swap_adjacent_levels(mgr, level - 1)
            level -= 1
    mgr.clear_cache()
