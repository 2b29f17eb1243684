"""Reduced Ordered Binary Decision Diagram (ROBDD) manager.

This module provides a from-scratch BDD package playing the role CUDD
[Somenzi 1998] plays in the original paper.  Nodes live in parallel arrays
inside a :class:`BddManager`; user code handles opaque integer node ids
wrapped by :class:`repro.bdd.function.Function`.

Design notes
------------
* No complement edges: negation is a cached operation.  This keeps the
  unique table, quantification and the sifting swap simple and easy to
  validate.
* All Boolean kernels are *iterative*: they run an explicit-stack loop
  instead of Python recursion, so arbitrarily deep BDDs never trip the
  interpreter recursion limit and the hot loops can bind their state to
  locals.  The recursive reference implementations are a test oracle
  (``tests/bdd/legacy.py``), held to the same node ids.
* The computed table is *segmented*: one bounded dict per operation
  (see :mod:`repro.bdd.cache`).  Full segments evict their oldest entry
  on insert — a lossy cache in the spirit of CUDD's — and entries whose
  operands and result survive garbage collection are kept instead of
  wholesale clearing.  Per-segment hit/miss/eviction counters surface
  through :meth:`BddManager.cache_stats`.
* Reference counting is *external only*: :class:`Function` wrappers hold
  references; garbage collection is a mark-and-sweep from externally
  referenced nodes.  Intermediate results of a running operation are safe
  because collection only happens between top-level operations.
* Dynamic variable reordering (Rudell's sifting) is implemented in
  :mod:`repro.bdd.reorder` and mutates nodes in place, so node ids held by
  the user stay valid across reordering.
"""

from __future__ import annotations

import os
from typing import (TYPE_CHECKING, Dict, Iterable, Iterator, List,
                    Optional, Tuple, Union)

from .cache import DEFAULT_CACHE_CONFIG, CacheConfig

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..resilience.budget import Budget

__all__ = ["BddManager", "FALSE", "TRUE", "debug_checks_enabled"]


def debug_checks_enabled() -> bool:
    """Whether ``REPRO_DEBUG`` asks for the opt-in BDD sanitizer."""
    return os.environ.get("REPRO_DEBUG", "").strip().lower() in (
        "1", "true", "yes", "on")

#: Node id of the constant-false terminal.
FALSE = 0
#: Node id of the constant-true terminal.
TRUE = 1

#: Pseudo variable id used for the two terminal nodes.  Terminals compare
#: *below* every real variable, so their level must be larger than any
#: real level.
_TERMINAL_VAR = -1
_TERMINAL_LEVEL = 1 << 60

# Opcodes.  The segmented computed table no longer tags its keys with
# these (each op owns a segment), but the apply and context loops still
# dispatch on them and the recursive test oracle (``tests/bdd/legacy.py``)
# keys its historic single table with them.
_OP_AND = 0
_OP_OR = 1
_OP_XOR = 2
_OP_NOT = 3
_OP_ITE = 4
_OP_EXISTS = 5
_OP_FORALL = 6
_OP_COMPOSE = 7
_OP_RESTRICT = 8
_OP_AND_EXISTS = 9

#: Computed-table segments: (op name, cache attr, stats attr, sweep kind).
#: The sweep kind says which key positions hold node ids, so the GC sweep
#: can keep entries whose operands and result all survived:
#: ``bin`` (f, g) -> r; ``unary`` f -> r; ``tri`` (f, g, h) -> r;
#: ``ctx1`` (f, ctx) -> r; ``ctx2`` (f, g, ctx) -> r; ``volatile`` is
#: always cleared (compose contexts embed node ids, so recycled ids
#: would alias).
_SEGMENT_SPECS = (
    ("and", "_c_and", "_cs_and", "bin"),
    ("or", "_c_or", "_cs_or", "bin"),
    ("xor", "_c_xor", "_cs_xor", "bin"),
    ("not", "_c_not", "_cs_not", "unary"),
    ("ite", "_c_ite", "_cs_ite", "tri"),
    ("exists", "_c_exists", "_cs_exists", "ctx1"),
    ("forall", "_c_forall", "_cs_forall", "ctx1"),
    ("compose", "_c_compose", "_cs_compose", "volatile"),
    ("restrict", "_c_restrict", "_cs_restrict", "ctx1"),
    ("and_exists", "_c_andex", "_cs_andex", "ctx2"),
)

#: Rule rows of the binary apply loop: opcode -> (segment attr, stats
#: attr, identity constant, xor flag, quantify flag).  With the pair
#: normalized to ``f < g``, ``f == g`` yields ``f`` (FALSE for XOR), and
#: a constant ``f`` yields ``g`` when it is the identity, else ``f``
#: itself (absorbing, AND/OR) or ``not g`` (XOR).  AND_EXISTS is AND
#: under a quantified variable set: its terminal-rule results are
#: quantified, and its quantified levels OR their cofactors.
_APPLY_RULES = {
    _OP_AND: ("_c_and", "_cs_and", TRUE, False, False),
    _OP_OR: ("_c_or", "_cs_or", FALSE, False, False),
    _OP_XOR: ("_c_xor", "_cs_xor", FALSE, True, False),
    _OP_AND_EXISTS: ("_c_andex", "_cs_andex", TRUE, False, True),
}

#: Rule rows of the context loop: opcode -> (segment attr, stats attr,
#: budget-poll site).  Restrict and compose poll only through ``mk``
#: and ``_ite``.
_CONTEXT_RULES = {
    _OP_EXISTS: ("_c_exists", "_cs_exists", "quantify"),
    _OP_FORALL: ("_c_forall", "_cs_forall", "quantify"),
    _OP_RESTRICT: ("_c_restrict", "_cs_restrict", None),
    _OP_COMPOSE: ("_c_compose", "_cs_compose", None),
}


class BddManager:
    """Shared store for all BDD nodes of one variable order.

    Parameters
    ----------
    auto_reorder:
        Enable dynamic sifting when the live node count crosses the
        reordering threshold (mirrors ``CUDD_REORDER_SIFT`` +
        ``cudd_AutodynEnable`` used by the paper's experiments).
    initial_reorder_threshold:
        Live-node count at which the first automatic reordering fires.
        The threshold doubles after every automatic reordering.
    debug_checks:
        Opt-in sanitizer: verify all manager invariants after every
        garbage collection and reordering, raising
        :class:`repro.analysis.bddcheck.BddInvariantError` (with
        structured diagnostics) on corruption.  Defaults to the
        ``REPRO_DEBUG=1`` environment switch.
    cache_config:
        Sizing of the segmented computed table (see
        :class:`repro.bdd.cache.CacheConfig`).  Segments are kept warm
        across garbage collection.

    Resource governance
    -------------------
    Attach a :class:`repro.resilience.budget.Budget` via
    :meth:`set_budget` to arm periodic checks in the hot loops (``mk``,
    ``_ite``, quantification, sifting).  The hot sites decrement a
    manager-local countdown — one integer test per event, whether or
    not a budget is attached — and all real accounting happens in the
    amortised :meth:`_budget_poll`; node-limit trips are still exact
    because the recharge is clamped against the remaining headroom.  An
    overrun raises
    :class:`~repro.resilience.budget.BudgetExceededError` at a point
    where the manager is consistent — already-built nodes stay valid
    and further operations are allowed.  During a level swap the budget
    is detached and re-checked only at swap boundaries, so reordering
    can never be interrupted mid-mutation.  The countdown is also the
    fault seam: :func:`repro.resilience.faults.inject_mk_memory_error`
    arms it without a budget and shadows :meth:`_budget_poll`, so no
    kernel carries a fault-injection test of its own.
    """

    def __init__(self, auto_reorder: bool = False,
                 initial_reorder_threshold: int = 50_000,
                 debug_checks: Optional[bool] = None,
                 cache_config: Optional[CacheConfig] = None) -> None:
        # Parallel node arrays; slots 0/1 are the terminals.
        self._var: List[int] = [_TERMINAL_VAR, _TERMINAL_VAR]
        self._low: List[int] = [FALSE, TRUE]
        self._high: List[int] = [FALSE, TRUE]
        self._ref: List[int] = [1, 1]      # external references
        self._pref: List[int] = [0, 0]     # parent (node-to-node) references
        self._free: List[int] = []
        # Node ids per variable, needed for level swaps during sifting.
        self._var_nodes: List[set] = []

        # (var, low, high) -> node id
        self._unique: Dict[Tuple[int, int, int], int] = {}

        # Segmented computed table: one bounded dict per operation (see
        # repro.bdd.cache).  Keys hold operand node ids — plus an
        # interned context id for quantify/restrict/compose — and values
        # are result node ids.  Stats lists: [hits, misses, evictions].
        if cache_config is None:
            cache_config = DEFAULT_CACHE_CONFIG
        elif not isinstance(cache_config, CacheConfig):
            raise TypeError("cache_config must be a CacheConfig")
        self.cache_config = cache_config
        self._cache_limit = cache_config.entry_limit
        for _name, cattr, sattr, _kind in _SEGMENT_SPECS:
            setattr(self, cattr, {})
            setattr(self, sattr, [0, 0, 0])
        # Interned operation contexts.  Quantified variable sets and
        # restrict assignments are immortal (their ids carry no node
        # references); compose substitutions embed node ids and are
        # cleared together with their segment.
        self._quant_ctx: Dict[frozenset, int] = {}
        self._restrict_ctx: Dict[Tuple, int] = {}
        self._compose_ctx: Dict[Tuple, int] = {}

        self._var_names: List[str] = []
        self._name_to_var: Dict[str, int] = {}
        self._var2level: List[int] = []
        self._level2var: List[int] = []

        self.auto_reorder = auto_reorder
        self.reorder_threshold = initial_reorder_threshold
        self._reorder_lock = 0

        self._live_nodes = 2
        self.peak_live_nodes = 2
        self._gc_threshold = 100_000

        # Counters, for experiment reporting.
        self.n_gc_runs = 0
        self.n_reorderings = 0
        self.n_selfchecks = 0

        self.debug_checks = (debug_checks_enabled() if debug_checks is None
                             else bool(debug_checks))

        #: Optional resource envelope (see class docstring).
        self.budget: Optional["Budget"] = None
        # Governance countdown: None when no budget is attached, else
        # the number of hot-loop events left before the next
        # _budget_poll.  Hot sites pay one integer test per event; the
        # poll does all real accounting (see _budget_poll).
        self._budget_countdown: Optional[int] = None
        self._budget_recharge = 0

        # Optional observability sink (duck-typed repro.obs.Tracer,
        # injected via set_tracer — the bdd layer never imports obs).
        # Hooks fire only on cold paths (GC, reordering, budget polls)
        # and cost one ``is None`` test when tracing is disabled.
        self._tracer = None

    def set_budget(self, budget: Optional["Budget"]) -> None:
        """Attach (or detach, with ``None``) a resource budget."""
        self.budget = budget
        self._budget_recharge = 0
        # 0 (not the interval) so the first hot event polls and the
        # recharge gets clamped against the node limit right away.
        self._budget_countdown = None if budget is None else 0

    def set_tracer(self, tracer) -> None:
        """Attach (or detach, with ``None``) an observability tracer.

        The manager emits instant events for garbage collections and
        budget polls and a span per reordering pass; callers (the
        ladder, the experiment runner) account node/cache traffic by
        snapshot deltas around their own spans.  Tracing never changes
        behaviour — only ``tracer.events`` grows.
        """
        self._tracer = tracer

    def _budget_poll(self, where: str) -> None:
        """Cold half of the governance hot path.

        Charges the events since the last poll to the budget, checks
        every limit, and recharges the countdown.  The recharge is
        clamped to ``max_live_nodes - live``: each node creation both
        decrements the countdown and increments the live count, so the
        countdown exhausts no later than the creation that crosses the
        limit — node-limit trips are exact (and always report ``mk``)
        even though polls are amortised.
        """
        budget = self.budget
        budget.steps += self._budget_recharge + 1
        limit = budget.max_live_nodes
        if limit is not None and self._live_nodes > limit:
            budget.trip_nodes(self._live_nodes, where)
        budget.slow_check(where)
        recharge = budget.check_interval
        if limit is not None:
            remaining = limit - self._live_nodes
            if remaining < recharge:
                recharge = remaining if remaining > 0 else 0
        self._budget_recharge = recharge
        self._budget_countdown = recharge
        tracer = self._tracer
        if tracer is not None:
            tracer.instant("budget_poll", where=where,
                           live_nodes=self._live_nodes,
                           steps=budget.steps)

    # ------------------------------------------------------------------
    # Variables
    # ------------------------------------------------------------------

    def add_var(self, name: Optional[str] = None) -> int:
        """Declare a new variable at the bottom of the order.

        Returns the variable id (dense, starting at 0).  ``name`` defaults
        to ``"v<i>"`` and must be unique.
        """
        var = len(self._var_names)
        if name is None:
            name = "v%d" % var
        if name in self._name_to_var:
            raise ValueError("duplicate variable name: %r" % name)
        self._var_names.append(name)
        self._name_to_var[name] = var
        self._var2level.append(len(self._level2var))
        self._level2var.append(var)
        self._var_nodes.append(set())
        return var

    def var_id(self, name: Union[str, int]) -> int:
        """Resolve a variable name (or pass through an id) to its id."""
        if isinstance(name, int):
            if not 0 <= name < len(self._var_names):
                raise ValueError("unknown variable id: %d" % name)
            return name
        try:
            return self._name_to_var[name]
        except KeyError:
            raise ValueError("unknown variable name: %r" % name) from None

    def var_name(self, var: int) -> str:
        """Name of variable ``var``."""
        return self._var_names[var]

    @property
    def num_vars(self) -> int:
        """Number of declared variables."""
        return len(self._var_names)

    @property
    def var_order(self) -> List[str]:
        """Variable names from top level to bottom level."""
        return [self._var_names[v] for v in self._level2var]

    def level_of(self, var: int) -> int:
        """Current level (0 = top) of variable ``var``."""
        return self._var2level[var]

    def _node_level(self, u: int) -> int:
        var = self._var[u]
        if var == _TERMINAL_VAR:
            return _TERMINAL_LEVEL
        return self._var2level[var]

    # ------------------------------------------------------------------
    # Node construction
    # ------------------------------------------------------------------

    def mk(self, var: int, low: int, high: int) -> int:
        """Find-or-create the reduced node ``(var, low, high)``.

        Both children must be rooted strictly below ``var`` in the current
        order; this is asserted in debug runs.
        """
        if low == high:
            return low
        key = (var, low, high)
        node = self._unique.get(key)
        if node is not None:
            return node
        if self._free:
            node = self._free.pop()
            self._var[node] = var
            self._low[node] = low
            self._high[node] = high
            self._ref[node] = 0
            self._pref[node] = 0
        else:
            node = len(self._var)
            self._var.append(var)
            self._low.append(low)
            self._high.append(high)
            self._ref.append(0)
            self._pref.append(0)
        self._unique[key] = node
        self._var_nodes[var].add(node)
        self._pref[low] += 1
        self._pref[high] += 1
        self._live_nodes += 1
        if self._live_nodes > self.peak_live_nodes:
            self.peak_live_nodes = self._live_nodes
        n = self._budget_countdown
        if n is not None:
            if n > 0:
                self._budget_countdown = n - 1
            else:
                self._budget_poll("mk")
        return node

    def _free_node(self, u: int) -> None:
        """Free node ``u`` immediately; cascades into dead children.

        Only safe while parent counts are exact relative to live roots,
        i.e. right after garbage collection — used by level swaps.
        """
        stack = [u]
        while stack:
            n = stack.pop()
            var = self._var[n]
            del self._unique[(var, self._low[n], self._high[n])]
            self._var_nodes[var].discard(n)
            self._var[n] = _TERMINAL_VAR
            for child in (self._low[n], self._high[n]):
                self._pref[child] -= 1
                if (child > TRUE and self._pref[child] == 0
                        and self._ref[child] == 0):
                    stack.append(child)
            self._free.append(n)
            self._live_nodes -= 1

    def var_node(self, name: Union[str, int]) -> int:
        """Node for the projection function of a variable."""
        return self.mk(self.var_id(name), FALSE, TRUE)

    def nvar_node(self, name: Union[str, int]) -> int:
        """Node for the negated projection function of a variable."""
        return self.mk(self.var_id(name), TRUE, FALSE)

    # ------------------------------------------------------------------
    # Reference counting & garbage collection
    # ------------------------------------------------------------------

    def incref(self, u: int) -> int:
        """Protect node ``u`` (and its descendants) from collection."""
        self._ref[u] += 1
        return u

    def decref(self, u: int) -> None:
        """Release one external reference to node ``u``."""
        if self._ref[u] <= 0:
            raise RuntimeError("decref of unreferenced node %d" % u)
        self._ref[u] -= 1

    def collect_garbage(self) -> int:
        """Mark-and-sweep from externally referenced nodes.

        Returns the number of freed nodes.  The computed-table segments
        are swept against the mark: entries whose operands and result
        all survived are kept, everything else is dropped.
        """
        var_a = self._var
        low_a = self._low
        high_a = self._high
        ref = self._ref
        marked = bytearray(len(var_a))
        marked[FALSE] = marked[TRUE] = 1
        stack = [u for u in range(2, len(var_a)) if ref[u] > 0]
        push = stack.append
        pop = stack.pop
        while stack:
            u = pop()
            if marked[u]:
                continue
            marked[u] = 1
            lo = low_a[u]
            hi = high_a[u]
            if not marked[lo]:
                push(lo)
            if not marked[hi]:
                push(hi)
        freed = 0
        in_free = bytearray(len(var_a))
        for u in self._free:
            in_free[u] = 1
        unique = self._unique
        var_nodes = self._var_nodes
        free_append = self._free.append
        for u in range(2, len(var_a)):
            if not marked[u] and not in_free[u]:
                var = var_a[u]
                del unique[(var, low_a[u], high_a[u])]
                var_nodes[var].discard(u)
                var_a[u] = _TERMINAL_VAR
                free_append(u)
                freed += 1
        self._live_nodes -= freed
        # Parent counts are recomputed from scratch: cheaper and simpler
        # than decrementing along every freed edge.
        pref = [0] * len(var_a)
        for u in range(2, len(var_a)):
            if var_a[u] != _TERMINAL_VAR:
                pref[low_a[u]] += 1
                pref[high_a[u]] += 1
        self._pref = pref
        self._sweep_cache(marked)
        self.n_gc_runs += 1
        tracer = self._tracer
        if tracer is not None:
            tracer.instant("gc", freed=freed,
                           live_nodes=self._live_nodes)
        if self.debug_checks:
            self._selfcheck("gc")
        return freed

    # ------------------------------------------------------------------
    # Computed-table plumbing
    # ------------------------------------------------------------------

    def _sweep_cache(self, marked: bytearray) -> None:
        """Filter the computed table against a GC mark vector.

        Freed node ids get recycled by ``mk``, so any entry touching an
        unmarked id must go.  Compose is special-cased: its interned
        contexts embed substitution node ids, so the segment and its
        context table are always cleared wholesale.
        """
        self._c_compose.clear()
        self._compose_ctx.clear()
        for _name, cattr, _sattr, kind in _SEGMENT_SPECS:
            if kind == "volatile":
                continue
            cache = getattr(self, cattr)
            if not cache:
                continue
            # Dict comprehensions preserve insertion order, so surviving
            # entries keep their FIFO age for future evictions.
            if kind == "bin":
                kept = {k: v for k, v in cache.items()
                        if marked[k[0]] and marked[k[1]] and marked[v]}
            elif kind == "unary":
                kept = {k: v for k, v in cache.items()
                        if marked[k] and marked[v]}
            elif kind == "tri":
                kept = {k: v for k, v in cache.items()
                        if marked[k[0]] and marked[k[1]] and marked[k[2]]
                        and marked[v]}
            elif kind == "ctx1":
                kept = {k: v for k, v in cache.items()
                        if marked[k[0]] and marked[v]}
            else:  # ctx2
                kept = {k: v for k, v in cache.items()
                        if marked[k[0]] and marked[k[1]] and marked[v]}
            setattr(self, cattr, kept)

    def clear_cache(self) -> None:
        """Drop every computed-table entry.

        Required after reordering: a level swap rewrites what a node id
        *means*, so cached results would be wrong, not merely stale.
        The interned quantify/restrict contexts survive (they reference
        variable ids, which reordering never changes); compose contexts
        embed node ids and go with their segment.
        """
        for _name, cattr, _sattr, _kind in _SEGMENT_SPECS:
            getattr(self, cattr).clear()
        self._compose_ctx.clear()

    def cache_stats(self) -> Dict:
        """Computed-table traffic counters.

        Returns ``{"ops": {name: {hits, misses, evictions, entries}},
        "total": {hits, misses, evictions, entries, hit_rate}}``.
        ``hit_rate`` is hits over probes (0.0 before any probe).
        """
        ops = {}
        th = tm = te = tn = 0
        for name, cattr, sattr, _kind in _SEGMENT_SPECS:
            st = getattr(self, sattr)
            entries = len(getattr(self, cattr))
            ops[name] = {"hits": st[0], "misses": st[1],
                         "evictions": st[2], "entries": entries}
            th += st[0]
            tm += st[1]
            te += st[2]
            tn += entries
        probes = th + tm
        return {"ops": ops,
                "total": {"hits": th, "misses": tm, "evictions": te,
                          "entries": tn,
                          "hit_rate": (th / probes) if probes else 0.0}}

    def __len__(self) -> int:
        """Number of live nodes, terminals included."""
        return self._live_nodes

    # ------------------------------------------------------------------
    # Automatic maintenance hook, called at top-level op boundaries.
    # ------------------------------------------------------------------

    def _maybe_maintain(self) -> None:
        if self._reorder_lock:
            return
        if self.auto_reorder and self._live_nodes >= self.reorder_threshold:
            from .reorder import sift

            self.collect_garbage()
            if self._live_nodes >= self.reorder_threshold:
                sift(self)
                self.n_reorderings += 1
                self.reorder_threshold = max(self.reorder_threshold,
                                             2 * self._live_nodes)
        elif self._live_nodes >= self._gc_threshold:
            before = self._live_nodes
            self.collect_garbage()
            if self._live_nodes > before // 2:
                self._gc_threshold = 2 * self._live_nodes

    # ------------------------------------------------------------------
    # Structural accessors
    # ------------------------------------------------------------------

    def node_var(self, u: int) -> int:
        """Variable id at node ``u`` (raises on terminals)."""
        var = self._var[u]
        if var == _TERMINAL_VAR:
            raise ValueError("terminal node has no variable")
        return var

    def node_low(self, u: int) -> int:
        """Else-child of node ``u``."""
        return self._low[u]

    def node_high(self, u: int) -> int:
        """Then-child of node ``u``."""
        return self._high[u]

    def is_terminal(self, u: int) -> bool:
        """True for the two constant nodes."""
        return u <= TRUE

    def profile(self, roots: Union[int, Iterable[int]])\
            -> Tuple[int, List[str]]:
        """Node count and support of the DAG below ``roots``, in one walk.

        The count includes terminals (as :meth:`size`); the support lists
        variable names in level order (as :meth:`support`).  Bucket
        elimination needs both for every conjunct it schedules.
        """
        if isinstance(roots, int):
            roots = (roots,)
        var_a = self._var
        low_a = self._low
        high_a = self._high
        vars_seen = set()
        vars_add = vars_seen.add
        seen = set()
        seen_add = seen.add
        stack = list(roots)
        push = stack.append
        pop = stack.pop
        while stack:
            u = pop()
            if u in seen:
                continue
            seen_add(u)
            if u > TRUE:
                vars_add(var_a[u])
                push(low_a[u])
                push(high_a[u])
        v2l = self._var2level
        return len(seen), [self._var_names[v]
                           for v in sorted(vars_seen, key=v2l.__getitem__)]

    def size(self, roots: Union[int, Iterable[int]]) -> int:
        """Number of distinct nodes reachable from ``roots``, terminals
        included (matching how CUDD's ``Cudd_DagSize`` counts)."""
        return self.profile(roots)[0]

    # ------------------------------------------------------------------
    # Boolean operations
    # ------------------------------------------------------------------

    def apply_and(self, f: int, g: int) -> int:
        """Conjunction of two nodes."""
        self._maybe_maintain()
        return self._and(f, g)

    def apply_or(self, f: int, g: int) -> int:
        """Disjunction of two nodes."""
        self._maybe_maintain()
        return self._or(f, g)

    def apply_xor(self, f: int, g: int) -> int:
        """Exclusive-or of two nodes."""
        self._maybe_maintain()
        return self._xor(f, g)

    def apply_not(self, f: int) -> int:
        """Negation of a node."""
        self._maybe_maintain()
        return self._not(f)

    def apply_ite(self, f: int, g: int, h: int) -> int:
        """If-then-else operator ``f·g + ¬f·h``."""
        self._maybe_maintain()
        return self._ite(f, g, h)

    def apply_xnor(self, f: int, g: int) -> int:
        """Equivalence ``f ↔ g``."""
        self._maybe_maintain()
        return self._not(self._xor(f, g))

    def apply_implies(self, f: int, g: int) -> int:
        """Implication ``f → g``."""
        self._maybe_maintain()
        return self._or(self._not(f), g)

    # Every kernel is a resolve-first explicit-stack loop: it resolves
    # each task by a terminal rule or a cache hit, else pushes one frame
    # and descends into the low cofactor.  ``_apply_slow`` serves the
    # pair tasks of AND, OR, XOR and AND_EXISTS (behind the fast paths
    # below and ``_and_exists``) and ``_negate_slow`` NOT; these two
    # inline ``mk``'s creation path, because going through ``mk`` costs
    # measurable check time.  ``_context_loop`` serves exists, forall,
    # restrict and compose, whose tasks are one node under an interned
    # context.  ``_ite_slow`` keeps its own loop: its tasks carry three
    # operands.  Stats are accumulated in locals and flushed in
    # ``finally`` (a budget trip may abort a loop mid-flight).

    def _and(self, f: int, g: int) -> int:
        if f == FALSE or g == FALSE:
            return FALSE
        if f == TRUE:
            return g
        if g == TRUE or f == g:
            return f
        if f > g:
            f, g = g, f
        res = self._c_and.get((f, g))
        if res is not None:
            self._cs_and[0] += 1
            return res
        return self._apply_slow(_OP_AND, f, g)

    def _or(self, f: int, g: int) -> int:
        if f == TRUE or g == TRUE:
            return TRUE
        if f == FALSE:
            return g
        if g == FALSE or f == g:
            return f
        if f > g:
            f, g = g, f
        res = self._c_or.get((f, g))
        if res is not None:
            self._cs_or[0] += 1
            return res
        return self._apply_slow(_OP_OR, f, g)

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
        res = self._c_xor.get((f, g))
        if res is not None:
            self._cs_xor[0] += 1
            return res
        return self._apply_slow(_OP_XOR, f, g)

    def _apply_slow(self, op: int, f: int, g: int, cid: int = 0,
                    var_set: frozenset = frozenset()) -> int:
        # (f, g) is normalized and just missed op's segment.  A frame is
        # [key, var, f1, g1, r0, parent]: r0 is -1 while the low pair is
        # in flight, then the low result.  Frames link to their parent
        # rather than sit on a list, which saves the append/pop calls
        # every miss would pay (see docs/performance.md).  AND_EXISTS
        # (``quant``) keys its pairs with the interned ``cid`` of
        # ``var_set``, polls the budget per miss, and marks a frame of a
        # quantified level with var -1: its cofactors are ORed, and a
        # TRUE low result settles it without the high pair.
        cattr, sattr, unit, is_xor, quant = _APPLY_RULES[op]
        cache = getattr(self, cattr)
        cache_get = cache.get
        limit = self._cache_limit
        _not = self._not
        _or = self._or
        quantify = self._quantify
        var_a = self._var
        low_a = self._low
        high_a = self._high
        v2l = self._var2level
        unique = self._unique
        unique_get = unique.get
        var_nodes = self._var_nodes
        pref = self._pref
        ref = self._ref
        free = self._free
        hits = 0
        miss = 0
        evt = 0
        key = (f, g, cid) if quant else (f, g)
        top = None
        try:
            while True:
                # EXPAND the miss key = (f, g): push it, go low.
                miss += 1
                vf = var_a[f]
                vg = var_a[g]
                lf = v2l[vf]
                lg = v2l[vg]
                if lf <= lg:
                    v = vf
                    f0 = low_a[f]
                    f1 = high_a[f]
                else:
                    v = vg
                    f0 = f1 = f
                if lg <= lf:
                    g0 = low_a[g]
                    g1 = high_a[g]
                else:
                    g0 = g1 = g
                if quant:
                    if v in var_set:
                        v = -1
                    n = self._budget_countdown
                    if n is not None:
                        if n > 0:
                            self._budget_countdown = n - 1
                        else:
                            self._budget_poll("and_exists")
                top = [key, v, f1, g1, -1, top]
                f = f0
                g = g0
                while True:
                    # RESOLVE (f, g) by a terminal rule or a cache hit.
                    if f > g:
                        f, g = g, f
                    if f == g:
                        res = FALSE if is_xor else f
                        if quant:
                            res = quantify(res, var_set, _OP_EXISTS)
                    elif f <= TRUE:
                        if f == unit:
                            res = (quantify(g, var_set, _OP_EXISTS)
                                   if quant else g)
                        elif is_xor:
                            res = _not(g)
                        else:
                            res = f
                    else:
                        key = (f, g, cid) if quant else (f, g)
                        res = cache_get(key)
                        if res is None:
                            break
                        hits += 1
                    # UNWIND until a frame still needs its high pair.
                    while True:
                        r0 = top[4]
                        if r0 < 0:
                            if not (quant and res == TRUE and top[1] < 0):
                                top[4] = res
                                f = top[2]
                                g = top[3]
                                break
                            # ∃-short-circuit: TRUE ∨ anything is TRUE.
                        elif quant and top[1] < 0:
                            res = _or(r0, res)
                        elif r0 != res:
                            # Inline mk(v, r0, r1).
                            r1 = res
                            v = top[1]
                            ukey = (v, r0, r1)
                            res = unique_get(ukey)
                            if res is None:
                                if free:
                                    res = free.pop()
                                    var_a[res] = v
                                    low_a[res] = r0
                                    high_a[res] = r1
                                    ref[res] = 0
                                    pref[res] = 0
                                else:
                                    res = len(var_a)
                                    var_a.append(v)
                                    low_a.append(r0)
                                    high_a.append(r1)
                                    ref.append(0)
                                    pref.append(0)
                                unique[ukey] = res
                                var_nodes[v].add(res)
                                pref[r0] += 1
                                pref[r1] += 1
                                live = self._live_nodes + 1
                                self._live_nodes = live
                                if live > self.peak_live_nodes:
                                    self.peak_live_nodes = live
                                n = self._budget_countdown
                                if n is not None:
                                    if n > 0:
                                        self._budget_countdown = n - 1
                                    else:
                                        self._budget_poll("mk")
                        if len(cache) >= limit:
                            del cache[next(iter(cache))]
                            evt += 1
                        cache[top[0]] = res
                        top = top[5]
                        if top is None:
                            return res
        finally:
            st = getattr(self, sattr)
            st[0] += hits
            st[1] += miss
            st[2] += evt

    def _not(self, f: int) -> int:
        if f == FALSE:
            return TRUE
        if f == TRUE:
            return FALSE
        res = self._c_not.get(f)
        if res is not None:
            self._cs_not[0] += 1
            return res
        return self._negate_slow(f)

    def _negate_slow(self, f: int) -> int:
        # f is nonterminal and just missed the NOT segment.  A frame is
        # [f, var, hi, r0, parent], linked like _apply_slow's: r0 is -1
        # while the low child is in flight, then the low result.
        cache = self._c_not
        cache_get = cache.get
        limit = self._cache_limit
        var_a = self._var
        low_a = self._low
        high_a = self._high
        unique = self._unique
        unique_get = unique.get
        var_nodes = self._var_nodes
        pref = self._pref
        ref = self._ref
        free = self._free
        hits = 0
        miss = 0
        evt = 0
        top = None
        try:
            while True:
                # EXPAND the miss f: push it, go low.
                miss += 1
                top = [f, var_a[f], high_a[f], -1, top]
                f = low_a[f]
                while True:
                    # RESOLVE f by the terminal rule or a cache hit.
                    if f <= TRUE:
                        res = TRUE if f == FALSE else FALSE
                    else:
                        res = cache_get(f)
                        if res is None:
                            break
                        hits += 1
                    # UNWIND until a frame still needs its high child.
                    while True:
                        r0 = top[3]
                        if r0 < 0:
                            top[3] = res
                            f = top[2]
                            break
                        # Inline mk(v, r0, r1); negation never merges
                        # children.
                        v = top[1]
                        r1 = res
                        ukey = (v, r0, r1)
                        res = unique_get(ukey)
                        if res is None:
                            if free:
                                res = free.pop()
                                var_a[res] = v
                                low_a[res] = r0
                                high_a[res] = r1
                                ref[res] = 0
                                pref[res] = 0
                            else:
                                res = len(var_a)
                                var_a.append(v)
                                low_a.append(r0)
                                high_a.append(r1)
                                ref.append(0)
                                pref.append(0)
                            unique[ukey] = res
                            var_nodes[v].add(res)
                            pref[r0] += 1
                            pref[r1] += 1
                            live = self._live_nodes + 1
                            self._live_nodes = live
                            if live > self.peak_live_nodes:
                                self.peak_live_nodes = live
                            n = self._budget_countdown
                            if n is not None:
                                if n > 0:
                                    self._budget_countdown = n - 1
                                else:
                                    self._budget_poll("mk")
                        if len(cache) >= limit:
                            del cache[next(iter(cache))]
                            evt += 1
                        cache[top[0]] = res
                        top = top[4]
                        if top is None:
                            return res
        finally:
            st = self._cs_not
            st[0] += hits
            st[1] += miss
            st[2] += evt

    def _ite_rule(self, f: int, g: int, h: int) -> int:
        # ITE's terminal rules (which may run the binary kernels): the
        # result, or -1 when none applies.
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
        return -1

    def _ite(self, f: int, g: int, h: int) -> int:
        res = self._ite_rule(f, g, h)
        if res >= 0:
            return res
        res = self._c_ite.get((f, g, h))
        if res is not None:
            self._cs_ite[0] += 1
            return res
        return self._ite_slow(f, g, h)

    def _ite_slow(self, f: int, g: int, h: int) -> int:
        # Resolve-first loop: each (f, g, h) task either simplifies via
        # the terminal rules, hits the cache, or pushes one frame and
        # descends.  Frame: [key, var, f1, g1, h1, state]; state is -1
        # while the low cofactor is in flight, then the low *result*
        # (always >= 0) while the high cofactor is in flight.
        cache = self._c_ite
        cache_get = cache.get
        limit = self._cache_limit
        mk = self.mk
        ite_rule = self._ite_rule
        var_a = self._var
        low_a = self._low
        high_a = self._high
        v2l = self._var2level
        l2v = self._level2var
        stack: List[list] = []
        push = stack.append
        pop = stack.pop
        hits = 0
        miss = 0
        evt = 0
        try:
            while True:
                # RESOLVE the task (f, g, h).
                res = ite_rule(f, g, h)
                if res < 0:
                    key = (f, g, h)
                    res = cache_get(key)
                    if res is None:
                        miss += 1
                        n = self._budget_countdown
                        if n is not None:
                            if n > 0:
                                self._budget_countdown = n - 1
                            else:
                                self._budget_poll("ite")
                        # All three operands are nonterminal here.
                        level = v2l[var_a[f]]
                        lg = v2l[var_a[g]]
                        if lg < level:
                            level = lg
                        lh = v2l[var_a[h]]
                        if lh < level:
                            level = lh
                        if v2l[var_a[f]] == level:
                            f0 = low_a[f]
                            f1 = high_a[f]
                        else:
                            f0 = f1 = f
                        if lg == level:
                            g0 = low_a[g]
                            g1 = high_a[g]
                        else:
                            g0 = g1 = g
                        if lh == level:
                            h0 = low_a[h]
                            h1 = high_a[h]
                        else:
                            h0 = h1 = h
                        push([key, l2v[level], f1, g1, h1, -1])
                        f = f0
                        g = g0
                        h = h0
                        continue
                    hits += 1
                # UNWIND.
                while stack:
                    top = stack[-1]
                    state = top[5]
                    if state < 0:
                        top[5] = res
                        f = top[2]
                        g = top[3]
                        h = top[4]
                        break
                    pop()
                    res = mk(top[1], state, res)
                    if len(cache) >= limit:
                        del cache[next(iter(cache))]
                        evt += 1
                    cache[top[0]] = res
                else:
                    return res
        finally:
            st = self._cs_ite
            st[0] += hits
            st[1] += miss
            st[2] += evt

    # ------------------------------------------------------------------
    # Quantification, cofactor and compose
    # ------------------------------------------------------------------

    def _levels_key(self, variables: Iterable[Union[str, int]]) -> frozenset:
        return frozenset(self.var_id(v) for v in variables)

    @staticmethod
    def _intern(table: Dict, context) -> int:
        # Contexts are interned once per top-level call, so computed
        # table keys carry a small id instead of the context itself.
        cid = table.get(context)
        if cid is None:
            cid = table[context] = len(table)
        return cid

    def exists(self, variables: Iterable[Union[str, int]], f: int) -> int:
        """Existential quantification ``∃ variables . f``."""
        self._maybe_maintain()
        vars_key = self._levels_key(variables)
        if not vars_key:
            return f
        return self._quantify(f, vars_key, _OP_EXISTS)

    def forall(self, variables: Iterable[Union[str, int]], f: int) -> int:
        """Universal quantification ``∀ variables . f``."""
        self._maybe_maintain()
        vars_key = self._levels_key(variables)
        if not vars_key:
            return f
        return self._quantify(f, vars_key, _OP_FORALL)

    def _quantify(self, f: int, var_set: frozenset, op: int) -> int:
        if f <= TRUE:
            return f
        v2l = self._var2level
        # Hoisted once per top-level call; the historic recursion paid
        # this O(|var_set|) max at *every* visited node.
        max_level = max(v2l[v] for v in var_set)
        if v2l[self._var[f]] > max_level:
            return f
        cid = self._intern(self._quant_ctx, var_set)
        return self._context_loop(op, f, cid, max_level, var_set)

    def restrict(self, f: int,
                 assignment: Dict[Union[str, int], bool]) -> int:
        """Cofactor ``f`` with a partial variable assignment."""
        self._maybe_maintain()
        fixed = {self.var_id(v): bool(val) for v, val in assignment.items()}
        if not fixed:
            return f
        rid = self._intern(self._restrict_ctx, tuple(sorted(fixed.items())))
        return self._context_loop(_OP_RESTRICT, f, rid, _TERMINAL_LEVEL,
                                  fixed)

    def compose(self, f: int,
                substitution: Dict[Union[str, int], int]) -> int:
        """Simultaneous functional composition ``f[var := g, ...]``."""
        self._maybe_maintain()
        subst = {self.var_id(v): g for v, g in substitution.items()}
        if not subst:
            return f
        cid = self._intern(self._compose_ctx, tuple(sorted(subst.items())))
        return self._context_loop(_OP_COMPOSE, f, cid, _TERMINAL_LEVEL,
                                  subst)

    def _context_loop(self, op: int, f: int, cid: int, max_level: int,
                      context) -> int:
        # Resolve-first loop of the ops that map one operand under an
        # interned context ``cid``.  ``context`` is the quantified
        # variable set (EXISTS, FORALL), the fixed assignment (RESTRICT)
        # or the substitution (COMPOSE).  A task f resolves to itself
        # when it is a terminal or lies below ``max_level``, the deepest
        # quantified level (_TERMINAL_LEVEL never cuts).  Frame: [key,
        # var, hi, state, parent]; state -1 while the low child is in
        # flight, 0 while the high child runs (slot 2 then holds the
        # low result), 2 for a fixed variable's pass-through (the
        # child's result is cached and propagated unchanged).  Frames
        # link to their parent like _apply_slow's (see
        # docs/performance.md).
        cattr, sattr, site = _CONTEXT_RULES[op]
        cache = getattr(self, cattr)
        cache_get = cache.get
        limit = self._cache_limit
        mk = self.mk
        _ite = self._ite
        combine = self._or if op == _OP_EXISTS else self._and
        quantified = context if op in (_OP_EXISTS, _OP_FORALL) else ()
        fixed = context if op == _OP_RESTRICT else {}
        subst = context if op == _OP_COMPOSE else None
        var_a = self._var
        low_a = self._low
        high_a = self._high
        v2l = self._var2level
        hits = 0
        miss = 0
        evt = 0
        top = None
        try:
            while True:
                # RESOLVE the task f.
                if f <= TRUE or v2l[var_a[f]] > max_level:
                    res = f
                else:
                    key = (f, cid)
                    res = cache_get(key)
                    if res is None:
                        miss += 1
                        var = var_a[f]
                        if site is not None:
                            n = self._budget_countdown
                            if n is not None:
                                if n > 0:
                                    self._budget_countdown = n - 1
                                else:
                                    self._budget_poll(site)
                        elif var in fixed:
                            # Restrict (no poll site): pass through.
                            top = [key, var, 0, 2, top]
                            f = high_a[f] if fixed[var] else low_a[f]
                            continue
                        top = [key, var, high_a[f], -1, top]
                        f = low_a[f]
                        continue
                    hits += 1
                # UNWIND.
                while top is not None:
                    state = top[3]
                    if state < 0:
                        f = top[2]
                        top[2] = res
                        top[3] = 0
                        break
                    if state == 0:
                        var = top[1]
                        if var in quantified:
                            res = combine(top[2], res)
                        elif subst is None:
                            res = mk(var, top[2], res)
                        else:
                            g = subst.get(var)
                            if g is None:
                                g = mk(var, FALSE, TRUE)
                            res = _ite(g, res, top[2])
                    if len(cache) >= limit:
                        del cache[next(iter(cache))]
                        evt += 1
                    cache[top[0]] = res
                    top = top[4]
                else:
                    return res
        finally:
            st = getattr(self, sattr)
            st[0] += hits
            st[1] += miss
            st[2] += evt

    def and_exists(self, variables: Iterable[Union[str, int]],
                   f: int, g: int) -> int:
        """Relational product ``∃ variables . f ∧ g`` in one pass.

        Avoids building the full conjunction when most of it is
        quantified away (CUDD's ``Cudd_bddAndAbstract``).  It runs on
        the AND/OR/XOR pair loop as an AND whose quantified levels OR
        their cofactors, stopping at a TRUE low cofactor.  Image
        computation in :mod:`repro.seq.reachability` calls it, and so
        does every bucket of two or more conjuncts in the exact checks'
        bucket elimination (:func:`repro.core.quantify.exists_conj`).
        """
        self._maybe_maintain()
        vars_key = self._levels_key(variables)
        if not vars_key:
            return self._and(f, g)
        return self._and_exists(f, g, vars_key)

    def _and_exists(self, f: int, g: int, var_set: frozenset) -> int:
        # Resolve the first pair, then hand a miss to the apply loop's
        # AND_EXISTS row.  The recursive test oracle overrides this.
        cid = self._intern(self._quant_ctx, var_set)
        if f > g:
            f, g = g, f
        if f == FALSE:
            return FALSE
        if f == TRUE or f == g:
            return self._quantify(g, var_set, _OP_EXISTS)
        res = self._c_andex.get((f, g, cid))
        if res is not None:
            self._cs_andex[0] += 1
            return res
        return self._apply_slow(_OP_AND_EXISTS, f, g, cid, var_set)

    # ------------------------------------------------------------------
    # Satisfiability helpers
    # ------------------------------------------------------------------

    def evaluate(self, f: int,
                 assignment: Dict[Union[str, int], bool]) -> bool:
        """Evaluate ``f`` under a total assignment of its support."""
        fixed = {self.var_id(v): bool(val) for v, val in assignment.items()}
        u = f
        while u > TRUE:
            var = self._var[u]
            try:
                u = self._high[u] if fixed[var] else self._low[u]
            except KeyError:
                raise ValueError(
                    "assignment misses variable %r" % self._var_names[var]
                ) from None
        return u == TRUE

    def sat_one(self, f: int) -> Optional[Dict[str, bool]]:
        """One satisfying assignment over the support of ``f``.

        Returns ``None`` when ``f`` is unsatisfiable.  Variables absent
        from the result are don't-cares.
        """
        if f == FALSE:
            return None
        out: Dict[str, bool] = {}
        u = f
        while u > TRUE:
            name = self._var_names[self._var[u]]
            if self._low[u] != FALSE:
                out[name] = False
                u = self._low[u]
            else:
                out[name] = True
                u = self._high[u]
        return out

    def sat_count(self, f: int, nvars: Optional[int] = None) -> int:
        """Number of satisfying assignments over ``nvars`` variables.

        ``nvars`` defaults to the total number of declared variables.
        """
        if nvars is None:
            nvars = self.num_vars
        if nvars < self.num_vars:
            raise ValueError("nvars smaller than the declared variable count")
        if f == FALSE:
            return 0
        if f == TRUE:
            return 1 << nvars
        var_a = self._var
        low_a = self._low
        high_a = self._high
        v2l = self._var2level
        # memo[u]: models over the variables at levels strictly below
        # u's level, padded as if u sat at level -1 were the root; the
        # final shift rescales by the root's level gap.  Terminals are
        # not memoised — their count equals their node id (0 or 1).
        memo: Dict[int, int] = {}
        stack = [f]
        push = stack.append
        pop = stack.pop
        while stack:
            u = stack[-1]
            if u in memo:
                pop()
                continue
            lo = low_a[u]
            hi = high_a[u]
            ready = True
            if lo > TRUE and lo not in memo:
                push(lo)
                ready = False
            if hi > TRUE and hi not in memo:
                push(hi)
                ready = False
            if not ready:
                continue
            pop()
            ulvl = v2l[var_a[u]]
            lo_gap = (nvars if lo <= TRUE else v2l[var_a[lo]]) - ulvl - 1
            hi_gap = (nvars if hi <= TRUE else v2l[var_a[hi]]) - ulvl - 1
            clo = lo if lo <= TRUE else memo[lo]
            chi = hi if hi <= TRUE else memo[hi]
            memo[u] = (clo << lo_gap) + (chi << hi_gap)
        return memo[f] << v2l[var_a[f]]

    def sat_iter(self, f: int) -> Iterator[Dict[str, bool]]:
        """Iterate over all satisfying *cubes* (partial assignments)."""
        if f == FALSE:
            return
        stack: List[Tuple[int, Dict[str, bool]]] = [(f, {})]
        while stack:
            u, partial = stack.pop()
            if u == TRUE:
                yield dict(partial)
                continue
            if u == FALSE:
                continue
            name = self._var_names[self._var[u]]
            hi = dict(partial)
            hi[name] = True
            lo = partial
            lo[name] = False
            stack.append((self._high[u], hi))
            stack.append((self._low[u], lo))

    def support(self, f: int) -> List[str]:
        """Names of the variables ``f`` depends on, in order."""
        return self.profile(f)[1]

    # ------------------------------------------------------------------
    # Debug helpers
    # ------------------------------------------------------------------

    def invariant_violations(self) -> List[str]:
        """Collect every violated internal invariant (empty = healthy).

        The checks mirror what a corrupted unique table, stale parent
        counts or a broken variable order would look like; the sanitizer
        (:mod:`repro.analysis.bddcheck`) turns the returned strings into
        structured diagnostics.
        """
        out: List[str] = []
        live = 0
        free = set(self._free)
        pref = [0] * len(self._var)
        for u in range(len(self._var)):
            if u in free:
                continue
            live += 1
            if u <= TRUE:
                continue
            var = self._var[u]
            if var == _TERMINAL_VAR:
                out.append("free node leaked: %d" % u)
                continue
            lo, hi = self._low[u], self._high[u]
            if lo == hi:
                out.append("redundant node %d" % u)
            if lo in free or hi in free:
                out.append("node %d points at freed child" % u)
                continue
            pref[lo] += 1
            pref[hi] += 1
            if not 0 <= var < len(self._var2level):
                out.append("node %d has undeclared variable %d" % (u, var))
                continue
            lvl = self._var2level[var]
            if self._node_level(lo) <= lvl or self._node_level(hi) <= lvl:
                out.append("order violated at %d" % u)
            if self._unique.get((var, lo, hi)) != u:
                out.append("unique table inconsistent at %d" % u)
            if u not in self._var_nodes[var]:
                out.append("node %d missing from its variable set" % u)
        if live != self._live_nodes:
            out.append("live count wrong: counted %d, recorded %d"
                       % (live, self._live_nodes))
        if len(self._unique) != live - 2:
            out.append("unique table size %d != %d live non-terminals"
                       % (len(self._unique), live - 2))
        for u in range(2, len(self._var)):
            if u not in free and self._pref[u] != pref[u]:
                out.append("parent count wrong at %d: %d != %d"
                           % (u, self._pref[u], pref[u]))
        if sum(len(s) for s in self._var_nodes) != live - 2:
            out.append("per-variable node sets do not partition the "
                       "live nodes")
        if sorted(self._var2level) != list(range(self.num_vars)):
            out.append("var2level is not a permutation of the levels")
        else:
            for var, lvl in enumerate(self._var2level):
                if self._level2var[lvl] != var:
                    out.append("level2var inconsistent at level %d" % lvl)
        return out

    def check_invariants(self) -> None:
        """Raise ``AssertionError`` if internal structures are corrupt.

        Used by the test suite after garbage collection and reordering;
        the opt-in runtime sanitizer raises structured diagnostics
        instead (see :meth:`invariant_violations`).
        """
        violations = self.invariant_violations()
        assert not violations, "; ".join(violations)

    def _selfcheck(self, phase: str) -> None:
        """Debug-mode hook run after GC/reordering (``debug_checks``)."""
        self.n_selfchecks += 1
        violations = self.invariant_violations()
        if violations:
            # Imported lazily: analysis sits above the bdd layer.
            from ..analysis.bddcheck import invariant_error

            raise invariant_error(self, phase, violations)
