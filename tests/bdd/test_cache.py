"""Segmented computed-table behaviour: bounding, eviction, retention.

The computed table is a pure performance artifact — losing an entry may
cost recomputation but must never change a result.  The core property
test drives a 64-entry-per-segment manager and an unbounded one through
the same random operation programs and requires *identical node ids*
at every step: node identity comes from the unique table alone, so any
divergence means an eviction leaked into semantics.

The same programs also hold the manager to the recursive reference in
:mod:`tests.bdd.legacy`, with and without garbage collection and
sifting interleaved: the node-id oracle for any rewrite of the kernels.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.bdd import Bdd, CacheConfig
from repro.bdd.cache import OP_NAMES
from tests.bdd.legacy import LegacyBdd, LegacyBddManager

NAMES = ["a", "b", "c", "d", "e"]

#: One interpreted instruction: (opcode, operand picks).  Operand
#: indices are taken modulo the live pool size at execution time.
_STEP = st.tuples(
    st.sampled_from(["and", "or", "xor", "not", "ite", "exists",
                     "forall", "and_exists", "restrict", "compose"]),
    st.integers(min_value=0, max_value=255),
    st.integers(min_value=0, max_value=255),
    st.integers(min_value=0, max_value=255),
)


def _run_program(bdd, program):
    """Execute a program against one manager; return the node-id trace."""
    pool = [bdd.var(n) for n in NAMES]
    trace = []
    for op, i, j, k in program:
        f = pool[i % len(pool)]
        g = pool[j % len(pool)]
        h = pool[k % len(pool)]
        name = NAMES[j % len(NAMES)]
        if op == "and":
            result = f & g
        elif op == "or":
            result = f | g
        elif op == "xor":
            result = f ^ g
        elif op == "not":
            result = ~f
        elif op == "ite":
            result = f.ite(g, h)
        elif op == "exists":
            result = f.exists([name])
        elif op == "forall":
            result = f.forall([name])
        elif op == "and_exists":
            result = f.and_exists(g, [NAMES[k % len(NAMES)]])
        elif op == "restrict":
            result = f.restrict({name: bool(k % 2)})
        else:  # compose
            result = f.compose({name: h})
        pool.append(result)
        trace.append(result.node)
    return trace


def _fresh(cache_config=None, cls=Bdd):
    bdd = cls(cache_config=cache_config)
    bdd.add_vars(NAMES)
    return bdd


@settings(max_examples=60, deadline=None)
@given(st.lists(_STEP, max_size=40))
def test_tiny_cache_matches_unbounded(program):
    """A 64-entry bounded table and an unbounded one agree node-for-node."""
    bounded = _fresh(CacheConfig(segment_entries=64))
    unbounded = _fresh(CacheConfig(segment_entries=0))
    assert _run_program(bounded, program) == _run_program(unbounded,
                                                          program)


@settings(max_examples=40, deadline=None)
@given(st.lists(_STEP, max_size=30))
def test_bounded_iterative_matches_legacy(program):
    """Iterative kernels + bounded table == recursive reference manager."""
    current = _fresh(CacheConfig(segment_entries=64))
    legacy = _fresh(cls=LegacyBdd)
    assert _run_program(current, program) == _run_program(legacy,
                                                          program)


@settings(max_examples=60, deadline=None)
@given(st.lists(_STEP, max_size=40))
def test_default_matches_legacy_node_for_node(program):
    """Default configuration == reference: node ids, size, invariants."""
    current = _fresh()
    legacy = _fresh(cls=LegacyBdd)
    assert _run_program(current, program) == _run_program(legacy, program)
    assert len(current) == len(legacy)
    assert current.manager.invariant_violations() == []


@settings(max_examples=25, deadline=None)
@given(st.lists(_STEP, max_size=30))
def test_legacy_matches_through_gc_and_reorder(program):
    """Same node ids, order and size when GC and sifting interleave."""
    current = _fresh()
    legacy = _fresh(cls=LegacyBdd)
    cut = len(program) // 2
    traces = []
    for bdd in (current, legacy):
        head = _run_program(bdd, program[:cut])
        bdd.manager.collect_garbage()
        bdd.reorder()
        tail = _run_program(bdd, program[cut:])
        traces.append((head, tail, list(bdd.manager.var_order),
                       len(bdd)))
    assert traces[0] == traces[1]
    assert current.manager.invariant_violations() == []


#: Public op -> the ``LegacyBddManager`` override it must run.  Were a
#: public op to bypass its override, the differentials above would
#: compare the production kernels with themselves.
_LEGACY_DISPATCH = {
    "and": ("_and", lambda f, g, h: f & g),
    "or": ("_or", lambda f, g, h: f | g),
    "xor": ("_xor", lambda f, g, h: f ^ g),
    "not": ("_not", lambda f, g, h: ~f),
    "ite": ("_ite", lambda f, g, h: f.ite(g, h)),
    "exists": ("_quantify", lambda f, g, h: f.exists(["a"])),
    "forall": ("_quantify", lambda f, g, h: f.forall(["a"])),
    "and_exists": ("_and_exists", lambda f, g, h: f.and_exists(g, ["a"])),
    "restrict": ("_restrict", lambda f, g, h: f.restrict({"a": True})),
    "compose": ("_compose", lambda f, g, h: f.compose({"a": g})),
}


class _Reached(Exception):
    pass


@pytest.mark.parametrize("op", sorted(_LEGACY_DISPATCH))
def test_legacy_ops_run_the_reference_kernels(op, monkeypatch):
    """Break one reference kernel: its public op must fail with it."""
    kernel, program = _LEGACY_DISPATCH[op]
    assert kernel in vars(LegacyBddManager)
    legacy = _fresh(cls=LegacyBdd)
    a, b, c = (legacy.var(n) for n in "abc")
    f, g, h = a ^ b, b | c, a & c

    def broken(self, *args):
        raise _Reached(kernel)

    monkeypatch.setattr(LegacyBddManager, kernel, broken)
    with pytest.raises(_Reached):
        program(f, g, h)


#: Work counters of the pinned program below: per-op (hits, misses,
#: evictions), then (peak live nodes, GC runs, budget steps).  Journals
#: report cache hits/misses per check and the portfolio races on budget
#: steps, so a kernel rewrite must reproduce these exactly; the legacy
#: oracle above pins node ids but not these.  The 64-entry table makes
#: every segment evict.
_PINNED_WORK = {
    "default": (
        {"and": (1177, 1241, 0), "or": (1555, 1904, 0),
         "xor": (1641, 2302, 0), "not": (942, 748, 0),
         "ite": (14624, 21547, 0), "exists": (1, 120, 0),
         "forall": (0, 255, 0), "compose": (554, 573, 0),
         "restrict": (272, 499, 0), "and_exists": (841, 979, 0)},
        (16416, 2, 39065)),
    "bounded64": (
        {"and": (1809, 1677, 1613), "or": (2175, 2900, 2836),
         "xor": (1956, 3321, 3257), "not": (1859, 1069, 1005),
         "ite": (18576, 32667, 32603), "exists": (1, 120, 56),
         "forall": (0, 255, 191), "compose": (701, 805, 741),
         "restrict": (301, 602, 538), "and_exists": (981, 1401, 1337)},
        (16416, 2, 50630)),
}


@pytest.mark.parametrize("config", sorted(_PINNED_WORK))
def test_work_counters_pinned(config):
    """alu4 plus one of every operation: exact per-op cache traffic."""
    from repro.generators.alu import alu4_like
    from repro.resilience.budget import Budget
    from repro.sim.symbolic import symbolic_simulate

    bdd = Bdd(cache_config=(CacheConfig(segment_entries=64)
                            if config == "bounded64" else None))
    budget = Budget(max_live_nodes=10**9)
    bdd.set_budget(budget)
    outs = list(symbolic_simulate(alu4_like(), bdd).values())
    f, g, h = outs[5], outs[6], outs[7]
    kept = [f ^ g, ~h, f.ite(g, h), f.exists(["b2", "a3"]),
            g.forall(["a2", "b3"]), f.and_exists(g, ["a1", "b1", "sel1"]),
            g.restrict({"a3": True, "sel0": False}),
            f.compose({"b1": g, "cin": h})]
    bdd.collect_garbage()
    bdd.reorder()
    ops = {name: (s["hits"], s["misses"], s["evictions"])
           for name, s in bdd.cache_stats()["ops"].items()}
    manager = bdd.manager
    assert (ops, (manager.peak_live_nodes, manager.n_gc_runs,
                  budget.steps)) == _PINNED_WORK[config]
    assert [k.node for k in kept] == [4309, 4432, 1204, 4599, 4943, 0,
                                      5066, 16415]


class TestEviction:
    def test_segment_respects_bound_and_counts_evictions(self):
        bdd = _fresh(CacheConfig(segment_entries=4))
        vs = [bdd.var(n) for n in NAMES]
        # 10 distinct AND results: far more than 4 cacheable entries.
        keep = [f & g for f in vs for g in vs if f.node < g.node]
        stats = bdd.cache_stats()
        assert stats["ops"]["and"]["entries"] <= 4
        assert stats["ops"]["and"]["evictions"] > 0
        assert stats["total"]["evictions"] > 0

    def test_unbounded_never_evicts(self):
        bdd = _fresh(CacheConfig(segment_entries=0))
        vs = [bdd.var(n) for n in NAMES]
        keep = [f & g for f in vs for g in vs if f.node < g.node]
        assert bdd.cache_stats()["total"]["evictions"] == 0

    def test_hits_are_counted(self):
        bdd = _fresh()
        a, b = bdd.var("a"), bdd.var("b")
        first = a & b
        before = bdd.cache_stats()["total"]["hits"]
        second = a & b
        assert second == first
        assert bdd.cache_stats()["total"]["hits"] == before + 1


class TestGcRetention:
    def test_live_entries_survive_gc_when_enabled(self):
        bdd = _fresh()
        a, b = bdd.var("a"), bdd.var("b")
        product = a & b  # operands and result all externally referenced
        bdd.manager.collect_garbage()
        before = bdd.cache_stats()["total"]["hits"]
        again = a & b
        assert again == product
        assert bdd.cache_stats()["total"]["hits"] == before + 1

    def test_dead_entries_are_dropped_either_way(self):
        bdd = _fresh()
        a, b = bdd.var("a"), bdd.var("b")
        product = a & b
        del product  # drop the only reference -> dead node
        entries_before = bdd.cache_stats()["total"]["entries"]
        assert entries_before > 0
        bdd.manager.collect_garbage()
        # The AND entry pointed at a node the sweep reclaimed.
        assert bdd.cache_stats()["total"]["entries"] < entries_before


class TestConfigValidation:
    def test_negative_entries_rejected(self):
        with pytest.raises(ValueError):
            CacheConfig(segment_entries=-1)

    def test_non_int_entries_rejected(self):
        with pytest.raises(TypeError):
            CacheConfig(segment_entries="64")
        with pytest.raises(TypeError):
            CacheConfig(segment_entries=True)

    def test_entry_limit_of_unbounded_is_huge(self):
        assert CacheConfig(segment_entries=0).entry_limit > 1 << 40
        assert CacheConfig(segment_entries=8).entry_limit == 8

    def test_manager_rejects_non_config(self):
        with pytest.raises(TypeError):
            Bdd(cache_config=object())


def test_cache_stats_shape():
    bdd = _fresh()
    stats = bdd.cache_stats()
    assert set(stats) == {"ops", "total"}
    assert set(stats["ops"]) == set(OP_NAMES)
    for per_op in stats["ops"].values():
        assert {"hits", "misses", "evictions",
                "entries"} <= set(per_op)
    total = stats["total"]
    assert {"hits", "misses", "evictions", "entries",
            "hit_rate"} <= set(total)
    assert 0.0 <= total["hit_rate"] <= 1.0
