"""Tests for quantification scheduling (bucket elimination)."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.bdd import Bdd
from repro.core import exists_conj, forall_disj, prepare_context
from repro.core.common import box_input_var_name
from repro.core.input_exact import _box_input_functions, build_cond_prime
from repro.core.quantify import profile
from repro.generators.random_logic import random_logic
from repro.obs import Tracer, set_tracer
from repro.partial.extraction import make_partial
from repro.partial.mutations import insert_random_error

NAMES = ["w%d" % i for i in range(7)]

#: One random function: a starting constant, then 1-4 steps, each
#: combining it with a (possibly negated) variable by AND, OR or XOR.
FUNCTION = st.tuples(
    st.booleans(),
    st.lists(st.tuples(st.sampled_from(NAMES), st.booleans(),
                       st.integers(0, 2)), min_size=1, max_size=4))
FUNCTIONS = st.lists(FUNCTION, min_size=1, max_size=6)
QVARS = st.lists(st.sampled_from(NAMES), unique=True)


def build(bdd, spec):
    constant, steps = spec
    f = bdd.constant(constant)
    for name, negate, op in steps:
        v = ~bdd.var(name) if negate else bdd.var(name)
        f = f & v if op == 0 else (f | v if op == 1 else f ^ v)
    return f


def random_functions(bdd, rng, count):
    fns = []
    for _ in range(count):
        f = bdd.constant(rng.random() < 0.5)
        for name in rng.sample(NAMES, rng.randint(1, 4)):
            v = bdd.var(name)
            op = rng.randrange(3)
            f = f & v if op == 0 else (f | v if op == 1 else f ^ v)
        fns.append(f)
    return fns


class TestExistsConj:
    def test_empty_function_list(self):
        bdd = Bdd()
        bdd.add_vars(NAMES)
        assert exists_conj(bdd, [], NAMES).is_true

    def test_no_variables(self):
        bdd = Bdd()
        bdd.add_vars(NAMES)
        a, b = bdd.var("w0"), bdd.var("w1")
        assert exists_conj(bdd, [a, b], []) == (a & b)

    def test_early_false(self):
        bdd = Bdd()
        bdd.add_vars(NAMES)
        a = bdd.var("w0")
        assert exists_conj(bdd, [a, ~a], NAMES).is_false

    @pytest.mark.parametrize("seed", range(20))
    def test_matches_monolithic(self, seed):
        rng = random.Random(seed)
        bdd = Bdd()
        bdd.add_vars(NAMES)
        fns = random_functions(bdd, rng, rng.randint(1, 6))
        qvars = rng.sample(NAMES, rng.randint(0, len(NAMES)))
        reference = bdd.conj(fns).exists(qvars)
        assert exists_conj(bdd, fns, qvars) == reference

    def test_disjoint_buckets_never_conjoined(self):
        """With disjoint supports, intermediates stay small: the result
        equals the product of independently quantified factors."""
        bdd = Bdd()
        bdd.add_vars(NAMES)
        f = bdd.var("w0") & bdd.var("w1")
        g = bdd.var("w2") | bdd.var("w3")
        result = exists_conj(bdd, [f, g], ["w0", "w2"])
        assert result == (f.exists(["w0"]) & g.exists(["w2"]))

    def test_buckets_of_one_and_of_several(self):
        """A one-member bucket is quantified alone; a bucket of several
        fuses its last conjunction through ``and_exists``."""
        bdd = Bdd()
        bdd.add_vars(NAMES)
        f = bdd.var("w0") & bdd.var("w1")
        g = bdd.var("w1") | bdd.var("w2")
        h = bdd.var("w3") ^ bdd.var("w4")
        tracer = Tracer()
        previous = set_tracer(tracer)
        try:
            result = exists_conj(bdd, [f, g, h], ["w1", "w3"])
        finally:
            set_tracer(previous)
        buckets = sorted(event["args"]["bucket"] for event in tracer.events
                         if event["name"] == "quant_pick")
        assert buckets == [1, 2]
        assert bdd.cache_stats()["ops"]["and_exists"]["misses"] > 0
        assert result == (f & g & h).exists(["w1", "w3"])

    @settings(max_examples=200, deadline=None)
    @given(FUNCTIONS, QVARS)
    def test_matches_monolithic_property(self, specs, qvars):
        bdd = Bdd()
        bdd.add_vars(NAMES)
        fns = [build(bdd, spec) for spec in specs]
        assert exists_conj(bdd, fns, qvars) == bdd.conj(fns).exists(qvars)

    @settings(max_examples=100, deadline=None)
    @given(FUNCTIONS, st.lists(st.tuples(FUNCTIONS, QVARS),
                               min_size=2, max_size=4))
    def test_shared_profiles_survive_garbage_collection(self, shared_specs,
                                                        calls):
        """One profile table serves several calls.  Collecting garbage
        between them frees the previous call's nodes and ``mk`` reuses
        their ids, so a table keyed by node id would go stale."""
        bdd = Bdd()
        bdd.add_vars(NAMES)
        shared = profile(build(bdd, spec) for spec in shared_specs)
        for specs, qvars in calls:
            bdd.collect_garbage()
            fns = [build(bdd, spec) for spec in specs]
            reference = bdd.conj([op.function for op in shared] + fns)
            assert exists_conj(bdd, fns, qvars, profiled=shared) \
                == reference.exists(qvars)
            del fns, reference


@pytest.mark.parametrize("num_boxes", [1, 2])
@pytest.mark.parametrize("seed", range(6))
def test_cond_prime_matches_monolithic(num_boxes, seed):
    """``build_cond_prime`` equals ``¬∃x (H ∧ ¬⋀_j cond_j)`` built in one
    relational product, on clean and erroneous random partials."""
    spec = random_logic(6, 3, 18, seed=seed)
    impl = spec if seed % 2 == 0 \
        else insert_random_error(spec, random.Random(seed))[0]
    partial = make_partial(impl, fraction=0.3, num_boxes=num_boxes,
                           seed=seed)
    ctx = prepare_context(spec, partial)
    cond_prime, _groups = build_cond_prime(ctx)
    bdd = ctx.bdd
    h_fns = _box_input_functions(ctx)
    h = bdd.conj(bdd.var(box_input_var_name(box.name, position)).equiv(fn)
                 for box in partial.boxes
                 for position, fn in enumerate(h_fns[box.name]))
    legal = bdd.conj(ctx.conditions())
    assert cond_prime == ~h.and_exists(~legal, ctx.input_names)


class TestForallDisj:
    @pytest.mark.parametrize("seed", range(10))
    def test_matches_monolithic(self, seed):
        rng = random.Random(seed + 100)
        bdd = Bdd()
        bdd.add_vars(NAMES)
        fns = random_functions(bdd, rng, rng.randint(1, 5))
        qvars = rng.sample(NAMES, rng.randint(0, 4))
        reference = bdd.disj(fns).forall(qvars)
        assert forall_disj(bdd, fns, qvars) == reference


def test_conditions_built_once_per_context():
    """Output exact and input exact on one context share ``cond_j``."""
    spec = random_logic(6, 3, 18, seed=0)
    ctx = prepare_context(spec, make_partial(spec, fraction=0.3, seed=0))
    first = ctx.conditions()
    assert ctx.conditions() is first
    assert first == [g.equiv(f) for g, f in zip(ctx.impl_outputs,
                                                ctx.spec_outputs)]
