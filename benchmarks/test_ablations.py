"""Ablation benchmarks for the design choices called out in DESIGN.md.

Each pair times the same computation with a feature on and off:

* scheduled quantification (bucket elimination) vs monolithic conjoin,
* dynamic variable reordering vs static order,
* warm-started (pre-sifted) input order vs declaration order,
* connected vs scattered Black Box selection (detection-quality
  ablation, printed rather than asserted).
"""

import random

import pytest

from repro.bdd import Bdd, default_bdd
from repro.core import exists_conj, prepare_context
from repro.core.output_exact import output_exact_from_context
from repro.experiments.runner import _tune_spec
from repro.generators import alu4_like, c880_like, term1_like
from repro.partial import (PartialImplementation, insert_random_error,
                           make_partial)


@pytest.fixture(scope="module")
def ecc_case():
    """A many-output instance: the C499 error corrector (32 outputs)
    with a carved box, mutated.  The distributed form runs one bucket
    elimination per output and skips each output whose condition is a
    tautology; the monolithic form builds the legality relation over
    all outputs and runs one relational product.  Neither always does
    less work: on this case the one product was the faster."""
    from repro.generators.ecc import c499_like

    spec, _ = _tune_spec(c499_like())
    partial = make_partial(spec, fraction=0.1, num_boxes=1, seed=9)
    mutated, _ = insert_random_error(partial.circuit, random.Random(2))
    return spec, PartialImplementation(mutated, partial.boxes)


def _monolithic_cond_prime(ctx):
    """The textbook construction: build the full legality relation and
    run one big relational product."""
    from repro.core.common import box_input_var_name
    from repro.core.input_exact import _box_input_functions
    from repro.core.output_exact import legal_z_relation

    bdd = ctx.bdd
    cond = legal_z_relation(ctx)
    h_all = bdd.true
    for box in ctx.partial.boxes:
        for position, h in enumerate(
                _box_input_functions(ctx)[box.name]):
            name = box_input_var_name(box.name, position)
            i_var = bdd.var(name) if bdd.has_var(name) \
                else bdd.add_var(name)
            h_all = h_all & i_var.equiv(h)
    return ~h_all.and_exists(~cond, ctx.input_names)


class TestQuantificationScheduling:
    """Distributed per-output cond' (with tautology skipping and bucket
    elimination) vs the monolithic legality-relation construction."""

    def test_bench_scheduled(self, benchmark, ecc_case):
        from repro.core.input_exact import build_cond_prime

        spec, partial = ecc_case

        def scheduled():
            ctx = prepare_context(spec, partial, default_bdd())
            return build_cond_prime(ctx)[0]

        benchmark.pedantic(scheduled, rounds=1, iterations=1)

    def test_bench_monolithic(self, benchmark, ecc_case):
        spec, partial = ecc_case

        def monolithic():
            ctx = prepare_context(spec, partial, default_bdd())
            return _monolithic_cond_prime(ctx)

        benchmark.pedantic(monolithic, rounds=1, iterations=1)

    def test_results_agree(self, ecc_case):
        from repro.core.input_exact import build_cond_prime

        spec, partial = ecc_case
        ctx = prepare_context(spec, partial, default_bdd())
        assert build_cond_prime(ctx)[0] == _monolithic_cond_prime(ctx)


class TestDynamicReordering:
    """Sifting on vs off under a hostile declaration order.

    A comparator declared all-a's-then-all-b's has exponential BDDs in
    that order; dynamic sifting recovers the interleaved linear order.
    """

    @staticmethod
    def _hostile_spec():
        from repro.generators.comparator import magnitude_comparator

        spec = magnitude_comparator(13)
        return spec.with_input_order(
            [n for n in spec.inputs if n.startswith("a")]
            + [n for n in spec.inputs if n.startswith("b")])

    def _build(self, bdd):
        from repro.sim import symbolic_simulate

        spec = self._hostile_spec()
        fns = symbolic_simulate(spec, bdd)
        return bdd.manager.size([fns[n].node for n in spec.outputs])

    def test_bench_with_reordering(self, benchmark, capsys):
        bdd = Bdd(auto_reorder=True, initial_reorder_threshold=5000)
        size = benchmark.pedantic(lambda: self._build(bdd),
                                  rounds=1, iterations=1)
        with capsys.disabled():
            print("\nspec nodes with sifting: %d (peak %d)"
                  % (size, bdd.peak_live_nodes))

    def test_bench_without_reordering(self, benchmark, capsys):
        bdd = Bdd(auto_reorder=False)
        size = benchmark.pedantic(lambda: self._build(bdd),
                                  rounds=1, iterations=1)
        with capsys.disabled():
            print("\nspec nodes without sifting: %d (peak %d)"
                  % (size, bdd.peak_live_nodes))

    def test_reordering_shrinks_hostile_order(self):
        with_r = Bdd(auto_reorder=True, initial_reorder_threshold=5000)
        without = Bdd(auto_reorder=False)
        assert self._build(with_r) < self._build(without) / 4


class TestWarmStartedOrder:
    def test_bench_tuned_order(self, benchmark):
        spec, _ = _tune_spec(c880_like())
        partial = make_partial(spec, fraction=0.1, num_boxes=1, seed=3)

        def check():
            ctx = prepare_context(spec, partial, default_bdd())
            return output_exact_from_context(ctx)

        benchmark.pedantic(check, rounds=1, iterations=1)

    def test_bench_declaration_order(self, benchmark):
        spec = c880_like()
        partial = make_partial(spec, fraction=0.1, num_boxes=1, seed=3)

        def check():
            ctx = prepare_context(spec, partial, default_bdd())
            return output_exact_from_context(ctx)

        benchmark.pedantic(check, rounds=1, iterations=1)


class TestBoxSelectionStrategy:
    @pytest.mark.parametrize("connected", [True, False],
                             ids=["connected", "scattered"])
    def test_bench_detection_by_strategy(self, benchmark, connected,
                                         capsys):
        """Connected boxes have narrow interfaces; scattered boxes see
        more signals, changing both cost and what each check can
        conclude.  Printed for inspection."""
        spec = term1_like()

        def campaign():
            from repro.core import check_input_exact, check_output_exact

            partial = make_partial(spec, fraction=0.1, num_boxes=2,
                                   seed=9, connected=connected)
            rng = random.Random(5)
            found = {"oe": 0, "ie": 0}
            for _ in range(4):
                mutated, _ = insert_random_error(partial.circuit, rng)
                case = PartialImplementation(mutated, partial.boxes)
                found["oe"] += check_output_exact(
                    spec, case).error_found
                found["ie"] += check_input_exact(
                    spec, case).error_found
            return found

        found = benchmark.pedantic(campaign, rounds=1, iterations=1)
        assert found["ie"] >= found["oe"]


class TestWitnessMinimization:
    """Don't-care minimization of synthesized boxes (S11 + restrict)."""

    @pytest.fixture(scope="class")
    def carved(self):
        from repro.generators.comparator import magnitude_comparator

        spec = magnitude_comparator(8)
        partial = make_partial(spec, fraction=0.25, num_boxes=1, seed=3)
        return spec, partial

    def test_bench_plain_synthesis(self, benchmark, carved):
        from repro.core import synthesize_single_box

        spec, partial = carved
        witness = benchmark.pedantic(
            lambda: synthesize_single_box(spec, partial),
            rounds=1, iterations=1)
        assert witness is not None

    def test_bench_minimized_synthesis(self, benchmark, carved):
        from repro.core import synthesize_single_box

        spec, partial = carved
        witness = benchmark.pedantic(
            lambda: synthesize_single_box(spec, partial, minimize=True),
            rounds=1, iterations=1)
        assert witness is not None

    def test_minimized_is_smaller(self, carved, capsys):
        from repro.core import synthesize_single_box

        spec, partial = carved
        plain = synthesize_single_box(spec, partial)
        small = synthesize_single_box(spec, partial, minimize=True)
        with capsys.disabled():
            print("\nwitness gates: plain %d, minimized %d"
                  % (plain.num_gates, small.num_gates))
        assert small.num_gates <= plain.num_gates
