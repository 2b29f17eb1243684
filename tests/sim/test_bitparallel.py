"""Differential tests: packed (bit-parallel) vs scalar ternary engine.

The packed engine must be a pure accelerator: same values on every
net for every pattern, and — through ``check_random_patterns`` — the
same verdict, counterexample, failing output and tried count as the
historic scalar sweep.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.circuit.gates import GateType
from repro.circuit.netlist import Circuit, CircuitError
from repro.core.random_pattern import check_random_patterns
from repro.generators.benchmarks import BENCHMARK_FACTORIES
from repro.partial.blackbox import PartialImplementation
from repro.partial.extraction import make_partial
from repro.partial.mutations import insert_random_error
from repro.sim.bitparallel import (pack_patterns, simulate_packed,
                                   unpack_value)
from repro.sim.logic3 import ONE, X, ZERO
from repro.sim.ternary import simulate_ternary

_GATES = [GateType.AND, GateType.OR, GateType.NAND, GateType.NOR,
          GateType.XOR, GateType.XNOR, GateType.NOT, GateType.BUF]


def _random_circuit(rng, n_inputs=4, n_gates=12, n_free=2):
    """A random netlist with some free nets (Black Box outputs)."""
    c = Circuit("rand")
    nets = c.add_inputs("i%d" % k for k in range(n_inputs))
    free = ["bb%d" % k for k in range(n_free)]
    nets = nets + free  # free nets: referenced but never driven
    for k in range(n_gates):
        gtype = rng.choice(_GATES)
        arity = 1 if gtype in (GateType.NOT, GateType.BUF) \
            else rng.randint(2, 3)
        ins = [rng.choice(nets) for _ in range(arity)]
        nets.append(c.add_gate("g%d" % k, gtype, ins))
    for net in rng.sample(nets[n_inputs:], 3):
        c.add_output(net)
    return c


@settings(max_examples=50, deadline=None)
@given(st.integers(min_value=0, max_value=10_000),
       st.integers(min_value=1, max_value=40))
def test_packed_matches_scalar_on_random_netlists(seed, n_patterns):
    rng = random.Random(seed)
    circuit = _random_circuit(rng)
    assignments = [
        {name: bool(rng.getrandbits(1)) for name in circuit.inputs}
        for _ in range(n_patterns)]
    packed = simulate_packed(circuit, pack_patterns(circuit.inputs,
                                                    assignments),
                             n_patterns, all_nets=True)
    for p, assignment in enumerate(assignments):
        scalar = simulate_ternary(
            circuit, {k: int(v) for k, v in assignment.items()},
            all_nets=True)
        for net, expected in scalar.items():
            assert unpack_value(packed[net], p) == expected, \
                (net, p, seed)


def test_packed_free_net_override_matches_scalar():
    rng = random.Random(7)
    circuit = _random_circuit(rng)
    n = 8
    assignments = [
        {name: bool(rng.getrandbits(1)) for name in circuit.inputs}
        for _ in range(n)]
    packed_in = pack_patterns(circuit.inputs, assignments)
    # Pin one Black Box output to constant 1 in both engines.
    packed_in["bb0"] = ((1 << n) - 1, 0)
    packed = simulate_packed(circuit, packed_in, n)
    for p, assignment in enumerate(assignments):
        scalar_in = {k: int(v) for k, v in assignment.items()}
        scalar_in["bb0"] = ONE
        scalar = simulate_ternary(circuit, scalar_in)
        for net in circuit.outputs:
            assert unpack_value(packed[net], p) == scalar[net]


def test_packed_missing_input_raises():
    rng = random.Random(1)
    circuit = _random_circuit(rng)
    with pytest.raises(CircuitError):
        simulate_packed(circuit, {}, 4)


def test_unpack_value_decodes_all_three():
    assert unpack_value((0b01, 0b10), 0) == ONE
    assert unpack_value((0b01, 0b10), 1) == ZERO
    assert unpack_value((0b01, 0b10), 2) == X


@pytest.mark.parametrize("circuit_name", ["alu4", "comp"])
@pytest.mark.parametrize("case_seed", [0, 1, 2])
def test_check_engines_agree_end_to_end(circuit_name, case_seed):
    """Both engines of the r.p. check return identical CheckResults."""
    spec = BENCHMARK_FACTORIES[circuit_name]()
    partial = make_partial(spec, fraction=0.2, num_boxes=2,
                           seed=case_seed)
    mutated, _ = insert_random_error(partial.circuit,
                                     random.Random(case_seed + 3))
    impl = PartialImplementation(mutated, partial.boxes)
    scalar = check_random_patterns(spec, impl, patterns=400,
                                   seed=case_seed, engine="scalar")
    packed = check_random_patterns(spec, impl, patterns=400,
                                   seed=case_seed, engine="packed")
    assert scalar.error_found == packed.error_found
    assert scalar.counterexample == packed.counterexample
    assert scalar.failing_output == packed.failing_output
    assert scalar.stats["patterns"] == packed.stats["patterns"]
    assert scalar.detail == packed.detail


def test_unknown_engine_rejected():
    spec = BENCHMARK_FACTORIES["comp"]()
    partial = make_partial(spec, fraction=0.2, num_boxes=1, seed=0)
    with pytest.raises(ValueError):
        check_random_patterns(spec, partial, patterns=10, engine="simd")


#: One below, at and above one and two 64-bit words, plus odd sizes.
BATCH_SIZES = (1, 63, 64, 65, 127, 128, 129, 200, 256)


@pytest.mark.parametrize("n_patterns", BATCH_SIZES)
def test_packed_matches_scalar_across_batch_sizes(n_patterns):
    """Pinned-seed regression at batch sizes straddling machine words:
    every pattern's packed value equals the scalar engine's, and no
    bit past the batch is ever set on either rail (a stray ``~`` would
    invent definite values for patterns that do not exist)."""
    rng = random.Random(20_260_809)
    circuit = _random_circuit(rng, n_gates=30, n_free=3)
    assignments = [
        {name: bool(rng.getrandbits(1)) for name in circuit.inputs}
        for _ in range(n_patterns)]
    packed = simulate_packed(circuit,
                             pack_patterns(circuit.inputs, assignments),
                             n_patterns, all_nets=True)
    top = 1 << n_patterns
    for one, zero in packed.values():
        assert 0 <= one < top and 0 <= zero < top
    for p, assignment in enumerate(assignments):
        scalar = simulate_ternary(
            circuit, {k: int(v) for k, v in assignment.items()},
            all_nets=True)
        for net, expected in scalar.items():
            assert unpack_value(packed[net], p) == expected, (net, p)
