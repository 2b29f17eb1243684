"""Bit-parallel (packed) three-valued simulation.

The scalar engine in :mod:`repro.sim.ternary` interprets the netlist
once per pattern — fine for one counterexample, ruinous for the
paper's 5000-pattern random-pattern baseline.  Here every net carries
*two bit-masks over a whole batch of patterns*:

* ``is1`` — bit ``p`` set iff the net is a definite 1 under pattern ``p``
* ``is0`` — bit ``p`` set iff the net is a definite 0 under pattern ``p``

A bit set in neither mask is ``X`` (a bit may never be set in both).
One gate evaluation then costs a handful of arbitrary-precision
integer operations covering the entire batch, so the per-pattern cost
collapses to a few *bit* operations per gate — in practice about two
orders of magnitude faster than the scalar interpreter.

The encoding is the classic dual-rail one from parallel-pattern fault
simulation; the semantics are exactly those of
:func:`repro.sim.logic3.eval_gate3` (pessimistic X propagation), which
the differential tests in ``tests/sim/test_bitparallel.py`` check
pattern by pattern.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Sequence, Tuple

from ..circuit.gates import GateType
from ..circuit.netlist import Circuit, CircuitError
from .logic3 import ONE, X, ZERO, TernaryValue

__all__ = ["PackedValue", "pack_patterns", "simulate_packed",
           "unpack_value"]

#: ``(is1, is0)`` bit-masks of one net over a batch of patterns.
PackedValue = Tuple[int, int]


def pack_patterns(input_names: Sequence[str],
                  assignments: Sequence[Dict[str, bool]])\
        -> Dict[str, PackedValue]:
    """Pack per-pattern boolean input assignments into mask pairs.

    ``assignments[p][name]`` becomes bit ``p`` of ``name``'s masks.
    Inputs are two-valued, so ``is0`` is just the complement of ``is1``
    within the batch.
    """
    full = (1 << len(assignments)) - 1
    packed: Dict[str, PackedValue] = {}
    for name in input_names:
        ones = 0
        for p, assignment in enumerate(assignments):
            if assignment[name]:
                ones |= 1 << p
        packed[name] = (ones, full & ~ones)
    return packed


def unpack_value(value: PackedValue, index: int) -> TernaryValue:
    """Extract pattern ``index`` of a packed net as a ternary scalar."""
    bit = 1 << index
    if value[0] & bit:
        return ONE
    if value[1] & bit:
        return ZERO
    return X


def _eval_packed(gtype: GateType, inputs: List[PackedValue],
                 full: int) -> PackedValue:
    """One gate over the whole batch; mirrors ``eval_gate3``."""
    if gtype is GateType.AND or gtype is GateType.NAND:
        one, zero = full, 0
        for a1, a0 in inputs:
            one &= a1
            zero |= a0
        return (zero, one) if gtype is GateType.NAND else (one, zero)
    if gtype is GateType.OR or gtype is GateType.NOR:
        one, zero = 0, full
        for a1, a0 in inputs:
            one |= a1
            zero &= a0
        return (zero, one) if gtype is GateType.NOR else (one, zero)
    if gtype is GateType.XOR or gtype is GateType.XNOR:
        # Parity is only meaningful where every input is definite;
        # masking with ``definite`` keeps the rest X, which is exactly
        # the pessimistic propagation of the scalar engine.
        definite, parity = full, 0
        for a1, a0 in inputs:
            definite &= a1 | a0
            parity ^= a1
        one = definite & parity
        zero = definite & ~parity
        return (zero, one) if gtype is GateType.XNOR else (one, zero)
    if gtype is GateType.NOT:
        a1, a0 = inputs[0]
        return a0, a1
    if gtype is GateType.BUF:
        return inputs[0]
    if gtype is GateType.CONST0:
        return 0, full
    if gtype is GateType.CONST1:
        return full, 0
    raise ValueError("unknown gate type %r" % gtype)


def simulate_packed(circuit: Circuit,
                    packed_inputs: Dict[str, PackedValue],
                    num_patterns: int,
                    all_nets: bool = False) -> Dict[str, PackedValue]:
    """Ternary simulation of a whole pattern batch in one sweep.

    Same contract as :func:`repro.sim.ternary.simulate_ternary`, lifted
    to mask pairs: primary inputs must all be packed, free nets (Black
    Box outputs) default to all-``X`` unless a mask pair is supplied.
    """
    full = (1 << num_patterns) - 1
    values: Dict[str, PackedValue] = {}
    for net in circuit.inputs:
        try:
            values[net] = packed_inputs[net]
        except KeyError:
            raise CircuitError("missing input value %r" % net) from None
    for net in circuit.free_nets():
        values[net] = packed_inputs.get(net, (0, 0))
    for net in circuit.topological_order():
        gate = circuit.gate(net)
        values[net] = _eval_packed(
            gate.gtype, [values[src] for src in gate.inputs], full)
    if all_nets:
        return values
    return {net: values[net] for net in circuit.outputs}
