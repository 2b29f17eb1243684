"""Shared plumbing for the symbolic checks.

All symbolic checks need the same ingredients: a BDD with one variable
per primary input, the specification output functions ``f_j``, and — for
the Z_i-based checks — the implementation output functions ``g_j`` over
primary inputs and one fresh ``Z`` variable per Black Box output.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..bdd import Bdd, Function, default_bdd
from ..circuit.netlist import Circuit, CircuitError
from ..partial.blackbox import PartialImplementation
from ..sim.symbolic import symbolic_simulate

__all__ = ["z_var_name", "box_input_var_name", "SymbolicContext",
           "prepare_context"]


def z_var_name(net: str) -> str:
    """BDD variable standing for the Black Box output net ``net``."""
    return "Z:" + net


def box_input_var_name(box_name: str, position: int) -> str:
    """BDD variable for input pin ``position`` of box ``box_name``."""
    return "I:%s:%d" % (box_name, position)


@dataclass
class SymbolicContext:
    """Everything the Z_i-simulation checks work from.

    ``spec_outputs[j]`` and ``impl_outputs[j]`` correspond positionally;
    ``z_vars`` maps each Black Box output net to its ``Z`` variable name.
    """

    bdd: Bdd
    spec: Circuit
    partial: PartialImplementation
    spec_outputs: List[Function]
    impl_outputs: List[Function]
    z_vars: Dict[str, str]
    _conditions: Optional[List[Function]] = field(
        default=None, init=False, repr=False, compare=False)

    @property
    def input_names(self) -> List[str]:
        """Primary input variable names (shared by spec and impl)."""
        return self.spec.inputs

    @property
    def z_names(self) -> List[str]:
        """All Z variable names, in box order."""
        return [self.z_vars[net] for net in self.partial.box_outputs]

    def conditions(self) -> List[Function]:
        """The per-output legality conditions ``cond_j = g_j ↔ f_j``.

        Built on first use and kept: the context is never mutated, and
        the exact checks on one manager share the same conditions.
        """
        if self._conditions is None:
            self._conditions = [g.equiv(f) for g, f in
                                zip(self.impl_outputs, self.spec_outputs)]
        return self._conditions


def prepare_context(spec: Circuit, partial: PartialImplementation,
                    bdd: Optional[Bdd] = None) -> SymbolicContext:
    """Build BDDs for spec and implementation outputs (Z_i simulation).

    Declares primary-input variables in circuit order, then one ``Z``
    variable per Black Box output in box-topological order.
    """
    if spec.free_nets():
        raise CircuitError("specification must be a complete circuit")
    partial.validate_against(spec)
    if bdd is None:
        bdd = default_bdd()

    spec_fns = symbolic_simulate(spec, bdd)
    spec_outputs = [spec_fns[net] for net in spec.outputs]

    z_vars: Dict[str, str] = {}
    free_functions: Dict[str, Function] = {}
    for net in partial.box_outputs:
        name = z_var_name(net)
        z_vars[net] = name
        free_functions[net] = (bdd.var(name) if bdd.has_var(name)
                               else bdd.add_var(name))
    impl_fns = symbolic_simulate(partial.circuit, bdd,
                                 free_functions=free_functions)
    impl_outputs = [impl_fns[net] for net in partial.circuit.outputs]
    return SymbolicContext(bdd, spec, partial, spec_outputs, impl_outputs,
                           z_vars)
