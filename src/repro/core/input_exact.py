"""Check 5: the input exact check (Theorem 2.1 / equation (1)).

The output exact check implicitly lets every Black Box observe all
primary inputs.  Real boxes read fixed (often internal) signals; a box
whose inputs cannot distinguish two primary-input vectors must produce
the same output for both (Figure 3(b)).  The input exact check models
this precisely.

Construction (Section 2.2.3, notation as in the paper):

* ``cond(x, Z)`` — the legal-output relation of the output exact check.
* For each box ``BB_j`` (in topological order), ``H_j(x, O_1..O_{j-1},
  I_j) = ⋀_k (i_{j,k} ↔ h_{j,k})`` where ``h_{j,k}`` is the function the
  surrounding circuit computes at the box's k-th input pin — already
  available from the Z_i simulation.
* ``cond'(I, O) = ∀x (⋁_j ¬H_j ∨ cond)`` relates box-input observations
  to legal box outputs.
* The check reports **no error** iff

      ∀I₁ ∃O₁ ∀I₂ ∃O₂ … ∀I_b ∃O_b  cond' = 1           (1)

Theorem 2.2: for one Black Box this is exact — no error implies a
replacement exists (and :mod:`repro.core.synthesis` can build it).  For
b ≥ 2 exactness would need the NP-complete relation decomposition of
Theorem 2.1; equation (1) is a provably at-least-as-strong-as-output-
exact approximation.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from ..bdd import Bdd, Function
from ..circuit.netlist import Circuit
from ..partial.blackbox import PartialImplementation
from ..sim.symbolic import symbolic_simulate
from .common import (SymbolicContext, box_input_var_name, prepare_context,
                     z_var_name)
from .output_exact import feasible_inputs
from .quantify import exists_conj, profile
from .result import CheckResult, Stopwatch

__all__ = ["check_input_exact", "input_exact_from_context",
           "build_cond_prime", "prefix_check"]


def _box_input_functions(ctx: SymbolicContext)\
        -> Dict[str, List[Function]]:
    """``h_{j,k}``: the net functions feeding each box, from Z_i sim."""
    free_functions = {net: ctx.bdd.var(ctx.z_vars[net])
                      for net in ctx.partial.box_outputs}
    needed = sorted({net for box in ctx.partial.boxes
                     for net in box.inputs})
    fns = symbolic_simulate(ctx.partial.circuit, ctx.bdd,
                            free_functions=free_functions, nets=needed)
    return {box.name: [fns[net] for net in box.inputs]
            for box in ctx.partial.boxes}


def build_cond_prime(ctx: SymbolicContext)\
        -> Tuple[Function, List[Tuple[List[str], List[str]]]]:
    """Build ``cond'(I, O)`` and the per-box quantifier groups.

    Returns ``(cond', groups)`` where ``groups[j] = (I_j names, O_j
    names)`` in box-topological order.

    The paper identifies the ``∀x`` quantification as the memory peak.
    We never build the monolithic legality relation: since
    ``¬H ∨ ⋀_j cond_j  =  ⋀_j (¬H ∨ cond_j)`` and ``∀`` distributes over
    conjunction,

        cond' = ⋀_j ∀x (¬H ∨ cond_j) = ⋀_j ¬ ∃x (H ∧ ¬cond_j),

    where each ``∃x`` is a scheduled relational product over the factored
    ``H`` (one ``i ↔ h`` equivalence per box input pin).  The factors of
    ``H`` are profiled once and shared by every output's product.
    """
    bdd = ctx.bdd
    h_fns = _box_input_functions(ctx)

    groups: List[Tuple[List[str], List[str]]] = []
    h_parts: List[Function] = []
    for box in ctx.partial.boxes:
        i_names: List[str] = []
        for position, h in enumerate(h_fns[box.name]):
            name = box_input_var_name(box.name, position)
            i_var = bdd.var(name) if bdd.has_var(name) else bdd.add_var(name)
            i_names.append(name)
            h_parts.append(i_var.equiv(h))
        o_names = [z_var_name(net) for net in box.outputs]
        groups.append((i_names, o_names))

    x_names = ctx.input_names
    h_profiles = profile(h_parts)
    cond_prime = bdd.true
    for cond_j in ctx.conditions():
        if cond_j.is_true:
            # Output j matches the spec for every box output — its term
            # ∀x (¬H ∨ 1) is a tautology.  This skip is what makes
            # many-output circuits cheap: only outputs actually touched
            # by a box or an error pay for a relational product.
            continue
        term = ~exists_conj(bdd, [~cond_j], x_names, profiled=h_profiles)
        cond_prime = cond_prime & term
        if cond_prime.is_false:
            break
    return cond_prime, groups


def prefix_check(cond_prime: Function,
                 groups: List[Tuple[List[str], List[str]]])\
        -> Tuple[bool, int]:
    """Evaluate ``∀I₁∃O₁ … ∀I_b∃O_b cond'``.

    Processes the prefix innermost-first.  Returns ``(holds, stage)``
    where ``stage`` is the 1-based index of the box whose ``∀I_j`` level
    first collapsed to false (0 when the check holds).
    """
    current = cond_prime
    for j in range(len(groups) - 1, -1, -1):
        i_names, o_names = groups[j]
        current = current.exists(o_names)
        current = current.forall(i_names)
        if current.is_false:
            return False, j + 1
    return current.is_true, 0 if current.is_true else 1


def input_exact_from_context(ctx: SymbolicContext,
                             explain: bool = False) -> CheckResult:
    """Run the input exact check on a prepared context.

    With ``explain`` a failing single-box check additionally extracts a
    Figure-3(b)-style scenario (an unwinnable box observation with one
    refuting input vector per candidate output) into ``detail``.
    """
    with Stopwatch() as clock:
        cond_prime, groups = build_cond_prime(ctx)
        holds, stage = prefix_check(cond_prime, groups)
        error = not holds

        cex = None
        detail = "equation (1) %s" % ("holds" if holds else
                                      "violated at box %d" % stage)
        if error:
            # Reuse the output exact condition for a primary-input
            # counterexample when one exists at that level already.
            feasible = feasible_inputs(ctx)
            if not feasible.is_true:
                witness = (~feasible).sat_one() or {}
                cex = {net: witness.get(net, False)
                       for net in ctx.spec.inputs}
            else:
                detail += ("; no single-input witness — error only "
                           "visible through box input cones")
            if explain:
                from .explain import explain_input_exact_failure

                scenario = explain_input_exact_failure(ctx)
                if scenario is not None:
                    detail += "\n" + scenario.describe()
    return CheckResult(
        check="input_exact",
        error_found=error,
        exact=ctx.partial.num_boxes <= 1,
        counterexample=cex,
        failing_output=None,
        detail=detail,
        seconds=clock.seconds,
        stats={
            "spec_nodes": ctx.bdd.manager.size(
                [f.node for f in ctx.spec_outputs]),
            "impl_nodes": ctx.bdd.manager.size(
                [g.node for g in ctx.impl_outputs]),
            "cond_prime_nodes": cond_prime.size(),
            "peak_nodes": ctx.bdd.peak_live_nodes,
        },
    )


def check_input_exact(spec: Circuit, partial: PartialImplementation,
                      bdd: Optional[Bdd] = None,
                      explain: bool = False) -> CheckResult:
    """Z_i simulation + input exact check (equation (1)).

    Exact for a single Black Box (Theorem 2.2); strictly stronger than
    the output exact check for any number of topologically ordered
    boxes.  ``explain`` adds a human-readable failure scenario for
    single-box errors (see :mod:`repro.core.explain`).
    """
    ctx = prepare_context(spec, partial, bdd)
    return input_exact_from_context(ctx, explain=explain)
