"""Check 1: non-symbolic 0,1,X simulation with random patterns.

The paper's baseline ("r.p." column, 5000 patterns): simulate the partial
implementation with X at the Black Box outputs; whenever an output is a
*definite* 0/1 that differs from the specification, the error is real —
no box substitution can fix it.
"""

from __future__ import annotations

import itertools
from typing import TYPE_CHECKING, Dict, Optional, Tuple

from ..circuit.netlist import Circuit
from ..partial.blackbox import PartialImplementation
from ..sim.bitparallel import pack_patterns, simulate_packed
from ..sim.logic3 import ONE, ZERO, from_bool
from ..sim.patterns import random_patterns
from ..sim.ternary import simulate_ternary
from .result import CheckResult, Stopwatch

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..resilience.budget import Budget

__all__ = ["check_random_patterns", "ternary_distinguishes"]

#: Pattern budget used in the paper's experiments.
DEFAULT_PATTERNS = 5000

#: Patterns per packed batch; the budget is checkpointed once per
#: batch.  256 keeps the bigint masks one cache line wide-ish.
_CHUNK = 256


def ternary_distinguishes(spec: Circuit, partial: PartialImplementation,
                          assignment: Dict[str, bool]) -> Optional[str]:
    """Does this input pattern prove an error?  Returns the spec output.

    An error is proven when the ternary simulation of the partial
    implementation yields a definite value that differs from the
    specification's value.
    """
    spec_out = spec.evaluate(assignment)
    impl_out = simulate_ternary(
        partial.circuit, {k: from_bool(v) for k, v in assignment.items()})
    for spec_net, impl_net in zip(spec.outputs, partial.circuit.outputs):
        expected = ONE if spec_out[spec_net] else ZERO
        got = impl_out[impl_net]
        if got in (ZERO, ONE) and got != expected:
            return spec_net
    return None


def _packed_sweep(spec: Circuit, partial: PartialImplementation,
                  patterns: int, seed: Optional[int],
                  budget: "Optional[Budget]")\
        -> Tuple[Optional[str], Optional[Dict[str, bool]], int]:
    """Bit-parallel sweep: whole pattern batches per netlist sweep.

    Reports what simulating the stream of :func:`random_patterns` one
    pattern at a time with :func:`ternary_distinguishes` would: the
    first failing pattern, its first failing output in declaration
    order, and the number of patterns tried up to and including it.
    """
    source = random_patterns(spec.inputs, patterns, seed=seed)
    output_pairs = list(zip(spec.outputs, partial.circuit.outputs))
    tried = 0
    while tried < patterns:
        if budget is not None:
            budget.checkpoint("random_pattern")
        chunk = list(itertools.islice(source, _CHUNK))
        if not chunk:
            break
        packed = pack_patterns(spec.inputs, chunk)
        spec_out = simulate_packed(spec, packed, len(chunk))
        impl_out = simulate_packed(partial.circuit, packed, len(chunk))
        combined = 0
        errors = []
        for spec_net, impl_net in output_pairs:
            spec1, spec0 = spec_out[spec_net]
            impl1, impl0 = impl_out[impl_net]
            # Definite disagreement: the implementation is a hard 0/1
            # that contradicts the specification's value.
            err = (spec1 & impl0) | (spec0 & impl1)
            errors.append((spec_net, err))
            combined |= err
        if combined:
            first = (combined & -combined).bit_length() - 1
            bit = 1 << first
            for spec_net, err in errors:
                if err & bit:
                    return spec_net, chunk[first], tried + first + 1
        tried += len(chunk)
    return None, None, tried


def check_random_patterns(spec: Circuit, partial: PartialImplementation,
                          patterns: int = DEFAULT_PATTERNS,
                          seed: Optional[int] = None,
                          budget: "Optional[Budget]" = None)\
        -> CheckResult:
    """Random-pattern 0,1,X check (approximate, cheapest).

    Never reports a false error; misses any error that needs either a
    specific rare pattern or reasoning beyond the X abstraction.  An
    optional ``budget`` is checkpointed every few hundred patterns so a
    wall-clock deadline can interrupt very large pattern counts.

    The netlist is swept once per 256-pattern batch with bit-parallel
    mask arithmetic (:mod:`repro.sim.bitparallel`).
    """
    partial.validate_against(spec)
    with Stopwatch() as clock:
        failing, cex, tried = _packed_sweep(spec, partial, patterns, seed,
                                            budget)
    return CheckResult(
        check="random_pattern",
        error_found=failing is not None,
        exact=False,
        counterexample=cex,
        failing_output=failing,
        detail="%d of %d patterns simulated" % (tried, patterns),
        seconds=clock.seconds,
        stats={"patterns": tried},
    )
