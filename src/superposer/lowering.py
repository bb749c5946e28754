"""Lowering of abstract gates onto {H, X, Z, RY, CNOT, CZ}.

Every two-qubit abstract gate is rewritten with exactly one entangling
gate. RY(t) has the matrix ``ir.Gate.entries`` states, with cos(t/2) on its diagonal.

Probability rotation G(p): RY(2 acos(sqrt(p))), exact, with no entangler.

Controlled rotation CG(p), control active on |1>:

    RY(a) target, CNOT control->target, RY(-a) target, with a = asin(sqrt(p)).

    Control |0>: the CNOT is inert and RY(-a) RY(a) = I, so |c=0, t=0> is
    fixed exactly. Control |1>: RY(-a) X RY(a) = [[sin a, cos a],
    [cos a, -sin a]], sending |0> to sqrt(p)|0> + sqrt(1-p)|1>. The
    rewrite therefore matches CG(p) only on inputs whose target is |0>.
    ``lower`` checks this: every CG must target a qubit no earlier gate
    has touched, which synthesis always guarantees.

Zero-controlled Hadamard ZERO_CH, control active on |0>:

    RY(-pi/4) target, CZ control target, Z target, RY(pi/4) target.

    Control |0>: the CZ is inert and RY(pi/4) Z RY(-pi/4) = H (rotating
    the reflection axis of Z by pi/8 yields the Hadamard reflection).
    Control |1>: the CZ contributes a second Z, Z Z = I, and the RY pair
    cancels, leaving the identity with no stray phase. Exact on the whole
    two-qubit space, so no input assumption is needed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .ir import Circuit, Gate, Level, entangler_count

_QUARTER = math.pi / 4.0


@dataclass(frozen=True)
class LoweringReport:
    entanglers_emitted: int


def lower(circuit: Circuit) -> tuple[Circuit, LoweringReport]:
    """Rewrite an abstract circuit into the lowered gate set.

    Gates already in the lowered set pass through unchanged. The report
    counts the entanglers in the output. A CG whose target an earlier
    gate has touched is rejected with its gate index, since its one-CNOT
    rewrite is exact only on a |0> target.
    """
    if not isinstance(circuit, Circuit):
        raise ValueError(f"circuit must be a Circuit, got {type(circuit).__name__}")
    if circuit.level is not Level.ABSTRACT:
        raise ValueError("circuit is already lowered")
    gates: list[Gate] = []
    touched: set[int] = set()
    for i, gate in enumerate(circuit.gates):
        kind, target, control = gate.kind, gate.target, gate.control
        # The kind's facts pick the rewrite: G and CG take a prob, CG and
        # ZERO_CH a control, and every other kind is already lowered.
        if kind.lowered:
            gates.append(gate)
        elif kind.param != "prob":
            gates += (Gate.ry(target, -_QUARTER), Gate.cz(control, target),
                      Gate.z(target), Gate.ry(target, _QUARTER))
        elif control is None:
            gates.append(Gate.ry(target, 2.0 * math.acos(math.sqrt(gate.prob))))
        else:
            if target in touched:
                raise ValueError(
                    f"gate {i}: CG target {target} was touched by an earlier gate, "
                    "but its one-CNOT rewrite needs the target in |0>"
                )
            a = math.asin(math.sqrt(gate.prob))
            gates += (Gate.ry(target, a), Gate.cnot(control, target), Gate.ry(target, -a))
        touched.add(target)
        if control is not None:
            touched.add(control)
    lowered = Circuit(circuit.n_qubits, tuple(gates), Level.LOWERED)
    return lowered, LoweringReport(entangler_count(lowered))
