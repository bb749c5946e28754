"""Dense statevector simulator for both circuit levels.

Every gate of either level has a real matrix, so states are numpy float64
vectors of length 2**n with qubit 0 as the most significant index bit.
Gates update the amplitudes in place through reshaped views that pair
the two values of the target bit, so no 2**n x 2**n matrix is ever built.

``run`` starts narrow. A qubit that no gate has touched yet is exactly
|0>, so ``run`` keeps only the 2**w amplitudes of qubits 0..w-1, where
w - 1 is the highest qubit touched so far. When a gate first reaches a
higher qubit, the state widens by interleaving zeros, and it widens to
the full register at the end. This is exact for any circuit; synthesized
circuits touch qubits in order, so most of their gates run on small
states. Width is capped at 24 qubits (a 128 MiB state).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .ir import Circuit, Gate, GateKind

QUBIT_CAP = 24

_SQRT_HALF = 1.0 / math.sqrt(2.0)


@dataclass
class StateVector:
    n_qubits: int
    amps: np.ndarray

    def copy(self) -> StateVector:
        return StateVector(self.n_qubits, self.amps.copy())


def _check_width(n_qubits: int) -> None:
    if not 1 <= n_qubits <= QUBIT_CAP:
        raise ValueError(f"qubit count {n_qubits} outside 1..{QUBIT_CAP}")


def init_zero(n_qubits: int) -> StateVector:
    """The all-zeros basis state on n_qubits qubits."""
    _check_width(n_qubits)
    amps = np.zeros(1 << n_qubits)
    amps[0] = 1.0
    return StateVector(n_qubits, amps)


def _coefficients(gate: Gate) -> tuple[float, float, float, float]:
    """Entries a, b, c, d of the real target matrix [[a, b], [c, d]]."""
    kind = gate.kind
    if kind is GateKind.H or kind is GateKind.ZERO_CH:
        return _SQRT_HALF, _SQRT_HALF, _SQRT_HALF, -_SQRT_HALF
    if kind is GateKind.RY:
        c = math.cos(gate.angle / 2.0)
        s = math.sin(gate.angle / 2.0)
        return c, -s, s, c
    if kind is GateKind.G or kind is GateKind.CG:
        p = float(gate.prob)
        sp = math.sqrt(p)
        sq = math.sqrt(1.0 - p)
        return sp, -sq, sq, sp
    raise ValueError(f"no target matrix for {kind.name}")


def _halves(amps: np.ndarray, gate: Gate, n_qubits: int) -> tuple[np.ndarray, np.ndarray]:
    """Views of the amplitudes with the target bit 0 and 1.

    For a controlled gate, only those with the control bit at its active
    value: 0 for ZERO_CH, 1 for every other kind.
    """
    t, c = gate.target, gate.control
    if c is None:
        view = amps.reshape(1 << t, 2, 1 << (n_qubits - t - 1))
        return view[:, 0], view[:, 1]
    lo, hi = min(c, t), max(c, t)
    view = amps.reshape(1 << lo, 2, 1 << (hi - lo - 1), 2, 1 << (n_qubits - hi - 1))
    active = 0 if gate.kind is GateKind.ZERO_CH else 1
    if c < t:
        sub = view[:, active]
        return sub[:, :, 0], sub[:, :, 1]
    sub = view[:, :, :, active]
    return sub[:, 0], sub[:, 1]


def _apply_inplace(amps: np.ndarray, gate: Gate, n_qubits: int) -> None:
    x0, x1 = _halves(amps, gate, n_qubits)
    kind = gate.kind
    if kind is GateKind.Z or kind is GateKind.CZ:
        x1 *= -1.0
    elif kind is GateKind.X or kind is GateKind.CNOT:
        old0 = x0.copy()
        x0[...] = x1
        x1[...] = old0
    else:
        a, b, c, d = _coefficients(gate)
        new0 = a * x0 + b * x1
        x1[...] = c * x0 + d * x1
        x0[...] = new0


def apply(state: StateVector, gate: Gate) -> StateVector:
    """Apply one gate, returning a new state. The input is not modified."""
    for q in gate.qubits:
        if q >= state.n_qubits:
            raise ValueError(f"qubit {q} out of range for {state.n_qubits} qubits")
    out = state.amps.copy()
    _apply_inplace(out, gate, state.n_qubits)
    return StateVector(state.n_qubits, out)


def _widen(amps: np.ndarray, width: int, new_width: int) -> np.ndarray:
    """The same state with qubits width..new_width-1 appended in |0>."""
    if new_width == width:
        return amps
    out = np.zeros(1 << new_width)
    out[:: 1 << (new_width - width)] = amps
    return out


def run(circuit: Circuit) -> StateVector:
    """Simulate the circuit from the all-zeros state."""
    n = circuit.n_qubits
    _check_width(n)
    amps = np.ones(1)
    width = 0
    for gate in circuit.gates:
        reach = max(gate.qubits) + 1
        if reach > width:
            amps = _widen(amps, width, reach)
            width = reach
        _apply_inplace(amps, gate, width)
    norm = float(np.linalg.norm(amps))
    if not abs(norm - 1.0) < 1e-10:
        raise RuntimeError(f"state norm {norm!r} after {len(circuit)} gates is not 1")
    return StateVector(n, _widen(amps, width, n))


def uniform_distance(state: StateVector, N: int) -> float:
    """Max deviation from the uniform superposition over indices 0..N-1.

    Compares against the vector with amplitude 1/sqrt(N) on the first N
    basis indices and 0 elsewhere, and returns the largest |difference|.
    """
    if N < 1:
        raise ValueError(f"N must be a positive integer, got {N}")
    amps = state.amps
    if N > amps.size:
        raise ValueError(f"N={N} exceeds the state dimension {amps.size}")
    head = np.max(np.abs(amps[:N] - 1.0 / math.sqrt(N)))
    tail = np.max(np.abs(amps[N:]), initial=0.0)
    return float(max(head, tail))
