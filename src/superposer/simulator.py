"""Dense statevector simulator for both circuit levels.

States are numpy complex128 vectors of length 2**n with qubit 0 as the
most significant index bit. Gates are applied by slicing amplitude pairs
along the target axis, so no 2**n x 2**n matrix is ever built. Width is
capped at 24 qubits (a 256 MiB state).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .ir import Circuit, Gate, GateKind

QUBIT_CAP = 24

_SQRT_HALF = 1.0 / math.sqrt(2.0)
_H = np.array([[_SQRT_HALF, _SQRT_HALF], [_SQRT_HALF, -_SQRT_HALF]])
_X = np.array([[0.0, 1.0], [1.0, 0.0]])
_Z = np.array([[1.0, 0.0], [0.0, -1.0]])

# Which control value activates the target operation.
_CONTROL_VALUE = {GateKind.CG: 1, GateKind.CNOT: 1, GateKind.ZERO_CH: 0}


@dataclass
class StateVector:
    n_qubits: int
    amps: np.ndarray

    def norm(self) -> float:
        return float(np.linalg.norm(self.amps))

    def copy(self) -> StateVector:
        return StateVector(self.n_qubits, self.amps.copy())


def init_zero(n_qubits: int) -> StateVector:
    """The all-zeros basis state on n_qubits qubits."""
    if not 1 <= n_qubits <= QUBIT_CAP:
        raise ValueError(f"qubit count {n_qubits} outside 1..{QUBIT_CAP}")
    amps = np.zeros(1 << n_qubits, dtype=np.complex128)
    amps[0] = 1.0
    return StateVector(n_qubits, amps)


def _target_matrix(gate: Gate) -> np.ndarray:
    kind = gate.kind
    if kind is GateKind.H or kind is GateKind.ZERO_CH:
        return _H
    if kind is GateKind.X or kind is GateKind.CNOT:
        return _X
    if kind is GateKind.Z:
        return _Z
    if kind is GateKind.RY:
        c = math.cos(gate.angle / 2.0)
        s = math.sin(gate.angle / 2.0)
        return np.array([[c, -s], [s, c]])
    if kind is GateKind.G or kind is GateKind.CG:
        p = float(gate.prob)
        sp = math.sqrt(p)
        sq = math.sqrt(1.0 - p)
        return np.array([[sp, -sq], [sq, sp]])
    raise ValueError(f"no target matrix for {kind.name}")


def _mix_pairs(sub: np.ndarray, mat: np.ndarray) -> None:
    # sub has the target qubit as axis 0; mix the two half-spaces.
    new0 = mat[0, 0] * sub[0] + mat[0, 1] * sub[1]
    new1 = mat[1, 0] * sub[0] + mat[1, 1] * sub[1]
    sub[0] = new0
    sub[1] = new1


def _apply_inplace(amps: np.ndarray, gate: Gate, n_qubits: int) -> None:
    view = amps.reshape((2,) * n_qubits)
    kind = gate.kind
    if kind is GateKind.CZ:
        # Index through the view in one statement so the write lands in
        # amps even when control and target are the only two axes.
        np.moveaxis(view, (gate.control, gate.target), (0, 1))[1, 1] *= -1.0
        return
    if kind in _CONTROL_VALUE:
        sub = np.moveaxis(view, (gate.control, gate.target), (0, 1))[_CONTROL_VALUE[kind]]
        _mix_pairs(sub, _target_matrix(gate))
        return
    _mix_pairs(np.moveaxis(view, gate.target, 0), _target_matrix(gate))


def apply(state: StateVector, gate: Gate) -> StateVector:
    """Apply one gate, returning a new state. The input is not modified."""
    for q in gate.qubits:
        if q >= state.n_qubits:
            raise ValueError(f"qubit {q} out of range for {state.n_qubits} qubits")
    out = state.amps.copy()
    _apply_inplace(out, gate, state.n_qubits)
    return StateVector(state.n_qubits, out)


def run(circuit: Circuit) -> StateVector:
    """Simulate the circuit from the all-zeros state."""
    state = init_zero(circuit.n_qubits)
    for gate in circuit.gates:
        _apply_inplace(state.amps, gate, circuit.n_qubits)
    norm = state.norm()
    if not abs(norm - 1.0) < 1e-10:
        raise RuntimeError(f"state norm {norm!r} after {len(circuit)} gates is not 1")
    return state


def uniform_distance(state: StateVector, N: int) -> float:
    """Max deviation from the uniform superposition over indices 0..N-1.

    Compares against the vector with amplitude 1/sqrt(N) on the first N
    basis indices and 0 elsewhere, and returns the largest |difference|.
    """
    if N < 1:
        raise ValueError(f"N must be a positive integer, got {N}")
    dim = state.amps.size
    if N > dim:
        raise ValueError(f"N={N} exceeds the state dimension {dim}")
    expected = np.zeros(dim)
    expected[:N] = 1.0 / math.sqrt(N)
    return float(np.max(np.abs(state.amps - expected)))
