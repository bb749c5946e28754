"""Dense statevector simulator for both circuit levels.

Every gate of either level has a real matrix, ``ir.Gate.entries``, so states are
numpy float64 vectors of length 2**n with qubit 0 as the most significant index bit.
Gates update the amplitudes in place through reshaped views that pair
the two values of the target bit, so no 2**n x 2**n matrix is ever built.

``run`` starts narrow. A qubit that no gate has touched yet is exactly
|0>, so ``run`` keeps only the 2**w amplitudes of qubits 0..w-1, where
w - 1 is the highest qubit touched so far. When a gate first reaches a
higher qubit, the state widens by interleaving zeros, and it widens to
the full register at the end. Past 2**16 amplitudes the state is the
prefix of one 2**n register, which ``run`` returns; each widening spreads
it there in place, so none holds two states. A narrow widening by one
qubit writes an uncontrolled first mix on that qubit with the zeros, and
CZ(c, t); Z(t) is one flip where c = 0. All this is exact, zero signs
included, for any circuit; synthesized circuits touch qubits in order, so
most of their gates run on small states. Width is capped at 24 qubits (a
128 MiB state).

On states of at most 2**16 amplitudes a gate is three whole-array numpy
expressions. A wider state is walked in blocks of 2**15 amplitudes
(256 KiB), which qubits 0..n-16 pick. A gate whose target lies inside a
block runs on single blocks, one whose target picks the block on pairs
of blocks. H, RY, G, CG and ZERO_CH gates whose pairs lie at most 2**11
amplitudes apart copy each block with the two halves of every pair
swapped and add the products of the copy and the block with per-gate
patterns of the matrix entries, so every ufunc is one long loop. Other
gates run in-place ufuncs on the halves of each block or pair through
two block-sized buffers. No temporary grows with the state, and each
block stays in cache. All paths make the same IEEE products and sums
(x + y is y + x exactly), so they give the same amplitudes bit for bit.

A wide ``run`` also keeps one bool per block, False where the block
holds only zeros, and skips the dead blocks and the pairs of dead
blocks; each widening sets the map from the state. This is exact: every
gate coefficient is finite, so a gate would only write zeros there, and
skipping can change at most the sign of a zero. Synthesized circuits
leave most blocks dead for most of their gates: the CG chain keeps one
nonzero per split block, and the ZERO_CH walk spreads them slowly.
``apply`` counts every block of a wide state live.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from .ir import Circuit, Gate
from .synthesis import split

QUBIT_CAP = 24

_BLOCK_BITS = 15
_BLOCK = 1 << _BLOCK_BITS
# The swapped copy beats the buffered ufuncs once the pairs lie 2**11 or
# fewer amplitudes apart: per-target timings at 20 qubits, RY, CG and ZERO_CH.
_CHUNK_REACH_BITS = 11
_Kernel = Callable[[np.ndarray], None]


@dataclass(frozen=True)
class StateVector:
    """The 2**n float64 amplitudes of an n-qubit state, n in 1..QUBIT_CAP."""

    amps: np.ndarray

    def __post_init__(self) -> None:
        amps = self.amps
        if (not isinstance(amps, np.ndarray) or amps.ndim != 1 or amps.dtype != np.float64
                or not 2 <= amps.size <= 1 << QUBIT_CAP or amps.size & (amps.size - 1)):
            got = (f"{amps.dtype} array of shape {amps.shape}" if isinstance(amps, np.ndarray)
                   else type(amps).__name__)
            raise ValueError(f"amps must be a 1-D float64 ndarray of 2**n amplitudes, "
                             f"n in 1..{QUBIT_CAP}, got {got}")

    @property
    def n_qubits(self) -> int:
        return self.amps.size.bit_length() - 1

    def copy(self) -> StateVector:
        return StateVector(self.amps.copy())


def init_zero(n_qubits: int) -> StateVector:
    """The all-zeros basis state on n_qubits qubits."""
    return run(Circuit(n_qubits, ()))


def _halves(x: np.ndarray, t: int, c: int | None, active: int | None) -> tuple[np.ndarray, np.ndarray]:
    """Views of x (qubits 0..m-1) with target bit t at 0 and 1 and control bit c, if any, active."""
    m = x.size.bit_length() - 1
    if c is None:
        view = x.reshape(1 << t, 2, 1 << (m - t - 1))
        return view[:, 0], view[:, 1]
    lo, hi = min(c, t), max(c, t)
    view = x.reshape(1 << lo, 2, 1 << (hi - lo - 1), 2, 1 << (m - hi - 1))
    if c < t:
        sub = view[:, active]
        return sub[:, :, 0], sub[:, :, 1]
    sub = view[:, :, :, active]
    return sub[:, 0], sub[:, 1]


def _runs(x: np.ndarray, width: int) -> np.ndarray:
    """A contiguous vector as consecutive runs of `width` amplitudes.

    The shape is (runs, k). Runs of 2 to 8 amplitudes become single byte
    strings (k = 1), so a strided copy of them is one long loop of wide
    items rather than many loops of a few doubles.
    """
    if 1 < width <= 8:
        return x.view(f"S{8 * width}")[:, None]
    return x.reshape(-1, width)


def _pairs(x: np.ndarray, width: int) -> np.ndarray:
    """The runs of ``_runs`` two by two, shape (pairs, 2, k)."""
    runs = _runs(x, width)
    return runs.reshape(-1, 2, runs.shape[1])


def _mix(x: np.ndarray, r: int, low: np.ndarray, high: np.ndarray, swapped: np.ndarray) -> None:
    """x = low*x + high*(x with the runs of each pair r apart swapped), in place.

    With low = [a..|d..] and high = [b..|c..] per pair, each amplitude
    gets the products of the expression path, and x + y is y + x exactly,
    so the result is the same bit for bit. All four arrays have one size.
    """
    src, dst = _pairs(x, r), _pairs(swapped, r)
    dst[:, 0] = src[:, 1]
    dst[:, 1] = src[:, 0]
    np.multiply(swapped, high, out=swapped)
    np.multiply(x, low, out=x)
    np.add(x, swapped, out=x)


def _chunk_kernel(gate: Gate, target: int, control: int | None, active: int | None) -> _Kernel:
    """``_mix`` on one block, for a mix whose pairs lie at most 2**_CHUNK_REACH_BITS apart.

    Qubits count from the block's first. A control's active runs are
    gathered into half a block, where the pairs lie r apart (control above
    the target) or r/2 (below), and scattered back.
    """
    r = 1 << (_BLOCK_BITS - target - 1)
    if control is not None and control > target:
        r //= 2
    low, high, swapped = np.empty((3, _BLOCK if control is None else _BLOCK // 2))
    a, b, c, d = gate.entries
    for pattern, first, second in ((low, a, d), (high, b, c)):
        halves = pattern.reshape(-1, 2, r)
        halves[:, 0] = first
        halves[:, 1] = second
    if control is None:
        return lambda block: _mix(block, r, low, high, swapped)
    control_run = 1 << (_BLOCK_BITS - control - 1)
    packed = np.empty(low.size)
    packed_runs = _runs(packed, control_run)

    def gathered(block: np.ndarray) -> None:
        runs = _pairs(block, control_run)[:, active]
        packed_runs[...] = runs
        _mix(packed, r, low, high, swapped)
        runs[...] = packed_runs

    return gathered


def _buffered_kernel(gate: Gate, target: int, control: int | None, active: int | None) -> _Kernel:
    """``_apply_inplace``'s arithmetic as in-place ufuncs on one block or pair of blocks.

    Qubits count from the unit's first. A contiguous run of 4 or fewer
    amplitudes (Z, X, CZ or CNOT near the last qubit, or a control there
    below a distant target) moves to the front, so each ufunc loops over
    the longest axis. Z multiplies by -1.0 because np.negative(...,
    order="C") writes wrong values on such a view in place (numpy 2.4).
    """
    action = gate.kind.action
    a, b, c, d = gate.entries
    s0, s1 = np.empty((2, _BLOCK))

    def kernel(unit: np.ndarray) -> None:
        y0, y1 = _halves(unit, target, control, active)
        if y0.shape[-1] <= 4:
            y0, y1 = np.moveaxis(y0, -1, 0), np.moveaxis(y1, -1, 0)
        if action == "flip":
            np.multiply(y1, -1.0, out=y1, order="C")
            return
        t0, t1 = s0[:y0.size].reshape(y0.shape), s1[:y0.size].reshape(y0.shape)
        if action == "swap":
            np.copyto(t0, y0)
            np.copyto(y0, y1)
            np.copyto(y1, t0)
            return
        np.multiply(y0, c, out=t1, order="C")
        np.multiply(y0, a, out=y0, order="C")
        np.multiply(y1, b, out=t0, order="C")
        np.add(y0, t0, out=y0, order="C")
        np.multiply(y1, d, out=y1, order="C")
        np.add(y1, t1, out=y1, order="C")

    return kernel


def _apply_inplace(amps: np.ndarray, gate: Gate, live: np.ndarray | None,
                   active: int | None) -> None:
    """Apply one gate in place, where its control, if any, is ``active``.

    Up to 2**16 amplitudes the gate is three whole-array expressions. Past that,
    ``live`` holds one bool per _BLOCK-aligned block, False only where the block
    holds nothing but zeros, and the gate runs on each live block, or on each pair
    of blocks that holds a live one when its target picks the block, and only where
    a control above the block is ``active``. A mix or a swap marks the blocks it
    computes live; a flip leaves the map as is.
    """
    action = gate.kind.action
    if amps.size <= 2 * _BLOCK:
        x0, x1 = _halves(amps, gate.target, gate.control, active)
        if action == "flip":
            x1 *= -1.0
        elif action == "swap":
            old0 = x0.copy()
            x0[...] = x1
            x1[...] = old0
        else:
            a, b, c, d = gate.entries
            new0 = a * x0 + b * x1
            x1[...] = c * x0 + d * x1
            x0[...] = new0
        return
    h = amps.size.bit_length() - 1 - _BLOCK_BITS
    t, c = gate.target, gate.control
    index = np.arange(live.size)
    pair = 1 << (h - 1 - t) if t < h else 0
    taken = (live | live[index ^ pair]) & (index & pair == 0) if pair else live
    if c is not None and c < h:
        taken = taken & (index >> (h - 1 - c) & 1 == active)
        c = None
    blocks = np.flatnonzero(taken)
    if pair and action != "flip":
        live[blocks] = live[blocks + pair] = True
    # A unit is one block, or a pair of blocks as two rows on the target;
    # its other qubits count from `first`.
    first = h - 1 if pair else h
    target, control = (0 if pair else t - first), (None if c is None else c - first)
    chunked = action == "mix" and amps.size >> (t + 1) <= 1 << _CHUNK_REACH_BITS
    kernel = (_chunk_kernel if chunked else _buffered_kernel)(gate, target, control, active)
    rows = amps.reshape(-1, _BLOCK)
    for k in blocks.tolist():
        kernel(rows[k:k + 2 * pair:pair] if pair else rows[k])


def apply(state: StateVector, gate: Gate) -> StateVector:
    """Apply one gate, returning a new state. The input is not modified."""
    if not isinstance(state, StateVector) or not isinstance(gate, Gate):
        raise ValueError(
            f"apply takes a StateVector and a Gate, got {type(state).__name__} and {gate!r}")
    Circuit(state.n_qubits, (gate,))  # refuses a qubit outside the state
    out = state.amps.copy()
    live = np.ones(out.size >> _BLOCK_BITS, dtype=bool)
    _apply_inplace(out, gate, live, gate.kind.active_control)
    return StateVector(out)


def _widen(amps: np.ndarray, new_width: int) -> np.ndarray:
    """The same state, whose width its size gives, with qubits up to new_width-1 appended in |0>."""
    if 1 << new_width == amps.size:
        return amps
    out = np.zeros(1 << new_width)
    out[:: (1 << new_width) // amps.size] = amps
    return out


def _widen_mixed(amps: np.ndarray, gate: Gate) -> np.ndarray:
    """``_widen`` by one qubit, then the uncontrolled mix ``gate`` on that qubit, in one pass.

    (x[i], +0.0) becomes (a*x[i] + b*0.0, c*x[i] + d*0.0), bit for bit.
    """
    a, b, c, d = gate.entries
    out = np.empty((amps.size, 2))
    for half, first, second in ((out[:, 0], a, b), (out[:, 1], c, d)):
        np.multiply(amps, first, out=half)
        np.add(half, second * 0.0, out=half)
    return out.reshape(-1)


def _spread(register: np.ndarray, width: int, new_width: int) -> None:
    """``_widen`` in place: register[:2**width], with zeros above, to 2**new_width.

    Blocks (all of a smaller state) move top down, so each is read before it is overwritten.
    """
    size, s = 1 << width, new_width - width
    step = min(size, _BLOCK)
    for lo in range(size - step, -1, -step) if s else ():
        # Only the bottom block overlaps its own destination.
        source = register[lo:lo + step] if lo else register[:step].copy()
        dest = register[lo << s:(lo + step) << s]
        dest[:max(size - (lo << s), 0)] = 0.0
        dest[::1 << s] = source


def _live_blocks(amps: np.ndarray, spread: int) -> np.ndarray:
    """Which _BLOCK-aligned blocks of the state widened by ``spread`` qubits hold a nonzero.

    A block whose first amplitude is nonzero is live without a scan, so a
    dense state costs one strided read, not a pass over every amplitude.
    """
    per = _BLOCK >> spread
    if per:
        groups = amps.reshape(-1, per)
        live = groups[:, 0] != 0
        for block in np.flatnonzero(~live).tolist():
            live[block] = groups[block].any()
        return live
    live = np.zeros(amps.size << (spread - _BLOCK_BITS), dtype=bool)
    live[:: 1 << (spread - _BLOCK_BITS)] = amps != 0
    return live


def run(circuit: Circuit) -> StateVector:
    """Simulate the circuit from the all-zeros state."""
    if not isinstance(circuit, Circuit):
        raise ValueError(f"circuit must be a Circuit, got {type(circuit).__name__}")
    n = circuit.n_qubits
    if n > QUBIT_CAP:
        raise ValueError(f"qubit count {n} outside 1..{QUBIT_CAP}")
    gates = circuit.gates
    amps, width, register, live, i = np.ones(1), 0, None, None, 0
    while i < len(gates):
        gate = gates[i]
        i += 1
        active = gate.kind.active_control
        # CZ(c, t); Z(t) is one flip where c = 0.
        if (gate.kind.action == "flip" and gate.control is not None and i < len(gates)
                and gates[i].kind.action == "flip" and gates[i].control is None
                and gates[i].target == gate.target):
            active, i = 0, i + 1
        reach = max(gate.qubits) + 1
        if reach > width:
            if 1 << reach > 2 * _BLOCK:
                live = _live_blocks(amps, reach - width)
                if register is None:
                    register = np.zeros(1 << n)
                    register[:amps.size] = amps
                _spread(register, width, reach)
                amps = register[:1 << reach]
            elif reach == width + 1 and gate.control is None and gate.kind.action == "mix":
                amps, width = _widen_mixed(amps, gate), reach
                continue
            else:
                amps = _widen(amps, reach)
            width = reach
        _apply_inplace(amps, gate, live, active)
    norm = float(np.linalg.norm(amps))
    if not abs(norm - 1.0) < 1e-10:
        raise RuntimeError(f"state norm {norm!r} after {len(circuit)} gates is not 1")
    if register is None:
        return StateVector(_widen(amps, n))
    _spread(register, width, n)
    return StateVector(register)


def uniform_distance(state: StateVector, N: int) -> float:
    """Max deviation from the uniform superposition over indices 0..N-1.

    Compares against the vector with amplitude 1/sqrt(N) on the first N
    basis indices and 0 elsewhere, and returns the largest |difference|.
    """
    split(N)  # raises for anything but an int N >= 1
    if not isinstance(state, StateVector):
        raise ValueError(f"state must be a StateVector, got {type(state).__name__}")
    amps = state.amps
    if N > amps.size:
        raise ValueError(f"N={N} exceeds the state dimension {amps.size}")
    head = _max_abs_deviation(amps[:N], 1.0 / math.sqrt(N))
    tail = _max_abs_deviation(amps[N:], 0.0)
    return float(np.maximum(head, tail))


def _max_abs_deviation(values: np.ndarray, level: float) -> float:
    """max |values - level| (0.0 if empty), one block at a time.

    max is exact and np.maximum carries a NaN through, so this is the
    double one pass over the whole array would give, with temporaries of
    one block instead of two the size of the state.
    """
    peak = np.float64(0.0)
    for start in range(0, values.size, _BLOCK):
        deviation = values[start:start + _BLOCK] - level
        peak = np.maximum(peak, np.abs(deviation, out=deviation).max())
    return peak
