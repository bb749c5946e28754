"""Dense statevector simulator for both circuit levels.

Every gate of either level has a real matrix, so states are numpy float64
vectors of length 2**n with qubit 0 as the most significant index bit.
Gates update the amplitudes in place through reshaped views that pair
the two values of the target bit, so no 2**n x 2**n matrix is ever built.

How a gate runs depends on the state's size and on how far apart its
paired amplitudes lie. On states of at most 2**16 amplitudes it is three
whole-array numpy expressions, which cost least on small states. On
wider states, H, RY, G, CG and ZERO_CH gates whose pairs lie at most
2**11 amplitudes apart walk the state in contiguous chunks of 2**15
amplitudes (256 KiB). Each chunk is copied with the two halves of every
pair swapped, the copy and the chunk are multiplied by per-gate patterns
of the matrix entries, and the two are added, so every ufunc runs as one
long loop. A controlled gate skips the chunks where its control is
inactive, or gathers the active runs into half a chunk. Every other gate
on a wide state walks its halves block by block with in-place ufuncs and
two block-sized buffers. No temporary grows with the state, and each
block stays in cache. All paths make the same IEEE products and sums
(x + y is y + x exactly), so they give the same amplitudes bit for bit.

``run`` starts narrow. A qubit that no gate has touched yet is exactly
|0>, so ``run`` keeps only the 2**w amplitudes of qubits 0..w-1, where
w - 1 is the highest qubit touched so far. When a gate first reaches a
higher qubit, the state widens by interleaving zeros, and it widens to
the full register at the end. This is exact for any circuit; synthesized
circuits touch qubits in order, so most of their gates run on small
states. Width is capped at 24 qubits (a 128 MiB state).

Once the state is wide, ``run`` also keeps one bool per block of 2**15
amplitudes, False where the block holds only zeros; each widening sets
it from the state. The wide paths skip every chunk, and every block
cut, whose blocks are all dead; a mix or a swap marks the blocks of
each cut it computes live. This needs no setting and is exact: every
gate coefficient is finite, so a gate would only write zeros there, and
skipping can change at most the sign of a zero. Every nonzero amplitude
keeps its bits, and ``uniform_distance`` and the norm keep their values.
Synthesized circuits leave most blocks dead for most of their gates:
the CG chain keeps one nonzero per split block, and the ZERO_CH walk
spreads them slowly. ``apply`` and narrow states compute everything.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .ir import Circuit, Gate

QUBIT_CAP = 24

_SQRT_HALF = 1.0 / math.sqrt(2.0)
_BLOCK_BITS = 15
_BLOCK = 1 << _BLOCK_BITS
# Chunks beat the blocked rows once the pairs lie 2**11 or fewer
# amplitudes apart: per-target timings at 20 qubits, RY, CG and ZERO_CH.
_CHUNK_REACH_BITS = 11


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
    """Entries a, b, c, d of the real target matrix [[a, b], [c, d]] of a mixing gate."""
    kind = gate.kind
    if kind.action != "mix":
        raise ValueError(f"no target matrix for {kind.name}")
    if kind.param == "angle":
        c = math.cos(gate.angle / 2.0)
        s = math.sin(gate.angle / 2.0)
        return c, -s, s, c
    if kind.param == "prob":
        p = float(gate.prob)
        sp = math.sqrt(p)
        sq = math.sqrt(1.0 - p)
        return sp, -sq, sq, sp
    return _SQRT_HALF, _SQRT_HALF, _SQRT_HALF, -_SQRT_HALF


def _halves(amps: np.ndarray, gate: Gate, n_qubits: int) -> tuple[np.ndarray, np.ndarray]:
    """Views of the amplitudes with the target bit 0 and 1.

    For a controlled gate, only those with the control bit at the kind's
    ``active_control`` value.
    """
    t, c = gate.target, gate.control
    if c is None:
        view = amps.reshape(1 << t, 2, 1 << (n_qubits - t - 1))
        return view[:, 0], view[:, 1]
    lo, hi = min(c, t), max(c, t)
    view = amps.reshape(1 << lo, 2, 1 << (hi - lo - 1), 2, 1 << (n_qubits - hi - 1))
    if c < t:
        sub = view[:, gate.kind.active_control]
        return sub[:, :, 0], sub[:, :, 1]
    sub = view[:, :, :, gate.kind.active_control]
    return sub[:, 0], sub[:, 1]


def _blocks(shape: tuple[int, ...]) -> list[tuple]:
    """Index tuples that cut an array of this shape into _BLOCK-element pieces.

    Every size is a power of two and the array holds at least _BLOCK
    elements. The trailing axes that fit in one block are kept whole, the
    next axis is cut into equal slices and the axes before it are walked
    one index at a time.
    """
    inner, axis = 1, len(shape) - 1
    while axis > 0 and inner * shape[axis] <= _BLOCK:
        inner *= shape[axis]
        axis -= 1
    step = _BLOCK // inner
    cuts = [(slice(j, j + step),) for j in range(0, shape[axis], step)]
    for size in reversed(shape[:axis]):
        cuts = [(i, *cut) for i in range(size) for cut in cuts]
    return cuts


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


def _apply_chunked(amps: np.ndarray, gate: Gate, n_qubits: int, live: np.ndarray | None) -> None:
    """A 2x2 gate whose pairs lie at most 2**_CHUNK_REACH_BITS apart, chunk by chunk.

    Each contiguous chunk of _BLOCK amplitudes is one block and holds whole
    pairs, so it is skipped where ``live`` marks it dead (None marks none)
    and its liveness does not change. If the control bit lies above the
    chunk, chunks where it is inactive are skipped. If it lies inside, the
    active runs are gathered into a half-chunk, where the target pairs lie
    r apart when the control is above the target and r/2 apart when it is
    below, and scattered back.
    """
    r = 1 << (n_qubits - gate.target - 1)
    control_run = 0 if gate.control is None else 1 << (n_qubits - gate.control - 1)
    gather = 0 < control_run < _BLOCK
    if gather and control_run < r:
        r //= 2
    size = _BLOCK // 2 if gather else _BLOCK
    low, high, swapped = np.empty(size), np.empty(size), np.empty(size)
    a, b, c, d = _coefficients(gate)
    for pattern, first, second in ((low, a, d), (high, b, c)):
        halves = pattern.reshape(-1, 2, r)
        halves[:, 0] = first
        halves[:, 1] = second
    if gather:
        packed = np.empty(size)
        packed_runs = _runs(packed, control_run)
    blocks = range(amps.size // _BLOCK) if live is None else np.flatnonzero(live).tolist()
    for block in blocks:
        start = block * _BLOCK
        chunk = amps[start:start + _BLOCK]
        if gather:
            runs = _pairs(chunk, control_run)[:, gate.kind.active_control]
            packed_runs[...] = runs
            _mix(packed, r, low, high, swapped)
            runs[...] = packed_runs
        elif not control_run or start // control_run % 2 == gate.kind.active_control:
            _mix(chunk, r, low, high, swapped)


def _apply_inplace(amps: np.ndarray, gate: Gate, n_qubits: int) -> None:
    """Apply one gate in place to every amplitude; no block is skipped."""
    if amps.size > 2 * _BLOCK:
        _apply_wide(amps, gate, n_qubits, None)
        return
    x0, x1 = _halves(amps, gate, n_qubits)
    action = gate.kind.action
    if action == "flip":
        x1 *= -1.0
    elif action == "swap":
        old0 = x0.copy()
        x0[...] = x1
        x1[...] = old0
    else:
        a, b, c, d = _coefficients(gate)
        new0 = a * x0 + b * x1
        x1[...] = c * x0 + d * x1
        x0[...] = new0


def _apply_wide(amps: np.ndarray, gate: Gate, n_qubits: int, live: np.ndarray | None) -> None:
    """Apply one gate in place to a state of more than 2**16 amplitudes.

    ``live`` holds one bool per _BLOCK-aligned block of ``amps``, False
    only where the block holds nothing but zeros. Work on dead blocks is
    skipped and the map is kept up to date; with None, every block is
    computed.
    """
    if gate.kind.action == "mix" and n_qubits - gate.target - 1 <= _CHUNK_REACH_BITS:
        _apply_chunked(amps, gate, n_qubits, live)
        return
    x0, x1 = _halves(amps, gate, n_qubits)
    computed = [True] * (x0.size // _BLOCK) if live is None else _live_cuts(live, gate)
    _apply_blocked(x0, x1, gate, computed)


def _live_cuts(live: np.ndarray, gate: Gate) -> list[bool]:
    """For each of ``_blocks``'s cuts of the gate's halves, whether it touches a live block.

    Viewed as a (2,)*h array, ``live`` has one axis per qubit 0..h-1 that
    selects the block; the other qubits lie inside a block. A cut is
    _BLOCK consecutive elements of the halves, indexed by the amplitude
    index without the target and control bits. So the blocks of cut k are
    those with the control's active value whose block index, with the
    target and control bits taken out and then shifted right by the number
    of those bits that lie inside a block, is k. A mix or a swap marks the
    blocks of every cut it computes live; a flip leaves the map as it is.
    """
    h = live.size.bit_length() - 1
    t, c = gate.target, gate.control
    inside = (t >= h) + (c is not None and c >= h)
    index = [slice(None)] * h
    if c is not None and c < h:
        index[c] = gate.kind.active_control
    sub = live.reshape((2,) * h)[tuple(index)]
    qubits = [q for q in range(h) if q != c]  # the qubit of each axis of sub
    outer = [q for q in qubits if q != t]
    merged_qubits = {t, *outer[len(outer) - inside:]}
    merged = sub.any(axis=tuple(i for i, q in enumerate(qubits) if q in merged_qubits), keepdims=True)
    if gate.kind.action != "flip":
        sub |= merged
    return merged.ravel().tolist()


def _apply_blocked(x0: np.ndarray, x1: np.ndarray, gate: Gate, computed: list[bool]) -> None:
    """``_apply_inplace``'s arithmetic on the halves of a state of more than 2**16 amplitudes.

    The products and sums per amplitude are those of the small path, and
    x + y and y + x are the same double, so the result is identical bit
    for bit. A contiguous run of 4 or fewer amplitudes (Z, X, CZ or CNOT
    near the last qubit, or a control there below a distant target) moves
    to the front, so each ufunc loops over the longest axis. Z multiplies by -1.0 because
    np.negative(..., order="C") writes wrong values on such a view in
    place (numpy 2.4). Cuts whose entry in ``computed`` is False are
    skipped.
    """
    action = gate.kind.action
    if action == "mix":
        a, b, c, d = _coefficients(gate)
    short = x0.shape[-1] <= 4
    s0, s1 = np.empty(_BLOCK), np.empty(_BLOCK)
    for cut, on in zip(_blocks(x0.shape), computed):
        if not on:
            continue
        y0, y1 = x0[cut], x1[cut]
        if short:
            y0, y1 = np.moveaxis(y0, -1, 0), np.moveaxis(y1, -1, 0)
        if action == "flip":
            np.multiply(y1, -1.0, out=y1, order="C")
            continue
        t0, t1 = s0.reshape(y0.shape), s1.reshape(y0.shape)
        if action == "swap":
            np.copyto(t0, y0)
            np.copyto(y0, y1)
            np.copyto(y1, t0)
            continue
        np.multiply(y0, c, out=t1, order="C")
        np.multiply(y0, a, out=y0, order="C")
        np.multiply(y1, b, out=t0, order="C")
        np.add(y0, t0, out=y0, order="C")
        np.multiply(y1, d, out=y1, order="C")
        np.add(y1, t1, out=y1, order="C")


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
    n = circuit.n_qubits
    _check_width(n)
    amps = np.ones(1)
    width = 0
    live = None
    for gate in circuit.gates:
        reach = max(gate.qubits) + 1
        if reach > width:
            if 1 << reach > 2 * _BLOCK:
                live = _live_blocks(amps, reach - width)
            amps = _widen(amps, width, reach)
            width = reach
        if live is None:
            _apply_inplace(amps, gate, width)
        else:
            _apply_wide(amps, gate, width, live)
    norm = float(np.linalg.norm(amps))
    if not abs(norm - 1.0) < 1e-10:
        raise RuntimeError(f"state norm {norm!r} after {len(circuit)} gates is not 1")
    return StateVector(n, _widen(amps, width, n))


def uniform_distance(state: StateVector, N: int) -> float:
    """Max deviation from the uniform superposition over indices 0..N-1.

    Compares against the vector with amplitude 1/sqrt(N) on the first N
    basis indices and 0 elsewhere, and returns the largest |difference|.
    """
    if type(N) is not int or N < 1:
        raise ValueError(f"N must be a positive integer, got {N!r}")
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
