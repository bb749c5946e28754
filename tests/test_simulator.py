import dataclasses
import math
import os
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import superposer
from superposer import simulator
from superposer.ir import Circuit, Gate, GateKind
from superposer.simulator import (
    QUBIT_CAP,
    StateVector,
    apply,
    init_zero,
    run,
    uniform_distance,
)
from superposer.synthesis import synthesize
from superposer.lowering import lower


def test_init_zero():
    state = init_zero(3)
    assert state.amps.shape == (8,)
    assert state.amps[0] == 1.0
    assert np.linalg.norm(state.amps) == pytest.approx(1.0)


def test_init_zero_enforces_cap():
    with pytest.raises(ValueError):
        init_zero(0)
    with pytest.raises(ValueError):
        init_zero(QUBIT_CAP + 1)


@pytest.mark.parametrize("width", [True, 2.0, "3"])
def test_init_zero_refuses_a_width_that_is_not_an_int(width):
    with pytest.raises(ValueError, match="n_qubits must be an integer"):
        init_zero(width)


@pytest.mark.parametrize("state, gate", [
    (init_zero(1), "h"),
    (np.array([1.0, 0.0]), Gate.h(0)),
])
def test_apply_refuses_what_is_not_a_state_vector_and_a_gate(state, gate):
    with pytest.raises(ValueError, match="apply takes a StateVector and a Gate"):
        apply(state, gate)


def test_uniform_distance_refuses_a_state_that_is_not_a_state_vector():
    with pytest.raises(ValueError, match="state must be a StateVector"):
        uniform_distance(np.ones(4) / 2, 4)


@pytest.mark.parametrize("amps", [
    np.array([1, 0, 0, 0]),                     # int storage would truncate a mix
    [1.0, 0.0],                                 # not an array
    np.zeros((2, 2)),                           # not 1-D
    np.ones(3),                                 # not 2**n amplitudes
    np.ones(1),                                 # no qubit
    np.broadcast_to(np.zeros(1), 2 << QUBIT_CAP),  # over the cap, without the memory
])
def test_state_vector_refuses_what_is_not_a_state(amps):
    with pytest.raises(ValueError, match="amps must be a 1-D float64 ndarray of 2[*][*]n"):
        StateVector(amps)


def test_state_vector_states_its_width_once():
    # The width is the amplitude count's, so a state cannot claim another one.
    with pytest.raises(TypeError):
        StateVector(3, np.ones(4) / 2)
    state = StateVector(np.ones(4) / 2)
    assert state.n_qubits == 2
    assert uniform_distance(state, 4) == 0.0
    wide = StateVector(np.zeros(1 << 17))
    assert wide.n_qubits == 17
    with pytest.raises(ValueError, match="qubit 17 out of range for 17 qubits"):
        apply(wide, Gate.h(17))
    with pytest.raises(dataclasses.FrozenInstanceError):
        state.amps = np.ones(8)
    assert wide.copy().n_qubits == 17 and init_zero(3).n_qubits == 3


def test_apply_hadamard():
    state = apply(init_zero(1), Gate.h(0))
    assert np.allclose(state.amps, [1 / math.sqrt(2), 1 / math.sqrt(2)])


def test_apply_does_not_mutate_input():
    state = init_zero(1)
    apply(state, Gate.h(0))
    assert state.amps[0] == 1.0 and state.amps[1] == 0.0


def test_apply_rejects_out_of_range_qubit():
    with pytest.raises(ValueError, match="out of range"):
        apply(init_zero(1), Gate.h(1))


def test_apply_leaves_the_qubit_check_to_circuit():
    with pytest.raises(ValueError, match="^gate 0: qubit 2 out of range for 2 qubits$"):
        apply(init_zero(2), Gate.cnot(2, 0))


def test_zero_controlled_h_only_acts_when_control_is_zero():
    off = apply(apply(init_zero(2), Gate.x(0)), Gate.zero_ch(0, 1))
    assert np.allclose(off.amps, [0, 0, 1, 0])
    on = apply(init_zero(2), Gate.zero_ch(0, 1))
    assert np.allclose(on.amps, [1 / math.sqrt(2), 1 / math.sqrt(2), 0, 0])


def test_apply_g_splits_probability_mass():
    state = apply(init_zero(1), Gate.g(0, Fraction(4, 7)))
    assert state.amps[0] == pytest.approx(math.sqrt(4 / 7))
    assert state.amps[1] == pytest.approx(math.sqrt(3 / 7))


def test_cg_acts_only_on_set_control():
    state = apply(init_zero(2), Gate.cg(0, 1, Fraction(1, 2)))
    assert np.allclose(state.amps, [1, 0, 0, 0])
    state = apply(apply(init_zero(2), Gate.x(0)), Gate.cg(0, 1, Fraction(1, 2)))
    assert state.amps[2] == pytest.approx(math.sqrt(0.5))
    assert state.amps[3] == pytest.approx(math.sqrt(0.5))


def test_cnot_and_cz_on_two_qubit_register():
    # Regression: writes must land in the amplitude buffer even when the
    # control and target are the only two axes.
    state = apply(apply(init_zero(2), Gate.x(0)), Gate.x(1))
    flipped = apply(state, Gate.cz(0, 1))
    assert flipped.amps[3] == pytest.approx(-1.0)
    swapped = apply(state, Gate.cnot(0, 1))
    assert swapped.amps[2] == pytest.approx(1.0)


def test_hadamard_is_its_own_inverse():
    state = init_zero(2)
    state = apply(apply(state, Gate.h(1)), Gate.h(1))
    assert np.allclose(state.amps, [1, 0, 0, 0])


def test_run_rejects_widths_above_the_cap_before_allocating():
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="outside"):
            run(Circuit(QUBIT_CAP + 1, ()))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_run_empty_circuit():
    state = run(Circuit(1, ()))
    assert np.allclose(state.amps, [1, 0])


def test_run_lowered_n7():
    lowered, _ = lower(synthesize(7))
    amps = run(lowered).amps
    assert np.allclose(amps[:7], np.full(7, 1 / math.sqrt(7)))
    assert abs(amps[7]) < 1e-15


_SCALING_KERNEL = """
import sys
from superposer import simulator
from superposer.ir import Circuit, Gate

assert sys.flags.optimize
real = simulator._apply_inplace

def scaling(amps, gate, live, active):
    real(amps, gate, live, active)
    amps *= 2.0

simulator._apply_inplace = scaling
try:
    # H(0) and H(1) are fused into the widenings; Z(0) goes through the patch.
    simulator.run(Circuit(2, (Gate.h(0), Gate.h(1), Gate.z(0))))
except RuntimeError as exc:
    print("raised:", exc)
"""


def test_run_checks_the_norm_under_python_O():
    # Under -O every assert is stripped, so the norm check must not be one.
    env = dict(os.environ, PYTHONPATH=str(Path(superposer.__file__).resolve().parents[1]))
    result = subprocess.run(
        [sys.executable, "-O", "-c", _SCALING_KERNEL],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.startswith("raised: state norm")


def test_run_preserves_norm_gate_by_gate():
    state = init_zero(3)
    lowered, _ = lower(synthesize(6))
    for gate in lowered.gates:
        state = apply(state, gate)
        assert np.linalg.norm(state.amps) == pytest.approx(1.0, abs=1e-10)


def test_amplitudes_stay_real():
    for N in (3, 7, 29, 100):
        lowered, _ = lower(synthesize(N))
        assert run(lowered).amps.dtype == np.float64
        assert init_zero(lowered.n_qubits).amps.dtype == np.float64


_PROB = st.fractions(min_value=0, max_value=1, max_denominator=1000)


def _pairs(n):
    return st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True)


def _pairs_through(q, n):
    """(control, target) pairs on n qubits with q as one of the two."""
    other = st.integers(0, n - 2).map(lambda o: o if o < q else o + 1)
    return st.tuples(other, st.booleans()).map(lambda ob: [q, ob[0]] if ob[1] else [ob[0], q])


def _gates(qubit, pair):
    """Gates of every kind; without pairs (one qubit), only the 1-qubit kinds."""
    kinds = [
        st.builds(Gate.h, qubit),
        st.builds(Gate.x, qubit),
        st.builds(Gate.z, qubit),
        st.builds(Gate.ry, qubit, st.floats(-7, 7)),
        st.builds(Gate.g, qubit, _PROB),
    ]
    if pair is not None:
        kinds += [
            st.builds(lambda cq, p: Gate.cg(*cq, p), pair, _PROB),
            pair.map(lambda cq: Gate.zero_ch(*cq)),
            pair.map(lambda cq: Gate.cnot(*cq)),
            pair.map(lambda cq: Gate.cz(*cq)),
        ]
    return st.one_of(kinds)


@st.composite
def _circuits(draw):
    n = draw(st.integers(1, 6))
    # Most gates stay on qubits below `reach`, leaving the rest untouched.
    reach = draw(st.integers(1, n))
    gates = draw(st.lists(
        _gates(st.integers(0, reach - 1), _pairs(reach) if reach > 1 else None), max_size=12
    ))
    if draw(st.booleans()):
        last = n - 1
        gates.insert(0, draw(_gates(st.just(last), _pairs_through(last, n) if n > 1 else None)))
    return Circuit(n, gates)


@settings(max_examples=200, deadline=None)
@given(_circuits())
def test_run_equals_a_full_width_apply_chain(circuit):
    # apply never widens: it works on all 2**n amplitudes from the start.
    state = init_zero(circuit.n_qubits)
    for gate in circuit.gates:
        state = apply(state, gate)
    amps = run(circuit).amps
    assert amps.dtype == np.float64
    assert np.array_equal(amps, state.amps)


def _narrow_reference(circuit):
    """run's narrow semantics, gate by gate.

    The state widens with +0.0 when a gate first reaches a higher qubit,
    then the gate runs as the whole-array expressions.
    """
    def widen(amps, width, new_width):
        out = np.zeros(1 << new_width)
        out[:: 1 << (new_width - width)] = amps
        return out

    amps, width = np.ones(1), 0
    for gate in circuit.gates:
        reach = max(gate.qubits) + 1
        if reach > width:
            amps, width = widen(amps, width, reach), reach
        _expression_kernel(amps, gate)
    return widen(amps, width, circuit.n_qubits)


@st.composite
def _fresh_and_paired_circuits(draw):
    """Circuits on up to 8 qubits that put first gates on fresh qubits and CZ;Z pairs."""
    n = draw(st.integers(1, 8))
    gates, width = [], 0
    for _ in range(draw(st.integers(0, 16))):
        step = draw(st.sampled_from(["fresh", "cz;z", "any"]))
        if step == "fresh" and width < n:
            # Often the next qubit, so the widening adds one qubit.
            t = draw(st.one_of(st.just(width), st.integers(width, n - 1)))
            kinds = [st.builds(Gate.h, st.just(t)), st.builds(Gate.ry, st.just(t), st.floats(-7, 7)),
                     st.builds(Gate.g, st.just(t), _PROB)]
            if t > 0:
                control = st.integers(0, t - 1)
                kinds += [st.builds(lambda c, p: Gate.cg(c, t, p), control, _PROB),
                          control.map(lambda c: Gate.zero_ch(c, t))]
            gates.append(draw(st.one_of(kinds)))
        elif step == "cz;z" and n > 1:
            control, target = draw(_pairs(n))
            gates += [Gate.cz(control, target), Gate.z(target)]
        else:
            gates.append(draw(_gates(st.integers(0, n - 1), _pairs(n) if n > 1 else None)))
        width = max(max(g.qubits) for g in gates) + 1
    return Circuit(n, gates)


@settings(max_examples=200, deadline=None)
@given(_fresh_and_paired_circuits())
def test_run_equals_the_narrow_reference_byte_for_byte(circuit):
    # Byte equality sees the sign of every zero, which np.array_equal does not.
    assert run(circuit).amps.tobytes() == _narrow_reference(circuit).tobytes()


def _expression_kernel(amps, gate):
    """The whole-array kernel the wide ones must match bit for bit."""
    x0, x1 = simulator._halves(amps, gate.target, gate.control, gate.kind.active_control)
    if gate.kind.action == "flip":
        x1 *= -1.0
    elif gate.kind.action == "swap":
        old0 = x0.copy()
        x0[...] = x1
        x1[...] = old0
    else:
        a, b, c, d = gate.entries
        new0 = a * x0 + b * x1
        x1[...] = c * x0 + d * x1
        x0[...] = new0


def _every_wide_gate(n):
    """Gates of every kind on every target of n qubits.

    Controls sit next to the target on either side and half the register
    away, so both orders of control and target, control runs longer and
    shorter than one chunk, and ZERO_CH's control value 0 all occur.
    """
    for kind in GateKind:
        for t in range(n):
            if kind.active_control is None:
                controls = [None]
            else:
                controls = [c for c in (t - 1, t + 1, (t + n // 2) % n) if 0 <= c < n]
            for c in controls:
                yield Gate(
                    kind, t, control=c,
                    angle=0.3 + t if kind.param == "angle" else None,
                    prob=Fraction(t + 1, 2 * n + 1) if kind.param == "prob" else None,
                )


def _control_place(gate, n):
    """Where the control bit lies: above or below the target, and beyond or inside one chunk."""
    if gate.control is None:
        return None
    if gate.control > gate.target:
        return "below"
    return "above, beyond a chunk" if 1 << (n - gate.control - 1) >= simulator._BLOCK else "above, inside"


def _counting(monkeypatch, name, count):
    """Patch the kernel factory `name` so each call of a kernel it builds also calls count()."""
    real = getattr(simulator, name)

    def factory(*args):
        kernel = real(*args)

        def counted(unit):
            count()
            kernel(unit)

        return counted

    monkeypatch.setattr(simulator, name, factory)


def test_blocked_kernel_equals_the_expression_kernel_bit_for_bit(monkeypatch):
    # States of more than 2**16 amplitudes run each gate block by block:
    # swapped-copy chunks for 2x2 gates whose pairs lie close together,
    # buffered in-place ufuncs for the rest. Both must give the
    # whole-array expressions' bits.
    paths = []
    for name in ("_chunk_kernel", "_buffered_kernel"):
        _counting(monkeypatch, name, lambda _name=name: paths.append(_name))
    seen = set()
    for n in (17, 18):
        rng = np.random.default_rng(n)
        state = rng.normal(size=1 << n)
        # Half the amplitudes are zeros of either sign, so pairs of zeros
        # meet in the sums and their signs are compared too.
        state[rng.random(state.size) < 0.5] = 0.0
        state[rng.random(state.size) < 0.1] *= -1.0
        all_live = np.ones(state.size // simulator._BLOCK, dtype=bool)
        for gate in _every_wide_gate(n):
            expected = state.copy()
            _expression_kernel(expected, gate)
            actual = state.copy()
            paths.clear()
            simulator._apply_inplace(actual, gate, all_live, gate.kind.active_control)
            assert actual.tobytes() == expected.tobytes(), (n, gate)
            assert len(set(paths)) == 1, (n, gate, set(paths))
            seen.add((n, gate.kind, paths[0], _control_place(gate, n)))
    for n in (17, 18):
        for kind in GateKind:
            places = (
                [None] if kind.active_control is None
                else ["below", "above, inside", "above, beyond a chunk"]
            )
            ran = {(path, place) for m, k, path, place in seen if (m, k) == (n, kind)}
            for place in places:
                assert ("_buffered_kernel", place) in ran, (n, kind, place)
                if kind.action == "mix":
                    assert ("_chunk_kernel", place) in ran, (n, kind, place)


def _assert_equal_but_for_zero_signs(actual, expected, where):
    """Equal values, and the same bits on every nonzero amplitude.

    x + 0.0 is x for every double but -0.0, which it turns into +0.0, so
    the second check compares the bits of everything but a zero's sign.
    """
    assert np.array_equal(actual, expected), where
    assert np.array_equal((actual + 0.0).view(np.int64), (expected + 0.0).view(np.int64)), where


def test_skipping_dead_blocks_keeps_the_expression_kernel_bits():
    # Blocks 2 and 3 of every 4 hold only zeros of either sign and are
    # flagged dead, so gates pair dead blocks with dead ones, live ones with
    # live ones and the two kinds with each other. Nonzeros must keep the
    # whole-array expressions' bits, zeros may change only their sign, and
    # every block that holds a nonzero afterwards must be flagged live.
    block = simulator._BLOCK
    for n in (17, 18):
        rng = np.random.default_rng(n + 100)
        state = rng.normal(size=1 << n)
        state[rng.random(state.size) < 0.5] = 0.0
        blocks = state.reshape(-1, block)
        dead = np.arange(len(blocks)) % 4 >= 2
        blocks[dead] = np.where(rng.random(blocks[dead].shape) < 0.5, 0.0, -0.0)
        expected, actual = np.empty_like(state), np.empty_like(state)
        for gate in _every_wide_gate(n):
            np.copyto(expected, state)
            _expression_kernel(expected, gate)
            np.copyto(actual, state)
            live = ~dead
            simulator._apply_inplace(actual, gate, live, gate.kind.active_control)
            _assert_equal_but_for_zero_signs(actual, expected, (n, gate))
            holds = actual.reshape(-1, block).any(axis=1)
            assert not (holds & ~live).any(), (n, gate, live)


def _full_width_reference(circuit):
    """run's amplitudes the long way: whole-array expressions on all 2**n amplitudes."""
    amps = np.zeros(1 << circuit.n_qubits)
    amps[0] = 1.0
    for gate in circuit.gates:
        _expression_kernel(amps, gate)
    return amps


@pytest.mark.parametrize("N", [
    (1 << 16) + 1, (1 << 17) + 1, 3 << 16, (1 << 18) - 1, (1 << 18) + 1, (1 << 20) - 1,
])
def test_run_equals_the_full_width_reference_bit_for_bit(N):
    abstract = synthesize(N)
    for circuit in (abstract, lower(abstract)[0]):
        expected = _full_width_reference(circuit)
        amps = run(circuit).amps
        _assert_equal_but_for_zero_signs(amps, expected, (N, circuit.level))


@pytest.mark.parametrize("gates", [
    # Widening from one amplitude straight past 2**16, then by one qubit
    # while the only nonzero is not the first of its block.
    (Gate.x(16), Gate.h(17)),
    (Gate.h(3), Gate.x(18), Gate.ry(19, 0.3), Gate.cnot(19, 0), Gate.cz(0, 17), Gate.zero_ch(2, 19)),
    # From 16 amplitudes past 2**16 in one jump, then by several qubits
    # inside the register, with CZ;Z pairs on both sides of the target.
    (Gate.h(3), Gate.ry(16, 0.3), Gate.h(0), Gate.zero_ch(0, 19), Gate.cz(16, 3), Gate.z(3),
     Gate.cz(0, 19), Gate.z(19)),
    # The first wide widening from a full 2**16-amplitude narrow state.
    tuple(Gate.h(q) for q in range(16)) + (Gate.ry(16, 0.3), Gate.cz(3, 17), Gate.h(17)),
])
def test_run_widening_sets_the_map_from_the_whole_state(gates):
    top = max(max(g.qubits) for g in gates)
    # With two qubits no gate touches, the last widening spreads the state
    # inside the register too (21 qubits at most, to keep the arrays small).
    for n in (top + 1, min(top + 3, 21)):
        circuit = Circuit(n, gates)
        _assert_equal_but_for_zero_signs(run(circuit).amps, _full_width_reference(circuit), (n, gates))


def test_wide_kernels_leave_dead_blocks_untouched():
    # The kernels take a block flagged dead to hold only zeros and skip it.
    # Here every block is flagged dead though none is, so any gate that
    # still computed a block would change, move or negate its values.
    n = 17
    state = np.random.default_rng(n).normal(size=1 << n)
    for gate in _every_wide_gate(n):
        amps, live = state.copy(), np.zeros(state.size // simulator._BLOCK, dtype=bool)
        simulator._apply_inplace(amps, gate, live, gate.kind.active_control)
        assert amps.tobytes() == state.tobytes(), gate
        assert not live.any(), gate


def test_run_skips_blocks_that_hold_only_zeros(monkeypatch):
    # The same run with every block flagged live computes more: more chunks
    # through _mix and more blocks or block pairs through the buffered
    # kernel, for the same amplitudes.
    circuit, _ = lower(synthesize((1 << 18) - 1))
    work = {"chunks": 0, "groups": 0}
    real_mix = simulator._mix

    def mix(*args):
        work["chunks"] += 1
        real_mix(*args)

    monkeypatch.setattr(simulator, "_mix", mix)
    _counting(monkeypatch, "_buffered_kernel", lambda: work.update(groups=work["groups"] + 1))
    skipping = run(circuit).amps
    skipped_work = dict(work)
    work.update(chunks=0, groups=0)
    monkeypatch.setattr(simulator, "_live_blocks", lambda amps, spread: np.ones(
        (amps.size << spread) // simulator._BLOCK, dtype=bool))
    assert np.array_equal(run(circuit).amps, skipping)
    assert skipped_work["chunks"] < work["chunks"], (skipped_work, work)
    assert skipped_work["groups"] < work["groups"], (skipped_work, work)


@pytest.mark.parametrize("level", ["abstract", "lowered"])
def test_run_peak_memory_stays_near_one_state(level):
    # Wide widenings spread inside the one register run returns, so the
    # rest is the kernels' block buffers: under 1 MiB.
    for N in ((1 << 18) - 1, (1 << 20) - 1):
        circuit = synthesize(N)
        if level == "lowered":
            circuit, _ = lower(circuit)
        tracemalloc.start()
        try:
            state = run(circuit)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= state.amps.nbytes + (1 << 20), (N, peak)


def test_uniform_distance_examples():
    state = run(synthesize(8))
    assert uniform_distance(state, 8) < 1e-15
    # |0> against the two-outcome target: index 1 has the larger deviation,
    # |0 - 1/sqrt(2)|, which beats |1 - 1/sqrt(2)| at index 0.
    zero = init_zero(1)
    assert uniform_distance(zero, 2) == pytest.approx(1 / math.sqrt(2))


def test_uniform_distance_equals_the_full_expected_vector():
    # The reference builds the 2**n target vector that uniform_distance avoids.
    def reference(state, N):
        expected = np.zeros(state.amps.size)
        expected[:N] = 1.0 / math.sqrt(N)
        return float(np.max(np.abs(state.amps - expected)))

    rng = np.random.default_rng(5)
    state = StateVector(rng.normal(size=8))
    for N in range(1, 9):
        assert uniform_distance(state, N) == reference(state, N)
    # The tail beyond N can hold the largest deviation.
    flat = StateVector(np.full(4, 0.5))
    assert uniform_distance(flat, 3) == 0.5 == reference(flat, 3)
    # N equal to the dimension leaves no tail to compare.
    near = StateVector(np.array([0.5, 0.5, 0.5, 0.625]))
    assert uniform_distance(near, 4) == 0.125 == reference(near, 4)
    # Wider than one block: the maxima are taken block by block.
    wide = StateVector(rng.normal(size=1 << 17) * 1e-3)
    block = simulator._BLOCK
    for N in (1, block - 1, block, block + 1, 3 * block + 5, 1 << 17):
        assert uniform_distance(wide, N) == reference(wide, N)
    wide.amps[2 * block + 3] = np.nan
    assert math.isnan(uniform_distance(wide, 3 * block))
    # A NaN past N is a deviation too; max() of the head and tail would drop it.
    wide.amps[2 * block + 3] = 0.0
    wide.amps[-1] = np.nan
    assert math.isnan(uniform_distance(wide, 3 * block))


def test_uniform_distance_rejects_bad_n():
    state = init_zero(2)
    with pytest.raises(ValueError):
        uniform_distance(state, 5)
    with pytest.raises(ValueError):
        uniform_distance(state, 0)
    for N in (True, 2.0, "2"):
        with pytest.raises(ValueError, match="N must be a positive integer"):
            uniform_distance(state, N)
