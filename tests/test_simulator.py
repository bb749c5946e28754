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
from superposer.ir import Circuit, Gate
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

def scaling(amps, gate, n_qubits):
    real(amps, gate, n_qubits)
    amps *= 2.0

simulator._apply_inplace = scaling
try:
    simulator.run(Circuit(2, (Gate.h(0), Gate.h(1))))
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
    for gate in lowered:
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
    state = StateVector(3, rng.normal(size=8))
    for N in range(1, 9):
        assert uniform_distance(state, N) == reference(state, N)
    # The tail beyond N can hold the largest deviation.
    flat = StateVector(2, np.full(4, 0.5))
    assert uniform_distance(flat, 3) == 0.5 == reference(flat, 3)
    # N equal to the dimension leaves no tail to compare.
    near = StateVector(2, np.array([0.5, 0.5, 0.5, 0.625]))
    assert uniform_distance(near, 4) == 0.125 == reference(near, 4)


def test_uniform_distance_rejects_bad_n():
    state = init_zero(2)
    with pytest.raises(ValueError):
        uniform_distance(state, 5)
    with pytest.raises(ValueError):
        uniform_distance(state, 0)
