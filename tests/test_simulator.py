import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import superposer
from superposer.ir import Circuit, Gate
from superposer.simulator import (
    QUBIT_CAP,
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
    assert state.norm() == pytest.approx(1.0)


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
        assert state.norm() == pytest.approx(1.0, abs=1e-10)


def test_amplitudes_stay_real():
    for N in (3, 7, 29, 100):
        lowered, _ = lower(synthesize(N))
        assert np.max(np.abs(run(lowered).amps.imag)) < 1e-12


def test_uniform_distance_examples():
    state = run(synthesize(8))
    assert uniform_distance(state, 8) < 1e-15
    # |0> against the two-outcome target: index 1 has the larger deviation,
    # |0 - 1/sqrt(2)|, which beats |1 - 1/sqrt(2)| at index 0.
    zero = init_zero(1)
    assert uniform_distance(zero, 2) == pytest.approx(1 / math.sqrt(2))


def test_uniform_distance_rejects_bad_n():
    state = init_zero(2)
    with pytest.raises(ValueError):
        uniform_distance(state, 5)
    with pytest.raises(ValueError):
        uniform_distance(state, 0)
