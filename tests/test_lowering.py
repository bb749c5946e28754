import math
from fractions import Fraction

import numpy as np
import pytest

import matrix_oracle as mo
from hypothesis import given, settings
from hypothesis import strategies as st
from superposer.ir import Circuit, Gate, GateKind, Level, entangler_count
from superposer.lowering import (
    lower,
    lower_cg,
    lower_g,
    lower_zero_ch,
)
from superposer.simulator import run, uniform_distance
from superposer.synthesis import synthesize


def _entanglers(gates):
    return [g for g in gates if g.kind in (GateKind.CNOT, GateKind.CZ)]


def test_lower_g_is_a_single_rotation():
    (gate,) = lower_g(Fraction(1, 2), 0)
    assert gate.kind is GateKind.RY
    assert gate.angle == pytest.approx(math.pi / 2)
    (gate,) = lower_g(Fraction(1), 3)
    assert gate.angle == pytest.approx(0.0)
    assert gate.target == 3


def test_lower_g_matches_ideal_matrix():
    for p in (Fraction(0), Fraction(4, 7), Fraction(2, 3), Fraction(1)):
        (gate,) = lower_g(p, 0)
        assert np.max(np.abs(mo.ry(gate.angle) - mo.g_matrix(p))) < 1e-12


def test_lower_cg_shape():
    gates = lower_cg(Fraction(2, 3), 0, 1)
    assert [g.kind for g in gates] == [GateKind.RY, GateKind.CNOT, GateKind.RY]
    assert gates[0].angle == -gates[2].angle
    assert len(_entanglers(gates)) == 1


def test_lower_cg_matches_ideal_on_zero_targets():
    # Columns for |00> and |10>, the only inputs synthesis ever feeds it.
    for p in (Fraction(0), Fraction(1, 2), Fraction(2, 3), Fraction(1)):
        u = mo.sequence_matrix(lower_cg(p, 0, 1))
        ideal = mo.cg_ideal(p)
        for column in (0, 2):
            assert np.max(np.abs(u[:, column] - ideal[:, column])) < 1e-12


def test_lower_cg_p_two_thirds_splits_the_set_branch():
    u = mo.sequence_matrix(lower_cg(Fraction(2, 3), 0, 1))
    start = np.zeros(4)
    start[2] = 1.0  # |10>
    out = u @ start
    assert out[2] == pytest.approx(math.sqrt(2 / 3))
    assert out[3] == pytest.approx(math.sqrt(1 / 3))


def test_lower_cg_p_one_fixes_zero_target_inputs():
    u = mo.sequence_matrix(lower_cg(Fraction(1), 0, 1))
    for column in (0, 2):
        expected = np.zeros(4)
        expected[column] = 1.0
        assert np.max(np.abs(u[:, column] - expected)) < 1e-12


def test_lower_cg_rejects_bad_probability():
    with pytest.raises(ValueError):
        lower_cg(Fraction(3, 2), 0, 1)


def test_lower_zero_ch_matches_ideal_everywhere():
    u = mo.sequence_matrix(lower_zero_ch(0, 1))
    assert np.max(np.abs(u - mo.zero_ch_ideal())) < 1e-12


def test_lower_zero_ch_keeps_the_both_on_phase():
    # |11> must come back as +|11>: the set-control branch is reachable
    # in synthesized circuits, so an unwanted sign would corrupt states.
    u = mo.sequence_matrix(lower_zero_ch(0, 1))
    expected = np.zeros(4)
    expected[3] = 1.0
    assert np.max(np.abs(u[:, 3] - expected)) < 1e-12


def test_lower_zero_ch_uses_one_entangler():
    assert len(_entanglers(lower_zero_ch(0, 1))) == 1


def test_lower_n7_report():
    lowered, report = lower(synthesize(7))
    assert lowered.level is Level.LOWERED
    assert len(lowered) == 12
    assert report.entanglers_emitted == 3


def test_lower_passes_hadamards_through():
    abstract = synthesize(16)
    lowered, report = lower(abstract)
    assert lowered.gates == abstract.gates
    assert report.entanglers_emitted == 0


def test_lower_rejects_lowered_input():
    lowered, _ = lower(synthesize(3))
    with pytest.raises(ValueError, match="already lowered"):
        lower(lowered)


def test_lowering_preserves_entangler_count():
    for N in range(2, 257):
        abstract = synthesize(N)
        lowered, report = lower(abstract)
        assert entangler_count(lowered) == entangler_count(abstract)
        assert report.entanglers_emitted == entangler_count(lowered)


def test_lowered_circuits_prepare_the_same_state():
    for N in range(1, 257):
        abstract = synthesize(N)
        lowered, _ = lower(abstract)
        assert uniform_distance(run(abstract), N) < 1e-12
        assert uniform_distance(run(lowered), N) < 1e-12


def test_cg_rewrite_holds_for_random_probabilities():
    rng = np.random.default_rng(20240817)
    for _ in range(100):
        p = Fraction(int(rng.integers(1, 10**6)), 10**6)
        gates = lower_cg(p, 0, 1)
        assert len(_entanglers(gates)) == 1
        u = mo.sequence_matrix(gates)
        ideal = mo.cg_ideal(p)
        for column in (0, 2):
            assert np.max(np.abs(u[:, column] - ideal[:, column])) < 1e-12


def test_lower_rejects_cg_on_a_touched_target():
    # A valid abstract circuit whose CG target is no longer |0>: the
    # one-CNOT rewrite would silently prepare a different state.
    abstract = Circuit(2, (Gate.h(0), Gate.h(1), Gate.cg(0, 1, Fraction(1, 3))))
    rewritten = Circuit(2, [Gate.h(0), Gate.h(1)] + lower_cg(Fraction(1, 3), 0, 1), Level.LOWERED)
    assert np.max(np.abs(run(rewritten).amps - run(abstract).amps)) > 0.8
    with pytest.raises(ValueError, match="gate 2: CG target 1"):
        lower(abstract)


def _abstract_gates(n):
    qubit = st.integers(0, n - 1)
    pair = st.lists(qubit, min_size=2, max_size=2, unique=True)
    prob = st.fractions(min_value=0, max_value=1, max_denominator=1000)
    return st.one_of(
        st.builds(Gate.h, qubit),
        st.builds(Gate.x, qubit),
        st.builds(Gate.z, qubit),
        st.builds(Gate.ry, qubit, st.floats(-7, 7)),
        st.builds(Gate.g, qubit, prob),
        st.builds(lambda cq, p: Gate.cg(*cq, p), pair, prob),
        pair.map(lambda cq: Gate.zero_ch(*cq)),
        pair.map(lambda cq: Gate.cnot(*cq)),
        pair.map(lambda cq: Gate.cz(*cq)),
    )


_abstract_circuits = st.integers(2, 4).flatmap(
    lambda n: st.lists(_abstract_gates(n), max_size=12).map(lambda gates: Circuit(n, gates))
)


@settings(max_examples=300, deadline=None)
@given(_abstract_circuits)
def test_lower_either_raises_or_preserves_the_state(abstract):
    try:
        lowered, _ = lower(abstract)
    except ValueError as exc:
        assert "CG target" in str(exc)
        return
    assert np.max(np.abs(run(lowered).amps - run(abstract).amps)) < 1e-12
    assert entangler_count(lowered) == entangler_count(abstract)
