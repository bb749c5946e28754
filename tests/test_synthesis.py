import random
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from superposer.analysis import classify, cnot_count
from superposer.ir import Circuit, Gate, GateKind
from superposer.simulator import run, uniform_distance
from superposer.synthesis import plan, split, synthesize

# The factor, binary_decompose and rotation_params tests pin the paper's three
# planning steps: N = 2**xi * M, the set bits k of M above bit 0, and the
# branch probabilities p. split and plan compute all three.


def test_factor_examples():
    assert split(12)[1:3] == (2, 3)
    assert split(7)[1:3] == (0, 7)
    assert split(16)[1:3] == (4, 1)
    assert split(1)[1:3] == (0, 1)


def test_factor_rejects_nonpositive():
    for N in (0, -3):
        with pytest.raises(ValueError, match="positive"):
            split(N)
        with pytest.raises(ValueError, match="positive"):
            plan(N)


def test_every_n_entry_point_refuses_bools_and_non_ints():
    # split is the one N check: bool would pass as 1 or 0, a float fail in &.
    for entry in (split, plan, synthesize, cnot_count, classify):
        for N in (True, False, 2.0, "5", Fraction(4), None):
            with pytest.raises(ValueError, match="N must be a positive integer"):
                entry(N)


@given(st.integers(min_value=1, max_value=10**9))
def test_factor_reconstructs(N):
    _, xi, M, _, _ = split(N)
    assert M % 2 == 1
    assert (M << xi) == N


def test_split_examples():
    assert split(1) == (1, 0, 1, 1, 0)
    assert split(2) == (1, 1, 1, 1, 0)
    assert split(7) == (3, 0, 7, 3, 3)
    assert split(12) == (4, 2, 3, 2, 2)
    assert split(16) == (4, 4, 1, 1, 0)
    with pytest.raises(ValueError, match="positive"):
        split(0)


@given(st.integers(min_value=1, max_value=1 << 200))
def test_split_matches_the_binary_string(N):
    bits = format(N, "b")
    odd = bits.rstrip("0")
    n, xi, M, g, m = split(N)
    assert n == max(1, len(format(N - 1, "b")))
    assert (xi, M, g) == (len(bits) - len(odd), int(odd, 2), bits.count("1"))
    assert m == (0 if odd == "1" else len(odd))


def test_binary_decompose_examples():
    assert (plan(7).g, plan(7).k) == (3, (2, 1))
    assert (plan(29).g, plan(29).k) == (4, (4, 3, 2))
    assert (plan(3).g, plan(3).k) == (2, (1,))
    assert plan(1).k == plan(8).k == ()


@given(st.integers(min_value=1, max_value=1 << 20).map(lambda v: 2 * v + 1))
def test_binary_decompose_reconstructs(M):
    pl = plan(M)
    k = pl.k
    assert pl.g == bin(M).count("1") == len(k) + 1
    assert all(a > b for a, b in zip(k, k[1:]))
    assert k[-1] >= 1
    assert sum(1 << e for e in k) + 1 == M


def test_rotation_params_examples():
    assert plan(3).p == (Fraction(2, 3),)
    assert plan(5).p == (Fraction(4, 5),)
    assert plan(7).p == (Fraction(4, 7), Fraction(2, 3))
    assert plan(15).p == (Fraction(8, 15), Fraction(4, 7), Fraction(2, 3))
    assert plan(1).p == plan(8).p == ()


def test_rotation_params_renormalize_against_the_residual():
    # The second split must divide by what is left (7 - 4 = 3), not by
    # the full mass. Using the share-of-total 2/7 instead leaves the
    # state visibly non-uniform, so the two choices cannot be confused.
    wrong = Circuit(3, (
        Gate.g(0, Fraction(4, 7)),
        Gate.cg(0, 1, Fraction(2, 7)),
        Gate.zero_ch(1, 2),
        Gate.zero_ch(0, 1),
    ))
    assert uniform_distance(run(wrong), 7) > 0.05
    assert uniform_distance(run(synthesize(7)), 7) < 1e-12


@given(st.integers(min_value=3, max_value=(1 << 20) - 1).map(lambda v: v | 1))
def test_rotation_params_lie_in_upper_half(M):
    for p in plan(M).p:
        assert Fraction(1, 2) < p < 1


def test_plan_examples():
    pl7 = plan(7)
    assert (pl7.n, pl7.xi, pl7.M, pl7.m, pl7.g) == (3, 0, 7, 3, 3)
    assert pl7.k == (2, 1)
    assert pl7.p == (Fraction(4, 7), Fraction(2, 3))

    pl16 = plan(16)
    assert (pl16.n, pl16.xi, pl16.M, pl16.m, pl16.g) == (4, 4, 1, 0, 1)
    assert pl16.k == () and pl16.p == ()

    pl30 = plan(30)
    assert (pl30.n, pl30.xi, pl30.M, pl30.m, pl30.g) == (5, 1, 15, 4, 4)
    assert pl30.p == (Fraction(8, 15), Fraction(4, 7), Fraction(2, 3))


def test_plan_probabilities_are_the_reduced_fractions():
    rng = random.Random(23)
    wide = [rng.getrandbits(b - 1) | 1 << (b - 1) for b in (64, 512, 2048, 4000)]
    edges = [(1 << b) + d for b in (*range(1, 66), 127, 128, 512, 2048, 4000) for d in (-1, 1)]
    for N in [*range(1, 4097), *edges, *wide]:
        pl = plan(N)
        remaining = pl.M
        for k, p in zip(pl.k, pl.p, strict=True):
            expected = Fraction(1 << k, remaining)
            assert type(p) is Fraction
            assert (p.numerator, p.denominator) == (expected.numerator, expected.denominator)
            assert type(p.numerator) is int and type(p.denominator) is int
            assert hash(p) == hash(expected)
            remaining -= 1 << k
        assert remaining == 1, N


def test_plan_width_splits_between_odd_part_and_hadamard_layer():
    for N in range(2, 2049):
        pl = plan(N)
        if pl.M > 1:
            assert pl.n == pl.xi + pl.m
        else:
            assert pl.n == pl.xi


def test_synthesize_n2_is_a_single_hadamard():
    circuit = synthesize(2)
    assert circuit.n_qubits == 1
    assert [(g.kind, g.target) for g in circuit.gates] == [(GateKind.H, 0)]


def test_synthesize_n7_exact_gate_list():
    gates = synthesize(7).gates
    assert [g.kind for g in gates] == [
        GateKind.G,
        GateKind.CG,
        GateKind.ZERO_CH,
        GateKind.ZERO_CH,
    ]
    assert gates[0].target == 0 and gates[0].prob == Fraction(4, 7)
    assert (gates[1].control, gates[1].target, gates[1].prob) == (0, 1, Fraction(2, 3))
    assert (gates[2].control, gates[2].target) == (1, 2)
    assert (gates[3].control, gates[3].target) == (0, 1)


def test_synthesize_n12_puts_hadamards_on_trailing_qubits():
    gates = synthesize(12).gates
    assert [g.kind for g in gates] == [
        GateKind.G,
        GateKind.ZERO_CH,
        GateKind.H,
        GateKind.H,
    ]
    assert gates[0].prob == Fraction(2, 3)
    assert (gates[1].control, gates[1].target) == (0, 1)
    assert [g.target for g in gates[2:]] == [2, 3]


def test_synthesize_n1_is_empty():
    circuit = synthesize(1)
    assert circuit.n_qubits == 1
    assert circuit.gates == ()


def test_synthesize_rejects_nonpositive():
    with pytest.raises(ValueError):
        synthesize(0)


def test_synthesize_gate_structure():
    # One G, g-2 CG, m-1 ZERO_CH, xi H, whenever the odd part is nontrivial.
    for N in range(2, 513):
        pl = plan(N)
        hist = Counter(gate.kind for gate in synthesize(N).gates)
        if pl.g == 1:
            assert hist == ({GateKind.H: pl.xi} if pl.xi else {})
        else:
            assert hist.get(GateKind.G, 0) == 1
            assert hist.get(GateKind.CG, 0) == pl.g - 2
            assert hist.get(GateKind.ZERO_CH, 0) == pl.m - 1
            assert hist.get(GateKind.H, 0) == pl.xi


def test_cg_gates_always_target_untouched_qubits():
    # This is what licenses the one-CNOT lowering of CG.
    for N in range(2, 1025):
        touched = set()
        for gate in synthesize(N).gates:
            if gate.kind is GateKind.CG:
                assert gate.target not in touched
            touched.update(gate.qubits)


def test_probabilities_stay_exact():
    for gate in synthesize(29).gates:
        if gate.prob is not None:
            assert isinstance(gate.prob, Fraction)


@settings(deadline=None)
@given(st.integers(min_value=1, max_value=512))
def test_synthesized_state_is_uniform(N):
    assert uniform_distance(run(synthesize(N)), N) < 1e-12
