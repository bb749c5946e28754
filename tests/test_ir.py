import dataclasses
from fractions import Fraction

import numpy as np
import pytest

from superposer.ir import (
    Circuit,
    Gate,
    GateKind,
    Level,
    depth,
    entangler_count,
    gate_histogram,
)
from superposer.lowering import lower
from superposer.synthesis import synthesize


def test_circuit_keeps_its_gates_in_order():
    circuit = Circuit(2, [Gate.h(0), Gate.cnot(0, 1)])
    assert [g.kind for g in circuit.gates] == [GateKind.H, GateKind.CNOT]
    assert circuit.n_qubits == 2
    assert circuit.level is Level.ABSTRACT


def test_circuit_rejects_an_out_of_range_qubit():
    with pytest.raises(ValueError, match="gate 1: qubit 2 out of range"):
        Circuit(2, (Gate.h(0), Gate.h(2)))
    with pytest.raises(ValueError, match="gate 0: qubit 5 out of range"):
        Circuit(2, (Gate.cnot(0, 5),))


def test_circuit_fields_are_immutable():
    circuit = Circuit(1, (Gate.h(0),))
    with pytest.raises(dataclasses.FrozenInstanceError):
        circuit.n_qubits = 2


def test_circuit_rejects_zero_width():
    with pytest.raises(ValueError):
        Circuit(0, ())


def test_qubit_indices_and_width_must_be_ints_not_bools():
    # bool is a subclass of int, so a value check alone would let these build.
    with pytest.raises(ValueError, match="n_qubits must be an integer"):
        Circuit(True, ())
    with pytest.raises(ValueError, match="target must be an integer"):
        Gate(GateKind.H, False)
    with pytest.raises(ValueError, match="control must be an integer"):
        Gate.cnot(True, 0)
    with pytest.raises(ValueError, match="target must be an integer"):
        Gate.ry(1.0, 0.5)


def test_gate_kind_must_be_a_gate_kind():
    with pytest.raises(ValueError, match="kind must be a GateKind, got 'h'"):
        Gate("h", 0)


def test_circuit_level_must_be_a_level():
    # A string level would skip the lowered-kind check, since it is not Level.LOWERED.
    with pytest.raises(ValueError, match="level must be a Level, got 'lowered'"):
        Circuit(1, [Gate.h(0)], "lowered")


def test_circuit_gates_must_be_iterable():
    for gates in (None, 5):
        with pytest.raises(ValueError, match=f"gates must be an iterable of Gates, got {gates}"):
            Circuit(2, gates)


def test_circuit_rejects_a_gate_list_entry_that_is_not_a_gate():
    with pytest.raises(ValueError, match="gate 0: expected a Gate, got None"):
        Circuit(2, [None])
    with pytest.raises(ValueError, match="gate 1: expected a Gate"):
        Circuit(2, [Gate.h(0), (GateKind.H, 1)])


def test_gate_angle_must_be_a_number_not_a_bool_or_string():
    for angle in ("1.5", True, False, [1.0]):
        with pytest.raises(ValueError, match="angle must be a number"):
            Gate.ry(0, angle)
    for angle, expected in ((2, 2.0), (np.float64(0.25), 0.25), (-1.5, -1.5)):
        assert type(Gate.ry(0, angle).angle) is float
        assert Gate.ry(0, angle).angle == expected


def test_gate_prob_must_be_an_int_or_a_fraction():
    for prob in (True, False, "1/2", np.int64(1), 0.5):
        with pytest.raises(TypeError, match="exact rational"):
            Gate.g(0, prob)
        with pytest.raises(TypeError, match="exact rational"):
            Gate.cg(0, 1, prob)
    assert Gate.g(0, 0).prob == Fraction(0)
    assert Gate.cg(0, 1, Fraction(1, 3)).prob == Fraction(1, 3)


def test_lowered_circuit_rejects_abstract_gate():
    with pytest.raises(ValueError, match="not allowed"):
        Circuit(2, (Gate.zero_ch(0, 1),), Level.LOWERED)


def test_lowered_builder_rejects_abstract_kinds():
    with pytest.raises(ValueError, match="not allowed"):
        Circuit(2, (Gate.zero_ch(0, 1),), Level.LOWERED)
    with pytest.raises(ValueError, match="not allowed"):
        Circuit(2, (Gate.g(0, Fraction(1, 2)),), Level.LOWERED)


def test_gate_control_must_differ_from_target():
    with pytest.raises(ValueError, match="control equals target"):
        Gate.cnot(1, 1)


# The vocabulary README states, restated so the kind facts are pinned to it.
_LOWERED_KINDS = {"h", "x", "z", "ry", "cnot", "cz"}
_CONTROLLED_KINDS = {"cg", "zero_ch", "cnot", "cz"}
_PARAMS = {"ry": "angle", "g": "prob", "cg": "prob"}


def test_gate_field_presence_rules():
    values = {"control": 1, "angle": 0.5, "prob": Fraction(1, 2)}
    requires = {"control": "requires a control", "angle": "requires an angle",
                "prob": "requires a probability"}
    refuses = {"control": "does not take a control", "angle": "does not take an angle",
               "prob": "does not take a probability"}
    for kind in GateKind:
        assert kind.lowered == (kind.value in _LOWERED_KINDS), kind
        if kind.value in _CONTROLLED_KINDS:
            assert kind.active_control == (0 if kind is GateKind.ZERO_CH else 1), kind
        else:
            assert kind.active_control is None, kind
        assert kind.param == _PARAMS.get(kind.value), kind

        # Gate builds with exactly the fields the facts name, and refuses
        # the kind without each of them or with any other one.
        taken = {"control": kind.active_control is not None,
                 "angle": kind.param == "angle", "prob": kind.param == "prob"}
        needed = {name: value for name, value in values.items() if taken[name]}
        gate = Gate(kind, 0, **needed)
        for name, value in values.items():
            if taken[name]:
                with pytest.raises(ValueError, match=requires[name]):
                    Gate(kind, 0, **{k: v for k, v in needed.items() if k != name})
            else:
                with pytest.raises(ValueError, match=refuses[name]):
                    Gate(kind, 0, **needed, **{name: value})

        if kind.lowered:
            assert Circuit(2, [gate], Level.LOWERED).gates == (gate,)
        else:
            with pytest.raises(ValueError, match=f"{kind.name} not allowed in a lowered circuit"):
                Circuit(2, [gate], Level.LOWERED)


def test_gate_prob_must_be_exact():
    with pytest.raises(TypeError, match="exact rational"):
        Gate.g(0, 0.5)
    assert Gate.g(0, 1).prob == Fraction(1)


def test_gate_prob_range():
    with pytest.raises(ValueError, match="outside"):
        Gate.g(0, Fraction(3, 2))


def test_gate_angle_must_be_finite():
    with pytest.raises(ValueError, match="finite"):
        Gate.ry(0, float("nan"))
    with pytest.raises(ValueError, match="finite"):
        Gate.ry(0, 10**400)


def test_gate_histogram_examples():
    assert gate_histogram(synthesize(16)) == {GateKind.H: 4}
    assert gate_histogram(synthesize(17)) == {GateKind.G: 1, GateKind.ZERO_CH: 4}
    assert gate_histogram(synthesize(1)) == {}


def test_gate_histogram_totals_match_length():
    for N in (2, 7, 29, 100, 255):
        circuit = synthesize(N)
        assert sum(gate_histogram(circuit).values()) == len(circuit)


def test_entangler_count_examples():
    assert entangler_count(synthesize(7)) == 3
    assert entangler_count(synthesize(16)) == 0
    lowered31, _ = lower(synthesize(31))
    assert entangler_count(lowered31) == 7
    # An abstract circuit may hold lowered-level entanglers too.
    assert entangler_count(Circuit(2, [Gate.h(0), Gate.cnot(0, 1)])) == 1
    assert entangler_count(Circuit(2, [Gate.cz(0, 1), Gate.zero_ch(1, 0)])) == 2


def test_entangler_count_is_preserved_by_lowering():
    for N in range(2, 65):
        abstract = synthesize(N)
        lowered, _ = lower(abstract)
        assert entangler_count(abstract) == entangler_count(lowered)


def test_circuits_compare_by_value():
    assert synthesize(7) == synthesize(7)
    assert tuple(synthesize(29)) == tuple(synthesize(29))
    assert synthesize(7) != synthesize(11)


def test_depth():
    assert depth(Circuit(3, ())) == 0
    assert depth(Circuit(3, (Gate.h(0), Gate.h(1), Gate.h(2)))) == 1
    assert depth(Circuit(2, (Gate.h(0), Gate.cnot(0, 1), Gate.h(1)))) == 3
