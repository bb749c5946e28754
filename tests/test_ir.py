import copy
import dataclasses
import math
import pickle
from fractions import Fraction

import matrix_oracle as mo
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from superposer.ir import (
    Circuit,
    Gate,
    GateKind,
    Level,
    depth,
    entangler_count,
)
from superposer.lowering import lower
from superposer.qasm import QasmParseError, parse_qasm
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


def test_gate_control_must_be_non_negative():
    with pytest.raises(ValueError, match="control -1 must be non-negative"):
        Gate(GateKind.CNOT, 1, control=-1)


# Each kind's target matrix as the oracle builds it, with numpy and apart from Gate.entries.
_ORACLE_TARGETS = {
    GateKind.H: lambda gate: mo.H, GateKind.ZERO_CH: lambda gate: mo.H,
    GateKind.X: lambda gate: mo.X, GateKind.CNOT: lambda gate: mo.X,
    GateKind.Z: lambda gate: mo.Z, GateKind.CZ: lambda gate: mo.Z,
    GateKind.RY: lambda gate: mo.ry(gate.angle),
    GateKind.G: lambda gate: mo.g_matrix(gate.prob),
    GateKind.CG: lambda gate: mo.g_matrix(gate.prob),
}
_ACTIONS = {"x": "swap", "cnot": "swap", "z": "flip", "cz": "flip"}


def test_gate_entries_are_the_oracle_target_matrices():
    # The simulator reads every gate's numbers from Gate.entries alone.
    params = {
        "angle": [{"angle": a} for a in (0.0, 0.3, -1.25, math.pi / 4, 7.0)],
        "prob": [{"prob": p} for p in (Fraction(0), Fraction(1, 3), Fraction(1, 2),
                                       Fraction(65537, 65539), Fraction(1))],
        None: [{}],
    }
    for kind in GateKind:
        assert kind.action == _ACTIONS.get(kind.value, "mix"), kind
        control = None if kind.active_control is None else 0
        for fields in params[kind.param]:
            gate = Gate(kind, 1, control=control, **fields)
            entries = gate.entries
            assert len(entries) == 4 and all(type(x) is float for x in entries), gate
            assert np.abs(np.reshape(entries, (2, 2)) - _ORACLE_TARGETS[kind](gate)).max() <= 1e-15, gate


# The vocabulary README states, restated so the kind facts are pinned to it.
_LOWERED_KINDS = {"h", "x", "z", "ry", "cnot", "cz"}
_QASM_WORDS = {"h": "h", "x": "x", "z": "z", "ry": "ry", "cnot": "cx", "cz": "cz"}
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
        assert kind.qasm == _QASM_WORDS.get(kind.value), kind
        assert kind.lowered == (kind.qasm is not None), kind
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
    assert synthesize(29).gates == synthesize(29).gates
    assert synthesize(7) != synthesize(11)


def test_depth():
    assert depth(Circuit(3, ())) == 0
    assert depth(Circuit(3, (Gate.h(0), Gate.h(1), Gate.h(2)))) == 1
    assert depth(Circuit(2, (Gate.h(0), Gate.cnot(0, 1), Gate.h(1)))) == 3


def _reference_depth(circuit):
    """Greedy layering as a generator over each gate's qubits: the formula ``depth`` must match."""
    frontier = [0] * circuit.n_qubits
    for gate in circuit.gates:
        layer = 1 + max(frontier[q] for q in gate.qubits)
        for q in gate.qubits:
            frontier[q] = layer
    return max(frontier, default=0)


@st.composite
def _circuits(draw):
    level = draw(st.sampled_from(Level))
    n = draw(st.integers(1, 8))
    kinds = [kind for kind in GateKind if (kind.lowered or level is Level.ABSTRACT)
             and (n > 1 or kind.active_control is None)]
    gates = []
    for _ in range(draw(st.integers(0, 40))):
        kind = draw(st.sampled_from(kinds))
        target = draw(st.integers(0, n - 1))
        fields = {"angle": {"angle": 0.5}, "prob": {"prob": Fraction(1, 2)}}.get(kind.param, {})
        if kind.active_control is not None:
            fields["control"] = draw(st.sampled_from([q for q in range(n) if q != target]))
        gates.append(Gate(kind, target, **fields))
    return Circuit(n, gates, level)


@settings(max_examples=300, deadline=None)
@given(_circuits())
def test_depth_equals_the_generator_formula(circuit):
    assert depth(circuit) == _reference_depth(circuit)


def test_depth_of_a_wide_register_costs_only_the_qubits_its_gates_name():
    text = 'OPENQASM 2.0;\ninclude "qelib1.inc";\nqreg q[1000000000000000];\nh q[3];\n'
    assert depth(parse_qasm(text)) == 1


@pytest.mark.parametrize(
    "bad, level, message",
    [
        (None, Level.ABSTRACT, "expected a Gate, got None"),
        ("h", Level.LOWERED, "expected a Gate, got 'h'"),
        (Gate.h(4), Level.ABSTRACT, "qubit 4 out of range for 4 qubits"),
        (Gate.cnot(1, 9), Level.LOWERED, "qubit 9 out of range for 4 qubits"),
        (Gate.cz(7, 1), Level.ABSTRACT, "qubit 7 out of range for 4 qubits"),
        (Gate.cnot(5, 6), Level.ABSTRACT, "qubit 5 out of range for 4 qubits"),
        (Gate.zero_ch(0, 1), Level.LOWERED, "ZERO_CH not allowed in a lowered circuit"),
        (Gate.g(2, Fraction(1, 3)), Level.LOWERED, "G not allowed in a lowered circuit"),
        (Gate.cg(3, 2, Fraction(1, 3)), Level.LOWERED, "CG not allowed in a lowered circuit"),
    ],
)
def test_a_bad_gate_in_a_long_list_is_reported_with_its_index(bad, level, message):
    gates = [Gate.h(q % 4) if q % 3 else Gate.cnot(q % 4, (q + 1) % 4) for q in range(1000)]
    gates[617] = bad
    with pytest.raises(ValueError) as info:
        Circuit(4, gates, level)
    assert str(info.value) == f"gate 617: {message}"


_SAMPLE_GATES = [Gate.h(0), Gate.ry(1, -0.25), Gate.g(0, Fraction(2, 3)),
                 Gate.cg(0, 1, Fraction(1, 3)), Gate.zero_ch(1, 0), Gate.cnot(0, 2), Gate.cz(2, 1)]


@pytest.mark.parametrize("gate", _SAMPLE_GATES)
def test_gate_fields_cannot_be_assigned_or_deleted(gate):
    for field in dataclasses.fields(Gate):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(gate, field.name, getattr(gate, field.name))
        with pytest.raises(dataclasses.FrozenInstanceError):
            delattr(gate, field.name)
    # A name that is no field has no slot either. The __setattr__ that
    # dataclasses writes for a frozen class refuses it as TypeError once the
    # class has slots (its super() call names the class before slots were added).
    with pytest.raises((dataclasses.FrozenInstanceError, TypeError)):
        gate.label = "extra"
    assert not hasattr(gate, "label")


@pytest.mark.parametrize("gate", _SAMPLE_GATES)
def test_gate_survives_pickle_and_copy(gate):
    for other in (pickle.loads(pickle.dumps(gate)), copy.copy(gate), copy.deepcopy(gate)):
        assert type(other) is Gate
        assert other == gate
        assert hash(other) == hash(gate)
        assert repr(other) == repr(gate)


def test_qasm_parse_error_survives_pickle_and_copy():
    with pytest.raises(QasmParseError) as info:
        parse_qasm('OPENQASM 2.0;\ninclude "qelib1.inc";\nqreg q[2];\n  ry(1: 2) q[0];\n')
    err = info.value
    assert (err.line, err.column, str(err)) == (4, 6, "line 4, column 6: bad angle '1: 2'")
    for other in (pickle.loads(pickle.dumps(err)), copy.copy(err), copy.deepcopy(err)):
        assert type(other) is QasmParseError
        assert (other.line, other.column, str(other), other.args) == (
            err.line, err.column, str(err), err.args)


_BUILDERS = [
    (Gate.h, GateKind.H, ("target",)),
    (Gate.x, GateKind.X, ("target",)),
    (Gate.z, GateKind.Z, ("target",)),
    (Gate.ry, GateKind.RY, ("target", "angle")),
    (Gate.g, GateKind.G, ("target", "prob")),
    (Gate.cg, GateKind.CG, ("control", "target", "prob")),
    (Gate.zero_ch, GateKind.ZERO_CH, ("control", "target")),
    (Gate.cnot, GateKind.CNOT, ("control", "target")),
    (Gate.cz, GateKind.CZ, ("control", "target")),
]
_BUILDER_INPUTS = [
    {}, {"target": True}, {"target": -1}, {"control": 3}, {"control": True},
    {"angle": 2}, {"angle": math.inf}, {"angle": math.nan}, {"angle": True},
    {"prob": 1}, {"prob": 0.5}, {"prob": 2}, {"prob": Fraction(3, 2)},
]


def _outcome(build, *args, **kwargs):
    """Each field with its type, or the exception's type and message."""
    try:
        gate = build(*args, **kwargs)
    except (TypeError, ValueError) as exc:
        return type(exc), str(exc)
    return [(getattr(gate, f.name), type(getattr(gate, f.name))) for f in dataclasses.fields(Gate)]


@pytest.mark.parametrize("builder, kind, names", _BUILDERS, ids=[k.name for _, k, _ in _BUILDERS])
def test_builders_match_the_keyword_constructor(builder, kind, names):
    base = {"control": 1, "target": 3, "angle": 0.5, "prob": Fraction(1, 3)}
    cases = [change for change in _BUILDER_INPUTS if set(change) <= set(names)]
    assert len(cases) > 2
    for change in cases:
        values = {**base, **change}
        args = [values[name] for name in names]
        expected = _outcome(Gate, kind=kind, **{name: values[name] for name in names})
        assert _outcome(builder, *args) == expected, change


_MATRIX_TARGETS = [0, 2, -1, True, 1.0]
_MATRIX_CONTROLS = [None, 1, 2, -3, True, "1"]
_MATRIX_ANGLES = [None, 0.5, 3, True, "0.5", math.inf, math.nan, 10**400]
_MATRIX_PROBS = [None, Fraction(1, 3), 1, 0.5, True, Fraction(3, 2), -1, "1/2"]


def _documented_outcome(kind, target, control, angle, prob):
    """What Gate promises, checking kind, target, control, prob and angle in that order."""
    if type(kind) is not GateKind:
        return ValueError, f"kind must be a GateKind, got {kind!r}"
    if type(target) is not int:
        return ValueError, f"target must be an integer, got {target!r}"
    if target < 0:
        return ValueError, f"target {target} must be non-negative"
    if kind.active_control is None:
        if control is not None:
            return ValueError, f"{kind.name} does not take a control qubit"
    elif control is None:
        return ValueError, f"{kind.name} requires a control qubit"
    elif type(control) is not int:
        return ValueError, f"control must be an integer, got {control!r}"
    elif control < 0:
        return ValueError, f"control {control} must be non-negative"
    elif control == target:
        return ValueError, f"{kind.name} control equals target ({target})"
    if kind.param != "prob":
        if prob is not None:
            return ValueError, f"{kind.name} does not take a probability"
    elif prob is None:
        return ValueError, f"{kind.name} requires a probability"
    elif type(prob) not in (int, Fraction):
        return TypeError, f"prob must be an exact rational (Fraction), got {prob!r}"
    elif not 0 <= prob <= 1:
        return ValueError, f"prob {Fraction(prob)} outside [0, 1]"
    if kind.param != "angle":
        if angle is not None:
            return ValueError, f"{kind.name} does not take an angle"
    elif angle is None:
        return ValueError, f"{kind.name} requires an angle"
    elif not isinstance(angle, (int, float)) or isinstance(angle, bool):
        return ValueError, f"angle must be a number, got {angle!r}"
    else:
        try:
            angle = float(angle)
        except OverflowError:
            angle = math.inf
        if not math.isfinite(angle):
            return ValueError, f"angle {angle} must be finite"
    prob = None if prob is None else Fraction(prob)
    return [(value, type(value)) for value in (kind, target, control, angle, prob)]


def test_gate_refuses_every_bad_argument_in_the_documented_order():
    calls = [(kind, target, control, angle, prob)
             for kind in GateKind for target in _MATRIX_TARGETS for control in _MATRIX_CONTROLS
             for angle in _MATRIX_ANGLES for prob in _MATRIX_PROBS]
    assert len(calls) == 17280
    built = set()
    for call in calls:
        expected = _documented_outcome(*call)
        assert _outcome(Gate, *call) == expected, call
        if isinstance(expected, list):
            built.add(call[0])
    assert built == set(GateKind)


def test_keyword_construction_and_replace_run_every_check():
    gate = Gate(kind=GateKind.RY, target=1, angle=2)
    assert gate == Gate.ry(1, 2.0)
    assert type(gate.angle) is float
    with pytest.raises(ValueError, match="target must be an integer"):
        Gate(kind=GateKind.H, target=True)
    with pytest.raises(ValueError, match="H does not take a control qubit"):
        dataclasses.replace(Gate.h(0), control=1)
    with pytest.raises(ValueError, match="CNOT control equals target"):
        dataclasses.replace(Gate.cnot(0, 1), target=0)
    with pytest.raises(TypeError, match="exact rational"):
        dataclasses.replace(Gate.g(0, 1), prob=0.5)
    with pytest.raises(ValueError, match="finite"):
        dataclasses.replace(Gate.ry(0, 1.0), angle=math.inf)
    with pytest.raises(ValueError, match="kind must be a GateKind"):
        dataclasses.replace(Gate.h(0), kind="x")
    widened = dataclasses.replace(Gate.g(0, Fraction(1, 2)), prob=1)
    assert type(widened.prob) is Fraction
    assert widened == Gate.g(0, Fraction(1))
    assert dataclasses.replace(Gate.h(0), kind=GateKind.X) == Gate.x(0)


def test_gate_repr():
    assert repr(Gate.h(0)) == (
        "Gate(kind=<GateKind.H: 'h'>, target=0, control=None, angle=None, prob=None)")
    assert repr(Gate.cg(0, 1, Fraction(1, 3))) == (
        "Gate(kind=<GateKind.CG: 'cg'>, target=1, control=0, angle=None, prob=Fraction(1, 3))")
    assert repr(Gate.ry(2, -0.5)) == (
        "Gate(kind=<GateKind.RY: 'ry'>, target=2, control=None, angle=-0.5, prob=None)")
