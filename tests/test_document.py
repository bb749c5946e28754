import dataclasses
import json
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from superposer.document import emit_document, parse_document
from superposer.ir import Circuit, Gate, Level
from superposer.lowering import lower
from superposer.synthesis import synthesize


def test_abstract_round_trip_keeps_exact_probabilities():
    circuit = synthesize(7)
    back = parse_document(emit_document(circuit))
    assert back == circuit
    assert back.gates[0].prob == Fraction(4, 7)
    assert back.level is Level.ABSTRACT


def test_lowered_round_trip_keeps_exact_angles():
    circuit, _ = lower(synthesize(29))
    back = parse_document(emit_document(circuit))
    assert back == circuit
    assert [g.angle for g in back.gates] == [g.angle for g in circuit.gates]


def test_round_trip_over_a_range():
    for N in (1, 2, 3, 12, 30, 64, 100):
        circuit = synthesize(N)
        assert parse_document(emit_document(circuit)) == circuit


def test_document_shape():
    doc = json.loads(emit_document(synthesize(12)))
    assert doc["version"] == 1
    assert doc["n_qubits"] == 4
    assert doc["level"] == "abstract"
    assert doc["gates"][0] == {"kind": "g", "target": 0, "prob": [2, 3]}
    assert doc["gates"][1] == {"kind": "zero_ch", "target": 1, "control": 0}


def test_parse_rejects_bad_json():
    with pytest.raises(ValueError, match="malformed"):
        parse_document("{oops")
    with pytest.raises(ValueError, match="object"):
        parse_document("[1, 2]")


def test_parse_rejects_wrong_version():
    doc = json.loads(emit_document(synthesize(2)))
    for version in (99, True, 1.0, "1"):
        doc["version"] = version
        with pytest.raises(ValueError, match="version"):
            parse_document(json.dumps(doc))


def test_parse_rejects_missing_fields():
    doc = json.loads(emit_document(synthesize(2)))
    del doc["gates"]
    with pytest.raises(ValueError, match="missing"):
        parse_document(json.dumps(doc))


def test_parse_rejects_unknown_top_level_fields():
    doc = json.loads(emit_document(synthesize(2)))
    doc["qubits"] = 1
    with pytest.raises(ValueError, match=r"circuit document has unknown fields \['qubits'\]"):
        parse_document(json.dumps(doc))


def test_parse_rejects_gates_that_are_not_a_list_of_objects():
    head = '{"version": 1, "n_qubits": 1, "level": "abstract", "gates": '
    with pytest.raises(ValueError, match="gate 0: expected an object, got 5"):
        parse_document(head + "[5]}")
    with pytest.raises(ValueError, match="gates must be a list"):
        parse_document(head + "{}}")


def test_parse_rejects_unknown_kind():
    doc = json.loads(emit_document(synthesize(2)))
    doc["gates"][0]["kind"] = "ccx"
    with pytest.raises(ValueError, match="unknown kind"):
        parse_document(json.dumps(doc))


def test_parse_rejects_unknown_level():
    doc = json.loads(emit_document(synthesize(2)))
    doc["level"] = "middle"
    with pytest.raises(ValueError, match="unknown level"):
        parse_document(json.dumps(doc))


def test_parse_rejects_bad_probability_shape():
    doc = json.loads(emit_document(synthesize(3)))
    doc["gates"][0]["prob"] = [1, 2, 3]
    with pytest.raises(ValueError, match="prob"):
        parse_document(json.dumps(doc))
    for prob in ([1, 0], [True, 2], [1, True]):
        doc["gates"][0]["prob"] = prob
        with pytest.raises(ValueError, match="gate 0: prob"):
            parse_document(json.dumps(doc))


@pytest.mark.parametrize("prob, refusal", [
    ([2, 4], None), ([0, 1], None), ([0, 3], None), ([1, 1], None), ([2, 3], None),
    ([3, 5], None), ([-2, -4], None), ([-1, -3], None), ([1 << 70, (1 << 71) + 1], None),
    ([4, 3], "prob 4/3 outside [0, 1]"), ([8, 1], "prob 8 outside [0, 1]"),
    ([-1, 3], "prob -1/3 outside [0, 1]"), ([1, -3], "prob -1/3 outside [0, 1]"),
    ([1, 0], "prob must be [numerator, denominator]"),
    ([True, 2], "prob must be [numerator, denominator]"),
    ([False, 1], "prob must be [numerator, denominator]"),
])
def test_parse_reads_a_prob_pair_as_its_fraction(prob, refusal):
    # [2**k, odd] pairs skip Fraction's gcd; every pair must still read as Fraction(*pair).
    text = json.dumps({"version": 1, "n_qubits": 2, "level": "abstract",
                       "gates": [{"kind": "cg", "target": 0, "control": 1, "prob": prob}]})
    if refusal is not None:
        with pytest.raises(ValueError) as info:
            parse_document(text)
        assert str(info.value) == f"gate 0: {refusal}"
        return
    gate, expected = parse_document(text).gates[0], Gate.cg(1, 0, Fraction(*prob))
    for field in dataclasses.fields(Gate):
        got, want = getattr(gate, field.name), getattr(expected, field.name)
        assert (type(got), got) == (type(want), want), field.name
    for part in ("numerator", "denominator"):
        got, want = getattr(gate.prob, part), getattr(expected.prob, part)
        assert (type(got), got) == (type(want), want), part


def test_parse_rejects_unknown_gate_fields():
    doc = json.loads(emit_document(synthesize(2)))
    doc["gates"][0]["phase"] = 0.5
    with pytest.raises(ValueError, match="unknown fields"):
        parse_document(json.dumps(doc))


def test_parse_rejects_an_angle_too_large_for_a_float():
    doc = json.loads(emit_document(lower(synthesize(3))[0]))
    doc["gates"][0]["angle"] = 10**400
    with pytest.raises(ValueError, match="gate 0: angle .* must be finite"):
        parse_document(json.dumps(doc))


def test_parse_reports_gate_index_on_bad_operands():
    doc = json.loads(emit_document(synthesize(3)))
    doc["gates"][1]["control"] = doc["gates"][1]["target"]
    with pytest.raises(ValueError, match="gate 1"):
        parse_document(json.dumps(doc))


def test_parse_validates_register_width():
    doc = json.loads(emit_document(synthesize(3)))
    doc["n_qubits"] = 1
    with pytest.raises(ValueError, match="out of range"):
        parse_document(json.dumps(doc))


def test_parse_rejects_booleans_as_numbers():
    # JSON true/false load as bool, which Python counts as an int.
    with pytest.raises(ValueError, match="n_qubits must be an integer"):
        parse_document('{"version": 1, "n_qubits": true, "level": "abstract",'
                       ' "gates": [{"kind": "h", "target": false}]}')
    abstract = json.loads(emit_document(synthesize(3)))
    lowered = json.loads(emit_document(lower(synthesize(3))[0]))
    cases = [
        (abstract, 0, "target", False, "target must be an integer"),
        (abstract, 1, "control", False, "control must be an integer"),
        (lowered, 0, "angle", False, "angle must be a number"),
    ]
    for doc, index, field, value, message in cases:
        bad = json.loads(json.dumps(doc))
        assert field in bad["gates"][index]
        bad["gates"][index][field] = value
        with pytest.raises(ValueError, match=f"gate {index}: {message}"):
            parse_document(json.dumps(bad))


def test_parse_rejects_a_number_past_the_int_digit_limit():
    text = '{"version": 1, "n_qubits": ' + "1" * 5000 + ', "level": "abstract", "gates": []}'
    with pytest.raises(ValueError, match="malformed circuit document: Exceeds the limit"):
        parse_document(text)


def _reference_document(circuit):
    """The document as json.dumps writes it, which emit_document must match byte for byte."""
    gates = []
    for gate in circuit.gates:
        entry = {"kind": gate.kind.value, "target": gate.target}
        if gate.control is not None:
            entry["control"] = gate.control
        if gate.prob is not None:
            entry["prob"] = [gate.prob.numerator, gate.prob.denominator]
        if gate.angle is not None:
            entry["angle"] = gate.angle
        gates.append(entry)
    doc = {"version": 1, "n_qubits": circuit.n_qubits, "level": circuit.level.value,
           "gates": gates}
    return json.dumps(doc, indent=2) + "\n"


def test_emit_equals_the_json_dumps_reference_over_a_range():
    for N in range(1, 301):
        abstract = synthesize(N)
        lowered, _ = lower(abstract)
        for circuit in (abstract, lowered):
            assert emit_document(circuit) == _reference_document(circuit), (N, circuit.level)


@settings(max_examples=20, deadline=None)
@given(st.integers(2**20, 2**700))
def test_emit_equals_the_json_dumps_reference_on_wide_n(N):
    abstract = synthesize(N)
    lowered, _ = lower(abstract)
    assert emit_document(abstract) == _reference_document(abstract)
    assert emit_document(lowered) == _reference_document(lowered)


def test_emit_equals_the_json_dumps_reference_on_edge_values():
    angles = [Gate.ry(0, angle) for angle in (-0.0, 5e-324, 1e300, -1e300, 3, 0.1)]
    kinds = [Gate.h(1), Gate.x(2), Gate.z(0), Gate.cnot(2, 0), Gate.cz(0, 1)]
    probs = [Gate.g(0, Fraction(0)), Gate.g(1, Fraction(1)), Gate.cg(2, 0, Fraction(1)),
             Gate.cg(1, 2, Fraction(0)), Gate.zero_ch(0, 2)]
    circuits = [Circuit(3, angles + kinds, Level.LOWERED), Circuit(3, angles + kinds + probs),
                Circuit(1, ()), Circuit(1, (), Level.LOWERED)]
    for circuit in circuits:
        text = emit_document(circuit)
        assert text == _reference_document(circuit)
        assert parse_document(text) == circuit
    assert '"gates": []' in emit_document(Circuit(1, ()))
