import json
from fractions import Fraction

import pytest

from superposer.document import emit_document, parse_document
from superposer.ir import Level
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
    doc["gates"][0]["prob"] = [1, 0]
    with pytest.raises(ValueError, match="prob"):
        parse_document(json.dumps(doc))


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
