import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from superposer.ir import Circuit, Gate, Level
from superposer.lowering import lower
from superposer.qasm import QasmParseError, emit_qasm, parse_qasm
from superposer.synthesis import synthesize


def _lowered(N):
    circuit, _ = lower(synthesize(N))
    return circuit


def test_emit_n2_exact_text():
    assert emit_qasm(_lowered(2)) == (
        "OPENQASM 2.0;\n"
        'include "qelib1.inc";\n'
        "qreg q[1];\n"
        "h q[0];\n"
    )


def test_emit_rejects_abstract_circuits():
    with pytest.raises(ValueError, match="lowered"):
        emit_qasm(synthesize(3))


def test_angles_carry_17_significant_digits():
    text = emit_qasm(_lowered(3))
    assert f"ry({math.pi / 4:.17g})" in text


def test_round_trip_structural_identity():
    for N in (1, 2, 3, 7, 12, 29, 30, 64):
        circuit = _lowered(N)
        assert parse_qasm(emit_qasm(circuit)) == circuit


def test_round_trip_is_byte_identical():
    for N in (3, 7, 30, 100):
        text = emit_qasm(_lowered(N))
        assert emit_qasm(parse_qasm(text)) == text


def test_round_trip_of_every_lowered_kind():
    # Synthesized circuits hold no X, and their entanglers point one way.
    circuit = Circuit(3, [
        Gate.h(0), Gate.x(1), Gate.z(2), Gate.ry(1, -0.75),
        Gate.cnot(0, 2), Gate.cnot(2, 0), Gate.cz(1, 2), Gate.cz(2, 1), Gate.x(2),
    ], Level.LOWERED)
    text = emit_qasm(circuit)
    assert text.splitlines()[3:] == [
        "h q[0];", "x q[1];", "z q[2];", "ry(-0.75) q[1];",
        "cx q[0],q[2];", "cx q[2],q[0];", "cz q[1],q[2];", "cz q[2],q[1];", "x q[2];",
    ]
    assert parse_qasm(text) == circuit
    assert emit_qasm(parse_qasm(text)) == text


@settings(deadline=None)
@given(st.integers(min_value=1, max_value=1024))
def test_round_trip_any_width(N):
    circuit = _lowered(N)
    assert parse_qasm(emit_qasm(circuit)) == circuit


def test_parse_accepts_loose_whitespace():
    text = (
        "OPENQASM 2.0;\n"
        '  include "qelib1.inc";\n'
        "qreg  q[ 2 ];\n"
        "\n"
        "h   q[ 0 ] ;\n"
        "cx q[0] , q[1];\n"
    )
    circuit = parse_qasm(text)
    assert circuit.n_qubits == 2
    assert len(circuit) == 2
    assert circuit.level is Level.LOWERED


def _expect_error(text, line, column_predicate=None, match=None):
    with pytest.raises(QasmParseError) as info:
        parse_qasm(text)
    err = info.value
    assert err.line == line, err
    if column_predicate is not None:
        assert column_predicate(err.column), err
    if match is not None:
        assert match in str(err), err
    return err


def test_missing_header_reports_line_one():
    _expect_error("", 1, match="header")
    _expect_error("qreg q[2];\n", 1, match="header")


def test_missing_include():
    _expect_error("OPENQASM 2.0;\nqreg q[2];\n", 2, match="qelib1.inc")
    err = _expect_error("OPENQASM 2.0;\n", 2, match="qelib1.inc")
    assert err.column == 1


def test_missing_qreg():
    _expect_error('OPENQASM 2.0;\ninclude "qelib1.inc";\n', 3, match="qreg")


def test_zero_width_register_rejected():
    _expect_error(
        'OPENQASM 2.0;\ninclude "qelib1.inc";\nqreg q[0];\n',
        3,
        match="at least 1",
    )


def test_unknown_gate_reports_position():
    err = _expect_error(
        'OPENQASM 2.0;\ninclude "qelib1.inc";\nqreg q[2];\nccx q[0],q[1];\n',
        4,
        match="outside the supported subset",
    )
    assert err.column == 1


def test_out_of_range_qubit_reports_position():
    err = _expect_error(
        'OPENQASM 2.0;\ninclude "qelib1.inc";\nqreg q[2];\nh q[5];\n',
        4,
        match="out of range",
    )
    assert err.column > 1


def test_malformed_ry_statement():
    _expect_error(
        'OPENQASM 2.0;\ninclude "qelib1.inc";\nqreg q[2];\nry q[0];\n',
        4,
        match="malformed",
    )


def test_bad_angle_text():
    _expect_error(
        'OPENQASM 2.0;\ninclude "qelib1.inc";\nqreg q[2];\nry(oops) q[0];\n',
        4,
        match="bad angle",
    )


@pytest.mark.parametrize(
    "body, line, column",
    [
        ("qreg q[٣];\n", 3, 8),
        ("qreg q[3];\nh q[٢];\n", 4, 5),
        ("qreg q[3];\nry(１.5) q[0];\n", 4, 4),
        ("qreg q[3];\n\u2003h q[0];\n", 4, 1),
    ],
)
def test_non_ascii_text_is_rejected_at_its_position(body, line, column):
    err = _expect_error('OPENQASM 2.0;\ninclude "qelib1.inc";\n' + body, line, match="non-ASCII")
    assert err.column == column


@pytest.mark.parametrize("angle", ["1_5", "inf", "nan", "+1.5", "1.5.2", "0x1p-2"])
def test_angles_outside_the_decimal_grammar_are_rejected(angle):
    _expect_error(
        f'OPENQASM 2.0;\ninclude "qelib1.inc";\nqreg q[1];\nry({angle}) q[0];\n',
        4,
        column_predicate=lambda column: column == 4,
        match="bad angle",
    )


@pytest.mark.parametrize(
    "statement, column, message",
    [("ry(1e999) q[0];", 4, "must be finite"), ("[0];", 1, "expected a gate statement")],
)
def test_bad_statements_report_their_position(statement, column, message):
    text = f'OPENQASM 2.0;\ninclude "qelib1.inc";\nqreg q[1];\n{statement}\n'
    err = _expect_error(text, 4, match=message)
    assert err.column == column


def test_duplicate_qreg_rejected():
    _expect_error(
        'OPENQASM 2.0;\ninclude "qelib1.inc";\nqreg q[2];\nqreg r[2];\n',
        4,
        match="duplicate",
    )


def test_cx_with_equal_operands_rejected():
    _expect_error(
        'OPENQASM 2.0;\ninclude "qelib1.inc";\nqreg q[2];\ncx q[1],q[1];\n',
        4,
        match="control equals target",
    )


# The shapes that the reader's grammar must tell apart, each as the only statement.
@pytest.mark.parametrize(
    "statement, expected",
    [
        ("ry (0.5) q[0];", Gate.ry(0, 0.5)),
        ("  cz q[1] ,q[0] ;", Gate.cz(1, 0)),
        ("x  q [ 1 ] ;", Gate.x(1)),
        ("ry(0.5)q[0];", (1, "malformed 'ry' statement")),
        ("h(0.5) q[0];", (1, "malformed 'h' statement")),
        ("h q[0],q[1];", (1, "malformed 'h' statement")),
        ("h q[0]", (1, "malformed 'h' statement")),
        ("cx q[0];", (1, "malformed 'cx' statement")),
        ("cx(0.5) q[0],q[1];", (1, "malformed 'cx' statement")),
        ("cx q[0],r[1];", (1, "malformed 'cx' statement")),
        ("hq[0];", (1, "gate 'hq' outside the supported subset")),
        ("ry() q[0];", (4, "bad angle ''")),
        ("cx q[0],q[007];", (11, "qubit 7 out of range for q[2]")),
        ("h q[02];", (5, "qubit 2 out of range for q[2]")),
    ],
)
def test_statement_shapes(statement, expected):
    text = f'OPENQASM 2.0;\ninclude "qelib1.inc";\nqreg q[2];\n{statement}\n'
    if isinstance(expected, Gate):
        assert parse_qasm(text).gates == (expected,)
        return
    with pytest.raises(QasmParseError) as info:
        parse_qasm(text)
    column, message = expected
    assert (info.value.line, info.value.column) == (4, column)
    assert str(info.value) == f"line 4, column {column}: {message}"


def test_wrong_register_name_rejected():
    _expect_error(
        'OPENQASM 2.0;\ninclude "qelib1.inc";\nqreg q[2];\nh r[0];\n',
        4,
        match="malformed",
    )
