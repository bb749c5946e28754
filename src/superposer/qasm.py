"""OpenQASM 2.0 subset for lowered circuits.

Emitted programs use exactly one quantum register and the gates h, x, z,
ry(theta), cx, cz. Angles are printed with 17 significant digits, which
is enough for the printed text to reproduce the double exactly, so
emit -> parse -> emit is byte-identical. The parser accepts the same
subset in ASCII and reports errors with 1-based line and column positions.
Every statement line is matched against one grammar: a word, an optional
"(angle)" and one or two operands of the declared register.
"""

from __future__ import annotations

import re

from .ir import Circuit, Gate, GateKind, Level

_HEADER = "OPENQASM 2.0;"
_INCLUDE = 'include "qelib1.inc";'

_KINDS = {kind.qasm: kind for kind in GateKind if kind.lowered}

_QREG_RE = re.compile(r"\s*qreg\s+([A-Za-z_][A-Za-z0-9_]*)\s*\[\s*([0-9]+)\s*\]\s*;\s*$")
_WORD_RE = re.compile(r"\s*([A-Za-z_][A-Za-z0-9_.]*)")
_DECIMAL_RE = re.compile(r"-?(?:[0-9]+\.?[0-9]*|\.[0-9]+)(?:[eE][-+]?[0-9]+)?")
# Each preamble line: the test it must pass, and the error if it fails or is missing.
_PREAMBLE = (
    (lambda raw: raw.strip() == _HEADER, f"missing {_HEADER!r} header"),
    (lambda raw: raw.strip() == _INCLUDE, f"expected {_INCLUDE!r}"),
    (_QREG_RE.match, "expected a qreg declaration"),
)


class QasmParseError(ValueError):
    """Parse failure with a 1-based source position."""

    def __init__(self, line: int, column: int, message: str):
        self.line = line
        self.column = column
        super().__init__(line, column, message)

    def __str__(self) -> str:
        return "line {}, column {}: {}".format(*self.args)


def emit_qasm(circuit: Circuit) -> str:
    """Render a lowered circuit as OpenQASM 2.0 text."""
    if not isinstance(circuit, Circuit):
        raise ValueError(f"circuit must be a Circuit, got {type(circuit).__name__}")
    if circuit.level is not Level.LOWERED:
        raise ValueError("only lowered circuits can be emitted as QASM")
    lines = [_HEADER, _INCLUDE, f"qreg q[{circuit.n_qubits}];"]
    for gate in circuit.gates:
        kind = gate.kind
        if kind.param == "angle":
            lines.append(f"{kind.qasm}({gate.angle:.17g}) q[{gate.target}];")
        elif kind.active_control is not None:
            lines.append(f"{kind.qasm} q[{gate.control}],q[{gate.target}];")
        else:
            lines.append(f"{kind.qasm} q[{gate.target}];")
    return "\n".join(lines) + "\n"


def _first_word(raw: str) -> tuple[str, int]:
    """A line's first word and its 1-based column, or ("", 1) if it has none."""
    match = _WORD_RE.match(raw)
    return (match[1], match.start(1) + 1) if match else ("", 1)


def _statement_error(lineno: int, raw: str) -> QasmParseError:
    """The error for a statement line that fails the grammar or its kind's facts."""
    word, column = _first_word(raw)
    if not word:
        return QasmParseError(lineno, 1, "expected a gate statement")
    if word == "qreg":
        return QasmParseError(lineno, column, "duplicate qreg declaration")
    if word not in _KINDS:
        return QasmParseError(lineno, column, f"gate '{word}' outside the supported subset")
    return QasmParseError(lineno, column, f"malformed '{word}' statement")


def _operand_error(lineno: int, match: re.Match, register: str, n_qubits: int) -> QasmParseError:
    """The error for the first index of a statement that is past the register or too long.

    Called only when one of them is, so the loop always returns: group 4, the
    second index, is reached only when group 3 passed and the statement has one.
    """
    for g in (3, 4):
        digits = match[g]
        try:
            q = int(digits)
        except ValueError:  # more digits than Python converts to an int
            return QasmParseError(lineno, match.start(g) + 1, f"qubit index of {len(digits)} "
                                  f"digits out of range for {register}[{n_qubits}]")
        if q >= n_qubits:
            return QasmParseError(lineno, match.start(g) + 1,
                                  f"qubit {q} out of range for {register}[{n_qubits}]")


def parse_qasm(text: str) -> Circuit:
    """Parse subset QASM into a lowered circuit."""
    if not isinstance(text, str):
        raise ValueError(f"QASM text must be a str, got {type(text).__name__}")
    if not text.isascii():
        at = next(i for i, ch in enumerate(text) if not ch.isascii())
        line, column = text.count("\n", 0, at) + 1, at - text.rfind("\n", 0, at)
        raise QasmParseError(line, column, f"non-ASCII character {text[at]!r}")
    # One walk over the lines: the preamble takes the first three that are not
    # blank, and the statements the rest.
    lines = enumerate(text.split("\n"), 1)
    lineno = 0  # the last line that is not blank
    for accept, message in _PREAMBLE:
        for i, raw in lines:
            if raw.strip():
                lineno = i
                break
        else:
            raise QasmParseError(lineno + 1, 1, message)
        qreg = accept(raw)
        if not qreg:
            raise QasmParseError(lineno, _first_word(raw)[1], message)
    register, width = qreg.groups()
    try:
        n_qubits = int(width)
    except ValueError:  # more digits than Python converts to an int
        raise QasmParseError(lineno, qreg.start(2) + 1,
                             f"register width of {len(width)} digits too large") from None
    if n_qubits < 1:
        raise QasmParseError(lineno, qreg.start(2) + 1, "register must hold at least 1 qubit")

    # Groups: 1 word, 2 angle, 3 and 4 the indices. A register name is an identifier.
    operand = rf"{register}\s*\[\s*([0-9]+)\s*\]"
    statement = re.compile(rf"{_WORD_RE.pattern}(?:\s*\(\s*([^)]*)\))?\s+{operand}"
                           rf"(?:\s*,\s*{operand})?\s*;\s*$")
    gates: list[Gate] = []
    for lineno, raw in lines:
        match = statement.match(raw)
        if match is None:
            if not raw.strip():  # the grammar needs a word, so no blank line matches
                continue
            raise _statement_error(lineno, raw)
        word, angle_text, first, second = match.groups()
        kind = _KINDS.get(word)
        if (kind is None or (angle_text is not None) != (kind.param == "angle")
                or (second is not None) != (kind.active_control is not None)):
            raise _statement_error(lineno, raw)
        angle = None
        if angle_text is not None:
            angle_text = angle_text.rstrip()
            if not _DECIMAL_RE.fullmatch(angle_text):
                raise QasmParseError(lineno, match.start(2) + 1, f"bad angle {angle_text!r}")
            angle = float(angle_text)
        try:
            if second is None:
                control, target = None, int(first)
            else:
                control, target = int(first), int(second)
        except ValueError:  # more digits than Python converts to an int
            raise _operand_error(lineno, match, register, n_qubits) from None
        if target >= n_qubits or (control is not None and control >= n_qubits):
            raise _operand_error(lineno, match, register, n_qubits)
        try:
            gates.append(Gate(kind, target, control, angle))
        except ValueError as exc:
            # Gate's checks of an angle point at the angle, its other checks at the word.
            at = 1 if angle is None else 2
            raise QasmParseError(lineno, match.start(at) + 1, str(exc)) from None
    return Circuit(n_qubits, tuple(gates), Level.LOWERED)
