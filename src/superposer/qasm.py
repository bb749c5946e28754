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

# The mnemonic <-> kind table. The writer keys it by the kind's value, a
# string, so no gate pays for hashing an Enum member.
_KINDS = {"h": GateKind.H, "x": GateKind.X, "z": GateKind.Z, "ry": GateKind.RY,
          "cx": GateKind.CNOT, "cz": GateKind.CZ}
_MNEMONICS = {kind.value: word for word, kind in _KINDS.items()}

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
        super().__init__(f"line {line}, column {column}: {message}")


def emit_qasm(circuit: Circuit) -> str:
    """Render a lowered circuit as OpenQASM 2.0 text."""
    if circuit.level is not Level.LOWERED:
        raise ValueError("only lowered circuits can be emitted as QASM")
    lines = [_HEADER, _INCLUDE, f"qreg q[{circuit.n_qubits}];"]
    for gate in circuit.gates:
        kind = gate.kind
        word = _MNEMONICS[kind.value]
        if kind.param == "angle":
            lines.append(f"{word}({gate.angle:.17g}) q[{gate.target}];")
        elif kind.active_control is not None:
            lines.append(f"{word} q[{gate.control}],q[{gate.target}];")
        else:
            lines.append(f"{word} q[{gate.target}];")
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


def parse_qasm(text: str) -> Circuit:
    """Parse subset QASM into a lowered circuit."""
    if not text.isascii():
        at = next(i for i, ch in enumerate(text) if not ch.isascii())
        line, column = text.count("\n", 0, at) + 1, at - text.rfind("\n", 0, at)
        raise QasmParseError(line, column, f"non-ASCII character {text[at]!r}")
    lines = [(i + 1, raw) for i, raw in enumerate(text.split("\n")) if raw.strip()]
    lineno = 0
    for i, (accept, message) in enumerate(_PREAMBLE):
        if i == len(lines):
            raise QasmParseError(lineno + 1, 1, message)
        lineno, raw = lines[i]
        qreg = accept(raw)
        if not qreg:
            raise QasmParseError(lineno, _first_word(raw)[1], message)
    register = qreg.group(1)
    n_qubits = int(qreg.group(2))
    if n_qubits < 1:
        raise QasmParseError(lineno, qreg.start(2) + 1, "register must hold at least 1 qubit")

    # Groups: 1 word, 2 angle, 3 and 4 the indices. A register name is an identifier.
    operand = rf"{register}\s*\[\s*([0-9]+)\s*\]"
    statement = re.compile(rf"{_WORD_RE.pattern}(?:\s*\(\s*([^)]*?)\s*\))?\s+{operand}"
                           rf"(?:\s*,\s*{operand})?\s*;\s*$")
    gates: list[Gate] = []
    for lineno, raw in lines[3:]:
        match = statement.match(raw)
        kind = _KINDS.get(match[1]) if match else None
        if (kind is None or (match[2] is not None) != (kind.param == "angle")
                or (match[4] is not None) != (kind.active_control is not None)):
            raise _statement_error(lineno, raw)
        angle = None
        if match[2] is not None:
            if not _DECIMAL_RE.fullmatch(match[2]):
                raise QasmParseError(lineno, match.start(2) + 1, f"bad angle {match[2]!r}")
            angle = float(match[2])
        qubits = [int(match[g]) for g in (3, 4) if match[g] is not None]
        for g, q in zip((3, 4), qubits):
            if q >= n_qubits:
                raise QasmParseError(lineno, match.start(g) + 1,
                                     f"qubit {q} out of range for {register}[{n_qubits}]")
        control = qubits[0] if len(qubits) == 2 else None
        try:
            gates.append(Gate(kind, qubits[-1], control=control, angle=angle))
        except ValueError as exc:
            # Gate's checks of an angle point at the angle, its other checks at the word.
            at = 1 if angle is None else 2
            raise QasmParseError(lineno, match.start(at) + 1, str(exc)) from None
    return Circuit(n_qubits, tuple(gates), Level.LOWERED)
