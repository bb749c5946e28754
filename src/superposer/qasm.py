"""OpenQASM 2.0 subset for lowered circuits.

Emitted programs use exactly one quantum register and the gates h, x, z,
ry(theta), cx, cz. Angles are printed with 17 significant digits, which
is enough for the printed text to reproduce the double exactly, so
emit -> parse -> emit is byte-identical. The parser accepts the same
subset in ASCII and reports errors with 1-based line and column positions.
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
# What follows a mnemonic, by the shape its kind's facts give it. Each operand
# is two groups, a register name (checked after the match) and an index.
_OPERAND = r"([A-Za-z_][A-Za-z0-9_]*)\s*\[\s*([0-9]+)\s*\]"
_ANGLE_TARGET_RE = re.compile(rf"\s*\(\s*([^)]*?)\s*\)\s+{_OPERAND}\s*;\s*$")
_TARGET_RE = re.compile(rf"\s+{_OPERAND}\s*;\s*$")
_CONTROL_TARGET_RE = re.compile(rf"\s+{_OPERAND}\s*,\s*{_OPERAND}\s*;\s*$")
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


def _word_column(raw: str) -> int:
    match = _WORD_RE.match(raw)
    return match.start(1) + 1 if match else 1


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
            raise QasmParseError(lineno, _word_column(raw), message)
    register = qreg.group(1)
    n_qubits = int(qreg.group(2))
    if n_qubits < 1:
        raise QasmParseError(lineno, qreg.start(2) + 1, "register must hold at least 1 qubit")

    gates: list[Gate] = []
    for lineno, raw in lines[3:]:
        word = _WORD_RE.match(raw)
        if not word:
            raise QasmParseError(lineno, 1, "expected a gate statement")
        column = word.start(1) + 1
        kind = _KINDS.get(word[1])
        if kind is None:
            if word[1] == "qreg":
                raise QasmParseError(lineno, column, "duplicate qreg declaration")
            raise QasmParseError(lineno, column, f"gate '{word[1]}' outside the supported subset")
        if kind.param == "angle":
            shape = _ANGLE_TARGET_RE
        elif kind.active_control is not None:
            shape = _CONTROL_TARGET_RE
        else:
            shape = _TARGET_RE
        match = shape.match(raw, word.end())
        # The operands' name groups, after the angle if any.
        names = range(2 if kind.param == "angle" else 1, shape.groups, 2)
        if not match or any(match[g] != register for g in names):
            raise QasmParseError(lineno, column, f"malformed '{word[1]}' statement")
        angle = None
        if kind.param == "angle":
            if not _DECIMAL_RE.fullmatch(match[1]):
                raise QasmParseError(lineno, match.start(1) + 1, f"bad angle {match[1]!r}")
            angle = float(match[1])
            column = match.start(1) + 1  # where Gate's checks of the angle point
        qubits = [int(match[g + 1]) for g in names]
        for g, q in zip(names, qubits):
            if q >= n_qubits:
                raise QasmParseError(lineno, match.start(g + 1) + 1,
                                     f"qubit {q} out of range for {register}[{n_qubits}]")
        control = qubits[0] if len(qubits) == 2 else None
        try:
            gates.append(Gate(kind, qubits[-1], control=control, angle=angle))
        except ValueError as exc:
            raise QasmParseError(lineno, column, str(exc)) from None
    return Circuit(n_qubits, tuple(gates), Level.LOWERED)
