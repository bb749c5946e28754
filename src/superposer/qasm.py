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

_QREG_RE = re.compile(r"\s*qreg\s+([A-Za-z_][A-Za-z0-9_]*)\s*\[\s*([0-9]+)\s*\]\s*;\s*$")
_WORD_RE = re.compile(r"\s*([A-Za-z_][A-Za-z0-9_.]*)")
_DECIMAL_RE = re.compile(r"-?(?:[0-9]+\.?[0-9]*|\.[0-9]+)(?:[eE][-+]?[0-9]+)?")


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
        if kind is GateKind.RY:
            lines.append(f"ry({gate.angle:.17g}) q[{gate.target}];")
        elif kind is GateKind.CNOT:
            lines.append(f"cx q[{gate.control}],q[{gate.target}];")
        elif kind is GateKind.CZ:
            lines.append(f"cz q[{gate.control}],q[{gate.target}];")
        else:
            lines.append(f"{kind.value} q[{gate.target}];")
    return "\n".join(lines) + "\n"


def _operand_patterns(register: str) -> dict[str, re.Pattern[str]]:
    name = re.escape(register)
    qubit = rf"{name}\s*\[\s*([0-9]+)\s*\]"
    return {
        "single": re.compile(rf"\s*(h|x|z)\s+{qubit}\s*;\s*$"),
        "ry": re.compile(rf"\s*ry\s*\(\s*([^)]*?)\s*\)\s+{qubit}\s*;\s*$"),
        "two": re.compile(rf"\s*(cx|cz)\s+{qubit}\s*,\s*{qubit}\s*;\s*$"),
    }


def parse_qasm(text: str) -> Circuit:
    """Parse subset QASM into a lowered circuit."""
    if not text.isascii():
        at = next(i for i, ch in enumerate(text) if not ch.isascii())
        line, column = text.count("\n", 0, at) + 1, at - text.rfind("\n", 0, at)
        raise QasmParseError(line, column, f"non-ASCII character {text[at]!r}")
    lines = [(i + 1, raw) for i, raw in enumerate(text.split("\n")) if raw.strip()]
    if not lines:
        raise QasmParseError(1, 1, f"missing {_HEADER!r} header")

    def word_start(raw: str) -> int:
        match = _WORD_RE.match(raw)
        return match.start(1) + 1 if match else 1

    lineno, raw = lines[0]
    if raw.strip() != _HEADER:
        raise QasmParseError(lineno, word_start(raw), f"missing {_HEADER!r} header")
    if len(lines) < 2:
        raise QasmParseError(lineno + 1, 1, f"expected {_INCLUDE!r}")
    lineno, raw = lines[1]
    if raw.strip() != _INCLUDE:
        raise QasmParseError(lineno, word_start(raw), f"expected {_INCLUDE!r}")
    if len(lines) < 3:
        raise QasmParseError(lineno + 1, 1, "expected a qreg declaration")
    lineno, raw = lines[2]
    qreg = _QREG_RE.match(raw)
    if not qreg:
        raise QasmParseError(lineno, word_start(raw), "expected a qreg declaration")
    register = qreg.group(1)
    n_qubits = int(qreg.group(2))
    if n_qubits < 1:
        raise QasmParseError(lineno, qreg.start(2) + 1, "register must hold at least 1 qubit")

    patterns = _operand_patterns(register)
    gates: list[Gate] = []

    def check_qubit(value: str, lineno: int, column: int) -> int:
        q = int(value)
        if q >= n_qubits:
            raise QasmParseError(lineno, column, f"qubit {q} out of range for {register}[{n_qubits}]")
        return q

    for lineno, raw in lines[3:]:
        column = word_start(raw)
        word_match = _WORD_RE.match(raw)
        word = word_match.group(1) if word_match else ""
        if word in ("h", "x", "z"):
            match = patterns["single"].match(raw)
            if not match:
                raise QasmParseError(lineno, column, f"malformed '{word}' statement")
            target = check_qubit(match.group(2), lineno, match.start(2) + 1)
            gates.append(Gate(GateKind(word), target))
        elif word == "ry":
            match = patterns["ry"].match(raw)
            if not match:
                raise QasmParseError(lineno, column, "malformed 'ry' statement")
            if not _DECIMAL_RE.fullmatch(match.group(1)):
                raise QasmParseError(lineno, match.start(1) + 1, f"bad angle {match[1]!r}")
            angle = float(match.group(1))
            target = check_qubit(match.group(2), lineno, match.start(2) + 1)
            try:
                gates.append(Gate.ry(target, angle))
            except ValueError as exc:
                raise QasmParseError(lineno, match.start(1) + 1, str(exc)) from None
        elif word in ("cx", "cz"):
            match = patterns["two"].match(raw)
            if not match:
                raise QasmParseError(lineno, column, f"malformed '{word}' statement")
            control = check_qubit(match.group(2), lineno, match.start(2) + 1)
            target = check_qubit(match.group(3), lineno, match.start(3) + 1)
            make = Gate.cnot if word == "cx" else Gate.cz
            try:
                gates.append(make(control, target))
            except ValueError as exc:
                raise QasmParseError(lineno, column, str(exc)) from None
        elif word == "qreg":
            raise QasmParseError(lineno, column, "duplicate qreg declaration")
        elif word:
            raise QasmParseError(lineno, column, f"gate '{word}' outside the supported subset")
        else:
            raise QasmParseError(lineno, column, "expected a gate statement")
    return Circuit(n_qubits, tuple(gates), Level.LOWERED)
