"""Versioned JSON documents for circuits at either level.

Rational probabilities are stored as [numerator, denominator] so the
abstract level stays exact; angles are stored as JSON numbers, which
round-trip doubles exactly. parse_document(emit_document(c)) == c.
``load_versioned`` checks the top level of this format and of the
mapping document in ``encoding``.
"""

from __future__ import annotations

import json
from fractions import Fraction

from .ir import Circuit, Gate, GateKind, Level

DOCUMENT_VERSION = 1


def emit_document(circuit: Circuit) -> str:
    """Render any circuit as a JSON document."""
    gates = []
    for gate in circuit.gates:
        entry: dict[str, object] = {"kind": gate.kind.value, "target": gate.target}
        if gate.control is not None:
            entry["control"] = gate.control
        if gate.prob is not None:
            entry["prob"] = [gate.prob.numerator, gate.prob.denominator]
        if gate.angle is not None:
            entry["angle"] = gate.angle
        gates.append(entry)
    doc = {
        "version": DOCUMENT_VERSION,
        "n_qubits": circuit.n_qubits,
        "level": circuit.level.value,
        "gates": gates,
    }
    return json.dumps(doc, indent=2) + "\n"


def _gate_from_entry(entry: object, index: int) -> Gate:
    if not isinstance(entry, dict):
        raise ValueError(f"gate {index}: expected an object, got {entry!r}")
    known = {"kind", "target", "control", "prob", "angle"}
    extra = set(entry) - known
    if extra:
        raise ValueError(f"gate {index}: unknown fields {sorted(extra)}")
    try:
        kind = GateKind(entry.get("kind"))
    except ValueError:
        raise ValueError(f"gate {index}: unknown kind {entry.get('kind')!r}") from None
    target = entry.get("target")
    if not isinstance(target, int):
        raise ValueError(f"gate {index}: target must be an integer")
    control = entry.get("control")
    if control is not None and not isinstance(control, int):
        raise ValueError(f"gate {index}: control must be an integer")
    prob = entry.get("prob")
    if prob is not None:
        if not (isinstance(prob, list) and len(prob) == 2
                and all(isinstance(v, int) for v in prob) and prob[1] != 0):
            raise ValueError(f"gate {index}: prob must be [numerator, denominator]")
        prob = Fraction(prob[0], prob[1])
    angle = entry.get("angle")
    if angle is not None and not isinstance(angle, (int, float)):
        raise ValueError(f"gate {index}: angle must be a number")
    try:
        return Gate(kind=kind, target=target, control=control, angle=angle, prob=prob)
    except ValueError as exc:
        raise ValueError(f"gate {index}: {exc}") from None


def load_versioned(text: str, name: str, version: int, keys: tuple[str, ...]) -> dict:
    """Parse a JSON object whose top level holds exactly ``version`` and ``keys``.

    Anything else raises ValueError: text that is not a JSON object (nesting
    too deep included), a version other than the int ``version``, or a
    missing or unknown key. The values under ``keys`` are left to the caller.
    """
    try:
        doc = json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:
        raise ValueError(f"malformed {name} document: {exc}") from exc
    if not isinstance(doc, dict):
        raise ValueError(f"malformed {name} document: expected a JSON object")
    found = doc.get("version")
    if type(found) is not int or found != version:  # true and 1.0 equal 1
        raise ValueError(f"unsupported {name} version: {found!r}")
    for key in keys:
        if key not in doc:
            raise ValueError(f"{name} document missing {key!r}")
    extra = set(doc) - {"version", *keys}
    if extra:
        raise ValueError(f"{name} document has unknown fields {sorted(extra)}")
    return doc


def parse_document(text: str) -> Circuit:
    """Parse and validate a circuit document."""
    doc = load_versioned(text, "circuit", DOCUMENT_VERSION, ("n_qubits", "level", "gates"))
    if not isinstance(doc["n_qubits"], int):
        raise ValueError("n_qubits must be an integer")
    try:
        level = Level(doc["level"])
    except ValueError:
        raise ValueError(f"unknown level {doc['level']!r}") from None
    if not isinstance(doc["gates"], list):
        raise ValueError("gates must be a list")
    gates = tuple(_gate_from_entry(entry, i) for i, entry in enumerate(doc["gates"]))
    return Circuit(n_qubits=doc["n_qubits"], gates=gates, level=level)
