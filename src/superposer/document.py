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
from .synthesis import _LowestTerms

DOCUMENT_VERSION = 1


def emit_document(circuit: Circuit) -> str:
    """Render any circuit as a JSON document: the bytes of ``json.dumps(doc, indent=2)``.

    Written directly: every value is an exact int, a plain string or a
    finite float, whose ``repr`` is what ``json.dumps`` writes for it. A
    kind's name is read as ``_value_``, a plain attribute, not through the
    slower ``value`` property.
    """
    if not isinstance(circuit, Circuit):
        raise ValueError(f"circuit must be a Circuit, got {type(circuit).__name__}")
    entries = []
    for gate in circuit.gates:
        entry = f'    {{\n      "kind": "{gate.kind._value_}",\n      "target": {gate.target}'
        if gate.control is not None:
            entry += f',\n      "control": {gate.control}'
        if gate.prob is not None:
            entry += (f',\n      "prob": [\n        {gate.prob.numerator},'
                      f'\n        {gate.prob.denominator}\n      ]')
        if gate.angle is not None:
            entry += f',\n      "angle": {gate.angle!r}'
        entries.append(entry + "\n    }")
    gates = "[\n" + ",\n".join(entries) + "\n  ]" if entries else "[]"
    return (f'{{\n  "version": {DOCUMENT_VERSION},\n  "n_qubits": {circuit.n_qubits},\n'
            f'  "level": "{circuit.level.value}",\n  "gates": {gates}\n}}\n')


_FIELDS = frozenset({"kind", "target", "control", "prob", "angle"})
_KINDS = {kind.value: kind for kind in GateKind}


def _gate_from_entry(entry: object, index: int) -> Gate:
    if not isinstance(entry, dict):
        raise ValueError(f"gate {index}: expected an object, got {entry!r}")
    if not entry.keys() <= _FIELDS:
        raise ValueError(f"gate {index}: unknown fields {sorted(entry.keys() - _FIELDS)}")
    kind = entry.get("kind")
    kind = _KINDS.get(kind) if type(kind) is str else None
    if kind is None:
        raise ValueError(f"gate {index}: unknown kind {entry.get('kind')!r}")
    # json.loads gives true/false as bool, a subclass of int: exact type
    # checks here, and in Gate for the qubit indices and the angle.
    prob = entry.get("prob")
    if prob is not None:
        if not (isinstance(prob, list) and len(prob) == 2
                and all(type(v) is int for v in prob) and prob[1] != 0):
            raise ValueError(f"gate {index}: prob must be [numerator, denominator]")
        num, den = prob
        # synthesis's [2**k, odd] pairs are in lowest terms, so they skip the gcd.
        lowest = num > 0 and num & (num - 1) == 0 and den > 0 and den & 1
        prob = Fraction(_LowestTerms(num, den)) if lowest else Fraction(num, den)
    try:
        return Gate(kind=kind, target=entry.get("target"), control=entry.get("control"),
                    angle=entry.get("angle"), prob=prob)
    except ValueError as exc:
        raise ValueError(f"gate {index}: {exc}") from None


def load_versioned(text: str | bytes, name: str, version: int, keys: tuple[str, ...]) -> dict:
    """Parse a JSON object whose top level holds exactly ``version`` and ``keys``.

    Bytes decode as in ``json.loads``. Anything else raises ValueError: text that is
    not a JSON object (undecodable bytes, input of another type, nesting too deep and
    ints past Python's digit limit included), a version other than the int ``version``,
    or a missing or unknown key. The values under ``keys`` are left to the caller.
    """
    try:
        doc = json.loads(text)
    except (ValueError, TypeError, RecursionError) as exc:
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


def parse_document(text: str | bytes) -> Circuit:
    """Parse and validate a circuit document."""
    doc = load_versioned(text, "circuit", DOCUMENT_VERSION, ("n_qubits", "level", "gates"))
    if type(doc["n_qubits"]) is not int:
        raise ValueError("n_qubits must be an integer")
    try:
        level = Level(doc["level"])
    except ValueError:
        raise ValueError(f"unknown level {doc['level']!r}") from None
    if not isinstance(doc["gates"], list):
        raise ValueError("gates must be a list")
    gates = tuple(_gate_from_entry(entry, i) for i, entry in enumerate(doc["gates"]))
    return Circuit(n_qubits=doc["n_qubits"], gates=gates, level=level)
