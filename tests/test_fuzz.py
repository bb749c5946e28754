"""Mutated parser input, and input of the wrong type, raises ValueError
(QasmParseError is one), nothing else."""

import re
from functools import partial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from superposer.document import emit_document, parse_document
from superposer.encoding import Dataset, build_mapping, deserialize, serialize
from superposer.ir import depth, entangler_count
from superposer.lowering import lower
from superposer.qasm import emit_qasm, parse_qasm
from superposer.simulator import run
from superposer.synthesis import synthesize

_SIZES = (3, 7, 29, 100)
_QASM = [emit_qasm(lower(synthesize(N))[0]) for N in _SIZES]
_DOCUMENTS = [emit_document(c) for N in _SIZES for c in (synthesize(N), lower(synthesize(N))[0])]
_MAPPINGS = [
    serialize(build_mapping(Dataset(tuple(b"r%d" % i for i in range(N))), seed=N)).decode()
    for N in _SIZES
]
# Characters that matter to either grammar, plus a few that match neither.
_ALPHABET = st.sampled_from(list('[]{}(),;:"-+.eE0123456789 \n\tqhxzrycnulbgk_\\') + ["\x00", "é", "٣", "１"])
# Values that are well formed as text but may be out of range or of the wrong type.
_TOKENS = st.sampled_from(
    ["0", "-1", "1.5", "1e999", "9" * 400, "true", "null", '"x"', "[]", "{}", "٣", "１", "1_5"]
)
_NUMBER = re.compile(r"-?\d+(\.\d+)?(e-?\d+)?")


@st.composite
def _mutated(draw, texts):
    """An emitted text with 1-4 edits of one sort.

    Either each edit deletes, replaces, inserts or doubles a short span, or
    each swaps one number for a token from _TOKENS; the second sort mostly
    keeps the syntax valid, so it reaches the checks behind the parser.
    """
    text = draw(st.sampled_from(texts))
    swap = draw(st.booleans())
    for _ in range(draw(st.integers(1, 4))):
        numbers = [m.span() for m in _NUMBER.finditer(text)]
        if swap and numbers:
            i, j = draw(st.sampled_from(numbers))
            insert = draw(_TOKENS)
        else:
            i = draw(st.integers(0, len(text)))
            j = draw(st.integers(i, min(len(text), i + 8)))
            insert = draw(st.text(_ALPHABET, max_size=6) | st.just(text[i:j] * 2))
        text = text[:i] + insert + text[j:]
    return text


@pytest.mark.parametrize(
    "texts, parse",
    [(_QASM, parse_qasm), (_DOCUMENTS, parse_document), (_MAPPINGS, deserialize)],
    ids=["qasm", "document", "mapping"],
)
@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_mutated_text_raises_only_value_errors(texts, parse, data):
    text = data.draw(_mutated(texts))
    try:
        parse(text)
    except ValueError:  # QasmParseError is one
        return
    # OpenQASM 2.0 is ASCII: a non-ASCII digit that parsed would not re-emit as written.
    assert parse is not parse_qasm or text.isascii()


@pytest.mark.parametrize("parse", [parse_document, deserialize])
def test_deep_nesting_is_a_malformed_document(parse):
    with pytest.raises(ValueError, match="malformed"):
        parse("[" * 100000)


@pytest.mark.parametrize("call, value, message", [
    (parse_qasm, b"OPENQASM 2.0;", "QASM text must be a str, got bytes"),
    (parse_qasm, None, "QASM text must be a str, got NoneType"),
    (parse_document, None, "malformed circuit document"),
    (parse_document, 123, "malformed circuit document"),
    (deserialize, 123, "malformed mapping document"),
    (deserialize, None, "malformed mapping document"),
    (partial(build_mapping, seed=1), None, "dataset must be a Dataset, got NoneType"),
    (partial(build_mapping, Dataset((b"a",))), 1.5, "seed must be an int, got 1.5"),
    (partial(build_mapping, Dataset((b"a",))), True, "seed must be an int, got True"),
    (serialize, None, "mapping must be an AddressMap, got NoneType"),
    *[(call, value, f"circuit must be a Circuit, got {type(value).__name__}")
      for call in (run, lower, emit_qasm, emit_document, depth, entangler_count)
      for value in (None, "OPENQASM 2.0;")],
])
def test_input_of_the_wrong_type_raises_a_value_error(call, value, message):
    with pytest.raises(ValueError, match=message):
        call(value)
