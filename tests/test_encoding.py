import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from superposer.encoding import (
    AddressMap,
    Dataset,
    build_indices,
    build_mapping,
    deserialize,
    serialize,
    serialize_chunks,
)
from superposer.lowering import lower
from superposer.simulator import run
from superposer.synthesis import synthesize


def _dataset(size):
    return Dataset(records=tuple(f"record-{i}".encode() for i in range(size)))


def test_build_indices_examples():
    assert build_indices(7) == (3, ("000", "001", "010", "011", "100", "101", "110"))
    assert build_indices(1) == (1, ("0",))
    n, bits = build_indices(8)
    assert n == 3 and len(bits) == 8


def _digits(N, n):
    """The n-bit strings of 0..N-1, joined into one bytes object, one bit column at a time."""
    values = np.arange(N)
    columns = np.empty((N, n), np.uint8)
    for bit in range(n):
        columns[:, n - 1 - bit] = (values >> bit) & 1
    return (columns + ord("0")).tobytes()


def test_build_indices_equals_formatting_each_value():
    # N = 1 has no low half; the powers of two and their neighbours cover
    # both parities of n, a full last high half and one holding one address.
    assert _digits(4100, 13) == "".join(format(v, "013b") for v in range(4100)).encode()
    sizes = [*range(1, 4101), *(N for k in range(1, 21) for N in ((1 << k) - 1, 1 << k, (1 << k) + 1))]
    wrong = []
    for N in sizes:
        n, bits = build_indices(N)
        if not (len(bits) == N and set(map(len, bits)) == {n} and "".join(bits).encode() == _digits(N, n)):
            wrong.append(N)
    assert wrong == []


def test_build_indices_rejects_nonpositive():
    with pytest.raises(ValueError):
        build_indices(0)


def test_build_mapping_is_deterministic_per_seed():
    first = build_mapping(_dataset(7), seed=42)
    second = build_mapping(_dataset(7), seed=42)
    assert first == second
    assert build_mapping(_dataset(7), seed=43) != first


def test_build_mapping_single_record():
    mapping = build_mapping(_dataset(1), seed=0)
    assert mapping.pairs == (("0", 0),)


def test_resolve_round_trip():
    mapping = build_mapping(_dataset(7), seed=42)
    for address, ordinal in mapping.pairs:
        assert mapping.resolve(address) == ordinal


def test_resolve_rejects_unknown_address():
    mapping = build_mapping(_dataset(7), seed=42)
    with pytest.raises(ValueError, match="not in the index set"):
        mapping.resolve("111")
    with pytest.raises(ValueError, match="width"):
        mapping.resolve("0000")


class _Address(str):
    pass


def _resolve_by_the_rule(mapping, address):
    """What resolve returns or raises: width check, then pure 0/1 digits, then value < N."""
    if not isinstance(address, str):
        raise ValueError(f"address {address!r} not in the index set")
    if len(address) != mapping.n:
        raise ValueError(f"address {address!r} has width {len(address)}, expected {mapping.n}")
    if set(address) <= {"0", "1"} and int(address, 2) < mapping.size:
        return mapping.ordinals[int(address, 2)]
    raise ValueError(f"address {address!r} not in the index set")


def _outcome(resolve, address):
    try:
        return "value", resolve(address)
    except Exception as error:  # the type and text are what is compared
        return type(error), str(error)


@pytest.mark.parametrize("size", [1, 2, 11, 16])
def test_resolve_follows_its_rule_on_every_address_and_malformed_input(size):
    mapping = build_mapping(_dataset(size), seed=5)
    n = mapping.n
    before = (mapping == build_mapping(_dataset(size), seed=5), hash(mapping), repr(mapping))
    addresses = [b for b, _ in mapping.pairs]
    inputs = [
        *addresses,
        "", "+101", "0b10", "1_01", " 101", "-001", "\u0661\u0660\u0661\u0661",
        "0" * (n + 1), *(format(v, f"0{n}b") for v in range(size, 1 << n)),
        b"0101", 5, 1.0, True, None, ["0"], _Address(addresses[-1]), _Address("2" * n),
    ]
    for address in inputs:
        assert _outcome(mapping.resolve, address) == _outcome(
            lambda a: _resolve_by_the_rule(mapping, a), address
        ), address
    after = (mapping == build_mapping(_dataset(size), seed=5), hash(mapping), repr(mapping))
    assert after == before


def test_resolve_refuses_addresses_that_are_not_strings():
    mapping = build_mapping(_dataset(7), seed=42)
    for address in (5, None, 1.0, b"011"):
        with pytest.raises(ValueError, match="not in the index set"):
            mapping.resolve(address)


def _replace_char(text, index, char):
    index %= len(text)
    return text[:index] + char + text[index + 1:]


@settings(max_examples=200, deadline=None)
@given(size=st.integers(1, 40), seed=st.integers(0, 3), data=st.data())
def test_resolve_agrees_with_a_dict_of_the_pairs(size, seed, data):
    # A dict built from the pairs is the reference for the lookup.
    mapping = build_mapping(_dataset(size), seed=seed)
    forward = dict(mapping.pairs)
    chars = "01 +_b\u0660"  # int(s, 2) takes each of these in some position
    lengths = {"min_size": max(mapping.n - 1, 0), "max_size": mapping.n + 1}
    real = st.sampled_from(sorted(forward))
    edited = st.builds(_replace_char, real, st.integers(0, 6), st.sampled_from(chars))
    texts = real | edited | st.text(chars, **lengths)
    address = data.draw(texts | texts.map(str.encode) | st.binary(**lengths))
    if address in forward:
        assert mapping.resolve(address) == forward[address]
    else:
        with pytest.raises(ValueError):
            mapping.resolve(address)


def test_serialize_round_trip():
    mapping = build_mapping(_dataset(13), seed=9)
    assert deserialize(serialize(mapping)) == mapping


def test_serialize_is_byte_stable():
    a = serialize(build_mapping(_dataset(20), seed=5))
    b = serialize(build_mapping(_dataset(20), seed=5))
    assert a == b


def test_deserialize_rejects_duplicate_ordinal():
    mapping = build_mapping(_dataset(4), seed=0)
    doc = json.loads(serialize(mapping))
    doc["pairs"][1][1] = doc["pairs"][0][1]
    with pytest.raises(ValueError, match="not bijective"):
        deserialize(json.dumps(doc))


def test_deserialize_rejects_bad_documents():
    with pytest.raises(ValueError, match="malformed"):
        deserialize(b"{not json")
    for version in (b"2", b"true", b"1.0"):
        with pytest.raises(ValueError, match="version"):
            deserialize(b'{"version": %s, "N": 1, "n": 1, "seed": 0, "pairs": [["0", 0]]}' % version)
    with pytest.raises(ValueError, match="missing"):
        deserialize(b'{"version": 1, "N": 1, "n": 1, "pairs": [["0", 0]]}')
    with pytest.raises(ValueError, match="pair count"):
        deserialize(b'{"version": 1, "N": 1, "n": 1, "seed": 0, "pairs": []}')
    with pytest.raises(ValueError, match="mapping pairs must be a list"):
        deserialize(b'{"version": 1, "N": 1, "n": 1, "seed": 0, "pairs": {}}')
    with pytest.raises(ValueError, match=r"bad mapping pair: \['0'\]"):
        deserialize(b'{"version": 1, "N": 1, "n": 1, "seed": 0, "pairs": [["0"]]}')
    with pytest.raises(ValueError, match="at least one"):
        deserialize(b'{"version": 1, "N": 0, "n": 1, "seed": 0, "pairs": []}')
    with pytest.raises(ValueError, match=r"unknown fields \['sede'\]"):
        deserialize(b'{"version": 1, "N": 1, "n": 1, "seed": 0, "pairs": [["0", 0]], "sede": 5}')
    # Distinct strings so the bijectivity check passes, but "11" is not one
    # of the three addresses that encode 0..2 on two bits.
    with pytest.raises(ValueError, match="cover exactly"):
        deserialize(
            b'{"version": 1, "N": 3, "n": 2, "seed": 0,'
            b' "pairs": [["00", 0], ["01", 1], ["11", 2]]}'
        )


def test_deserialize_rejects_addresses_out_of_order():
    # A bijection, but pairs must list the addresses in address order.
    with pytest.raises(ValueError, match="cover exactly"):
        deserialize(b'{"version": 1, "N": 2, "n": 1, "seed": 0, "pairs": [["1", 0], ["0", 1]]}')


def test_deserialize_rejects_wrong_width():
    with pytest.raises(ValueError, match="width"):
        deserialize(b'{"version": 1, "N": 2, "n": 2, "seed": 0, "pairs": [["00", 0], ["01", 1]]}')


def test_address_map_rejects_duplicates_directly():
    with pytest.raises(ValueError, match="not bijective"):
        AddressMap(n=1, seed=0, ordinals=(0, 0))


def test_dataset_from_path(tmp_path):
    path = tmp_path / "records.txt"
    path.write_bytes(b"Q\nU\nA\nN\nT\nU\nM\n")
    dataset = Dataset.from_path(path)
    assert dataset.size == 7
    assert dataset.records[0] == b"Q"
    assert dataset.records[-1] == b"M"


def test_dataset_rejects_empty_file(tmp_path):
    path = tmp_path / "empty.txt"
    path.write_bytes(b"")
    with pytest.raises(ValueError, match="empty"):
        Dataset.from_path(path)


def test_every_address_is_prepared_with_equal_amplitude():
    dataset = _dataset(7)
    mapping = build_mapping(dataset, seed=3)
    lowered, _ = lower(synthesize(dataset.size))
    amps = run(lowered).amps
    for address, _ in mapping.pairs:
        assert abs(amps[int(address, 2)]) == pytest.approx(1 / math.sqrt(7))


def test_mapping_invariants_across_sizes_and_seeds():
    for size in (1, 2, 3, 5, 8, 31, 64):
        for seed in (0, 1, 7):
            mapping = build_mapping(_dataset(size), seed=seed)
            assert sorted(o for _, o in mapping.pairs) == list(range(size))
            assert deserialize(serialize(mapping)) == mapping


def test_build_indices_keeps_its_last_result():
    # AddressMap.pairs (read by serialize) and deserialize share one build.
    assert build_indices(2960) is build_indices(2960)


def _reference_bytes(mapping):
    doc = {
        "version": 1,
        "N": mapping.size,
        "n": mapping.n,
        "seed": mapping.seed,
        "pairs": [[b, o] for b, o in mapping.pairs],
    }
    return (json.dumps(doc, indent=2) + "\n").encode("ascii")


@settings(max_examples=100, deadline=None)
@given(
    size=st.integers(1, 300),
    seed=st.integers(-(2**70), -1) | st.just(0) | st.integers(2**64, 2**100) | st.integers(1, 100),
)
def test_serialize_equals_the_json_dumps_reference(size, seed):
    mapping = build_mapping(_dataset(size), seed=seed)
    assert serialize(mapping) == _reference_bytes(mapping)


@pytest.mark.parametrize("field", ["n", "seed"])
@pytest.mark.parametrize("value", [True, False, 1.0, "1", None])
def test_address_map_rejects_a_non_int_width_or_seed(field, value):
    fields = {"n": 1, "seed": 0, field: value}
    with pytest.raises(ValueError, match="mapping n and seed must be ints"):
        AddressMap(ordinals=(0, 1), **fields)


def test_deserialize_rejects_a_number_past_the_int_digit_limit():
    text = '{"version": 1, "N": ' + "1" * 5000 + ', "n": 1, "seed": 0, "pairs": []}'
    with pytest.raises(ValueError, match="malformed mapping document: Exceeds the limit"):
        deserialize(text)


@pytest.mark.parametrize("field", ["n", "seed"])
def test_deserialize_rejects_a_bool_width_or_seed(field):
    doc = {"version": 1, "N": 2, "n": 1, "seed": 0, "pairs": [["0", 1], ["1", 0]]}
    doc[field] = True
    with pytest.raises(ValueError, match="mapping n and seed must be ints"):
        deserialize(json.dumps(doc))


def test_deserialize_rejects_a_bool_record_count():
    with pytest.raises(ValueError, match="pair count"):
        deserialize(b'{"version": 1, "N": true, "n": 1, "seed": 0, "pairs": [["0", 0]]}')


def test_address_map_rejects_an_int_subclass_ordinal():
    class Zero(int):
        def __str__(self):
            return "zero"

    with pytest.raises(ValueError, match="record ordinal"):
        AddressMap(n=1, seed=0, ordinals=(Zero(0), 1))


@pytest.mark.parametrize("size", [4095, 4096, 4097, 8193])
def test_serialize_equals_the_json_dumps_reference_around_the_chunk_size(size):
    mapping = build_mapping(_dataset(size), seed=11)
    assert serialize(mapping) == _reference_bytes(mapping)


@pytest.mark.parametrize("size", [1, 4096, 8193])
def test_serialize_chunks_join_to_serialize_in_pieces_of_at_most_4096_pairs(size):
    mapping = build_mapping(_dataset(size), seed=2)
    chunks = list(serialize_chunks(mapping))
    assert b"".join(chunks) == serialize(mapping)
    # The header, one piece per 4096 pairs and the closing bytes.
    assert len(chunks) == 2 + -(-size // 4096)
