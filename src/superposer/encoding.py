"""Address assignment for datasets of N opaque records.

A dataset's records are addressed by the N binary strings of width
n = max(1, ceil(log2 N)) that encode 0..N-1. ``build_mapping`` pairs each
address string with a record ordinal under a seeded pseudo-random
permutation, so which record lives at which address is arbitrary but
reproducible. Together with ``synthesis``, this yields a state that
addresses all N records with equal amplitude.

Mappings serialize to a small versioned JSON document; loading validates
the document and rejects anything that is not a bijection.
"""

from __future__ import annotations

import functools
import json
import random
from dataclasses import dataclass
from pathlib import Path

from .synthesis import split

MAPPING_VERSION = 1


@dataclass(frozen=True)
class Dataset:
    """An ordered collection of opaque byte-string records."""

    records: tuple[bytes, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "records", tuple(self.records))
        if not self.records:
            raise ValueError("dataset is empty")

    @property
    def size(self) -> int:
        return len(self.records)

    @classmethod
    def from_path(cls, path: str | Path) -> Dataset:
        """Load newline-delimited records; a trailing newline adds nothing."""
        raw = Path(path).read_bytes()
        pieces = raw.split(b"\n")
        if pieces and pieces[-1] == b"":
            pieces.pop()
        return cls(records=tuple(pieces))


@functools.lru_cache(maxsize=1)
def build_indices(N: int) -> tuple[int, tuple[str, ...]]:
    """Width n and the N address strings encoding 0..N-1 on n bits.

    The last result is kept: ``build_mapping``, ``AddressMap`` validation
    and ``deserialize`` all ask for the same N in turn.
    """
    n = split(N)[0]
    return n, tuple(format(value, f"0{n}b") for value in range(N))


@dataclass(frozen=True)
class AddressMap:
    """A bijection between the N address strings and record ordinals.

    ``pairs`` holds (address string, record ordinal) in address order.
    Construction validates the int n and seed, the width, that the address
    strings are exactly those of 0..N-1 in that order, and that the int
    ordinals are a permutation of 0..N-1, so an AddressMap is well formed.
    """

    n: int
    seed: int
    pairs: tuple[tuple[str, int], ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "pairs", tuple((b, o) for b, o in self.pairs))
        N = len(self.pairs)
        if N == 0:
            raise ValueError("address map needs at least one pair")
        if type(self.n) is not int or type(self.seed) is not int:
            raise ValueError(f"mapping n and seed must be ints, got {self.n!r} and {self.seed!r}")
        expected_n, expected_bits = build_indices(N)
        if self.n != expected_n:
            raise ValueError(f"width {self.n} does not match {expected_n} for {N} records")
        ordinals = [o for _, o in self.pairs]
        for o in ordinals:
            if type(o) is not int or not 0 <= o < N:
                raise ValueError(f"record ordinal {o!r} outside 0..{N - 1}")
        if len(set(ordinals)) != N:
            raise ValueError("mapping not bijective")
        if tuple(b for b, _ in self.pairs) != expected_bits:
            raise ValueError(f"address strings must cover exactly 0..{N - 1}, in address order")
        object.__setattr__(self, "_forward", dict(self.pairs))
        object.__setattr__(self, "_backward", {o: b for b, o in self.pairs})

    @property
    def size(self) -> int:
        return len(self.pairs)

    def resolve(self, address: str) -> int:
        """Record ordinal stored at the given address string."""
        if len(address) != self.n:
            raise ValueError(f"address {address!r} has width {len(address)}, expected {self.n}")
        try:
            return self._forward[address]
        except KeyError:
            raise ValueError(f"address {address!r} not in the index set") from None

    def invert(self, ordinal: int) -> str:
        """Address string holding the given record ordinal."""
        try:
            return self._backward[ordinal]
        except KeyError:
            raise ValueError(f"record ordinal {ordinal!r} not in the mapping") from None


def build_mapping(dataset: Dataset, seed: int) -> AddressMap:
    """Assign each record a distinct address via a seeded permutation."""
    n, bits = build_indices(dataset.size)
    ordinals = list(range(dataset.size))
    random.Random(seed).shuffle(ordinals)
    return AddressMap(n=n, seed=seed, pairs=tuple(zip(bits, ordinals)))


def serialize(mapping: AddressMap) -> bytes:
    """Stable bytes of the mapping document: ``json.dumps(doc, indent=2)`` and a newline."""
    pairs = ",\n".join(f'    [\n      "{b}",\n      {o}\n    ]' for b, o in mapping.pairs)
    return (
        f'{{\n  "version": {MAPPING_VERSION},\n  "N": {mapping.size},\n  "n": {mapping.n},\n'
        f'  "seed": {mapping.seed},\n  "pairs": [\n{pairs}\n  ]\n}}\n'
    ).encode("ascii")


def deserialize(data: bytes | str) -> AddressMap:
    """Parse and validate a serialized mapping document."""
    if isinstance(data, bytes):
        data = data.decode("utf-8", errors="replace")
    try:
        doc = json.loads(data)
    except (json.JSONDecodeError, RecursionError) as exc:
        raise ValueError(f"malformed mapping document: {exc}") from exc
    if not isinstance(doc, dict):
        raise ValueError("malformed mapping document: expected a JSON object")
    version = doc.get("version")
    if version != MAPPING_VERSION:
        raise ValueError(f"unsupported mapping version: {version!r}")
    for key in ("N", "n", "seed", "pairs"):
        if key not in doc:
            raise ValueError(f"mapping document missing {key!r}")
    if not isinstance(doc["pairs"], list):
        raise ValueError("mapping pairs must be a list")
    pairs = []
    for entry in doc["pairs"]:
        if not (isinstance(entry, list) and len(entry) == 2 and isinstance(entry[0], str)):
            raise ValueError(f"bad mapping pair: {entry!r}")
        pairs.append((entry[0], entry[1]))
    if type(doc["N"]) is not int or doc["N"] != len(pairs):
        raise ValueError(f"pair count {len(pairs)} does not match N={doc['N']!r}")
    return AddressMap(n=doc["n"], seed=doc["seed"], pairs=tuple(pairs))
