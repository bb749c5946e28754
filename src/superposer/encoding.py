"""Address assignment for datasets of N opaque records.

A dataset's records are addressed by the N binary strings of width
n = max(1, ceil(log2 N)) that encode 0..N-1. A mapping is a permutation:
the record ordinal at each address, in address order. ``build_mapping``
draws it from a seed, so it is arbitrary but reproducible. With
``synthesis``, this yields a state that addresses all N records with equal
amplitude. Mappings serialize to a versioned JSON document of (address
string, ordinal) pairs; loading rejects anything that is not a bijection.
"""

from __future__ import annotations

import functools
import random
from collections.abc import Iterator
from dataclasses import dataclass
from itertools import islice, repeat
from operator import itemgetter
from pathlib import Path

from .document import load_versioned
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

    Each string is a high half joined to a low half of n // 2 bits, so only
    the 2^(n // 2) low halves and the high halves in use are formatted. The
    last result is kept: ``AddressMap.pairs``, which ``serialize`` reads, and
    ``deserialize`` ask for the same N in turn.
    """
    n = split(N)[0]
    low = n // 2
    tails = tuple(map(format, range(1 << low), repeat(f"0{low}b"))) if low else ("",)
    heads = map(format, range(-(-N >> low)), repeat(f"0{n - low}b"))
    return n, tuple(islice((head + tail for head in heads for tail in tails), N))


@dataclass(frozen=True)
class AddressMap:
    """A bijection between the N addresses and record ordinals.

    ``ordinals[i]`` is the record stored at address i, the n-bit string of i.
    Construction validates the int n and seed, the width, and that the int
    ordinals are a permutation of 0..N-1, so an AddressMap is well formed.
    """

    n: int
    seed: int
    ordinals: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "ordinals", tuple(self.ordinals))
        N = len(self.ordinals)
        if N == 0:
            raise ValueError("address map needs at least one pair")
        if type(self.n) is not int or type(self.seed) is not int:
            raise ValueError(f"mapping n and seed must be ints, got {self.n!r} and {self.seed!r}")
        if self.n != (expected_n := split(N)[0]):
            raise ValueError(f"width {self.n} does not match {expected_n} for {N} records")
        for o in self.ordinals:
            if type(o) is not int or not 0 <= o < N:
                raise ValueError(f"record ordinal {o!r} outside 0..{N - 1}")
        if len(set(self.ordinals)) != N:
            raise ValueError("mapping not bijective")

    @property
    def size(self) -> int:
        return len(self.ordinals)

    @property
    def pairs(self) -> tuple[tuple[str, int], ...]:
        """(address string, record ordinal) for every address, in address order."""
        return tuple(zip(build_indices(self.size)[1], self.ordinals))

    @functools.cached_property
    def _ordinal_at(self) -> dict[str, int]:
        """The record ordinal at each address string, built on the first ``resolve``."""
        return dict(zip(build_indices(self.size)[1], self.ordinals))

    def resolve(self, address: str) -> int:
        """Record ordinal stored at the given address string."""
        if isinstance(address, str):
            ordinal = self._ordinal_at.get(address)
            if ordinal is not None:
                return ordinal
            if len(address) != self.n:
                raise ValueError(f"address {address!r} has width {len(address)}, expected {self.n}")
        raise ValueError(f"address {address!r} not in the index set")


def build_mapping(dataset: Dataset, seed: int) -> AddressMap:
    """Assign each record a distinct address via a seeded permutation."""
    ordinals = list(range(dataset.size))
    random.Random(seed).shuffle(ordinals)
    return AddressMap(n=split(dataset.size)[0], seed=seed, ordinals=tuple(ordinals))


_CHUNK_PAIRS = 1 << 12


def serialize_chunks(mapping: AddressMap) -> Iterator[bytes]:
    """``serialize``'s bytes in pieces of at most 2^12 pairs, so no piece holds the whole text.

    Reads only ``n``, ``seed``, ``size`` and ``pairs``.
    """
    pairs = mapping.pairs
    yield (
        f'{{\n  "version": {MAPPING_VERSION},\n  "N": {mapping.size},\n  "n": {mapping.n},\n'
        f'  "seed": {mapping.seed},\n  "pairs": [\n'
    ).encode("ascii")
    for lo in range(0, len(pairs), _CHUNK_PAIRS):
        body = ",\n".join([f'    [\n      "{b}",\n      {o}\n    ]'
                            for b, o in pairs[lo:lo + _CHUNK_PAIRS]])
        yield (f",\n{body}" if lo else body).encode("ascii")
    yield b"\n  ]\n}\n"


def serialize(mapping: AddressMap) -> bytes:
    """Stable bytes of the mapping document: ``json.dumps(doc, indent=2)`` and a newline."""
    return b"".join(serialize_chunks(mapping))


def deserialize(data: bytes | str) -> AddressMap:
    """Parse and validate a mapping document, checking its address strings once."""
    if isinstance(data, bytes):
        data = data.decode("utf-8", errors="replace")
    doc = load_versioned(data, "mapping", MAPPING_VERSION, ("N", "n", "seed", "pairs"))
    pairs, N = doc["pairs"], doc["N"]
    if not isinstance(pairs, list):
        raise ValueError("mapping pairs must be a list")
    for entry in pairs:
        if not (isinstance(entry, list) and len(entry) == 2 and isinstance(entry[0], str)):
            raise ValueError(f"bad mapping pair: {entry!r}")
    if type(N) is not int or N != len(pairs):
        raise ValueError(f"pair count {len(pairs)} does not match N={N!r}")
    # zip(*pairs) would hold one list iterator per pair at once.
    mapping = AddressMap(n=doc["n"], seed=doc["seed"], ordinals=tuple(map(itemgetter(1), pairs)))
    if tuple(map(itemgetter(0), pairs)) != build_indices(N)[1]:
        raise ValueError(f"address strings must cover exactly 0..{N - 1}, in address order")
    return mapping
