"""Closed-form CNOT accounting, case taxonomy, and per-width scans.

Everything here is integer arithmetic on N; no circuit is built or
simulated.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from math import comb
from typing import Iterator, NamedTuple

from .synthesis import split

MIN_SCAN_N_MAX = 2
MAX_SCAN_N_MAX = 20


class Case(Enum):
    """Structural family of N, ordered by the CNOT bound it guarantees."""

    I = "I"
    II = "II"
    III = "III"
    IV = "IV"
    V = "V"


def cnot_count(N: int) -> int:
    """Entangling-gate count of the lowered circuit for N, in closed form.

    Equals g + m - 3 for g >= 2 and 0 otherwise, where g is the set-bit
    count of N and m the bit width of its odd cofactor.
    """
    _, _, _, g, m = split(N)
    return _count(g, m)


def classify(N: int) -> Case:
    """Assign N to its structural family.

    Powers of two need no entanglers (I). Odd N with exactly two set bits
    sits one below the width (II). All-ones N hits the 2n-3 worst case
    (III). Remaining odd N stay at or under 2n-4 (IV), and every even
    non-power-of-two stays at or under 2n-5 (V).
    """
    n, xi, _, g, _ = split(N)
    if N < 2:
        raise ValueError(f"classification requires N >= 2, got {N}")
    return _case(n, xi, g)


def _count(g: int, m: int) -> int:
    return g + m - 3 if g >= 2 else 0


def _case(n: int, xi: int, g: int) -> Case:
    if g == 1:
        return Case.I
    if xi:
        return Case.V
    if g == 2:
        return Case.II
    if g == n:
        return Case.III
    return Case.IV


class ScanRow(NamedTuple):
    """One N in a scan: its decomposition, count, and family."""

    N: int
    n: int
    xi: int
    M: int
    g: int
    m: int
    cnot: int
    case: Case


@dataclass(frozen=True)
class NSummary:
    """Aggregate over all N with register width n."""

    n: int
    max_count: int
    mean_count: float
    histogram: dict[int, int]


@dataclass(frozen=True)
class ScanStats:
    per_n: tuple[NSummary, ...]

    def for_n(self, n: int) -> NSummary:
        for summary in self.per_n:
            if summary.n == n:
                return summary
        raise KeyError(f"no summary for n={n}")


def scan_rows(n_max: int) -> Iterator[ScanRow]:
    """Yield one row per N, grouped by register width n from 2 to n_max.

    Width n covers N in (2**(n-1), 2**n], the population whose circuits
    need exactly n qubits.
    """
    for n in _widths(n_max):
        for N in range((1 << (n - 1)) + 1, (1 << n) + 1):
            _, xi, M, g, m = split(N)
            yield ScanRow(N, n, xi, M, g, m, _count(g, m), _case(n, xi, g))


def _widths(n_max: int) -> range:
    # bool is a subclass of int, and a float or str would fail later in range().
    if type(n_max) is not int or not MIN_SCAN_N_MAX <= n_max <= MAX_SCAN_N_MAX:
        raise ValueError(f"n_max must be within {MIN_SCAN_N_MAX}..{MAX_SCAN_N_MAX}, got {n_max!r}")
    return range(2, n_max + 1)


def scan(n_max: int) -> ScanStats:
    """Per-n statistics for widths 2..n_max, in closed form.

    Tests check it against an exhaustive fold of ``scan_rows(n_max)``.
    """
    summaries = []
    for n in _widths(n_max):
        # 2**n has count 0. Of the other N = 2**xi * M, C(k, j) have j of odd M's
        # k = n - xi - 2 inner bits set and count k + 1 + j, so count c has C(k, c - 1 - k).
        histogram = {0: 1}
        for c in range(1, 2 * n - 2):
            histogram[c] = sum(comb(k, c - 1 - k) for k in range(min(c, n - 1)))
        mean = sum(count * size for count, size in histogram.items()) / (1 << (n - 1))
        summaries.append(NSummary(n, max(histogram), mean, histogram))
    return ScanStats(per_n=tuple(summaries))
