"""Synthesis of circuits preparing the uniform superposition over 0..N-1.

The construction splits N = 2**xi * M with M odd. The trailing xi qubits
receive plain Hadamards (they enumerate the 2**xi least significant index
values), and the leading qubits receive a branch-and-spread sequence for
the odd cofactor M built from G rotations, controlled G rotations, and
zero-controlled Hadamards. The entangling-gate total is g + m - 3, where
g is the number of set bits of N and m the bit width of M.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

from .ir import Circuit, Gate


@dataclass(frozen=True)
class SynthesisPlan:
    """Arithmetic decomposition of N that drives circuit construction.

    N:  the number of basis states to superpose.
    n:  register width, max(1, ceil(log2 N)).
    xi: exponent of the even part, N = 2**xi * M.
    M:  odd cofactor.
    m:  bit width of M (0 when M == 1); the odd-part subcircuit acts on
        qubits 0..m-1.
    g:  number of set bits of N (equivalently of M).
    k:  exponents of the set bits of M above bit 0, strictly decreasing.
        M == 2**k[0] + ... + 2**k[g-2] + 1 whenever M > 1.
    p:  branch probabilities for the G and CG rotations. p[i] is the
        probability mass kept on the |0> branch at split i, as an exact
        rational: p[i] = 2**k[i] / (M - sum of the 2**k[l] already split).
    """

    N: int
    n: int
    xi: int
    M: int
    m: int
    g: int
    k: tuple[int, ...]
    p: tuple[Fraction, ...]


class _LowestTerms(NamedTuple):
    """A numerator and a positive denominator with no common factor.

    Registered as a numbers.Rational, whose numerator and denominator are
    in lowest terms by contract, so Fraction copies the pair without a gcd.
    """

    numerator: int
    denominator: int


numbers.Rational.register(_LowestTerms)


def split(N: int) -> tuple[int, int, int, int, int]:
    """The N arithmetic every module reads: (n, xi, M, g, m) for N >= 1.

    n is the register width max(1, ceil(log2 N)), N = 2**xi * M with M
    odd, g is the set-bit count of N (equal to that of M) and m is the bit
    width of M, or 0 when M == 1.
    """
    # bool is a subclass of int, and a float would fail later in & and >>.
    if type(N) is not int or N < 1:
        raise ValueError(f"N must be a positive integer, got {N!r}")
    xi = (N & -N).bit_length() - 1
    M = N >> xi
    return max(1, (N - 1).bit_length()), xi, M, M.bit_count(), M.bit_length() if M > 1 else 0


def plan(N: int) -> SynthesisPlan:
    """Compute the full arithmetic decomposition for N.

    One pass over the set bits of M above bit 0, from the top down, yields
    k and p together; for M == 1 there are none, so both are empty. The
    remainder stays odd, so each 2**k / remainder is in lowest terms.
    """
    n, xi, M, g, m = split(N)
    k: list[int] = []
    p: list[Fraction] = []
    remaining = M
    for i in range(m - 1, 0, -1):
        if M >> i & 1:
            k.append(i)
            p.append(Fraction(_LowestTerms(1 << i, remaining)))
            remaining -= 1 << i
    return SynthesisPlan(N=N, n=n, xi=xi, M=M, m=m, g=g, k=tuple(k), p=tuple(p))


def synthesize(N: int) -> Circuit:
    """Emit the abstract circuit preparing (1/sqrt(N)) sum_{j<N} |j>.

    For M > 1 the odd-part subcircuit on qubits 0..m-1 proceeds in three
    phases:

    1. G(p[0]) on qubit 0 splits off the heaviest power-of-two block,
       then CG(p[i]) splits the remainder block for each further set bit,
       always targeting a qubit no earlier gate has touched.
    2. Zero-controlled Hadamards controlled by the last split qubit fan
       the final block out across the low qubits.
    3. Zero-controlled Hadamards walk back up the split chain, fanning
       each earlier block out to its full power-of-two width.

    The H layer on the trailing xi qubits then doubles every index xi
    times, which is what makes the N indices consecutive from 0.
    """
    pl = plan(N)
    gates: list[Gate] = []
    if pl.M > 1:
        m, g, k, p = pl.m, pl.g, pl.k, pl.p
        gates.append(Gate.g(0, p[0]))
        for i in range(1, g - 1):
            gates.append(Gate.cg(m - k[i - 1] - 1, m - k[i] - 1, p[i]))
        last = k[g - 2]
        for j in range(last):
            gates.append(Gate.zero_ch(m - last - 1, m - last + j))
        for j in range(g - 2, 0, -1):
            for offset in range(1, k[j - 1] - k[j] + 1):
                gates.append(Gate.zero_ch(m - k[j - 1] - 1, m - k[j] - offset))
    for q in range(pl.n - pl.xi, pl.n):
        gates.append(Gate.h(q))
    return Circuit(pl.n, tuple(gates))
