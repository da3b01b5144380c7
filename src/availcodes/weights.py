"""Exact combinatorics: Krawtchouk polynomials, weight distributions and
their transform to the dual distribution.

Everything here is arbitrary-precision integer arithmetic; no floats.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

ENUMERATION_LIMIT = 28  # enumeration is 2^min(k, n-k); keep that exponent at or below this


class EnumerationBudgetError(ValueError):
    """An exhaustive enumeration would exceed the configured budget."""


def krawtchouk_column(q: int, n: int, i: int) -> list[int]:
    """K_0(i)..K_n(i) over a q-ary alphabet, from the three-term recurrence in j,
    (j+1) K_{j+1}(i) = ((q-1)(n-j) + j - q i) K_j(i) - (q-1)(n-j+1) K_{j-1}(i),
    whose divisions are exact: O(n) integer steps.
    """
    if q < 2:
        raise ValueError(f"alphabet size must be >= 2, got {q}")
    if not 0 <= i <= n:
        raise ValueError(f"point i={i} outside 0..{n}")
    prev, cur = 0, 1  # K_{j-1}(i), K_j(i)
    column = [cur]
    for j in range(n):
        prev, cur = cur, (
            ((q - 1) * (n - j) + j - q * i) * cur - (q - 1) * (n - j + 1) * prev
        ) // (j + 1)
        column.append(cur)
    return column


def krawtchouk(q: int, n: int, j: int, i: int) -> int:
    """K_j(i) = sum_a (-1)^a (q-1)^(j-a) C(i,a) C(n-i,j-a), read from
    `krawtchouk_column`, which checks q and i."""
    if not 0 <= j <= n:
        raise ValueError(f"degree j={j} outside 0..{n}")
    return krawtchouk_column(q, n, i)[j]


@dataclass(frozen=True)
class WeightDistribution:
    """Exact codeword-weight counts A_0..A_n, optionally with the dual's B_0..B_n."""

    n: int
    q: int
    A: tuple[int, ...]
    B: tuple[int, ...] | None = None

    def __post_init__(self):
        if len(self.A) != self.n + 1:
            raise ValueError(f"A must have {self.n + 1} entries")
        if self.A[0] != 1:
            raise ValueError("A_0 must be 1")
        if any(a < 0 for a in self.A):
            raise ValueError("weight counts must be nonnegative")
        if not _is_power(sum(self.A), self.q):
            raise ValueError(f"sum(A)={sum(self.A)} is not a power of {self.q}")
        if self.B is not None:
            if len(self.B) != self.n + 1 or self.B[0] != 1:
                raise ValueError("B must have n+1 entries with B_0 = 1")
            if sum(self.A) * sum(self.B) != self.q**self.n:
                raise ValueError("sizes of code and dual do not multiply to q^n")


def _is_power(m: int, q: int) -> bool:
    if m < 1:
        return False
    while m % q == 0:
        m //= q
    return m == 1


def _gray_weight_counts(vecs: Sequence[int], n: int) -> list[int]:
    """Weight counts of the span of the independent vectors `vecs`, by
    Gray-code enumeration."""
    counts = [0] * (n + 1)
    counts[0] = 1
    cw = 0
    for s in range(1, 1 << len(vecs)):
        cw ^= vecs[(s & -s).bit_length() - 1]
        counts[cw.bit_count()] += 1
    return counts


def weight_distribution(code) -> WeightDistribution:
    """Exact weight distribution of a binary code given by its parity matrix.

    Enumerates the smaller of the code (2^k words, over a nullspace basis)
    and its dual (2^(n-k) words, over the echelon rows of H); from the dual
    side, A is recovered by the MacWilliams transform.  Guarded at
    min(k, n-k) <= ENUMERATION_LIMIT, checked before any basis is built.
    """
    from .bitmatrix import _pivot_table, rank_and_nullspace

    h = code.H
    n = h.cols
    echelon = _pivot_table(h.bits)
    k = n - len(echelon)
    if min(k, n - k) > ENUMERATION_LIMIT:
        raise EnumerationBudgetError(
            f"dimension {k} and dual dimension {n - k} both exceed "
            f"enumeration limit {ENUMERATION_LIMIT}"
        )
    if n - k < k:
        B = _gray_weight_counts(list(echelon.values()), n)
        return WeightDistribution(n=n, q=2, A=macwilliams_vector(n, 2, tuple(B)))
    basis = rank_and_nullspace(h)[1]
    return WeightDistribution(n=n, q=2, A=tuple(_gray_weight_counts(basis.bits, n)))


def macwilliams_vector(n: int, q: int, A: tuple[int, ...]) -> tuple[int, ...]:
    """B_j = (1/sum A) * sum_i A_i K_j(i); exact, rejects non-integer results.

    One `krawtchouk_column` per nonzero A_i: O(n) integer steps each.
    """
    if q < 2:
        raise ValueError(f"alphabet size must be >= 2, got {q}")
    size = sum(A)
    sums = [0] * (n + 1)
    for i, a in enumerate(A):
        if a:
            sums = [s + a * k for s, k in zip(sums, krawtchouk_column(q, n, i))]
    B = []
    for j, s in enumerate(sums):
        if s < 0 or s % size:
            raise ValueError(
                f"invalid weight distribution: B_{j} = {s}/{size} is not a nonnegative integer"
            )
        B.append(s // size)
    return tuple(B)


def macwilliams_transform(dist: WeightDistribution) -> WeightDistribution:
    """Fill in the dual weight distribution of `dist` via the transform."""
    B = macwilliams_vector(dist.n, dist.q, dist.A)
    return WeightDistribution(n=dist.n, q=dist.q, A=dist.A, B=B)
