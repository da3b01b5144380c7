"""Exact combinatorics: Krawtchouk polynomials, the span walk, weight
distributions and their transform to the dual distribution.  A
distribution is the tuple A_0..A_n of its weight counts.

Everything here is arbitrary-precision integer arithmetic; no floats.
"""

from __future__ import annotations

import math
from collections import Counter
from itertools import chain
from typing import Iterator, Sequence

# Word budget, a power of two, of the Gray walk's 2^min(k, n-k) words and of
# the information-set search (d_min, the dual's d_1).  A word walked took
# 0.13-0.31 us at n <= 1024 and 0.44-0.55 us at n = 4096 (2-vCPU VM, Python
# 3.11): 2^21 words 0.3-0.5 s and 0.9-1.8 s; 2^22, 0.5-1.3 s and 2.0-3.2 s.
ENUMERATION_LIMIT = 21


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


def krawtchouk_row(q: int, n: int, j: int) -> list[int]:
    """K_j(0)..K_j(n) over a q-ary alphabet, from K_j(0) = (q-1)^j C(n, j) and
    the three-term recurrence in i,
    (q-1)(n-i) K_j(i+1) = ((q-1)(n-i) + i - q j) K_j(i) - i K_j(i-1),
    whose divisions are exact: O(n) integer steps.
    """
    if q < 2:
        raise ValueError(f"alphabet size must be >= 2, got {q}")
    if not 0 <= j <= n:
        raise ValueError(f"degree j={j} outside 0..{n}")
    prev, cur = 0, (q - 1) ** j * math.comb(n, j)  # K_j(i-1), K_j(i)
    row = [cur]
    for i in range(n):
        step = (q - 1) * (n - i)
        prev, cur = cur, ((step + i - q * j) * cur - i * prev) // step
        row.append(cur)
    return row


def krawtchouk(q: int, n: int, j: int, i: int) -> int:
    """K_j(i) = sum_a (-1)^a (q-1)^(j-a) C(i,a) C(n-i,j-a), read from
    `krawtchouk_column`, which checks q and i.  No package code calls it
    and it is not exported; it stays while the benchmark's per-layer
    metrics `weights.krawtchouk.*` name it (perfbench/README.md)."""
    if not 0 <= j <= n:
        raise ValueError(f"degree j={j} outside 0..{n}")
    return krawtchouk_column(q, n, i)[j]


def _span(vecs: Sequence[int]) -> Iterator[list[int]]:
    """The span of the independent `vecs`, 0 first, in lists of at most
    1024 words: the first ten by doubling, the rest in Gray order."""
    words = [0]
    for vec in vecs[:10]:
        words += list(map(vec.__xor__, words))
    yield words
    rest = vecs[10:]
    for s in range(1, 1 << len(rest)):
        words = list(map(rest[(s & -s).bit_length() - 1].__xor__, words))
        yield words


def _gray_weight_counts(vecs: Sequence[int], n: int) -> list[int]:
    """Weight counts of the span of the independent `vecs`, by `_span`."""
    counts = Counter(map(int.bit_count, chain.from_iterable(_span(vecs))))
    return [counts[w] for w in range(n + 1)]


def weight_distribution(code) -> tuple[int, ...]:
    """Exact weight distribution A_0..A_n of a binary code given by its
    parity matrix.

    Enumerates the smaller of the code (2^k words, over its `basis`) and
    its dual (2^(n-k) words, over its `dual_basis`); from the dual side, A
    is recovered by the MacWilliams transform.  Guarded at
    min(k, n-k) <= ENUMERATION_LIMIT, checked before the code's basis is
    read off its echelon form.
    """
    n, k = code.n, code.k
    if min(k, n - k) > ENUMERATION_LIMIT:
        raise EnumerationBudgetError(
            f"dimension {k} and dual dimension {n - k} both exceed "
            f"enumeration limit {ENUMERATION_LIMIT}"
        )
    if n - k < k:
        return macwilliams_vector(n, 2, _gray_weight_counts(code.dual_basis.bits, n))
    return tuple(_gray_weight_counts(code.basis.bits, n))


def macwilliams_vector(n: int, q: int, A: Sequence[int]) -> tuple[int, ...]:
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

