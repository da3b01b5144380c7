"""Reference oracles for the exhaustive enumerations: the dual GHW search
that rebuilds every subspace's basis from its coefficient bits, the
Krawtchouk value as its direct alternating sum, and the MacWilliams
transform that sums those values term by term.

These are the implementations the package used before its enumerations
moved their inner loops into C-level passes and its Krawtchouk values
into one three-term recurrence.  `test_enum_differential.py` requires the
package to agree with them exactly: the same supports, the same Krawtchouk
values, the same dual distributions and the same error messages.
"""

from __future__ import annotations

import itertools
import math

from availcodes.verification import (
    GHW_MAX_DUAL_DIM,
    GHW_MAX_LEVEL,
    GHW_SUBSPACE_BUDGET,
    gaussian_binomial,
)
from availcodes.weights import EnumerationBudgetError
from matrix_oracles import row_space_basis


def dual_ghw_bruteforce(code, dimension: int) -> int:
    """Every reduced-echelon coefficient pattern, each basis vector summed
    from its coefficient bits, with no pruning, over the reference echelon
    basis of `matrix_oracles`."""
    basis = row_space_basis(code.H)
    rho = basis.rows
    if dimension < 1 or dimension > rho:
        raise EnumerationBudgetError(
            f"no {dimension}-dimensional subspace of a {rho}-dimensional dual"
        )
    if rho > GHW_MAX_DUAL_DIM or dimension > GHW_MAX_LEVEL:
        raise EnumerationBudgetError(
            f"dual dimension {rho} / level {dimension} outside the enumeration budget"
        )
    count = gaussian_binomial(rho, dimension)
    if count > GHW_SUBSPACE_BUDGET:
        raise EnumerationBudgetError(
            f"{count} subspaces exceed budget {GHW_SUBSPACE_BUDGET}"
        )
    vecs = basis.bits
    best = code.n + 1
    for pivots in itertools.combinations(range(rho), dimension):
        free_cols = [
            [c for c in range(p + 1, rho) if c not in pivots] for p in pivots
        ]
        nfree = sum(len(f) for f in free_cols)
        for assignment in range(1 << nfree):
            union = 0
            pos = 0
            for u in range(dimension):
                v = vecs[pivots[u]]
                for c in free_cols[u]:
                    if (assignment >> pos) & 1:
                        v ^= vecs[c]
                    pos += 1
                union |= v
            w = union.bit_count()
            if w < best:
                best = w
    return best


def krawtchouk_sum(q: int, n: int, j: int, i: int) -> int:
    """K_j(i) = sum_a (-1)^a (q-1)^(j-a) C(i,a) C(n-i,j-a), term by term."""
    acc = 0
    for a in range(j + 1):
        term = (q - 1) ** (j - a) * math.comb(i, a) * math.comb(n - i, j - a)
        acc += -term if a & 1 else term
    return acc


def macwilliams_vector(n: int, q: int, A: tuple[int, ...]) -> tuple[int, ...]:
    """B_j = (1/sum A) * sum_i A_i K_j(i), each K_j(i) from `krawtchouk_sum`."""
    size = sum(A)
    B = []
    for j in range(n + 1):
        s = sum(A[i] * krawtchouk_sum(q, n, j, i) for i in range(n + 1) if A[i])
        if s < 0 or s % size:
            raise ValueError(
                f"invalid weight distribution: B_{j} = {s}/{size} is not a nonnegative integer"
            )
        B.append(s // size)
    return tuple(B)
