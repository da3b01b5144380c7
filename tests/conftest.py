"""Shared fixtures: the catalog of constructed codes and independent oracles.

The oracles deliberately avoid the library's own code paths (dense-list
elimination, Pascal triangle, direct span enumeration) so that derived
expected values are computed twice, independently.
"""

from __future__ import annotations

import itertools

import pytest

from availcodes import (
    AvailabilityCode,
    BitMatrix,
    BoundNotApplicableError,
    BoundResult,
    FiniteField,
    build_partition_family,
    dmin_m_delta,
    dmin_m_delta_max,
    dmin_shortening,
    dmin_tamo_barg,
    dmin_wang,
    functional_code,
    greedy_cover,
    partition_code,
    product_code,
    projective_functionals,
    rate_best_known,
    rate_greedy_t3,
    rate_tamo_barg,
    rate_transpose,
)


# -- independent oracles ------------------------------------------------


def dense_rank(rows: list[list[int]]) -> int:
    """GF(2) rank by elimination on dense lists."""
    work = [r[:] for r in rows]
    ncols = len(work[0]) if work else 0
    rank = 0
    for col in range(ncols):
        piv = next((i for i in range(rank, len(work)) if work[i][col]), None)
        if piv is None:
            continue
        work[rank], work[piv] = work[piv], work[rank]
        for i in range(len(work)):
            if i != rank and work[i][col]:
                work[i] = [a ^ b for a, b in zip(work[i], work[rank])]
        rank += 1
    return rank


def dense_rows(mat: BitMatrix) -> list[list[int]]:
    """The 0/1 entries of a bit-packed matrix, row by row."""
    return [[(row >> j) & 1 for j in range(mat.cols)] for row in mat.bits]


def zero_matrix(rows: int, cols: int) -> BitMatrix:
    return BitMatrix(rows, cols, (0,) * rows)


def stack(top: BitMatrix, bottom: BitMatrix) -> BitMatrix:
    """The rows of `top` followed by those of `bottom`."""
    assert top.cols == bottom.cols
    return BitMatrix(top.rows + bottom.rows, top.cols, top.bits + bottom.bits)


def matvec(mat: BitMatrix, v: int) -> int:
    """M @ v over GF(2); v is a bit-packed column vector, result bit i = row i."""
    return sum(((row & v).bit_count() & 1) << i for i, row in enumerate(mat.bits))


def flagged(trace, kind: str) -> bool:
    """Whether a greedy trace flags some step as `kind` ("stall" or "disconnected")."""
    return any(flag == kind for _, flag in trace.flags)


def support(row: int) -> tuple[int, ...]:
    """1-based coordinates of the ones in a bit-packed row."""
    return tuple(j + 1 for j in range(row.bit_length()) if (row >> j) & 1)


def dense_nullspace_check(rows: list[list[int]], vec: list[int]) -> bool:
    return all(sum(a * b for a, b in zip(row, vec)) % 2 == 0 for row in rows)


def span_weights(generators: list[int], n: int) -> list[int]:
    """Weight counts of the GF(2) span of bit-packed generators,
    by explicit subset enumeration (no Gray-code shortcut)."""
    seen = {0}
    for g in generators:
        seen |= {v ^ g for v in seen}
    counts = [0] * (n + 1)
    for v in seen:
        counts[v.bit_count()] += 1
    return counts


def dual_weight_counts(h: BitMatrix) -> list[int]:
    """Weight counts of the row space of H (the dual code), directly."""
    return span_weights(list(h.bits), h.cols)


def family_partitions(family) -> tuple:
    """Every partition of a `PartitionFamily`, built one by one."""
    return tuple(family.partition(i) for i in range(len(family)))


def permutation_equivalent(a: BitMatrix, b: BitMatrix) -> bool:
    """Row/column-permutation equivalence by brute force (small n only)."""
    if a.rows != b.rows or a.cols != b.cols:
        return False
    target = sorted(b.bits)
    for perm in itertools.permutations(range(a.cols)):
        permuted = sorted(
            sum(((row >> j) & 1) << p for j, p in enumerate(perm)) for row in a.bits
        )
        if permuted == target:
            return True
    return False


# -- the bounds the soundness sweeps hold against every code --------------


def applicable_rate_bounds(code: AvailabilityCode) -> list[BoundResult]:
    """Every rate bound that holds for the code's (n, r, t).  The greedy
    t = 3 bound holds only for a connected Tanner graph, so it is left out
    when the greedy walk restarts on a new component."""
    n, r, t = code.n, code.r, code.t
    out = [rate_tamo_barg(r, t)]
    if t >= 2:
        out.append(rate_best_known(r, t))
        out.append(rate_transpose(r, t))
    if t == 3 and (3 * n) % (r + 1) == 0 and not flagged(greedy_cover(code), "disconnected"):
        out.append(rate_greedy_t3(n, r))
    return out


def applicable_distance_bounds(n: int, k: int, r: int, t: int) -> list[BoundResult]:
    """Every distance bound defined at (n, k, r, t)."""
    out = [dmin_tamo_barg(n, k, r, t), dmin_wang(n, k, r, t)]
    if t >= 2 and n >= r + 1:
        out.append(dmin_shortening(n, k, r, t))
        out.append(dmin_m_delta(n, k, r, t, n - k, t))
        try:
            out.append(dmin_m_delta_max(n, k, r, t))
        except BoundNotApplicableError:
            pass
    return out


# -- constructed-code catalog -------------------------------------------


def _catalog() -> list[AvailabilityCode]:
    codes: list[AvailabilityCode] = []
    for r, g, ts in [(1, 2, (1, 2, 3)), (1, 3, (3, 7)), (2, 2, (2, 3, 4)), (3, 2, (3,)), (4, 2, (3,))]:
        family = build_partition_family(r, g)
        for t in ts:
            codes.append(partition_code(family, t))
    for q, ts in [(2, (3,)), (3, (2, 3, 4)), (4, (3,)), (5, (3,))]:
        gf = FiniteField(q)
        for t in ts:
            codes.append(functional_code(gf, 2, 1, projective_functionals(gf, t)))
    for r, t in [(1, 2), (1, 3), (2, 2), (2, 3), (3, 2), (4, 2)]:
        codes.append(product_code(r, t))
    return codes


@pytest.fixture(scope="session")
def catalog() -> list[AvailabilityCode]:
    return _catalog()


@pytest.fixture(scope="session")
def k4_code() -> AvailabilityCode:
    return partition_code(build_partition_family(1, 2), 3)
