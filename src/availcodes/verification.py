"""Checks and exact brute-force analyses for availability parity matrices.

Coordinates and row indices in reports and traces are 1-based, matching the
convention used for partition blocks.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass, field

from .bitmatrix import BitMatrix, _rows_through, row_space_basis
from .codes import AvailabilityCode
from .weights import EnumerationBudgetError, weight_distribution

GHW_MAX_DUAL_DIM = 16
GHW_MAX_LEVEL = 3
GHW_SUBSPACE_BUDGET = 2_000_000


@dataclass(frozen=True)
class StrictCheckReport:
    """Outcome of the strict row/column-regularity check."""

    passed: bool
    row_weight_violations: tuple[int, ...]
    column_weight_violations: tuple[int, ...]
    intersection_violations: tuple[tuple[int, int], ...]
    balance_ok: bool

    def to_json(self) -> dict:
        return {
            "pass": self.passed,
            "row_weight_violations": list(self.row_weight_violations),
            "column_weight_violations": list(self.column_weight_violations),
            "intersection_violations": [list(p) for p in self.intersection_violations],
            "balance_ok": self.balance_ok,
        }


def check_strict_availability(h: BitMatrix, r: int, t: int) -> StrictCheckReport:
    """Strict availability: every row weight r+1, every column weight t,
    pairwise row supports meeting in at most one point, and m(r+1) = nt.

    Pairs of rows that meet twice are found through the columns: OR-ing
    the row masks of row i's columns marks every row that meets row i, and
    a row marked by two of them meets it at least twice.
    """
    columns = h.transpose().bits if h.rows else (0,) * h.cols
    bad_rows = tuple(i + 1 for i, row in enumerate(h.bits) if row.bit_count() != r + 1)
    bad_cols = tuple(j + 1 for j, col in enumerate(columns) if col.bit_count() != t)
    bad_pairs = []
    for i, row in enumerate(h.bits):
        seen = twice = 0
        while row:
            low = row & -row
            col = columns[low.bit_length() - 1]
            twice |= seen & col
            seen |= col
            row ^= low
        twice >>= i + 1  # rows after row i, so each pair is found once, in order
        while twice:
            low = twice & -twice
            bad_pairs.append((i + 1, i + 1 + low.bit_length()))
            twice ^= low
    balance_ok = h.rows * (r + 1) == h.cols * t
    passed = not bad_rows and not bad_cols and not bad_pairs and balance_ok
    return StrictCheckReport(passed, bad_rows, bad_cols, tuple(bad_pairs), balance_ok)


@dataclass(frozen=True)
class AvailabilityCheckReport:
    """Per-column outcome of the general availability search."""

    passed: bool
    column_ok: tuple[bool, ...]

    @property
    def failing_columns(self) -> tuple[int, ...]:
        return tuple(j + 1 for j, ok in enumerate(self.column_ok) if not ok)

    def to_json(self) -> dict:
        return {"pass": self.passed, "failing_columns": list(self.failing_columns)}


def check_availability(h_des: BitMatrix, r: int, t: int) -> AvailabilityCheckReport:
    """For each column, search for t rows of weight <= r+1 through it whose
    supports pairwise intersect exactly in that column."""
    if t < 0:  # the search could never stop early and would try every subset
        raise ValueError(f"need t >= 0, got t={t}")
    bits = h_des.bits
    light = [row.bit_count() <= r + 1 for row in bits]
    column_ok = []
    for j, through in enumerate(_rows_through(h_des)):
        cands = [bits[i] for i in through if light[i]]
        column_ok.append(_find_orthogonal_subset(cands, 1 << j, t))
    return AvailabilityCheckReport(all(column_ok), tuple(column_ok))


def _find_orthogonal_subset(cands: list[int], pivot_bit: int, t: int) -> bool:
    """Exact search for t candidate rows pairwise meeting only at pivot_bit."""

    def rec(start: int, chosen: int, union: int) -> bool:
        if chosen == t:
            return True
        for idx in range(start, len(cands)):
            if len(cands) - idx < t - chosen:
                return False
            row = cands[idx]
            if row & union == pivot_bit:
                if rec(idx + 1, chosen + 1, union | row):
                    return True
        return False

    return rec(0, 0, pivot_bit)


def min_distance_bruteforce(code: AvailabilityCode) -> int | float:
    """Exact minimum weight over nonzero codewords; math.inf for k = 0."""
    counts = weight_distribution(code)
    return next((w for w in range(1, code.n + 1) if counts[w]), math.inf)


def gaussian_binomial(m: int, i: int) -> int:
    """Number of i-dimensional subspaces of a binary m-dimensional space."""
    if i < 0 or i > m:
        return 0
    num = den = 1
    for a in range(i):
        num *= (1 << (m - a)) - 1
        den *= (1 << (i - a)) - 1
    return num // den


def dual_ghw_bruteforce(code: AvailabilityCode, dimension: int) -> int:
    """Exact generalized Hamming weight of the dual at the given dimension:
    the least support size of a `dimension`-dimensional dual subspace.

    Covers the i-dimensional subspaces of the row space of H once each, via
    reduced-echelon coefficient patterns over an echelon dual basis: for a
    pattern of pivots, basis vector u ranges over the coset of pivot u's
    row plus the span of its free rows, listed once by doubling.  A
    subspace's support is the union of its basis vectors' supports and can
    only grow as vectors are added (Wei 1991), so a partial union that
    already has at least the best support found is pruned; the last
    vector's coset is scanned in one C-level pass.  The budget checks count
    every subspace, pruned or not, and run before any enumeration.
    """
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
        cosets = []
        for p in pivots:
            coset = [vecs[p]]
            for c in range(p + 1, rho):
                if c not in pivots:
                    g = vecs[c]
                    coset += [v ^ g for v in coset]
            cosets.append(coset)
        best = _min_union_support(cosets, 0, best)
    return best


def _min_union_support(cosets: list[list[int]], union: int, best: int) -> int:
    """Least support of `union` OR one vector from each coset, or `best`
    if none is smaller; branches whose union reaches `best` are cut."""
    *outer, last = cosets
    if not outer:
        return min(best, min(map(int.bit_count, map(union.__or__, last))))
    rest = cosets[1:]
    for v in outer[0]:
        grown = union | v
        if grown.bit_count() < best:
            best = _min_union_support(rest, grown, best)
    return best


@dataclass(frozen=True)
class GreedyTrace:
    """Record of the covering walk: chosen coordinates, rows gained per step,
    and the resulting dimension bound n - |S|."""

    sigma: tuple[int, ...]
    g: tuple[int, ...]
    final_bound: int
    flags: tuple[tuple[int, str], ...] = field(default=())

    def to_json(self) -> dict:
        return {
            "sigma": list(self.sigma),
            "g": list(self.g),
            "final_bound": self.final_bound,
            "flags": [[step, kind] for step, kind in self.flags],
        }


def greedy_cover(
    code: AvailabilityCode,
    start: int = 1,
    tiebreak: str = "lowest",
    seed: int | None = None,
) -> GreedyTrace:
    """Greedy row-covering walk over the parity matrix.

    At every step past the first, the next coordinate maximizes
    |D_j| * I(|D_j| <= 2), where D_j counts already-collected rows through
    column j; coordinates whose rows are all collected score zero (for
    column weight 3 the indicator does this by itself, and the filter keeps
    every step row-gaining in general, which is what makes the final bound
    n - |S| >= k sound).  Ties go to the lowest index by default, or to a
    seeded random choice with tiebreak="random".  When every candidate
    scores zero but rows remain, the walk either continues on a partially
    covered coordinate (flagged "stall") or restarts on an untouched
    component (flagged "disconnected").

    |D_j| is updated as each row joins, and the columns scoring 1 and 2 are
    kept in two sets, so the walk does O(nnz) work besides picking from a
    pool; only the rare stall and restart steps scan every column.
    """
    if tiebreak not in ("lowest", "random"):
        raise ValueError(f"tiebreak must be 'lowest' or 'random', got {tiebreak!r}")
    rng = random.Random(seed) if tiebreak == "random" else None
    h = code.H
    n, m = h.cols, h.rows
    if not 1 <= start <= n:
        raise ValueError(f"start coordinate {start} outside 1..{n}")
    if any(row == 0 for row in h.bits):
        raise ValueError("matrix has an all-zero row; the walk cannot cover it")
    rows_through = _rows_through(h)
    weight = [len(rows) for rows in rows_through]
    d = [0] * n  # |D_j|: collected rows through column j
    # scored[s]: the columns outside S with |D_j| = s < weight, for s = 1, 2
    scored: dict[int, set[int]] = {1: set(), 2: set()}
    in_p = [False] * m
    p_count = 0
    in_s = [False] * n
    sigma: list[int] = []
    gains: list[int] = []
    flags: list[tuple[int, str]] = []

    def take(j: int) -> None:
        nonlocal p_count
        in_s[j] = True
        scored[1].discard(j)
        scored[2].discard(j)
        sigma.append(j + 1)
        gained = 0
        for i in rows_through[j]:
            if in_p[i]:
                continue
            in_p[i] = True
            gained += 1
            row = h.bits[i]
            while row:
                low = row & -row
                c = low.bit_length() - 1
                row ^= low
                old = d[c]
                d[c] = old + 1
                if in_s[c] or old > 2:
                    continue
                if old:
                    scored[old].discard(c)
                if old < 2 and old + 1 < weight[c]:
                    scored[old + 1].add(c)
        p_count += gained
        gains.append(gained)

    take(start - 1)
    while p_count < m:
        pool = scored[2] or scored[1]
        if not pool:
            step = len(sigma) + 1
            candidates = [j for j in range(n) if not in_s[j] and d[j] < weight[j]]
            stall_pool = [j for j in candidates if d[j] >= 1]
            if stall_pool:
                top = max(d[j] for j in stall_pool)
                pool = [j for j in stall_pool if d[j] == top]
                flags.append((step, "stall"))
            else:
                pool = candidates
                flags.append((step, "disconnected"))
        take(min(pool) if rng is None else rng.choice(sorted(pool)))
    return GreedyTrace(
        sigma=tuple(sigma),
        g=tuple(gains),
        final_bound=n - len(sigma),
        flags=tuple(flags),
    )
