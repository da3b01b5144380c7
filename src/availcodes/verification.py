"""Checks and exact brute-force analyses for availability parity matrices.

Coordinates and row indices in reports and traces are 1-based, matching the
convention used for partition blocks.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
import random
from typing import Iterator, Sequence

from . import _Record
from .bitmatrix import BitMatrix, _incidence, _rref
from .codes import AvailabilityCode
from .weights import ENUMERATION_LIMIT, EnumerationBudgetError, weight_distribution

GHW_MAX_DUAL_DIM = 16
GHW_MAX_LEVEL = 3
GHW_SUBSPACE_BUDGET = 2_000_000
# about 1 s of the general search at the 1.7-2.5 M steps/s of its slowest
# shape measured: disjoint triangles of rows through one column (2-vCPU VM)
AVAILABILITY_STEP_BUDGET = 2_000_000


class StrictCheckReport(_Record):
    """Outcome of the strict row/column-regularity check."""

    __slots__ = (
        "passed",
        "row_weight_violations",
        "column_weight_violations",
        "intersection_violations",
        "balance_ok",
    )

    def __init__(
        self,
        passed: bool,
        row_weight_violations: tuple[int, ...],
        column_weight_violations: tuple[int, ...],
        intersection_violations: tuple[tuple[int, int], ...],
        balance_ok: bool,
    ):
        self.passed = passed
        self.row_weight_violations = row_weight_violations
        self.column_weight_violations = column_weight_violations
        self.intersection_violations = intersection_violations
        self.balance_ok = balance_ok

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
    supports, through = _incidence(h)
    row_bits = [1 << i for i in range(h.rows)]
    columns = [sum(map(row_bits.__getitem__, rows)) for rows in through]
    bad_rows = tuple(i + 1 for i, sup in enumerate(supports) if len(sup) != r + 1)
    bad_cols = tuple(j + 1 for j, rows in enumerate(through) if len(rows) != t)
    bad_pairs = []
    for i, sup in enumerate(supports):
        seen = twice = 0
        for col in map(columns.__getitem__, sup):
            twice |= seen & col
            seen |= col
        twice >>= i + 1  # rows after row i, so each pair is found once, in order
        while twice:
            low = twice & -twice
            bad_pairs.append((i + 1, i + 1 + low.bit_length()))
            twice ^= low
    balance_ok = h.rows * (r + 1) == h.cols * t
    passed = not bad_rows and not bad_cols and not bad_pairs and balance_ok
    return StrictCheckReport(passed, bad_rows, bad_cols, tuple(bad_pairs), balance_ok)


class AvailabilityCheckReport(_Record):
    """Per-column outcome of the general availability search."""

    __slots__ = ("passed", "column_ok")

    def __init__(self, passed: bool, column_ok: tuple[bool, ...]):
        self.passed = passed
        self.column_ok = column_ok

    @property
    def failing_columns(self) -> tuple[int, ...]:
        return tuple(j + 1 for j, ok in enumerate(self.column_ok) if not ok)

    def to_json(self) -> dict:
        return {"pass": self.passed, "failing_columns": list(self.failing_columns)}


def check_availability(h_des: BitMatrix, r: int, t: int) -> AvailabilityCheckReport:
    """For each column, search for t rows of weight <= r+1 through it whose
    supports pairwise intersect exactly in that column.  All the searches
    together get `AVAILABILITY_STEP_BUDGET` candidate steps."""
    if t < 0:  # the search could never stop early and would try every subset
        raise ValueError(f"need t >= 0, got t={t}")
    bits = h_des.bits
    light = [row.bit_count() <= r + 1 for row in bits]
    steps = iter(range(AVAILABILITY_STEP_BUDGET))
    column_ok = []
    for j, through in enumerate(_incidence(h_des)[1]):
        cands = [bits[i] for i in through if light[i]]
        column_ok.append(_find_orthogonal_subset(cands, 1 << j, t, steps))
    if next(steps, None) is None:  # a search ran dry, so its False is unproven
        raise EnumerationBudgetError(
            f"general availability search reaches {AVAILABILITY_STEP_BUDGET} candidate steps"
        )
    return AvailabilityCheckReport(all(column_ok), tuple(column_ok))


def _find_orthogonal_subset(
    cands: list[int], pivot_bit: int, t: int, steps: Iterator = itertools.repeat(None)
) -> bool:
    """Exact search for t candidate rows, each through pivot_bit, pairwise
    meeting only at pivot_bit.  Each candidate tried, and each candidate
    checked against a grown union, takes one item of `steps`; if they run
    out, the search stops and returns False.

    A node keeps the candidates disjoint from its chosen rows outside the
    pivot.  The rows still needed are pairwise disjoint outside the pivot,
    so the node is cut, before any candidate is tried, when fewer of them
    remain or when their fresh columns number fewer than that many times
    the least fresh weight among them."""

    def rec(cands: list[int], need: int, union: int) -> bool:
        if need <= 0:
            return need == 0
        if len(cands) < need:
            return False
        if need == 1:  # any candidate left completes the choice
            return True
        fresh = functools.reduce(operator.or_, cands).bit_count() - 1
        if fresh < need * (min(map(int.bit_count, cands)) - 1):
            return False
        for idx, _ in zip(range(len(cands) - need + 1), steps):
            grown = union | cands[idx]
            rest = [row for row, _ in zip(cands[idx + 1 :], steps) if row & grown == pivot_bit]
            if rec(rest, need - 1, grown):
                return True
        return False

    return rec(cands, t, pivot_bit)


def min_distance_bruteforce(code: AvailabilityCode) -> int | float:
    """Exact minimum weight over nonzero codewords; math.inf for k = 0.

    Two exact methods, chosen by predicted work: Zimmermann's search over
    information sets (`_information_set_search`), and the Gray walk of
    `weight_distribution` over the 2^min(k, n-k) words of the smaller side.
    The search runs first unless its first level, k words, already costs
    more than the walk; it hands over to the walk as soon as its words so
    far plus its next step would pass the walk's.  Past the walk's limit,
    both are held to 2^ENUMERATION_LIMIT words, and the search raises
    `EnumerationBudgetError` before a step that would pass it.
    """
    n, k = code.n, code.k
    if k == 0:
        return math.inf
    side = min(k, n - k)
    walk = 1 << side if side <= ENUMERATION_LIMIT else None
    if walk is None or k <= walk:
        d = _information_set_search(code, walk)
        if d is not None:
            return d
    counts = weight_distribution(code)
    return next(w for w in range(1, n + 1) if counts[w])


def _information_set_search(code: AvailabilityCode, walk: int | None) -> int | None:
    """d_min from disjoint information sets (Zimmermann 1996; Grassl 2006),
    or None once the Gray walk's `walk` words are predicted to cost less.

    Set j is r_j columns on which a basis of the code splits into r_j rows
    that are the identity there and k - r_j rows that vanish there.  The
    first set is the free columns of the code's `basis`; each later one is
    `_rref` of the last set's identity rows on the columns no set has used
    (the vanishing rows join the last set's), so r_j never grows and
    a set is built only once that costs less than the cheapest step.  A
    word has weight s on set j exactly when it sums s of the identity
    rows.  Step s of set j visits those words, C(r_j, s) sums each plus
    every word in the span of the vanishing rows, so after it every word
    not yet seen has weight at least s + 1 there: the set adds
    max(0, w + 1 - (k - r_j)) to the lower bound at level w = s + k - r_j.
    The cheapest next step of any set runs first, and the search ends when
    the summed bound reaches the lightest word found, or when a set's last
    step has visited the whole code.
    """
    n, k, rows = code.n, code.k, code.basis.bits
    unused = (1 << n) - 1
    for row in rows:  # the free column of a nullspace vector is its highest bit
        unused ^= 1 << row.bit_length() - 1
    sets, steps = [(rows, [])], [0]
    need = max(1, k - ENUMERATION_LIMIT)  # a smaller rank puts the first step over budget

    def cost(j: int) -> int:
        ident, zero = sets[j]
        return (math.comb(len(ident), steps[j]) << len(zero)) - (steps[j] == 0)

    bound, best, done = 0, math.inf, 0
    while bound < best:
        j = min(range(len(sets)), key=cost)
        words = cost(j)
        # the next set's elimination reduces k rows by up to r pivots each
        if unused.bit_count() >= need and k * len(sets[-1][0]) < words:
            ident, pivots, zero = _rref(sets[-1][0], unused)
            if len(pivots) < need:
                unused = 0
                continue
            unused ^= sum(1 << p for p in pivots)
            sets.append((ident, sets[-1][1] + zero))
            steps.append(0)
            continue
        if walk is not None and done + words > walk:
            return None
        ident, zero = sets[j]
        s = steps[j]
        if done + words > 1 << ENUMERATION_LIMIT:
            raise EnumerationBudgetError(
                f"d_min of the n={n}, k={k} code: level {s + len(zero)} of the "
                f"information-set search passes {1 << ENUMERATION_LIMIT} words "
                f"(d_min is {max(bound, 1)}..{min(best, n - k + 1)})"
            )
        if s:
            best = min(best, min(_level_min(ident, s, z) for z in _span(zero)))
        else:  # the zero rows' nonzero span: the span of ten of them per C-level pass
            low = list(_span(zero[:10]))
            for z in _span(zero[10:]):
                best = min(best, min(map(int.bit_count, map(z.__xor__, low[not z :])), default=best))
        done += words
        steps[j] += 1
        bound += 1 if s < len(ident) else math.inf
    return best


def _span(vecs: Sequence[int]) -> Iterator[int]:
    """Every word of the span of the independent `vecs`, 0 first, in Gray order."""
    word = 0
    yield word
    for s in range(1, 1 << len(vecs)):
        word ^= vecs[(s & -s).bit_length() - 1]
        yield word


def _level_min(rows: Sequence[int], v: int, acc: int, start: int = 0) -> int | float:
    """Least weight of `acc` plus a sum of v of rows[start:]: depth first over
    the (v-1)-row prefixes, the last row taken in one C-level pass."""
    if v == 1:
        return min(map(int.bit_count, map(acc.__xor__, rows[start:])))
    return min(
        _level_min(rows, v - 1, acc ^ rows[i], i + 1) for i in range(start, len(rows) - v + 1)
    )


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
    basis = code.dual_basis
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


class GreedyTrace(_Record):
    """Record of the covering walk: chosen coordinates, rows gained per step,
    the resulting dimension bound n - |S|, and the (step, kind) flags."""

    __slots__ = ("sigma", "g", "final_bound", "flags")

    def __init__(
        self,
        sigma: tuple[int, ...],
        g: tuple[int, ...],
        final_bound: int,
        flags: tuple[tuple[int, str], ...] = (),
    ):
        self.sigma = sigma
        self.g = g
        self.final_bound = final_bound
        self.flags = flags

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
    supports, rows_through = _incidence(h)
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
            for c in supports[i]:
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
