"""Reference oracles for the matrix layers: the direct O(n*m) versions of
the greedy walk, the strict and general checks, the text format, rank and
the all-partitions family build from the Latin-square grids themselves.

These are the straightforward implementations the package used before its
matrix pipeline became incidence-based.  `test_matrix_differential.py`
requires the package to agree with them exactly on random inputs: the same
reports, the same traces (random tie-breaks included), the same partitions
and the same `MatrixFormatError` messages and line numbers.
"""

from __future__ import annotations

import itertools
import random

from availcodes.bitmatrix import BitMatrix, MatrixFormatError
from availcodes.constructions import SIZE_LIMIT
from availcodes.fields import FiniteField, prime_power
from availcodes.verification import (
    AvailabilityCheckReport,
    GreedyTrace,
    StrictCheckReport,
    _find_orthogonal_subset,
)


def _rref(bits):
    """Reduced row echelon form, one row at a time: each new row is reduced
    by the pivot rows so far, inserted in pivot order, and cleared from the
    rows above it.  Returns (nonzero rows, pivot columns)."""
    echelon: list[int] = []
    pivots: list[int] = []
    for row in bits:
        for piv_row, piv_col in zip(echelon, pivots):
            if (row >> piv_col) & 1:
                row ^= piv_row
        if row == 0:
            continue
        col = (row & -row).bit_length() - 1
        pos = 0
        while pos < len(pivots) and pivots[pos] < col:
            pos += 1
        echelon.insert(pos, row)
        pivots.insert(pos, col)
        for idx in range(len(echelon)):
            if idx != pos and (echelon[idx] >> col) & 1:
                echelon[idx] ^= row
    return echelon, pivots


def rank(mat: BitMatrix) -> int:
    return len(_rref(mat.bits)[0])


def row_space_basis(mat: BitMatrix) -> BitMatrix:
    echelon, _ = _rref(mat.bits)
    return BitMatrix(len(echelon), mat.cols, tuple(echelon))


def rank_and_nullspace(mat: BitMatrix) -> tuple[int, BitMatrix]:
    echelon, pivots = _rref(mat.bits)
    basis = []
    for f in range(mat.cols):
        if f in pivots:
            continue
        v = 1 << f
        for row, p in zip(echelon, pivots):
            if (row >> f) & 1:
                v |= 1 << p
        basis.append(v)
    return len(pivots), BitMatrix(len(basis), mat.cols, tuple(basis))


def parse_matrix(text: str) -> BitMatrix:
    lines = text.splitlines()
    if not lines:
        raise MatrixFormatError("empty input", line=1)
    header = lines[0].split()
    if len(header) != 2:
        raise MatrixFormatError(f"header must be 'm n', got {lines[0]!r}", line=1)
    try:
        m, n = int(header[0]), int(header[1])
    except ValueError:
        raise MatrixFormatError(f"header must be two integers, got {lines[0]!r}", line=1) from None
    if m < 1 or n < 1:
        raise MatrixFormatError(f"header dimensions must be positive, got {m} {n}", line=1)
    body = lines[1:]
    if len(body) < m:
        raise MatrixFormatError(f"header declares {m} rows but only {len(body)} present", line=len(lines))
    for extra in range(m, len(body)):
        if body[extra].strip():
            raise MatrixFormatError(f"header declares {m} rows but more follow", line=extra + 2)
    bits = []
    for i in range(m):
        row = body[i]
        if len(row) != n:
            raise MatrixFormatError(f"row has {len(row)} characters, expected {n}", line=i + 2)
        acc = 0
        for j, ch in enumerate(row):
            if ch == "1":
                acc |= 1 << j
            elif ch != "0":
                raise MatrixFormatError(f"invalid character {ch!r} in row", line=i + 2)
        bits.append(acc)
    return BitMatrix(m, n, tuple(bits))


def serialize_matrix(mat: BitMatrix) -> str:
    out = [f"{mat.rows} {mat.cols}"]
    for row in mat.bits:
        out.append("".join("1" if (row >> j) & 1 else "0" for j in range(mat.cols)))
    return "\n".join(out) + "\n"


def check_strict_availability(h: BitMatrix, r: int, t: int) -> StrictCheckReport:
    bad_rows = tuple(i + 1 for i in range(h.rows) if h.bits[i].bit_count() != r + 1)
    bad_cols = tuple(
        j + 1 for j in range(h.cols) if sum(1 for row in h.bits if (row >> j) & 1) != t
    )
    bad_pairs = []
    for i, j in itertools.combinations(range(h.rows), 2):
        if (h.bits[i] & h.bits[j]).bit_count() > 1:
            bad_pairs.append((i + 1, j + 1))
    balance_ok = h.rows * (r + 1) == h.cols * t
    passed = not bad_rows and not bad_cols and not bad_pairs and balance_ok
    return StrictCheckReport(passed, bad_rows, bad_cols, tuple(bad_pairs), balance_ok)


def check_availability(h_des: BitMatrix, r: int, t: int) -> AvailabilityCheckReport:
    light_rows = [row for row in h_des.bits if row.bit_count() <= r + 1]
    column_ok = []
    for j in range(h_des.cols):
        bit = 1 << j
        cands = [row for row in light_rows if row & bit]
        column_ok.append(_find_orthogonal_subset(cands, bit, t))
    return AvailabilityCheckReport(all(column_ok), tuple(column_ok))


def greedy_cover(code, start=1, tiebreak="lowest", seed=None) -> GreedyTrace:
    """The walk that recounts every D_j from all collected rows at each step."""
    if tiebreak not in ("lowest", "random"):
        raise ValueError(f"tiebreak must be 'lowest' or 'random', got {tiebreak!r}")
    rng = random.Random(seed) if tiebreak == "random" else None
    h = code.H
    n, m = h.cols, h.rows
    if not 1 <= start <= n:
        raise ValueError(f"start coordinate {start} outside 1..{n}")
    if any(row == 0 for row in h.bits):
        raise ValueError("matrix has an all-zero row; the walk cannot cover it")
    rows_through = [[] for _ in range(n)]
    for i, row in enumerate(h.bits):
        for j in range(n):
            if (row >> j) & 1:
                rows_through[j].append(i)
    in_p = [False] * m
    p_count = 0
    in_s = [False] * n
    sigma: list[int] = []
    gains: list[int] = []
    flags: list[tuple[int, str]] = []

    def take(j: int) -> None:
        nonlocal p_count
        in_s[j] = True
        sigma.append(j + 1)
        gained = 0
        for i in rows_through[j]:
            if not in_p[i]:
                in_p[i] = True
                gained += 1
        p_count += gained
        gains.append(gained)

    take(start - 1)
    while p_count < m:
        d = [0] * n
        for i, row in enumerate(h.bits):
            if in_p[i]:
                for j in range(n):
                    if (row >> j) & 1:
                        d[j] += 1
        candidates = [j for j in range(n) if not in_s[j]]
        scores = {
            j: d[j] if d[j] <= 2 and d[j] < len(rows_through[j]) else 0
            for j in candidates
        }
        best = max(scores.values())
        if best > 0:
            pool = [j for j in candidates if scores[j] == best]
        else:
            step = len(sigma) + 1
            stall_pool = [
                j
                for j in candidates
                if d[j] >= 1 and any(not in_p[i] for i in rows_through[j])
            ]
            if stall_pool:
                top = max(d[j] for j in stall_pool)
                pool = [j for j in stall_pool if d[j] == top]
                flags.append((step, "stall"))
            else:
                pool = [
                    j
                    for j in candidates
                    if d[j] == 0 and any(not in_p[i] for i in rows_through[j])
                ]
                flags.append((step, "disconnected"))
        take(min(pool) if rng is None else rng.choice(sorted(pool)))
    return GreedyTrace(
        sigma=tuple(sigma),
        g=tuple(gains),
        final_bound=n - len(sigma),
        flags=tuple(flags),
    )


def latin_grids(q: int) -> list[list[list[int]]]:
    """The q x q grids L_a(i, j) = a*i + j + 1 over GF(q) for a = 1..q-1,
    then the constant-column grid L(i, j) = j + 1, filled cell by cell."""
    gf = FiniteField(q)
    return [
        [[gf.add(gf.mul(a, i), j) + 1 for j in range(q)] for i in range(q)]
        for a in (*range(1, q), 0)
    ]


def all_partitions(r: int, g: int) -> tuple[tuple[tuple[int, ...], ...], ...]:
    """Every partition of the recursive Latin-square refinement, level by
    level, scanning each square's grid for the cells of every symbol."""
    q = r + 1
    if prime_power(q) is None:
        raise ValueError(f"r+1 = {q} must be a prime power for the refinement step")
    if g < 1:
        raise ValueError(f"levels g must be >= 1, got {g}")
    if q**g > SIZE_LIMIT:
        raise ValueError(f"ground set {q**g} exceeds limit {SIZE_LIMIT}")

    def cells_by_symbol(grid):
        cells = {x: [] for x in range(1, q + 1)}
        for a in range(q):
            for b in range(q):
                cells[grid[a][b]].append((a, b))
        return [cells[x] for x in range(1, q + 1)]

    squares = [cells_by_symbol(grid) for grid in latin_grids(q)] if g > 1 else []

    def build(level: int) -> list[tuple[tuple[int, ...], ...]]:
        if level == 1:
            return [(tuple(range(1, q + 1)),)]
        prev = build(level - 1)
        n_cur = q**level
        natural = tuple(
            tuple(range(x * q + 1, (x + 1) * q)) + ((x + 1) * q,) for x in range(n_cur // q)
        )
        out = [natural]
        for parent in prev:
            for square in squares:
                blocks = []
                for parent_block in parent:
                    u = [natural[s - 1] for s in parent_block]
                    for cells in square:
                        blocks.append(tuple(sorted(u[a][b] for a, b in cells)))
                out.append(tuple(blocks))
        return out

    return tuple(build(g))
