"""Reference oracles for the matrix layers: the direct O(n*m) versions of
the greedy walk, the strict and general checks, the text format, rank, the
masked elimination of the information-set search, the all-partitions
family build from the Latin-square grids themselves, and the fiber
construction by one field matrix-vector product per point and map.

These are the straightforward implementations the package used before its
matrix pipeline became incidence-based.  `test_matrix_differential.py`
requires the package to agree with them exactly on random inputs: the same
reports, the same traces (random tie-breaks included), the same partitions
the same fiber codes and the same `MatrixFormatError` and construction
error messages (line numbers included).
"""

from __future__ import annotations

import itertools
import random
import re

from availcodes.bitmatrix import BitMatrix, MatrixFormatError
from availcodes.codes import STRICT, AvailabilityCode
from availcodes.constructions import SIZE_LIMIT
from availcodes.fields import FiniteField, matrix_rank, prime_power
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


def _eliminate(rows, unused):
    """Rows spanning the same space as `rows`, split into reduced rows keyed
    by their pivot bit among the columns of `unused`, and rows zero there:
    each new row is reduced by the pivots so far, then cleared from them."""
    pivots: dict[int, int] = {}
    zero = []
    for row in rows:
        for bit, pivot in pivots.items():
            if row & bit:
                row ^= pivot
        low = row & unused
        if not low:
            zero.append(row)
            continue
        low &= -low
        for bit, pivot in pivots.items():
            if pivot & low:
                pivots[bit] = pivot ^ row
        pivots[low] = row
    return pivots, zero


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
    # lines end at "\r\n", "\r" and "\n", and a final break ends the last line
    lines = re.split("\r\n|\r|\n", text)
    if lines[-1] == "":
        del lines[-1]
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
        d = [sum(in_p[i] for i in rows_through[j]) for j in range(n)]
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


def matvec(gf: FiniteField, mat, vec) -> tuple[int, ...]:
    """A x over GF(q), one add and one mul per entry."""
    out = []
    for row in mat:
        acc = 0
        for a, x in zip(row, vec):
            acc = gf.add(acc, gf.mul(a, x))
        out.append(acc)
    return tuple(out)


def functional_code(gf: FiniteField, n1: int, m1: int, maps) -> AvailabilityCode:
    """The fiber construction point by point: column col is the col-th
    point of GF(q)^n1 in `itertools.product` order, and its fiber under
    map i is found by one `matvec` and a lookup of A_i x among the points
    of GF(q)^m1 in the same order."""
    q = gf.q
    if n1 >= SIZE_LIMIT.bit_length() or q**n1 > SIZE_LIMIT:
        raise ValueError(f"block length {q}^{n1} exceeds limit {SIZE_LIMIT}")
    if not (2 * m1 >= n1 and m1 < n1):
        raise ValueError(f"need 2*m1 >= n1 and m1 < n1, got m1={m1}, n1={n1}")
    t = len(maps)
    if t < 1:
        raise ValueError("need at least one map")
    for i, a in enumerate(maps, start=1):
        if len(a) != m1 or any(len(row) != n1 for row in a):
            raise ValueError(f"map {i} is not {m1}x{n1}")
        if any(not 0 <= v < q for row in a for v in row):
            raise ValueError(f"map {i} has entries outside GF({q})")
        if matrix_rank(gf, a) != m1:
            raise ValueError(f"map {i} does not have full rank {m1}")
    for i, j in itertools.combinations(range(1, t + 1), 2):
        if matrix_rank(gf, list(maps[i - 1]) + list(maps[j - 1])) != n1:
            raise ValueError(f"stacked maps ({i}, {j}) do not reach rank {n1}")
    l = q**m1
    fiber_index = {y: j for j, y in enumerate(itertools.product(range(q), repeat=m1))}
    rows = [0] * (t * l)
    for col, x in enumerate(itertools.product(range(q), repeat=n1)):
        for i in range(t):
            rows[i * l + fiber_index[matvec(gf, maps[i], x)]] |= 1 << col
    return AvailabilityCode(
        H=BitMatrix.from_rows(rows, q**n1),
        r=q ** (n1 - m1) - 1,
        t=t,
        kind=STRICT,
        construction="functional",
        parameters={"q": q, "n1": n1, "m1": m1, "maps": [list(map(list, a)) for a in maps]},
    )
