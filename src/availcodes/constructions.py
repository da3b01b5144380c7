"""Constructions of strict-availability parity-check matrices.

Three families live here: the recursive partition construction driven by
mutually orthogonal Latin squares, the fiber construction from families of
full-rank linear maps, and an axis-parity product code used as a fixture.
"""

from __future__ import annotations

import itertools
import operator

from . import _Record
from .bitmatrix import BitMatrix
from .codes import STRICT, AvailabilityCode
from .fields import FiniteField, matrix_rank, prime_power

SIZE_LIMIT = 4096  # block length cap for all constructions
# Entry cap on a partition code's m x n matrix, m = t*n/(r+1): writing one
# takes about 3.1 bytes of peak memory per entry (2-vCPU VM, Python 3.11).
# The (r, g, t) = (2, 7, 84) code, 133,923,132 entries, took 1.4 s and
# 417 MB; the largest product code, r = 1, t = 12, has 100,663,296.
ENTRY_LIMIT = 1 << 27


def generate_mols(q: int) -> tuple[tuple[tuple[tuple[int, int], ...], ...], ...]:
    """The symbol classes of the q - 1 mutually orthogonal Latin squares
    L_a(i, j) = a*i + j over GF(q), slopes a = 1..q-1, followed by the
    constant-column square a = 0.  Entry [s][x] lists the q cells (i, j)
    of square s that hold symbol x, one per row: j = x - a*i."""
    if prime_power(q) is None:
        raise ValueError(
            f"order {q} is not a prime power; no orthogonal-square family on file"
        )
    gf = FiniteField(q)
    rows = range(q)
    squares = []
    for a in (*rows[1:], 0):
        # shifted[i][x] = x + (-a)*i = x - a*i, so column x lists symbol x's cells by row
        shifted = [gf.add_table[product] for product in gf.mul_table[gf.neg(a)]]
        squares.append(tuple(tuple(zip(rows, col)) for col in zip(*shifted)))
    return tuple(squares)


class PartitionFamily(_Record):
    """Resolutions of [n] into blocks of size r+1 with cross-partition
    block intersections of at most one point.

    The partitions form a tree: at every level, partition 0 is the natural
    one (consecutive blocks), and partition i > 0 refines partition (i-1)//f
    of the level below by square (i-1)%f.  `partition(i)` walks that path down from
    the root, so a code that uses t partitions builds only those t.
    `cells[s][x]` lists the 0-based (row, col) cells of square s that hold
    symbol x, in row order (see `generate_mols`).
    """

    __slots__ = ("n", "block_size", "levels", "cells")

    def __init__(
        self,
        n: int,
        block_size: int,
        levels: int,
        cells: tuple[tuple[tuple[tuple[int, int], ...], ...], ...],
    ):
        self.n = n
        self.block_size = block_size
        self.levels = levels
        self.cells = cells

    def __len__(self) -> int:
        f = len(self.cells)
        return sum(f**level for level in range(self.levels))  # (f^g - 1)/(f - 1)

    def partition(self, index: int) -> tuple[tuple[int, ...], ...]:
        """The 0-based `index`-th partition in construction order."""
        if not 0 <= index < len(self):
            raise IndexError(f"partition index {index} outside 0..{len(self) - 1}")
        q, f = self.block_size, len(self.cells)
        path = []  # squares, leaf first
        level = self.levels
        while index:
            index, square = divmod(index - 1, f)
            path.append(square)
            level -= 1
        size = q ** (level - 1)
        part = tuple(tuple(range(x * q + 1, (x + 1) * q + 1)) for x in range(size))
        for square in reversed(path):
            # row a of the grid is the natural block named by parent_block[a]
            part = tuple(
                tuple(sorted((parent_block[a] - 1) * q + b + 1 for a, b in cells))
                for parent_block in part
                for cells in self.cells[square]
            )
        seen: set[int] = set()
        for block in part:
            if len(block) != q:
                raise ValueError("block of wrong size")
            seen.update(block)
        if seen != set(range(1, self.n + 1)):
            raise ValueError("partition does not cover the ground set")
        return part


def build_partition_family(r: int, g: int) -> PartitionFamily:
    """The (f^g - 1)/(f - 1) partitions of [(r+1)^g] from the recursive
    Latin-square refinement, natural partition first; each is built when
    asked for."""
    q = r + 1
    if g < 1:
        raise ValueError(f"levels g must be >= 1, got {g}")
    # Checked before q**g and before prime_power(q) trial-divides q: with
    # q >= 2, no g >= SIZE_LIMIT.bit_length() and no q > SIZE_LIMIT fits.
    if q >= 2 and (g >= SIZE_LIMIT.bit_length() or q**g > SIZE_LIMIT):
        raise ValueError(f"ground set {q}^{g} exceeds limit {SIZE_LIMIT}")
    if prime_power(q) is None:
        raise ValueError(f"r+1 = {q} must be a prime power for the refinement step")
    n = q**g
    # one level is the natural partition alone, which needs no squares
    cells = generate_mols(q) if g > 1 else ()
    return PartitionFamily(n=n, block_size=q, levels=g, cells=cells)


def partition_code(
    family: PartitionFamily, t: int, choice: list[int] | None = None
) -> AvailabilityCode:
    """Parity-check matrix with one row per block of t chosen partitions.

    `choice` lists distinct 1-based partition indices; the default is the
    first t partitions in construction order.
    """
    if t < 1:
        raise ValueError(f"need t >= 1, got t={t}")
    if t > len(family):
        raise ValueError(f"t={t} exceeds the {len(family)} available partitions")
    m = t * (family.n // family.block_size)
    if m * family.n > ENTRY_LIMIT:
        raise ValueError(
            f"parity-check matrix {m} x {family.n} has {m * family.n} entries,"
            f" over the limit {ENTRY_LIMIT}"
        )
    if choice is None:
        choice = list(range(1, t + 1))
    if len(choice) != t:
        raise ValueError(f"need exactly t={t} partition indices, got {len(choice)}")
    if any(not 1 <= c <= len(family) for c in choice):
        raise ValueError("partition index out of range")
    if len(set(choice)) != t:
        raise ValueError(f"partition indices must be distinct, got {choice}")
    supports = [block for idx in choice for block in family.partition(idx - 1)]
    h = BitMatrix.from_supports(supports, family.n)
    return AvailabilityCode(
        H=h,
        r=family.block_size - 1,
        t=t,
        kind=STRICT,
        construction="partition",
        parameters={"g": family.levels, "choice": choice},
    )


def projective_functionals(gf: FiniteField, t: int) -> list[tuple[tuple[int, ...], ...]]:
    """t pairwise-independent nonzero 1x2 maps over GF(q); at most q+1 exist."""
    if not 1 <= t <= gf.q + 1:
        raise ValueError(f"need 1 <= t <= {gf.q + 1}, the number of directions, got t={t}")
    directions = [((1, 0),), ((0, 1),)] + [((1, a),) for a in range(1, gf.q)]
    return directions[:t]


def functional_code(
    gf: FiniteField,
    n1: int,
    m1: int,
    maps: list[tuple[tuple[int, ...], ...]],
) -> AvailabilityCode:
    """Binary parity matrix whose row (i, y) marks the fiber {x : A_i x = y}.

    Each map is an m1 x n1 matrix over the field; maps must individually
    have rank m1 and pairwise stack to rank n1, which makes distinct fibers
    meet in at most one point.
    """
    q = gf.q
    # First, since the rank checks cost n1^3: with q >= 2, no n1 >=
    # SIZE_LIMIT.bit_length() fits, and q**n1 is taken only for smaller n1.
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
        stacked = list(maps[i - 1]) + list(maps[j - 1])
        if matrix_rank(gf, stacked) != n1:
            raise ValueError(f"stacked maps ({i}, {j}) do not reach rank {n1}")
    n, l = q**n1, q**m1
    # Column col is the point x with base-q digits x_1..x_n1, most significant
    # first, and row i*l + y the fiber A_i x = y.  Entry k of A_i x at every
    # point is summed from the last digit up: digit x_s with coefficient a in
    # front of the suffix sums v gives the add table row of a*x_s picked at
    # every v, for x_s = 0..q-1 in turn.
    rows = [0] * (t * l)
    for i, a in enumerate(maps):
        labels = [i] * n  # i*l + y once the m1 digits of y are shifted in
        for *head, last in a:
            values = gf.mul_table[last]
            for coef in reversed(head):
                pick = operator.itemgetter(*values)
                values = [v for c in gf.mul_table[coef] for v in pick(gf.add_table[c])]
            labels = list(map(operator.add, map(operator.mul, labels, itertools.repeat(q)), values))
        for col, label in enumerate(labels):
            rows[label] |= 1 << col
    h = BitMatrix.from_rows(rows, n)
    return AvailabilityCode(
        H=h,
        r=q ** (n1 - m1) - 1,
        t=t,
        kind=STRICT,
        construction="functional",
        parameters={"q": q, "n1": n1, "m1": m1, "maps": [list(map(list, a)) for a in maps]},
    )


def product_code(r: int, t: int) -> AvailabilityCode:
    """t-fold single-parity product code on the (r+1)^t hypercube.

    Every coordinate lies on one axis line per dimension; the lines are the
    parity rows, so the result is strict with the declared (r, t).
    """
    if r < 1 or t < 1:
        raise ValueError(f"need r >= 1 and t >= 1, got r={r}, t={t}")
    q = r + 1
    if t >= SIZE_LIMIT.bit_length() or q**t > SIZE_LIMIT:  # q >= 2: q**t only for small t
        raise ValueError(f"block length {q}^{t} exceeds limit {SIZE_LIMIT}")
    n = q**t
    rows = []
    for axis in range(t):
        stride = q**axis
        line = sum(1 << v * stride for v in range(q))  # the axis line through 0
        for hi in range(q ** (t - axis - 1)):
            for lo in range(stride):
                rows.append(line << (hi * stride * q + lo))
    h = BitMatrix.from_rows(rows, n)
    return AvailabilityCode(
        H=h,
        r=r,
        t=t,
        kind=STRICT,
        construction="product",
        parameters={},
    )
