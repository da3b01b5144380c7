"""Constructions of strict-availability parity-check matrices.

Three families live here: the recursive partition construction driven by
mutually orthogonal Latin squares, the fiber construction from families of
full-rank linear maps, and an axis-parity product code used as a fixture.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .bitmatrix import BitMatrix
from .codes import STRICT, AvailabilityCode
from .fields import FiniteField, matrix_rank, prime_power

SIZE_LIMIT = 4096  # block length cap for all constructions


@dataclass(frozen=True)
class LatinSquare:
    """An order x order grid with symbols 1..order.

    Genuine Latin squares have each symbol once per row and column.  The two
    auxiliary matrices used by the partition construction (constant rows /
    constant columns) skip that check and are flagged `auxiliary`.
    """

    order: int
    grid: tuple[tuple[int, ...], ...]
    auxiliary: bool = False

    def __post_init__(self):
        n = self.order
        if len(self.grid) != n or any(len(row) != n for row in self.grid):
            raise ValueError("grid shape does not match order")
        symbols = set(range(1, n + 1))
        if any(v not in symbols for row in self.grid for v in row):
            raise ValueError("grid entries must lie in 1..order")
        if not self.auxiliary:
            for i, row in enumerate(self.grid):
                if set(row) != symbols:
                    raise ValueError(f"row {i} is not a permutation of 1..{n}")
            for j in range(n):
                if {self.grid[i][j] for i in range(n)} != symbols:
                    raise ValueError(f"column {j} is not a permutation of 1..{n}")


def orthogonal(s1: LatinSquare, s2: LatinSquare) -> bool:
    """True if superposing the two squares yields order^2 distinct pairs."""
    n = s1.order
    pairs = {
        (s1.grid[a][b], s2.grid[a][b]) for a in range(n) for b in range(n)
    }
    return len(pairs) == n * n


@dataclass(frozen=True)
class MOLSSet:
    """A family of pairwise orthogonal squares of one order.

    `squares[0]` is the constant-row auxiliary matrix, `squares[-1]` the
    constant-column one; the genuine Latin squares sit in between.  The
    partition construction consumes the last f = count(genuine) + 1 squares.
    """

    order: int
    squares: tuple[LatinSquare, ...]

    def __post_init__(self):
        # Two squares are orthogonal unless two cells agree on both.  agree[c]
        # holds the cells that share a symbol with cell c in some earlier
        # square, so meeting c's symbol class again is such a pair.
        agree = [0] * (self.order * self.order)
        for square in self.squares:
            cells = list(itertools.chain.from_iterable(square.grid))
            classes = dict.fromkeys(cells, 0)
            for c, v in enumerate(cells):
                classes[v] |= 1 << c
            for c, v in enumerate(cells):
                others = classes[v] ^ (1 << c)
                if agree[c] & others:
                    raise ValueError(f"squares of order {self.order} are not pairwise orthogonal")
                agree[c] |= others

    @property
    def num_genuine(self) -> int:
        return len(self.squares) - 2

    @property
    def f(self) -> int:
        """Number of squares the refinement loop uses per parent partition."""
        return self.num_genuine + 1

    @property
    def loop_squares(self) -> tuple[LatinSquare, ...]:
        """The genuine squares followed by the constant-column matrix."""
        return self.squares[1:]


def generate_mols(q: int) -> MOLSSet:
    """q - 1 mutually orthogonal Latin squares of prime-power order q,
    via L_a(i, j) = a*i + j over GF(q), plus the two auxiliary matrices."""
    if prime_power(q) is None:
        raise ValueError(
            f"order {q} is not a prime power; no orthogonal-square family on file"
        )
    gf = FiniteField(q)
    squares = [
        LatinSquare(q, tuple(tuple(i + 1 for _ in range(q)) for i in range(q)), auxiliary=True)
    ]
    for a in range(1, q):
        grid = tuple(
            tuple(gf.add(gf.mul(a, i), j) + 1 for j in range(q)) for i in range(q)
        )
        squares.append(LatinSquare(q, grid))
    squares.append(
        LatinSquare(q, tuple(tuple(j + 1 for j in range(q)) for _ in range(q)), auxiliary=True)
    )
    return MOLSSet(q, tuple(squares))


@dataclass(frozen=True)
class PartitionFamily:
    """Resolutions of [n] into blocks of size r+1 with cross-partition
    block intersections of at most one point.

    The partitions form a tree: at every level, partition 0 is the natural
    one (consecutive blocks), and partition i > 0 refines partition (i-1)//f
    of the level below by square (i-1)%f.  `partition(i)` walks that path down from
    the root, so a code that uses t partitions builds only those t.
    `cells[s][x]` lists the 0-based (row, col) cells of square s that hold
    symbol x+1, in row order.
    """

    n: int
    block_size: int
    levels: int
    cells: tuple[tuple[tuple[tuple[int, int], ...], ...], ...]

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

    @property
    def partitions(self) -> tuple[tuple[tuple[int, ...], ...], ...]:
        """Every partition, built one by one."""
        return tuple(self.partition(i) for i in range(len(self)))


def build_partition_family(r: int, g: int) -> PartitionFamily:
    """The (f^g - 1)/(f - 1) partitions of [(r+1)^g] from the recursive
    Latin-square refinement, natural partition first; each is built when
    asked for."""
    q = r + 1
    if prime_power(q) is None:
        raise ValueError(f"r+1 = {q} must be a prime power for the refinement step")
    if g < 1:
        raise ValueError(f"levels g must be >= 1, got {g}")
    n = q**g
    if n > SIZE_LIMIT:
        raise ValueError(f"ground set {n} exceeds limit {SIZE_LIMIT}")
    cells = []
    # one level is the natural partition alone, which needs no squares
    for square in generate_mols(q).loop_squares if g > 1 else ():
        by_symbol: list[list[tuple[int, int]]] = [[] for _ in range(q)]
        for a, row in enumerate(square.grid):
            for b, symbol in enumerate(row):
                by_symbol[symbol - 1].append((a, b))
        cells.append(tuple(map(tuple, by_symbol)))
    return PartitionFamily(n=n, block_size=q, levels=g, cells=tuple(cells))


def partition_code(
    family: PartitionFamily, t: int, choice: list[int] | None = None
) -> AvailabilityCode:
    """Parity-check matrix with one row per block of t chosen partitions.

    `choice` lists distinct 1-based partition indices; the default is the
    first t partitions in construction order.
    """
    if choice is None:
        choice = list(range(1, t + 1))
    if len(choice) != t:
        raise ValueError(f"need exactly t={t} partition indices, got {len(choice)}")
    if t > len(family):
        raise ValueError(f"t={t} exceeds the {len(family)} available partitions")
    if any(not 1 <= c <= len(family) for c in choice):
        raise ValueError("partition index out of range")
    if len(set(choice)) != t:
        raise ValueError(f"partition indices must be distinct, got {choice}")
    supports = [block for idx in choice for block in family.partition(idx - 1)]
    h = BitMatrix.from_supports(supports, family.n)
    return AvailabilityCode(
        H=h,
        n=family.n,
        r=family.block_size - 1,
        t=t,
        kind=STRICT,
        construction="partition",
        parameters={"g": family.levels, "choice": choice},
    )


def projective_functionals(gf: FiniteField, t: int) -> list[tuple[tuple[int, ...], ...]]:
    """t pairwise-independent nonzero 1x2 maps over GF(q); at most q+1 exist."""
    if t > gf.q + 1:
        raise ValueError(f"only {gf.q + 1} pairwise-independent directions exist, t={t}")
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
    if not (2 * m1 >= n1 and m1 < n1):
        raise ValueError(f"need 2*m1 >= n1 and m1 < n1, got m1={m1}, n1={n1}")
    t = len(maps)
    for i, a in enumerate(maps, start=1):
        if len(a) != m1 or any(len(row) != n1 for row in a):
            raise ValueError(f"map {i} is not {m1}x{n1}")
        if matrix_rank(gf, a) != m1:
            raise ValueError(f"map {i} does not have full rank {m1}")
    for i, j in itertools.combinations(range(1, t + 1), 2):
        stacked = list(maps[i - 1]) + list(maps[j - 1])
        if matrix_rank(gf, stacked) != n1:
            raise ValueError(f"stacked maps ({i}, {j}) do not reach rank {n1}")
    q = gf.q
    n = q**n1
    if n > SIZE_LIMIT:
        raise ValueError(f"block length {n} exceeds limit {SIZE_LIMIT}")
    l = q**m1
    rows = [0] * (t * l)
    for col in range(n):
        x = _radix_vector(col, q, n1)
        for i in range(t):
            y = gf.matvec(maps[i], x)
            rows[i * l + _radix_value(y, q)] |= 1 << col
    h = BitMatrix.from_rows(rows, n)
    return AvailabilityCode(
        H=h,
        n=n,
        r=q ** (n1 - m1) - 1,
        t=t,
        kind=STRICT,
        construction="functional",
        parameters={"q": q, "n1": n1, "m1": m1, "maps": [list(map(list, a)) for a in maps]},
    )


def _radix_vector(value: int, q: int, length: int) -> tuple[int, ...]:
    """Digits of `value` base q, most significant first."""
    digits = []
    for _ in range(length):
        digits.append(value % q)
        value //= q
    return tuple(reversed(digits))


def _radix_value(vec: tuple[int, ...], q: int) -> int:
    acc = 0
    for d in vec:
        acc = acc * q + d
    return acc


def product_code(r: int, t: int) -> AvailabilityCode:
    """t-fold single-parity product code on the (r+1)^t hypercube.

    Every coordinate lies on one axis line per dimension; the lines are the
    parity rows, so the result is strict with the declared (r, t).
    """
    q = r + 1
    n = q**t
    if n > SIZE_LIMIT:
        raise ValueError(f"block length {n} exceeds limit {SIZE_LIMIT}")
    rows = []
    for axis in range(t):
        stride = q**axis
        outer = q ** (t - axis - 1)
        for hi in range(outer):
            for lo in range(stride):
                base = hi * stride * q + lo
                acc = 0
                for v in range(q):
                    acc |= 1 << (base + v * stride)
                rows.append(acc)
    h = BitMatrix.from_rows(rows, n)
    return AvailabilityCode(
        H=h,
        n=n,
        r=r,
        t=t,
        kind=STRICT,
        construction="product",
        parameters={},
    )
