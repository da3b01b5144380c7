"""Dense matrices over GF(2) with bit-packed rows.

Each row is stored as one Python integer: bit j of ``bits[i]`` is the entry
in row i, column j.  This is the carrier for every parity-check matrix in
the package, and the home of the shared text format (``"m n"`` header
followed by m lines of '0'/'1' characters).
"""

from __future__ import annotations

from typing import Iterable, Sequence

from . import _Record


class MatrixFormatError(ValueError):
    """Malformed matrix text.  `line` is the 1-based offending line number."""

    def __init__(self, message: str, line: int | None = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class BitMatrix(_Record):
    """An immutable rows x cols matrix over GF(2), hashed by value.

    Zero-row matrices are permitted so that the nullspace basis of a
    full-column-rank matrix has a natural representation.
    """

    __slots__ = ("rows", "cols", "bits")

    def __init__(self, rows: int, cols: int, bits: tuple[int, ...]):
        if rows < 0 or cols < 1:
            raise ValueError(f"bad matrix shape {rows}x{cols}")
        if len(bits) != rows:
            raise ValueError(f"expected {rows} packed rows, got {len(bits)}")
        mask = (1 << cols) - 1
        for i, row in enumerate(bits):
            if row < 0 or row & ~mask:
                raise ValueError(f"row {i} has bits outside {cols} columns")
        set_field = object.__setattr__
        set_field(self, "rows", rows)
        set_field(self, "cols", cols)
        set_field(self, "bits", bits)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __hash__(self) -> int:
        return hash((self.rows, self.cols, self.bits))

    def __reduce__(self):
        # copy and pickle rebuild through __init__, which rechecks the shape;
        # the default restore sets each slot and would meet __setattr__
        return (BitMatrix, (self.rows, self.cols, self.bits))

    # -- constructors -------------------------------------------------

    @classmethod
    def from_rows(cls, rows: Iterable[int], cols: int) -> "BitMatrix":
        bits = tuple(rows)
        return cls(len(bits), cols, bits)

    @classmethod
    def from_supports(cls, supports: Iterable[Iterable[int]], cols: int) -> "BitMatrix":
        """Rows from 1-based coordinate sets."""
        bits = []
        for sup in supports:
            acc = 0
            for c in sup:
                if not 1 <= c <= cols:
                    raise ValueError(f"coordinate {c} outside 1..{cols}")
                acc |= 1 << (c - 1)
            bits.append(acc)
        return cls(len(bits), cols, tuple(bits))

    # -- structure -----------------------------------------------------

    def transpose(self) -> "BitMatrix":
        if self.rows == 0:
            raise ValueError("cannot transpose a zero-row matrix")
        out = [0] * self.cols
        for i, row in enumerate(self.bits):
            while row:
                low = row & -row
                out[low.bit_length() - 1] |= 1 << i
                row ^= low
        return BitMatrix(self.cols, self.rows, tuple(out))


def _rows_through(mat: BitMatrix) -> list[list[int]]:
    """Column incidence: entry j lists, in increasing order, the 0-based
    rows with a one in column j.  One pass over the set bits."""
    through: list[list[int]] = [[] for _ in range(mat.cols)]
    for i, row in enumerate(mat.bits):
        while row:
            low = row & -row
            through[low.bit_length() - 1].append(i)
            row ^= low
    return through


def _pivot_table(bits: Sequence[int]) -> dict[int, int]:
    """Row echelon form as pivot rows keyed by their lowest set bit: each
    row is reduced by the pivots it meets, lowest first, until it is zero
    or opens a new pivot column (no back-substitution)."""
    pivots: dict[int, int] = {}
    for row in bits:
        while row:
            col = (row & -row).bit_length() - 1
            pivot = pivots.get(col)
            if pivot is None:
                pivots[col] = row
                break
            row ^= pivot
    return pivots


def _rref(bits: Sequence[int]) -> tuple[list[int], list[int]]:
    """Reduced row echelon form; returns (nonzero rows, pivot columns).

    Pivots are taken at the lowest set bit, i.e. columns are processed
    left to right with column j mapped to bit j.  Back-substitution runs
    from the last pivot column down, so every row it subtracts is already
    reduced and clears one pivot bit without setting another.
    """
    table = _pivot_table(bits)
    pivots = sorted(table)
    mask = 0
    for col in reversed(pivots):
        row = table[col]
        above = row & mask
        while above:
            low = above & -above
            row ^= table[low.bit_length() - 1]
            above ^= low
        table[col] = row
        mask |= 1 << col
    return [table[col] for col in pivots], pivots


def rank(mat: BitMatrix) -> int:
    """GF(2) rank: the number of pivot rows of the echelon form."""
    return len(_pivot_table(mat.bits))


def row_space_basis(mat: BitMatrix) -> BitMatrix:
    """Reduced echelon basis of the row space of `mat`."""
    echelon, _ = _rref(mat.bits)
    return BitMatrix(len(echelon), mat.cols, tuple(echelon))


def rank_and_nullspace(mat: BitMatrix) -> tuple[int, BitMatrix]:
    """Rank of `mat` and a basis of its right nullspace, one row per free
    column; a full-column-rank input yields a basis with zero rows.

    The vector of free column j is bit j plus the pivot of every reduced
    row with a one in column j.  That is O(free * rank) steps, few because
    the package asks for a basis only when at most `ENUMERATION_LIMIT` = 21
    columns are free (see `weights.weight_distribution`).
    """
    echelon, pivots = _rref(mat.bits)
    pivot_set = set(pivots)
    basis = []
    for j in range(mat.cols):
        if j not in pivot_set:
            vec = 1 << j
            for row, p in zip(echelon, pivots):
                if row >> j & 1:
                    vec |= 1 << p
            basis.append(vec)
    return len(pivots), BitMatrix(len(basis), mat.cols, tuple(basis))


# -- shared text format ----------------------------------------------

# Row text is written column 0 first, so a row reversed is its binary numeral.
_NOT_BINARY = str.maketrans("", "", "01")  # deletes the valid characters


def parse_matrix(text: str) -> BitMatrix:
    """Parse the shared text format: `m n` header then m rows of 0/1 chars."""
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
        # checked before int(), which would also accept '_' and whitespace
        bad = row.translate(_NOT_BINARY)
        if bad:
            raise MatrixFormatError(f"invalid character {bad[0]!r} in row", line=i + 2)
        bits.append(int(row[::-1], 2))
    return BitMatrix(m, n, tuple(bits))


def serialize_matrix(mat: BitMatrix) -> str:
    """Inverse of parse_matrix; emits a trailing newline."""
    out = [f"{mat.rows} {mat.cols}"]
    width = f"0{mat.cols}b"
    for row in mat.bits:
        out.append(format(row, width)[::-1])
    return "\n".join(out) + "\n"
