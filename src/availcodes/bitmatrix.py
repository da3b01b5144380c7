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
        through = _incidence(self)[1]
        return BitMatrix(self.cols, self.rows, tuple(sum(map((1).__lshift__, c)) for c in through))


def _incidence(mat: BitMatrix) -> tuple[list[list[int]], list[list[int]]]:
    """Row supports and column incidence from one pass over the set bits:
    entry i of the first lists row i's 0-based columns, entry j of the
    second the rows with a one in column j, each in increasing order.

    Peeling the lowest one costs three operations on the whole row, so a
    row whose ones times its length passes 2^15 (64 ones of 4096 columns:
    17 us peeled, 10 us this way; 2-vCPU VM, Python 3.11) is read off its
    binary numeral instead, one C-level `find` per one."""
    supports = []
    through: list[list[int]] = [[] for _ in range(mat.cols)]
    for i, row in enumerate(mat.bits):
        sup = []
        if row.bit_count() * row.bit_length() > 1 << 15:
            text = format(row, "b")[::-1]
            col = text.find("1")
            while col >= 0:
                sup.append(col)
                through[col].append(i)
                col = text.find("1", col + 1)
        else:
            while row:
                low = row & -row
                col = low.bit_length() - 1
                sup.append(col)
                through[col].append(i)
                row ^= low
        supports.append(sup)
    return supports, through


def _rref(bits: Sequence[int], mask: int = -1) -> tuple[list[int], list[int], list[int]]:
    """Reduced row echelon form on the columns of `mask`: the reduced rows,
    their pivot columns in increasing order, and the nonzero rows that
    vanish on `mask` (independent when `bits` are).  Each row is reduced by
    the pivots it meets, lowest first, until it vanishes on `mask` or opens
    a pivot at its lowest bit there; back-substitution then runs from the
    last pivot column down, so every row it subtracts is already reduced
    and clears one pivot bit without setting another.

    The rows are taken last first.  The pivot columns and the reduced form
    do not depend on the order, but the work does: the product code lists
    its checks axis by axis, and in that order each later axis's line is
    reduced through long chains of the earlier axes' pivots (r = 1, t = 12:
    2.2 s given, 54 ms last first).  On every other constructed matrix
    measured the reversed order was as fast or faster."""
    table: dict[int, int] = {}
    zero = []
    for row in reversed(bits):
        while low := row & mask:
            col = (low & -low).bit_length() - 1
            pivot = table.get(col)
            if pivot is None:
                table[col] = row
                break
            row ^= pivot
        else:
            if row:
                zero.append(row)
    pivots = sorted(table)
    done = 0
    for col in reversed(pivots):
        row = table[col]
        above = row & done
        while above:
            low = above & -above
            row ^= table[low.bit_length() - 1]
            above ^= low
        table[col] = row
        done |= 1 << col
    return [table[col] for col in pivots], pivots, zero


def _nullspace(echelon: BitMatrix) -> BitMatrix:
    """A basis of the right nullspace of the reduced rows `echelon`, one
    row per free column; a full-column-rank echelon yields zero rows.

    The vector of free column j is bit j plus the pivot (lowest bit) of
    every reduced row with a one in column j: O(free * rank) steps.  Every
    pivot lies below j, so bit j is the vector's highest.
    """
    pivots = [(row & -row).bit_length() - 1 for row in echelon.bits]
    pivot_set = set(pivots)
    basis = []
    for j in range(echelon.cols):
        if j not in pivot_set:
            vec = 1 << j
            for row, p in zip(echelon.bits, pivots):
                if row >> j & 1:
                    vec |= 1 << p
            basis.append(vec)
    return BitMatrix(len(basis), echelon.cols, tuple(basis))


def rank(mat: BitMatrix) -> int:
    """GF(2) rank by `_rref`; kept as public API, though no package code calls it."""
    return len(_rref(mat.bits)[1])


def row_space_basis(mat: BitMatrix) -> BitMatrix:
    """Reduced echelon basis of the row space of `mat`."""
    return BitMatrix.from_rows(_rref(mat.bits)[0], mat.cols)


def rank_and_nullspace(mat: BitMatrix) -> tuple[int, BitMatrix]:
    """Rank and a right `_nullspace` basis; public API, though no package code calls it."""
    echelon = row_space_basis(mat)
    return echelon.rows, _nullspace(echelon)


# -- shared text format ----------------------------------------------

# Row text is written column 0 first, so a row reversed is its binary numeral.
_NOT_BINARY = str.maketrans("", "", "01")  # deletes the valid characters


def parse_matrix(text: str) -> BitMatrix:
    """Parse the shared text format: `m n` header then m rows of 0/1 chars."""
    # unlike str.splitlines, which also breaks at a form feed, only CR LF, CR and LF end a line
    lines = text.replace("\r\n", "\n").replace("\r", "\n").removesuffix("\n").split("\n")
    if not text:
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
    # Rows are checked before int(), which also takes '_', whitespace, signs
    # and '0b': all at once when deleting '0', '1' and the line breaks '\n'
    # and '\r' leaves no more of the text than of its header line (one
    # C-level pass), else one by one.
    head, whole = (s.encode("utf-8", "surrogatepass").translate(None, b"01\r\n") for s in (lines[0], text))
    clean = head == whole
    bits = []
    for i in range(m):
        row = body[i]
        if len(row) != n:
            raise MatrixFormatError(f"row has {len(row)} characters, expected {n}", line=i + 2)
        if not clean and (bad := row.translate(_NOT_BINARY)):
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
