"""The matrix layers against the direct reference versions in
`matrix_oracles.py`: identical strict and general reports, greedy traces
(both tie-breaks, stalls and restarts), ranks, reduced echelon bases,
nullspaces (a code's own echelon included), the masked elimination,
partitions, fiber codes and their sidecars, serialized text, and the
error messages of the fiber construction and of `MatrixFormatError`
(line numbers included)."""

import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import matrix_oracles as oracle
from availcodes import (
    AvailabilityCode,
    BitMatrix,
    FiniteField,
    MatrixFormatError,
    build_partition_family,
    check_availability,
    check_strict_availability,
    functional_code,
    greedy_cover,
    parse_matrix,
    partition_code,
    product_code,
    projective_functionals,
    rank,
    rank_and_nullspace,
    row_space_basis,
    serialize_matrix,
)
from availcodes import bitmatrix
from availcodes.constructions import SIZE_LIMIT
from availcodes.fields import prime_power
from conftest import family_partitions, uniform_rows

K4_EDGES = [(1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)]
K5_EDGES = [(a, b) for a in range(1, 6) for b in range(a + 1, 6)]


def _outcome(fn, *args, **kwargs):
    try:
        return fn(*args, **kwargs)
    except ValueError as exc:
        return type(exc).__name__, str(exc), getattr(exc, "line", None)


def _sparse_row(n):
    return st.sets(st.integers(0, n - 1), max_size=min(n, 4)).map(
        lambda cols: sum(1 << c for c in cols)
    )


@st.composite
def matrices(draw, min_rows=1, max_rows=12, max_cols=14):
    """Sparse, dense or uniformly random rows (zero rows and zero columns
    included), some rows repeated, or two such blocks on disjoint columns (a
    disconnected walk)."""
    if draw(st.booleans()) and max_cols >= 2:
        split = draw(st.integers(1, max_cols - 1))
        top = draw(matrices(min_rows=0, max_rows=max_rows // 2, max_cols=split))
        bottom = draw(matrices(min_rows=0, max_rows=max_rows // 2, max_cols=max_cols - split))
        rows = list(top.bits) + [row << top.cols for row in bottom.bits]
        rows = draw(st.permutations(rows)) if rows else rows
        if len(rows) < min_rows:
            rows.append(0)
        return BitMatrix.from_rows(rows, top.cols + bottom.cols)
    n = draw(st.integers(1, max_cols))
    arm = draw(st.sampled_from(("sparse", "dense", "uniform")))
    if arm == "sparse":
        row = _sparse_row(n)
    elif arm == "dense":
        row = st.integers(0, (1 << n) - 1)
    else:
        row = uniform_rows(draw, n)
    rows = draw(st.lists(row, min_size=min_rows, max_size=max_rows))
    for _ in range(draw(st.integers(0, 2)) if rows else 0):
        rows.insert(draw(st.integers(0, len(rows))), draw(st.sampled_from(rows)))
    return BitMatrix.from_rows(rows, n)


def _code(supports, n):
    return AvailabilityCode(H=BitMatrix.from_supports(supports, n))


def _fiber(q, t):
    gf = FiniteField(q)
    return functional_code(gf, 2, 1, projective_functionals(gf, t)).H


# the two codes of the benchmark's matrix pipeline: rows of 64 ones in 4096
# columns (read off their numerals) and of 4 ones in 1024 (peeled)
FIBER_64 = _fiber(64, 3)
PARTITION_1024 = partition_code(build_partition_family(3, 5), 3, [5, 100, 300]).H


@settings(max_examples=400, deadline=None)
@given(matrices(min_rows=0), st.integers(0, 5), st.integers(0, 5))
@example(FIBER_64, 63, 3)
@example(FIBER_64, 63, 2)
@example(PARTITION_1024, 3, 3)
@example(BitMatrix.from_rows(FIBER_64.bits[:64] + FIBER_64.bits[:3], 4096), 63, 1)
def test_strict_check_matches_reference(h, r, t):
    assert check_strict_availability(h, r, t) == oracle.check_strict_availability(h, r, t)


@settings(max_examples=400, deadline=None)
@given(matrices(min_rows=0), st.integers(0, 5), st.integers(0, 4))
def test_availability_check_matches_reference(h, r, t):
    assert check_availability(h, r, t) == oracle.check_availability(h, r, t)


@settings(max_examples=600, deadline=None)
@given(
    matrices(),
    st.integers(1, 14),
    st.sampled_from(("lowest", "random")),
    st.integers(0, 2**16),
)
# K5 stalls and two disjoint K4s restart (see test_verification.py)
@example(_code(K5_EDGES, 5).H, 1, "lowest", 0)
@example(_code(K5_EDGES, 5).H, 3, "random", 5)
@example(_code(K4_EDGES + [(a + 4, b + 4) for a, b in K4_EDGES], 8).H, 1, "lowest", 0)
@example(_code(K4_EDGES + [(a + 4, b + 4) for a, b in K4_EDGES], 8).H, 6, "random", 1)
@example(FIBER_64, 3519, "lowest", 0)
@example(FIBER_64, 1, "random", 3)
@example(PARTITION_1024, 517, "lowest", 0)
@example(PARTITION_1024, 1, "random", 3)
def test_greedy_matches_reference(h, start, tiebreak, seed):
    code = AvailabilityCode(H=h)
    args = dict(start=start, tiebreak=tiebreak, seed=seed)
    assert _outcome(greedy_cover, code, **args) == _outcome(oracle.greedy_cover, code, **args)


def _high_rank(n, k):
    """n - k independent rows: a shuffled staircase on the first n - k
    columns with random bits on the last k, so that rank = n - k."""
    rng = random.Random(k)
    m = n - k
    rows = [1 << i | (1 << i + 1 if i + 1 < m else 0) | rng.getrandbits(k) << m for i in range(m)]
    rng.shuffle(rows)
    return BitMatrix.from_rows(rows, n)


@settings(max_examples=400, deadline=None)
@given(matrices(max_rows=20, max_cols=20))
# constructed codes, then the high-rank shape with k = 0, 1 and 28 free columns
@example(partition_code(build_partition_family(3, 3), 3).H)
@example(partition_code(build_partition_family(3, 4), 4).H)
@example(_fiber(7, 5))
@example(_fiber(16, 5))
@example(product_code(3, 3).H)
@example(product_code(3, 4).H)
@example(_high_rank(512, 0))
@example(_high_rank(512, 1))
@example(_high_rank(512, 28))
def test_rank_and_text_match_reference(h):
    assert rank(h) == oracle.rank(h)
    assert rank_and_nullspace(h) == oracle.rank_and_nullspace(h)
    assert row_space_basis(h) == oracle.row_space_basis(h)
    code = AvailabilityCode(H=h)
    assert code.k == h.cols - oracle.rank(h)
    assert code.dual_basis == oracle.row_space_basis(h)
    assert code.basis == oracle.rank_and_nullspace(h)[1]
    text = serialize_matrix(h)
    assert text == oracle.serialize_matrix(h)
    assert parse_matrix(text) == oracle.parse_matrix(text) == h


@st.composite
def reorderings(draw):
    """A matrix and the same rows in a drawn order."""
    h = draw(matrices(max_rows=20, max_cols=20))
    return h, BitMatrix.from_rows(draw(st.permutations(h.bits)), h.cols)


def _reversed(h):
    return h, BitMatrix.from_rows(h.bits[::-1], h.cols)


@settings(max_examples=300, deadline=None)
@given(reorderings())
@example(_reversed(product_code(1, 6).H))
@example(_reversed(product_code(3, 3).H))
@example(_reversed(partition_code(build_partition_family(3, 3), 3).H))
@example(_reversed(_high_rank(512, 28)))
def test_rank_forms_do_not_depend_on_row_order(pair):
    # the elimination takes the rows in its own order; rank, the reduced
    # basis and the nullspace are those of the row space
    h, reordered = pair
    assert rank(reordered) == oracle.rank(h)
    assert rank_and_nullspace(reordered) == oracle.rank_and_nullspace(h)
    assert row_space_basis(reordered) == oracle.row_space_basis(h)


def _span_basis(rows, cols):
    return oracle.row_space_basis(BitMatrix.from_rows(rows, cols)).bits


@settings(max_examples=400, deadline=None)
@given(matrices(max_rows=20, max_cols=20), st.integers(-1, (1 << 20) - 1))
@example(product_code(3, 3).H, -1)
@example(product_code(3, 3).H, int("01" * 32, 2))
@example(_high_rank(512, 28), (1 << 512) - (1 << 100))
def test_masked_elimination_matches_reference(h, mask):
    # the information-set search splits a basis on the columns of `mask`
    rows, pivots, zero = bitmatrix._rref(h.bits, mask)
    expected, expected_zero = oracle._eliminate(h.bits, mask)
    assert pivots == sorted(bit.bit_length() - 1 for bit in expected)
    assert [row & mask for row in rows] == [expected[1 << p] & mask for p in pivots]
    assert all(row and not row & mask for row in zero)
    assert _span_basis(zero, h.cols) == _span_basis(expected_zero, h.cols)
    # the reduced and vanishing rows together span the rows given
    assert _span_basis(rows + zero, h.cols) == oracle.row_space_basis(h).bits


_CHARS = "0101010101" + "_ 2x\t\r\x0b\u00a0\u0661\n"


@st.composite
def matrix_texts(draw):
    """A header (sometimes malformed) and rows of 0/1 with stray characters
    mixed in: '_' and whitespace (which int() would accept), '2', other
    digits, line breaks, short and long rows, missing and extra rows."""
    m = draw(st.integers(-1, 4))
    n = draw(st.integers(-1, 6))
    header = draw(
        st.one_of(
            st.just(f"{m} {n}"),
            st.just(f"{m}"),
            st.just(f"{m} {n} 1"),
            st.text(alphabet=" 0123x_", max_size=6),
        )
    )
    body = draw(
        st.lists(
            st.one_of(
                st.text(alphabet="01", min_size=max(n, 0), max_size=max(n, 0)),
                st.text(alphabet=_CHARS, max_size=8),
            ),
            max_size=6,
        )
    )
    return "\n".join([header] + body) + draw(st.sampled_from(("", "\n", "\n\n", "\n  \n")))


@settings(max_examples=1000, deadline=None)
@given(matrix_texts())
@example("1 3\n1_0")
@example("1 3\n1 0")
@example("2 2\n01\n21")
@example("1 4\n0\u0661_1")
# rows int(row, 2) would take but the format refuses, then line breaks
# other than a lone '\n' beside clean rows and bad ones
@example("1 3\n0b1")
@example("1 2\n+1")
@example("1 3\n01 ")
@example("1 2\r\n01")
@example("1 2\r01\n")
@example("1 2\n\u2028\n01")
@example("2 2\r\n01\r\n1_")
@example("2 2\n01\x0c10")  # a form feed ends no row
def test_parse_matches_reference(text):
    got = _outcome(parse_matrix, text)
    assert got == _outcome(oracle.parse_matrix, text)
    if not isinstance(got, BitMatrix):
        assert got[0] == MatrixFormatError.__name__


def _families():
    """Every family with n <= 256, then two levels for each q <= 64."""
    for q in range(2, 257):
        if prime_power(q) is None:
            continue
        g = 1
        while q**g <= 256 or (g == 2 and q <= 64):
            yield q - 1, g
            g += 1


@pytest.mark.parametrize("r,g", list(_families()))
def test_partitions_match_reference(r, g):
    family = build_partition_family(r, g)
    expected = oracle.all_partitions(r, g)
    assert len(family) == len(expected)
    assert family_partitions(family) == expected
    for index in (-1, len(family)):
        with pytest.raises(IndexError):
            family.partition(index)


def test_reference_matvec():
    gf = FiniteField(3)
    assert oracle.matvec(gf, [[1, 2], [0, 1]], (2, 2)) == ((2 + 4) % 3, 2)


_SMALL_FIELDS = [q for q in range(2, 17) if prime_power(q)]


def _axis_maps(n1, t):
    """t maps GF(2)^n1 -> GF(2)^(n1-1), map j dropping coordinate j: the
    kernels are distinct lines, so every pair stacks to rank n1."""
    return [
        tuple(tuple(int(c == k) for c in range(n1)) for k in range(n1) if k != j)
        for j in range(t)
    ]


@st.composite
def fiber_families(draw):
    """A prime power q <= 16, a shape m1 < n1 <= 2*m1 with q^n1 within
    SIZE_LIMIT and 1 <= t <= 4 maps, m1 x n1, in one of two ways.

    Half the time the family is valid by construction: P is an invertible
    n1 x n1 matrix (upper triangular with a nonzero diagonal, its columns
    permuted), and map j is P without the rows of block j of n1 - m1 rows,
    its rows shuffled; two maps together keep every row of P.  Otherwise
    the entries are random, and sometimes a map list is empty, a shape
    breaks the rules, an entry lies outside GF(q) or a row has the wrong
    length, for the error messages."""
    q = draw(st.sampled_from(_SMALL_FIELDS))
    shapes = [
        (n1, m1)
        for n1 in range(2, SIZE_LIMIT.bit_length())
        for m1 in range((n1 + 1) // 2, n1)
        if q**n1 <= SIZE_LIMIT
    ]
    if draw(st.booleans()):
        n1, m1 = draw(st.sampled_from(shapes))
        d, cols = n1 - m1, draw(st.permutations(range(n1)))
        upper = [
            [0] * i + [draw(st.integers(1, q - 1))]
            + [draw(st.integers(0, q - 1)) for _ in range(n1 - i - 1)]
            for i in range(n1)
        ]
        p = [tuple(row[c] for c in cols) for row in upper]
        blocks = draw(st.lists(st.integers(0, n1 // d - 1), min_size=1, max_size=4, unique=True))
        maps = [
            tuple(draw(st.permutations([row for k, row in enumerate(p) if k // d != j])))
            for j in blocks
        ]
        return FiniteField(q), n1, m1, maps
    if draw(st.integers(0, 4)):
        n1, m1 = draw(st.sampled_from(shapes))
    else:
        n1, m1 = draw(st.integers(-1, 14)), draw(st.integers(-1, 14))
    entry = st.integers(0, q - 1) if draw(st.integers(0, 4)) else st.integers(-1, q)
    width = st.just(max(n1, 0)) if draw(st.integers(0, 4)) else st.integers(0, 4)
    row = width.flatmap(lambda w: st.tuples(*[entry] * w))
    one_map = st.lists(row, min_size=max(m1, 0), max_size=max(m1, 0)).map(tuple)
    maps = draw(st.lists(one_map, min_size=int(draw(st.integers(0, 4)) > 0), max_size=4))
    return FiniteField(q), n1, m1, maps


@settings(max_examples=150, deadline=None)
@given(fiber_families())
@example((FiniteField(2), 12, 11, _axis_maps(12, 3)))
@example((FiniteField(64), 2, 1, projective_functionals(FiniteField(64), 3)))
@example((FiniteField(16), 3, 2, [((1, 0, 0), (0, 1, 0)), ((0, 1, 0), (0, 0, 1)), ((1, 0, 0), (0, 0, 1))]))
@example((FiniteField(9), 4, 2, [((1, 0, 0, 0), (0, 1, 0, 0)), ((0, 0, 1, 0), (0, 0, 0, 1))]))
@example((FiniteField(2), 240, 120, [((1,) * 240,) * 120] * 2))
def test_fiber_construction_matches_reference(family):
    gf, n1, m1, maps = family
    got = _outcome(functional_code, gf, n1, m1, maps)
    expected = _outcome(oracle.functional_code, gf, n1, m1, maps)
    assert got == expected
    if isinstance(got, AvailabilityCode):
        assert got.H.bits == expected.H.bits
        assert got.sidecar() == expected.sidecar()
