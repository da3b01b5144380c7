"""The matrix layers against the direct reference versions in
`matrix_oracles.py`: identical strict and general reports, greedy traces
(both tie-breaks, stalls and restarts), ranks, reduced echelon bases,
nullspaces, partitions, serialized text and `MatrixFormatError` messages
and line numbers."""

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
from availcodes.fields import prime_power
from conftest import family_partitions

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
    """Sparse or dense rows (zero rows and zero columns included), some rows
    repeated, or two such blocks on disjoint columns (a disconnected walk)."""
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
    row = _sparse_row(n) if draw(st.booleans()) else st.integers(0, (1 << n) - 1)
    rows = draw(st.lists(row, min_size=min_rows, max_size=max_rows))
    for _ in range(draw(st.integers(0, 2)) if rows else 0):
        rows.insert(draw(st.integers(0, len(rows))), draw(st.sampled_from(rows)))
    return BitMatrix.from_rows(rows, n)


def _code(supports, n):
    return AvailabilityCode(H=BitMatrix.from_supports(supports, n))


@settings(max_examples=400, deadline=None)
@given(matrices(min_rows=0), st.integers(0, 5), st.integers(0, 5))
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
def test_greedy_matches_reference(h, start, tiebreak, seed):
    code = AvailabilityCode(H=h)
    args = dict(start=start, tiebreak=tiebreak, seed=seed)
    assert _outcome(greedy_cover, code, **args) == _outcome(oracle.greedy_cover, code, **args)


def _fiber(q, t):
    gf = FiniteField(q)
    return functional_code(gf, 2, 1, projective_functionals(gf, t)).H


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
    text = serialize_matrix(h)
    assert text == oracle.serialize_matrix(h)
    assert parse_matrix(text) == oracle.parse_matrix(text) == h


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
