"""The exhaustive enumerations against the reference versions in
`enum_oracles.py` and `matrix_oracles.py`: the same dual GHW supports as
the unpruned search, the same weight distribution A whichever side
`weight_distribution` enumerates (checked against a direct span of the
reference nullspace basis), the same Krawtchouk values and MacWilliams
transforms, and the same error messages.  The information-set search for
d_min and the dual's d_1 are held to the minimum of the Gray walk's
distribution and of its MacWilliams transform."""

import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import enum_oracles as oracle
import matrix_oracles
from availcodes import (
    AvailabilityCode,
    BitMatrix,
    dual_ghw_bruteforce,
    krawtchouk_column,
    macwilliams_vector,
    min_distance_bruteforce,
    product_code,
    rank,
    weight_distribution,
)
from availcodes import verification
from availcodes.verification import GHW_SUBSPACE_BUDGET, gaussian_binomial
from availcodes.weights import ENUMERATION_LIMIT
from conftest import span_weights

ORACLE_SUBSPACES = 100_000  # the unpruned search takes about 0.2 s here


def _outcome(fn, *args):
    try:
        return fn(*args)
    except (ValueError, ZeroDivisionError) as exc:  # EnumerationBudgetError included
        return type(exc).__name__, str(exc)


def _nullspace_weights(code):
    """A by a direct span of the reference nullspace basis."""
    return tuple(span_weights(list(matrix_oracles.rank_and_nullspace(code.H)[1].bits), code.n))


def _dual_min(code):
    """The dual's d_1 read off the reference transform of `_nullspace_weights`."""
    B = oracle.macwilliams_vector(code.n, 2, _nullspace_weights(code))
    return next(w for w in range(1, code.n + 1) if B[w])


@st.composite
def codes(draw, max_rows, max_cols):
    """Dense or sparse rows, zero and repeated rows included."""
    n = draw(st.integers(1, max_cols))
    if draw(st.booleans()):
        row = st.sets(st.integers(0, n - 1), max_size=3).map(lambda cols: sum(1 << c for c in cols))
    else:
        row = st.integers(0, (1 << n) - 1)
    rows = draw(st.lists(row, max_size=max_rows))
    if rows and draw(st.booleans()):
        rows.append(draw(st.sampled_from(rows)))
    return AvailabilityCode(H=BitMatrix.from_rows(rows, n))


def _rows(rows, n):
    return AvailabilityCode(H=BitMatrix.from_rows(rows, n))


@settings(max_examples=200, deadline=None)
@given(codes(max_rows=8, max_cols=14))
@example(_rows([0b1111, 0b0011], 4))
@example(_rows([1070, 436, 927], 11))  # GHW_2 = 7 from a single subspace
@example(_rows([1 << i | 1 << (i + 8) for i in range(8)], 16))  # dual dimension 8
@example(_rows([0], 3))  # zero dual: no subspace
def test_dual_ghw_matches_unpruned_search(code):
    for level in range(5):
        assert _outcome(dual_ghw_bruteforce, code, level) == _outcome(
            oracle.dual_ghw_bruteforce, code, level
        )


@settings(max_examples=150, deadline=None)
@given(codes(max_rows=18, max_cols=16))
@example(_rows([0b111111], 6))  # dual side: k = 5 > n - k = 1
@example(_rows([1 << i for i in range(5)], 6))  # code side: k = 1
@example(_rows([], 4))  # no rows: the whole space, from the dual side
@example(_rows([0b1100, 0b0011], 4))  # k = n - k: the code side
def test_weight_distribution_either_side(code):
    assert weight_distribution(code) == _nullspace_weights(code)


def _valid_distributions(q, n):
    """Weight distributions of codes over GF(q): zero, repetition, whole space."""
    zero = (1,) + (0,) * n
    repetition = (1,) + (0,) * (n - 1) + (q - 1,) if n else (q,)
    whole = tuple(math.comb(n, i) * (q - 1) ** i for i in range(n + 1))
    return st.sampled_from((zero, repetition, whole))


@st.composite
def distributions(draw):
    q = draw(st.sampled_from((2, 3, 4, 5)))
    n = draw(st.integers(0, 30))
    kind = draw(st.integers(0, 3))
    if kind == 0:
        return q, n, draw(_valid_distributions(q, n))
    if kind == 1 and q == 2 and n:
        generators = draw(st.lists(st.integers(0, (1 << n) - 1), max_size=8))
        return q, n, tuple(span_weights(generators, n))
    entries = st.integers(-2, 5) if kind == 3 else st.integers(0, 5)
    return q, n, tuple(draw(st.lists(entries, min_size=n + 1, max_size=n + 1)))


@pytest.mark.parametrize("q", (2, 3, 4, 5, 8))
def test_krawtchouk_column_matches_alternating_sums(q):
    for n in range(41):
        for i in range(n + 1):
            expected = [oracle.krawtchouk_sum(q, n, j, i) for j in range(n + 1)]
            assert krawtchouk_column(q, n, i) == expected, (q, n, i)


@settings(max_examples=300, deadline=None)
@given(distributions())
@example((2, 3, (1, 0, 2, 1)))  # B_1 = -2/4: negative
@example((3, 4, (1, 0, 0, 0, 1)))  # B_4 = 17/2: not an integer
@example((5, 2, (0, 0, 0)))  # size 0: the same ZeroDivisionError
@example((2, 0, (1,)))
def test_macwilliams_matches_krawtchouk_sums(drawn):
    q, n, A = drawn
    assert _outcome(macwilliams_vector, n, q, A) == _outcome(oracle.macwilliams_vector, n, q, A)


def test_catalog_matches_oracles(catalog):
    for code in catalog:
        assert weight_distribution(code) == _nullspace_weights(code)
        dual_dim = rank(code.H)
        if dual_dim > oracle.MAX_DUAL_DIM:  # the unpruned search refuses level 1
            assert dual_ghw_bruteforce(code, 1) == _dual_min(code), code.construction
        for level in (1, 2, 3):
            count = gaussian_binomial(dual_dim, level)
            # over the budget both fail fast; under it but over ORACLE_SUBSPACES
            # (level 3 at dual dimension 9) the unpruned search takes seconds
            over = count > GHW_SUBSPACE_BUDGET
            if level == 1 and dual_dim > oracle.MAX_DUAL_DIM:
                continue
            if count <= ORACLE_SUBSPACES or over:
                assert _outcome(dual_ghw_bruteforce, code, level) == _outcome(
                    oracle.dual_ghw_bruteforce, code, level
                )


def _walk_min(code, dual=False):
    """d_min, or the dual's d_1, read off the Gray walk's weight distribution."""
    counts = weight_distribution(code)
    if dual:
        counts = macwilliams_vector(code.n, 2, counts)
    return next((w for w in range(1, code.n + 1) if counts[w]), math.inf)


def _search_min(code, dual=False):
    """d_min, or the dual's d_1, from the information-set search alone, never
    handed to the walk: over `basis`, the identity on each row's highest
    bit, or over `dual_basis`, the identity on each row's lowest."""
    rows = (code.dual_basis if dual else code.basis).bits
    if not rows:
        return math.inf
    ident = sum(row & -row if dual else 1 << row.bit_length() - 1 for row in rows)
    no_walk = ENUMERATION_LIMIT + 1
    return verification._information_set_search(rows, ident, code.n, no_walk, "d", "the span")


def test_catalog_information_sets_match_the_walk(catalog):
    for code in catalog:
        for dual in (False, True):
            assert _search_min(code, dual) == _walk_min(code, dual), code.construction


@st.composite
def square_codes(draw, max_cols):
    """Up to n rows on n columns, so that min(k, n - k) ranges up to n / 2."""
    n = draw(st.integers(1, max_cols))
    m = draw(st.integers(0, n))
    if draw(st.booleans()):
        cols = st.sets(st.integers(0, n - 1), min_size=1, max_size=4)
        row = cols.map(lambda cols: sum(1 << c for c in cols))
    else:
        row = st.integers(0, (1 << n) - 1)
    return _rows(draw(st.lists(row, min_size=m, max_size=m)), n)


@st.composite
def half_rank_codes(draw):
    """n in 16..26 and n/2 - 3..n/2 + 2 rows of uniform random bits.  About
    one such code in 24 gets a wrong dual d_1 from a search given each dual
    row's highest bit as the identity instead of its lowest."""
    n = draw(st.integers(16, 26))
    m = draw(st.integers(n // 2 - 3, n // 2 + 2))
    bits = draw(st.randoms(use_true_random=True))  # uniform, unlike st.integers
    return _rows([bits.getrandbits(n) for _ in range(m)], n)


@settings(max_examples=500, deadline=None)
@given(st.one_of(square_codes(max_cols=40), half_rank_codes()))
@example(product_code(2, 2))  # information sets of rank 4, 3 and 2
@example(product_code(3, 2))
@example(_rows([1 << i for i in range(10)] + [(1 << 10) - 1 << 10], 20))  # ten zero columns, d = 2
@example(_rows([0b11], 2))  # the repetition code: the search visits every word
# d = 3 from a word that sums fewer rows of a rank-deficient information set
# than its first contributing level: visiting only that level's sums of all
# k rows from there on gives 4
@example(_rows([32214, 38443, 11857, 6844, 4955, 7915, 12123, 42997], 16))
# the dual's d_1 = 3 from its pivots as the first set; its rows' highest
# bits, which are not the identity there, give 4
@example(_rows([303602, 156962, 418773, 46549, 19015, 522319, 402348, 295508, 268081, 277351], 19))
def test_information_sets_match_the_walk(code):
    assert _search_min(code) == _walk_min(code) == min_distance_bruteforce(code)
    dual_min = _walk_min(code, dual=True)
    assert _search_min(code, dual=True) == dual_min
    if dual_min != math.inf:
        assert dual_ghw_bruteforce(code, 1) == dual_min
