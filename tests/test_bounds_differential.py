"""`dmin_m_delta_max`, `dmin_m_delta` and `ghw_profile_m_delta` against the
direct reference versions in `bounds_oracles.py`: the same value, S and
argmax (ties included), the same profiles and the same errors; `dim_huang`
and `k_opt_griesmer` against the search over k* and the term-by-term
Griesmer sum: the same values and the same errors."""

import itertools

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import bounds_oracles as oracle
from availcodes import (
    dim_huang,
    dmin_m_delta,
    dmin_m_delta_max,
    ghw_profile_m_delta,
    k_opt_griesmer,
)
from availcodes.figures import _t3_code


def _max_outcome(fn, n, k, r, t):
    try:
        result = fn(n, k, r, t)
    except ValueError as exc:  # BoundNotApplicableError included
        return type(exc).__name__, str(exc)
    return result.value_exact, result.diagnostics["argmax_M"], result.diagnostics["argmax_delta"]


@st.composite
def points(draw, r_max=6, t_max=5):
    n = draw(st.integers(2, 60))  # keeps the grid oracle cheap
    k = draw(st.integers(1, n - 1))
    return n, k, draw(st.integers(1, r_max)), draw(st.integers(2, t_max))


@settings(max_examples=150, deadline=None)
@given(points())
@example((20, 10, 3, 3))
@example((9, 8, 2, 2))  # not applicable: n-k = 1 < ceil(n(1-R'))
@example((5, 2, 6, 2))  # e_1 = r+1 > n
@example((3, 2, 5, 2))  # the same with a one-point M grid
@example((4, 1, 3, 2))  # e_1 = n
def test_m_delta_max_matches_grid(point):
    assert _max_outcome(dmin_m_delta_max, *point) == _max_outcome(oracle.dmin_m_delta_max, *point)


@pytest.mark.parametrize("r", range(3, 12))  # the rows the bounds-sweep benchmark runs
def test_m_delta_max_matches_grid_on_figure_rows(r):
    point = (*_t3_code(r), r, 3)
    assert _max_outcome(dmin_m_delta_max, *point) == _max_outcome(oracle.dmin_m_delta_max, *point)


@settings(max_examples=300, deadline=None)
@given(points(r_max=30, t_max=8))
def test_m_delta_max_matches_grid_at_wide_locality(point):
    # r up to 30 puts e_1 = r+1 near or past n; t up to 8 widens the M range
    assert _max_outcome(dmin_m_delta_max, *point) == _max_outcome(oracle.dmin_m_delta_max, *point)


def _profile_outcome(fn, n, r, m_dim, delta):
    try:
        return fn(n, r, m_dim, delta)
    except ValueError as exc:
        return type(exc).__name__, str(exc)


@settings(max_examples=300, deadline=None)
@given(
    st.integers(1, 80),
    st.integers(1, 8),
    st.integers(1, 60),
    st.integers(0, 60),
)
@example(9, 2, 5, 2)  # e = (3, 5, 7, 9, 9)
def test_profile_matches_recursion(n, r, m_dim, delta):
    assert _profile_outcome(ghw_profile_m_delta, n, r, m_dim, delta) == _profile_outcome(
        oracle.ghw_profile_m_delta, n, r, m_dim, delta
    )



def _m_delta_outcome(n, k, r, t, m_dim, delta):
    try:
        result = dmin_m_delta(n, k, r, t, m_dim, delta)
    except ValueError as exc:
        return type(exc).__name__, str(exc)
    return result.value_exact, result.diagnostics["S"]


def _oracle_m_delta_outcome(n, k, r, t, m_dim, delta):
    try:
        return oracle.shortening(n, k, r, t, oracle.ghw_profile_m_delta(n, r, m_dim, delta))
    except ValueError as exc:
        return type(exc).__name__, str(exc)


@settings(max_examples=300, deadline=None)
@given(
    st.integers(1, 60),
    st.integers(-1, 62),
    st.integers(1, 6),
    st.integers(1, 5),
    st.integers(1, 40),
    st.integers(0, 8),
)
@example(9, 4, 2, 2, 5, 2)  # S = [1, 2]
@example(12, 6, 2, 2, 1, 2)  # M = 1: the base entry alone
@example(9, 1, 2, 2, 5, 2)  # empty S: the unshortened point
@example(9, 0, 2, 2, 5, 2)  # empty S and k out of range
@example(5, 3, 9, 2, 2, 1)  # n < r+1: the profile's error
def test_m_delta_matches_oracle_shortening(n, k, r, t, m_dim, delta):
    assert _m_delta_outcome(n, k, r, t, m_dim, delta) == _oracle_m_delta_outcome(
        n, k, r, t, m_dim, delta
    )


def _huang_outcome(fn, *args):
    try:
        result = fn(*args)
    except ValueError as exc:
        return type(exc).__name__, str(exc)
    return getattr(result, "value_exact", result)


def _assert_huang_matches(n, d, r, t, q):
    point = (n, d, r, t, q)
    assert _huang_outcome(dim_huang, *point) == _huang_outcome(oracle.dim_huang, *point), point


def test_dim_huang_matches_the_search_over_k_star():
    # the search takes about 0.15 s up to n = 20 and 200 s up to n = 89;
    # the drawn test below samples the rest of the range
    grid = itertools.product(range(1, 21), (1, 2, 3, 4, 5, 7), range(1, 9), range(1, 6), (2, 3))
    for point in grid:
        _assert_huang_matches(*point)


@settings(max_examples=40, deadline=None)
@given(
    st.integers(21, 89),
    st.sampled_from((1, 2, 3, 4, 5, 7)),
    st.integers(1, 8),
    st.integers(1, 5),
    st.sampled_from((2, 3)),
)
@example(89, 7, 1, 5, 3)  # the slowest point of the search
@example(89, 4, 2, 5, 2)
def test_dim_huang_matches_the_search_on_longer_codes(n, d, r, t, q):
    _assert_huang_matches(n, d, r, t, q)


@pytest.mark.parametrize(
    "point",
    # (n, d, r, t, q): each check alone, then pairs that show the check order
    [(10, 3, 2, 2, 1), (10, 3, 2, 2, 0), (10, 0, 2, 2, 2), (0, 3, 2, 2, 2), (10, 3, 0, 2, 2),
     (10, 3, 2, 0, 3), (10, 0, 2, 2, 1), (0, 0, 2, 2, 2), (0, 3, 0, -1, 2)],
)
def test_dim_huang_raises_as_the_search_does(point):
    assert isinstance(_huang_outcome(oracle.dim_huang, *point), tuple)
    assert _huang_outcome(dim_huang, *point) == _huang_outcome(oracle.dim_huang, *point)


@pytest.mark.parametrize("r", range(1, 28))
def test_dim_huang_matches_the_search_on_lp3_rows(r):
    n = (r + 1) ** 2
    assert dim_huang(n, 4, r, 3).value_exact == oracle.dim_huang(n, 4, r, 3)


def test_k_opt_griesmer_matches_the_term_by_term_sum():
    for q, n, d in itertools.product(range(0, 5), range(-1, 60), range(0, 12)):
        point = (q, n, d)
        assert _huang_outcome(k_opt_griesmer, *point) == _huang_outcome(
            oracle.k_opt_griesmer, *point
        ), point
