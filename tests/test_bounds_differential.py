"""`dmin_m_delta_max`, `dmin_m_delta` and `ghw_profile_m_delta` against the
direct reference versions in `bounds_oracles.py`: the same value, S and
argmax (ties included), the same profiles and the same errors."""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import bounds_oracles as oracle
from availcodes import dmin_m_delta, dmin_m_delta_max, ghw_profile_m_delta
from availcodes.figures import _sweep_params


def _max_outcome(fn, n, k, r, t):
    try:
        result = fn(n, k, r, t)
    except ValueError as exc:  # BoundNotApplicableError included
        return type(exc).__name__, str(exc)
    return result.value_exact, result.diagnostics["argmax_M"], result.diagnostics["argmax_delta"]


@st.composite
def points(draw):
    n = draw(st.integers(2, 60))
    k = draw(st.integers(1, n - 1))
    return n, k, draw(st.integers(1, 6)), draw(st.integers(2, 5))


@settings(max_examples=150, deadline=None)
@given(points())
@example((20, 10, 3, 3))
@example((9, 8, 2, 2))  # not applicable: n-k = 1 < ceil(n(1-R'))
@example((5, 2, 6, 2))  # e_1 = r+1 > n
@example((3, 2, 5, 2))  # the same with a one-point M grid
@example((4, 1, 3, 2))  # e_1 = n
def test_m_delta_max_matches_grid(point):
    assert _max_outcome(dmin_m_delta_max, *point) == _max_outcome(oracle.dmin_m_delta_max, *point)


@pytest.mark.parametrize("r", range(3, 11))
def test_m_delta_max_matches_grid_on_figure_rows(r):
    p = _sweep_params("dmin3_mdelta", r)
    point = (p["n"], p["k"], r, p["t"])
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
