"""The exact simplex against the Fraction-tableau reference in
`fraction_simplex.py`: same status, same optimum and same optimal vertex,
and the same PivotLimitError at the same pivot budget."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from availcodes import build_lp, solve_lp
from availcodes.lp import DEFAULT_PIVOT_LIMIT, LPConstraint, LPModel, PivotLimitError
from fraction_simplex import reference_solve


def _outcome(solve, model, pivot_limit):
    try:
        sol = solve(model, pivot_limit)
    except PivotLimitError:
        return "pivot limit"
    return sol.status, sol.value, sol.variables


def _exact(model, pivot_limit):
    return solve_lp(model, mode="exact", pivot_limit=pivot_limit)


@st.composite
def small_lps(draw):
    """Integer `<=` rows with right sides of either sign (a negative one
    sends the solve through phase 1), some rows repeated verbatim, scaled
    or negated (a negated copy is the row's `>=` twin); zero right sides
    make degenerate vertices."""
    nv = draw(st.integers(1, 4))
    rows = draw(
        st.lists(
            st.tuples(
                st.lists(st.integers(-6, 6), min_size=nv, max_size=nv),
                st.one_of(st.just(0), st.integers(-12, 12)),
            ),
            min_size=1,
            max_size=6,
        )
    )
    for _ in range(draw(st.integers(0, 3))):
        coeffs, rhs = draw(st.sampled_from(rows))
        scale = draw(st.sampled_from((1, 2, 3, -1)))
        rows.append(([scale * c for c in coeffs], scale * rhs))
    objective = draw(st.lists(st.integers(-3, 3), min_size=nv, max_size=nv))
    return LPModel(
        num_vars=nv,
        objective_offset=draw(st.integers(-3, 3)),
        objective=tuple(objective),
        constraints=tuple(LPConstraint(tuple(c), b) for c, b in rows),
        meta={"q": 2, "n": nv, "t": 0},
    )


@settings(max_examples=400, deadline=None)
@given(small_lps())
def test_random_lps_match_fraction_reference(model):
    got = _outcome(_exact, model, DEFAULT_PIVOT_LIMIT)
    assert got == _outcome(reference_solve, model, DEFAULT_PIVOT_LIMIT)
    if got[0] == "optimal":
        assert isinstance(got[1], Fraction)
        assert all(isinstance(v, Fraction) for v in got[2].values())


@settings(max_examples=200, deadline=None)
@given(small_lps(), st.integers(0, 6))
def test_random_lps_hit_the_same_pivot_limit(model, pivot_limit):
    assert _outcome(_exact, model, pivot_limit) == _outcome(
        reference_solve, model, pivot_limit
    )


@pytest.mark.parametrize("r", (3, 4, 5, 6))
def test_weight_lp_matches_fraction_reference(r):
    model = build_lp(2, (r + 1) ** 2, r, 3)
    got = _outcome(_exact, model, DEFAULT_PIVOT_LIMIT)
    assert got[0] == "optimal"
    assert got == _outcome(reference_solve, model, DEFAULT_PIVOT_LIMIT)
