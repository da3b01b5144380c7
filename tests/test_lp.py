import math
import operator
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import given, settings

from availcodes import (
    InfeasibleRelaxationError,
    build_lp,
    certificate_violations,
    krawtchouk_column,
    lp_dimension_bound,
    point_violations,
    rate_tamo_barg,
    solve_lp,
    weight_distribution,
)
from availcodes.lp import LPConstraint, LPModel, PivotLimitError
from test_lp_differential import small_lps


def _model(num_vars, objective, constraints, offset=0):
    return LPModel(
        num_vars=num_vars,
        objective_offset=offset,
        objective=tuple(objective),
        constraints=tuple(constraints),
        meta={"q": 2, "n": num_vars, "t": 0},
    )


def _le(coeffs, rhs, label=""):
    return LPConstraint(tuple(coeffs), rhs, label)


def _ge(coeffs, rhs, label=""):
    """coeffs . x >= rhs, as the `<=` row the model holds."""
    return LPConstraint(tuple(-v for v in coeffs), -rhs, label)


# -- solver ---------------------------------------------------------------


def test_solve_single_variable():
    sol = solve_lp(_model(1, [1], [_le([1], 5)]))
    assert sol.status == "optimal" and sol.value == 5


def test_solve_two_variables():
    sol = solve_lp(_model(2, [1, 1], [_le([1, 0], 1), _le([0, 1], 1)]))
    assert sol.value == 2


def test_solve_with_phase_one():
    sol = solve_lp(_model(1, [1], [_ge([1], 2), _le([1], 3)]))
    assert sol.value == 3
    sol_min = solve_lp(_model(1, [-1], [_ge([1], 2), _le([1], 3)]))
    assert sol_min.value == -2


def test_solve_infeasible_and_unbounded():
    assert solve_lp(_model(1, [1], [_ge([1], 4), _le([1], 3)])).status == "infeasible"
    assert solve_lp(_model(1, [1], [_ge([1], 0)])).status == "unbounded"


def test_solve_degenerate_duplicate_rows_terminates():
    rows = [_le([1, 1], 1)] * 4 + [_le([1, 0], 1)] * 3 + [_ge([1, 1], 1)] * 2
    sol = solve_lp(_model(2, [2, 1], rows))
    assert sol.status == "optimal" and sol.value == 2


def test_model_holds_integers_only():
    with pytest.raises(ValueError, match="'half' must hold integers"):
        _model(1, [1], [_le([0.5], 1, "half")])
    with pytest.raises(ValueError, match="objective must hold integers"):
        _model(1, [True], [_le([1], 1)])


def test_pivot_limit_is_distinct():
    with pytest.raises(PivotLimitError):
        solve_lp(
            _model(2, [1, 1], [_le([1, 1], 1), _ge([2, 2], 1)]),
            pivot_limit=0,
        )


def test_float_mode_matches_exact_on_small_models():
    model = _model(3, [3, 1, 2], [_le([1, 1, 3], 30), _le([2, 2, 5], 24), _le([4, 1, 2], 36)])
    exact = solve_lp(model, mode="exact")
    approx = solve_lp(model, mode="float")
    assert exact.value == 28
    assert math.isclose(float(exact.value), approx.value, rel_tol=1e-9)


# -- model assembly ---------------------------------------------------------


def test_build_lp_shape_16_3_3():
    model = build_lp(2, 16, 3, 3)
    assert model.num_vars == 13
    labels = [c.label for c in model.constraints]
    assert sum(1 for l in labels if l.startswith("dual_nonneg")) == 17
    assert {"pair_sum_2r", "pair_sum_2r2", "row_count"} <= set(labels)
    assert len(model.constraints) == 20


def test_build_lp_small_r_drops_pair_row():
    labels = [c.label for c in build_lp(2, 9, 2, 2).constraints]
    assert "pair_sum_2r" not in labels
    assert "pair_sum_2r2" in labels and "row_count" in labels


def test_build_lp_divisibility_guard():
    with pytest.raises(ValueError):
        build_lp(2, 10, 3, 3)  # 4 does not divide 30


def test_krawtchouk_facts_that_imply_the_weight_caps():
    # build_lp needs no cap A_i <= (q-1)^i C(n, i): with B >= 0 from the
    # dual_nonneg rows, A_i = (M / q^n) sum_j B_j K_i(j) <= K_i(0) follows
    # from |K_i(j)| <= K_i(0) and the orthogonality sum_j K_j(i) K_l(j) = q^n [i = l]
    for q in (2, 3, 4, 5, 7):
        for n in range(31):
            columns = [krawtchouk_column(q, n, i) for i in range(n + 1)]  # K_.(i)
            rows = list(zip(*columns))  # rows[i][j] = K_i(j)
            for i, row in enumerate(rows):
                assert row[0] == (q - 1) ** i * math.comb(n, i)
                assert all(abs(v) <= row[0] for v in row), (q, n, i)
            for i, column in enumerate(columns):
                for l, row in enumerate(rows):
                    expect = q**n if i == l else 0
                    assert sum(map(operator.mul, column, row)) == expect, (q, n, i, l)


@pytest.mark.parametrize("r", range(3, 7))
def test_lp3_optimum_within_the_implied_caps(r):
    n = (r + 1) ** 2
    a = lp_dimension_bound(2, n, r, 3).solution.variables
    assert all(v <= math.comb(n, i) for i, v in a.items()), r


def test_real_code_weight_distribution_is_feasible(catalog):
    # every strict code's exact weight distribution satisfies its own model
    for code in catalog:
        if code.k > 20:
            continue
        dist = weight_distribution(code)
        model = build_lp(2, code.n, code.r, code.t)
        a = {i: dist[i] for i in model.weight_indices}
        assert point_violations(model, a) == [], (code.construction, code.r, code.t)


def test_point_violations_flags_pinned_weights():
    model = build_lp(2, 9, 2, 2)
    with pytest.raises(ValueError):
        point_violations(model, {1: 1})
    # an obviously impossible distribution trips the row-count constraint
    bad = {i: 0 for i in model.weight_indices}
    bad[9] = 10**9
    assert point_violations(model, bad)


# -- dimension bound ----------------------------------------------------------


def test_lp_dimension_bound_dominates_real_codes(catalog):
    bound16 = lp_dimension_bound(2, 16, 3, 3)
    for code in catalog:
        if code.n == 16 and code.t == 3:
            assert bound16.value >= code.k


def test_lp_dimension_bound_improvement_claim():
    for r in (3, 4, 5):
        n = (r + 1) ** 2
        bound = lp_dimension_bound(2, n, r, 3)
        assert bound.value <= n * float(rate_tamo_barg(r, 3).value_exact) + 1e-9
        assert bound.solution == solve_lp(build_lp(2, n, r, 3))


def test_lp_exact_float_agreement():
    # at q = 2 the bound is log2 M; the benchmark accepts a float M within
    # 1e-3 bits of the exact one
    for r in range(3, 8):
        n = (r + 1) ** 2
        exact = lp_dimension_bound(2, n, r, 3, mode="exact").value
        approx = lp_dimension_bound(2, n, r, 3, mode="float")
        assert approx.solution.status == "optimal"
        assert abs(exact - approx.value) <= 1e-6 * abs(exact)
        assert abs(exact - approx.value) <= 1e-3


# -- dual certificate -------------------------------------------------------


@pytest.mark.parametrize("r", range(3, 9))
def test_lp3_rows_carry_a_dual_certificate(r):
    model = build_lp(2, (r + 1) ** 2, r, 3)
    sol = solve_lp(model)
    assert len(sol.dual) == len(model.constraints)
    assert certificate_violations(model, sol) == []


@settings(max_examples=300, deadline=None)
@given(small_lps())
def test_random_optimal_lps_carry_a_dual_certificate(model):
    sol = solve_lp(model)
    if sol.status == "optimal":
        assert all(isinstance(y, Fraction) for y in sol.dual)
        assert certificate_violations(model, sol) == []
    else:
        assert sol.dual == ()


def test_certificate_check_flags_each_broken_condition():
    model = build_lp(2, 16, 3, 3)
    sol = solve_lp(model)
    dual = list(sol.dual)
    priced = next(i for i, y in enumerate(dual) if y > 0)
    assert certificate_violations(model, replace(sol, dual=(0,) * len(dual))) == [
        f"cover_{i}" for i in model.weight_indices
    ] + ["value"]
    assert certificate_violations(model, replace(sol, value=sol.value + 1)) == ["value"]
    dual[priced] = -dual[priced]
    bad = certificate_violations(model, replace(sol, dual=tuple(dual)))
    assert bad[0] == f"dual_{model.constraints[priced].label}"
    with pytest.raises(ValueError):
        certificate_violations(model, replace(sol, dual=()))


def test_float_dual_prices_the_model_rows():
    # float mode solves on rows scaled to a largest entry of 1; its prices
    # are scaled back onto the model's rows
    model = build_lp(2, 16, 3, 3)
    exact, approx = solve_lp(model), solve_lp(model, mode="float")
    assert approx.dual == pytest.approx([float(y) for y in exact.dual], rel=1e-9, abs=1e-12)


def test_lp_degenerate_all_weights_pinned():
    bound = lp_dimension_bound(2, 6, 2, 6)  # t = n: no free weights at all
    assert bound.value == 0.0
    assert bound.diagnostics["M"] == "1/1"
    assert bound.solution.value == 1 and bound.solution.variables == {}


def test_lp_infeasible_relaxation_reported():
    # eight weight-2 rows on four columns cannot pairwise intersect in at
    # most one point; the relaxation already knows it
    with pytest.raises(InfeasibleRelaxationError):
        lp_dimension_bound(2, 4, 1, 4)


def test_float_unbounded_is_reported_as_a_numerical_failure():
    # every model is bounded by q^n, and here the exact optimum is finite,
    # but the float simplex reports unbounded
    assert lp_dimension_bound(4, 36, 5, 3).solution.status == "optimal"
    assert solve_lp(build_lp(4, 36, 5, 3), mode="float").status == "unbounded"
    with pytest.raises(RuntimeError, match=r"bounded by q\^n = 4\^36.*use exact mode"):
        lp_dimension_bound(4, 36, 5, 3, mode="float")
