import math
import operator
from fractions import Fraction

import pytest
from hypothesis import given, settings

from availcodes import (
    LP_DEFAULT_BUDGET,
    InfeasibleRelaxationError,
    build_lp,
    krawtchouk_column,
    lp_dimension_bound,
    point_violations,
    rate_tamo_barg,
    weight_distribution,
)
from availcodes import lp as lp_module
from availcodes.lp import LPConstraint, LPModel, LPSizeError
from fraction_simplex import certificate_violations, exact_solve, farkas_violations
from test_lp_differential import exact_solution, small_lps


def test_default_budget_is_the_largest_lp3_row_under_the_size_limit():
    # the package root derives 27 by hand from the limit of 800: lp3 row r
    # has n = (r + 1)^2, so changing either one alone fails here
    assert LP_DEFAULT_BUDGET == math.isqrt(lp_module.LP_SIZE_LIMIT) - 1


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


# -- the integer simplex on toy models --------------------------------------


def test_solve_single_variable():
    sol = exact_solution(_model(1, [1], [_le([1], 5)]))
    assert sol.status == "optimal" and sol.value == 5


def test_solve_two_variables():
    sol = exact_solution(_model(2, [1, 1], [_le([1, 0], 1), _le([0, 1], 1)]))
    assert sol.value == 2


def test_solve_with_phase_one():
    sol = exact_solution(_model(1, [1], [_ge([1], 2), _le([1], 3)]))
    assert sol.value == 3
    sol_min = exact_solution(_model(1, [-1], [_ge([1], 2), _le([1], 3)]))
    assert sol_min.value == -2


def test_solve_infeasible_and_unbounded():
    assert exact_solution(_model(1, [1], [_ge([1], 4), _le([1], 3)])).status == "infeasible"
    assert exact_solution(_model(1, [1], [_ge([1], 0)])).status == "unbounded"


def test_solve_degenerate_duplicate_rows_terminates():
    rows = [_le([1, 1], 1)] * 4 + [_le([1, 0], 1)] * 3 + [_ge([1, 1], 1)] * 2
    sol = exact_solution(_model(2, [2, 1], rows))
    assert sol.status == "optimal" and sol.value == 2


def test_model_holds_integers_only():
    with pytest.raises(ValueError, match="'half' must hold integers"):
        _model(1, [1], [_le([0.5], 1, "half")])
    with pytest.raises(ValueError, match="objective must hold integers"):
        _model(1, [True], [_le([1], 1)])


def test_work_limit_is_distinct():
    # a feasible model whose first pivot is over the limit: no status, an error
    rows = [[1, 1], [-2, -2]]
    with pytest.raises(LPSizeError, match="exceeded 0 units of work"):
        lp_module._simplex_max([1, 1], rows, [1, -1], exact=True, work_limit=0)


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
        # the B-space solve against the A-space model of record
        assert bound.solution == exact_solution(build_lp(2, n, r, 3))


# -- dual certificate -------------------------------------------------------


@pytest.mark.parametrize("r", range(3, 9))
def test_lp3_rows_carry_a_dual_certificate(r):
    model = build_lp(2, (r + 1) ** 2, r, 3)
    sol, dual = exact_solve(model)
    assert len(dual) == len(model.constraints)
    assert certificate_violations(model, sol.value, dual) == []


@settings(max_examples=300, deadline=None)
@given(small_lps())
def test_random_optimal_lps_carry_a_dual_certificate(model):
    sol, prices = exact_solve(model)
    if sol.status == "optimal":
        assert all(isinstance(y, Fraction) for y in prices)
        assert certificate_violations(model, sol.value, prices) == []
    elif sol.status == "infeasible":  # the Farkas ray the B-space solve prices with
        assert farkas_violations(model, prices) == []
    else:
        assert prices == []


def test_certificate_check_flags_each_broken_condition():
    model = build_lp(2, 16, 3, 3)
    sol, dual = exact_solve(model)
    priced = next(i for i, y in enumerate(dual) if y > 0)
    assert certificate_violations(model, sol.value, [0] * len(dual)) == [
        f"cover_{i}" for i in model.weight_indices
    ] + ["value"]
    assert certificate_violations(model, sol.value + 1, dual) == ["value"]
    dual[priced] = -dual[priced]
    bad = certificate_violations(model, sol.value, dual)
    assert bad[0] == f"dual_{model.constraints[priced].label}"
    with pytest.raises(ValueError):
        certificate_violations(model, sol.value, [])


def test_lp_degenerate_all_weights_pinned():
    bound = lp_dimension_bound(2, 6, 2, 6)  # t = n: no free weights at all
    assert bound.value == 0.0
    assert bound.diagnostics["M"] == "1/1"
    assert bound.solution.value == 1 and bound.solution.variables == {}


def test_lp_size_limit_is_checked_before_any_krawtchouk_column(monkeypatch):
    def unexpected(*args):
        raise AssertionError("a Krawtchouk column was built")

    monkeypatch.setattr(lp_module, "krawtchouk_row", unexpected)
    monkeypatch.setattr(lp_module, "krawtchouk_column", unexpected)
    n = lp_module.LP_SIZE_LIMIT + 1
    with pytest.raises(LPSizeError, match=f"n={n} is over the LP's limit"):
        lp_dimension_bound(2, n, 1, 2)
    with pytest.raises(ValueError, match="must divide"):  # the model's checks come first
        lp_dimension_bound(2, n, 3, 2)


def test_lp_work_budget_stops_the_master():
    # (q, n, r, t) = (2, 441, 2, 5) needs 1.6 * 10^9 units of simplex work in
    # exact mode; at (2, 141, 4, 5) the float master stalls until the budget
    # stops it
    with pytest.raises(LPSizeError, match="units of simplex work"):
        lp_dimension_bound(2, 441, 2, 5)
    with pytest.raises(LPSizeError, match="units of simplex work"):
        lp_dimension_bound(2, 141, 4, 5, mode="float")


def test_warm_master_halves_the_later_rounds_work(monkeypatch):
    # the lp3 rows r = 3..6 re-solved every master after the first from the
    # slack basis: 139,758 + 325,088 + 279,802 + 2,615,622 units of simplex
    # work in 15+20+16, 24+19, 19+19 and 43+38 pivots.  From the last basis
    # they take 109,496 + 151,866 + 45,254 + 172,216 units in 33, 21, 9 and
    # 15 pivots, of which 17, 9, 7 and 8 put the last basis back in
    cold = 139_758 + 325_088 + 279_802 + 2_615_622
    works = []
    simplex_max = lp_module._simplex_max

    def counted(*args, **kwargs):
        out = simplex_max(*args, **kwargs)
        works.append(out[4])
        return out

    monkeypatch.setattr(lp_module, "_simplex_max", counted)
    later = 0
    for r in range(3, 7):
        works.clear()
        lp_dimension_bound(2, (r + 1) ** 2, r, 3)
        later += sum(works[1:])
    assert later <= cold // 2


def test_lp3_row_at_r20_is_within_both_limits():
    bound = lp_dimension_bound(2, 441, 20, 3)
    assert 1 + sum(bound.solution.variables.values()) == bound.solution.value
    approx = lp_dimension_bound(2, 441, 20, 3, mode="float")
    assert approx.value == pytest.approx(bound.value, rel=1e-6)


def test_lp_infeasible_relaxation_reported():
    # eight weight-2 rows on four columns cannot pairwise intersect in at
    # most one point; the relaxation already knows it
    with pytest.raises(InfeasibleRelaxationError):
        lp_dimension_bound(2, 4, 1, 4)
    with pytest.raises(InfeasibleRelaxationError):
        lp_dimension_bound(2, 4, 1, 4, mode="float")


def test_float_infeasibility_needs_the_exact_model(monkeypatch):
    solve_lp = lp_module.solve_lp

    def float_finds_nothing(q, n, r, t, exact):
        if not exact:
            raise InfeasibleRelaxationError("no point")
        return solve_lp(q, n, r, t, exact)

    monkeypatch.setattr(lp_module, "solve_lp", float_finds_nothing)
    # the exact solve that must answer a float ray may run out of its budget
    with pytest.raises(LPSizeError):
        lp_dimension_bound(2, 441, 2, 5, mode="float")
    # or it answers, and its M and A-vector come back in floats
    exact = solve_lp(2, 16, 3, 3, True)
    result = lp_dimension_bound(2, 16, 3, 3, mode="float")
    assert result.diagnostics == {"status": "optimal", "mode": "float", "M": repr(float(exact.value))}
    assert result.solution.value == float(exact.value)
    assert result.solution.variables == {i: float(v) for i, v in exact.variables.items()}
    assert math.isclose(result.value, math.log2(float(exact.value)), rel_tol=1e-15)


def test_float_ray_answered_by_the_exact_model_keeps_its_errors(monkeypatch):
    def answer(exact_outcome):
        def solve(q, n, r, t, exact):
            if not exact:
                raise InfeasibleRelaxationError("no point")
            if isinstance(exact_outcome, Exception):
                raise exact_outcome
            return exact_outcome

        monkeypatch.setattr(lp_module, "solve_lp", solve)
        return lp_dimension_bound(2, 16, 3, 3, mode="float")

    with pytest.raises(InfeasibleRelaxationError, match="exact"):
        answer(InfeasibleRelaxationError("exact"))
    # an exact M past the double range has no float form
    with pytest.raises(ValueError, match="exceeds the double range"):
        answer(lp_module.LPSolution("optimal", Fraction(2**1100, 3), {4: Fraction(1)}))


def test_float_ray_at_a_regressed_shape_is_answered_exactly():
    # the float master's Farkas ray at (2, 26, 12, 4) claims no point; the
    # exact model has one
    with pytest.raises(InfeasibleRelaxationError):
        lp_module.solve_lp(2, 26, 12, 4, False)
    exact = lp_dimension_bound(2, 26, 12, 4)
    result = lp_dimension_bound(2, 26, 12, 4, mode="float")
    assert math.isclose(result.value, 3.15025253943293, abs_tol=1e-12)
    assert math.isclose(result.value, exact.value, rel_tol=1e-12)
