"""The package's integer master tableau against the Fraction-tableau
reference in `fraction_simplex.py`: same status, same optimum and same
optimal vertex from the slack basis, and the same status and optimum when a
solved master grows by a row or a column.  Then the B-space solve of
`lp_dimension_bound` against that master on the A-space model of record
(`fraction_simplex.exact_solve`): same status and exact M, and an A-vector
that model accepts; and a pin of the B-space solve's every M, A-vector and
error on the small grids, which fixes the optimal A-vector printed where
the LP has several."""

import hashlib
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from availcodes import (
    InfeasibleRelaxationError,
    build_lp,
    lp_dimension_bound,
    point_violations,
)
from availcodes import lp as lp_module
from availcodes.lp import LPConstraint, LPModel
from fraction_simplex import (
    certificate_violations,
    exact_solve,
    farkas_violations,
    master_solve,
    reference_solve,
    slack_master,
)


def exact_solution(model):
    """The model's solution by `exact_solve`, without its prices."""
    return exact_solve(model)[0]


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
    got = exact_solution(model)
    assert got == reference_solve(model)
    if got.status == "optimal":
        assert isinstance(got.value, Fraction)
        assert all(isinstance(v, Fraction) for v in got.variables.values())


def _model(objective, rows, offset=0):
    """The LP max offset + objective.x over the `<=` rows (coeffs, rhs)."""
    return LPModel(
        num_vars=len(objective),
        objective_offset=offset,
        objective=tuple(objective),
        constraints=tuple(LPConstraint(tuple(c), b) for c, b in rows),
        meta={"q": 2, "n": len(objective), "t": 0},
    )


@st.composite
def grown_lps(draw):
    """A drawn LP and the same LP with a drawn row, a drawn column or both
    added, the new ones last."""
    model = draw(small_lps())
    add_row, add_column = draw(st.sampled_from([(True, False), (False, True), (True, True)]))
    entries = st.integers(-6, 6)
    rows = [(list(c.coeffs), c.rhs) for c in model.constraints]
    objective = list(model.objective)
    if add_column:
        for coeffs, _ in rows:
            coeffs.append(draw(entries))
        objective.append(draw(st.integers(-3, 3)))
    if add_row:
        coeffs = draw(st.lists(entries, min_size=len(objective), max_size=len(objective)))
        rows.append((coeffs, draw(st.one_of(st.just(0), st.integers(-12, 12)))))
    return model, _model(objective, rows, model.objective_offset)


def _grown_master(model, grown):
    """`model`'s master, solved, then grown by `grown`'s added column and
    row, whose keys sort after the old ones as the reference numbers them;
    and the first solve."""
    master = slack_master(model)
    first, _ = master_solve(master, model)
    old = range(len(model.constraints))
    for j in range(model.num_vars, grown.num_vars):
        coeffs = {(1, i): grown.constraints[i].coeffs[j] for i in old}
        master.add_column((0, j), grown.objective[j], coeffs)
    for i, c in enumerate(grown.constraints[len(old) :], len(old)):
        master.add_row((1, i), {(0, j): a for j, a in enumerate(c.coeffs)}, c.rhs)
    return master, first


@settings(max_examples=400, deadline=None)
@given(grown_lps())
def test_warm_start_matches_the_reference_on_the_grown_lp(pair):
    model, grown = pair
    got, y = master_solve(_grown_master(model, grown)[0], grown)
    expect = reference_solve(grown)
    assert got.status == expect.status
    if got.status == "optimal":  # the vertex may differ where the optimum is not unique
        assert got.value == expect.value
        assert point_violations(grown, got.variables) == []
        assert certificate_violations(grown, expect.value, y) == []
    elif got.status == "infeasible":
        assert farkas_violations(grown, y) == []
    else:
        assert y == []


def test_a_cut_that_empties_the_master_gives_a_warm_farkas_ray():
    # max x + y on x + y <= 4, x <= 3 ends on a basis with x and y; the cut
    # x + y >= 5 keeps it dual feasible, and one dual ratio test finds the ray
    model = _model([1, 1], [([1, 1], 4), ([1, 0], 3)])
    grown = _model([1, 1], [([1, 1], 4), ([1, 0], 3), ([-1, -1], -5)])
    master, first = _grown_master(model, grown)
    assert (first.status, first.value) == ("optimal", 4)
    basis = sorted(master.basis)
    got, ray = master_solve(master, grown)
    assert got == lp_module.LPSolution("infeasible", None, {})
    assert farkas_violations(grown, ray) == [] and max(ray) == 1
    assert sorted(master.basis) == basis  # no pivot after the row joins
    assert reference_solve(grown).status == "infeasible"


@pytest.mark.parametrize("r", (3, 4, 5, 6))
def test_weight_lp_matches_fraction_reference(r):
    model = build_lp(2, (r + 1) ** 2, r, 3)
    got = exact_solution(model)
    assert got.status == "optimal"
    assert got == reference_solve(model)


# -- the B-space solve of `lp_dimension_bound` against the A-space model --


def _weight_lp_points(q, n_max):
    """Every (q, n, r, t) with t <= 5 and n <= n_max that `build_lp` takes."""
    return [
        (q, n, r, t)
        for n in range(2, n_max + 1)
        for t in range(1, min(n, 5) + 1)
        for r in range(1, n)
        if (n * t) % (r + 1) == 0
    ]


# the t=3 family and shapes off it; the start support alone is infeasible
# at (4, 36, 5, 3) and (5, 25, 4, 2)
_OFF_FAMILY = [(2, 36, 5, 2), (2, 24, 3, 2), (3, 16, 3, 2), (4, 36, 5, 3), (5, 25, 4, 2),
               (2, 30, 4, 3), (3, 25, 4, 2)]


@pytest.mark.parametrize("q, n_max", [(2, 20), (3, 16), (4, 14)])
def test_dual_space_matches_the_a_space_model(q, n_max):
    for point in _weight_lp_points(q, n_max) + [p for p in _OFF_FAMILY if p[0] == q]:
        model = build_lp(*point)
        oracle = exact_solution(model)
        try:
            got = lp_dimension_bound(*point).solution
        except InfeasibleRelaxationError:
            assert oracle.status == "infeasible", point
            continue
        assert (got.status, got.value) == (oracle.status, oracle.value), point
        assert point_violations(model, got.variables) == [], point
        assert 1 + sum(got.variables.values()) == got.value, point


def _outcome(point) -> str:
    """The shape, then its exact M and A-vector or the class of its error."""
    try:
        sol = lp_module.solve_lp(*point)
    except ValueError as exc:  # infeasible relaxations and budget stops
        return f"{point} {type(exc).__name__}"
    return f"{point} {sol.value} {' '.join(map(str, sol.variables.values()))}"


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def test_dual_space_outcomes_are_pinned():
    # the 717 shapes of the grids above; where the LP has more than one
    # optimal A the ties of the master's pivot rules pick the one printed,
    # so a change to the variables' order or to a rule shows here
    points = _weight_lp_points(2, 20) + _weight_lp_points(3, 16) + _weight_lp_points(4, 14)
    assert len(points) == 717
    outcomes = "\n".join(map(_outcome, points))
    assert _digest(outcomes) == "20cedee2694550abbbc7fdf2ee387bbff69191017fd8257ec3fefe4929e30530"
    # a shape where the columns taken in the order they joined the master
    # print another optimal A-vector with the same M
    a = lp_module.solve_lp(2, 256, 3, 4).variables
    assert _digest(" ".join(map(str, a.values()))) == (
        "9aa882b6c66c2577345980fac367241ef1b5a0edffaf7a63ce965c16958c33e9"
    )


@pytest.mark.parametrize("r", (3, 4, 5, 6))
def test_dual_space_gives_the_a_space_optimum_on_lp3_rows(r):
    n = (r + 1) ** 2
    assert lp_dimension_bound(2, n, r, 3).solution == exact_solution(build_lp(2, n, r, 3))


# every lp3 row within the default --rmax, and a shape off the t=3 family
_FLOAT_POINTS = [(2, (r + 1) ** 2, r, 3) for r in range(3, 28)] + [(4, 36, 5, 3)]


@pytest.mark.parametrize("point", _FLOAT_POINTS)
def test_float_dual_space_agrees_with_exact(point):
    # float mode is the certified exact optimum, each number rounded once
    exact = lp_dimension_bound(*point)
    approx = lp_dimension_bound(*point, mode="float")
    assert approx.diagnostics["mode"] == "float"
    assert approx.value == exact.value
    assert approx.solution.value == float(exact.solution.value)
    assert approx.solution.variables == {i: float(v) for i, v in exact.solution.variables.items()}


# (q, r, t) = (2, 2, 5), where the A-space model answers exactly in about
# 0.5 s each and the exact B-space master in 0.15 s (3.7 and 4.1 * 10^7
# units of simplex work)
_DENSE = [(2, 60, 2, 5), (2, 66, 2, 5)]


@pytest.mark.parametrize("point", _DENSE)
def test_dense_shapes_match_the_a_space_model(point):
    model = build_lp(*point)
    oracle = exact_solution(model)
    assert oracle.status == "optimal"
    exact = lp_dimension_bound(*point).solution
    assert exact.value == oracle.value
    assert point_violations(model, exact.variables) == []
    approx = lp_dimension_bound(*point, mode="float").solution
    assert approx.value == float(oracle.value)
    assert approx.variables == {i: float(v) for i, v in exact.variables.items()}
