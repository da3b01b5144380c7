"""Reference oracles for the exact LP on an `LPModel`.

`reference_solve` is the straightforward rational tableau, one `Fraction`
row per basic variable normalized so its basic entry is 1, under the pivot
rules of `availcodes.lp._Master` from the slack basis: dual pivots to
a point (the lowest-numbered negative basic variable leaves, the least
ratio of objective entry to negated row entry enters, ties to the lowest
index), holding out the columns that price negative unless one of them is
needed, when they go on with those columns priced at 0; then Bland's
primal pivots.  The rules are the same, so on every model the two must reach the
same vertex and report the same status.

`slack_master` states a model as the package's integer master tableau at
its slack basis, and `master_solve` reads a master's solve as a model's
solution and prices; tests grow a solved master with more rows and columns
and solve it again.  `exact_solve` is that master on the A-space model with
no work limit, the oracle of the B-space `lp_dimension_bound`; it is
several times faster than the Fraction tableau on the weight LP.  Its dual
prices are checked in integers by `certificate_violations`: the B-space
solve prices its columns with the same master's duals.
"""

from __future__ import annotations

import math
from fractions import Fraction

from availcodes import lp
from availcodes.lp import LPModel, LPSolution


def _simplex_max(obj, rows, rhs):
    """maximize obj.x  s.t.  rows[i].x <= rhs[i], x >= 0  (rhs of any sign)."""
    zero, one = Fraction(0), Fraction(1)
    nv = len(obj)
    m = len(rows)
    total = nv + m
    tableau: list[list] = []
    for i in range(m):
        row = [Fraction(c) for c in rows[i]] + [zero] * m + [Fraction(rhs[i])]
        row[nv + i] = one
        tableau.append(row)
    basis = list(range(nv, total))

    def pivot(pr, pc, obj_row):
        inv = one / tableau[pr][pc]
        tableau[pr] = [v * inv for v in tableau[pr]]
        for i in range(m):
            if i != pr:
                f = tableau[i][pc]
                if f != zero:
                    tableau[i] = [v - f * w for v, w in zip(tableau[i], tableau[pr])]
        f = obj_row[pc]
        if f != zero:
            obj_row[:] = [v - f * w for v, w in zip(obj_row, tableau[pr])]
        basis[pr] = pc

    def run(obj_row):
        while True:
            enter = next((j for j in range(total) if obj_row[j] < 0), None)
            if enter is None:
                return "optimal"
            leave = None
            best_ratio = None
            for i in range(m):
                a = tableau[i][enter]
                if a > 0:
                    ratio = tableau[i][-1] / a
                    if (
                        leave is None
                        or ratio < best_ratio
                        or (ratio == best_ratio and basis[i] < basis[leave])
                    ):
                        best_ratio = ratio
                        leave = i
            if leave is None:
                return "unbounded"
            pivot(leave, enter, obj_row)

    def run_dual(obj_row, hold):
        while True:
            negative = [(basis[i], i) for i in range(m) if tableau[i][-1] < 0]
            if not negative:
                return None
            leave = min(negative)[1]
            row = tableau[leave]
            candidates = [j for j in range(total) if row[j] < 0 and j not in hold]
            if not candidates:
                return leave
            pivot(leave, min(candidates, key=lambda j: (obj_row[j] / -row[j], j)), obj_row)

    def make_obj_row(cost):
        row = [-c for c in cost] + [zero]
        for i, b in enumerate(basis):
            cb = cost[b]
            if cb != zero:
                row = [v + cb * w for v, w in zip(row, tableau[i])]
        return row

    cost = [Fraction(c) for c in obj] + [zero] * m
    obj_row = make_obj_row(cost)
    hold = {j for j in range(total) if obj_row[j] < 0}
    ray = run_dual(obj_row, hold)
    if ray is not None and hold:
        ray = run_dual([max(v, zero) for v in obj_row[:-1]] + obj_row[-1:], set())
        obj_row = make_obj_row(cost)
    if ray is not None:
        return "infeasible", None, []
    if run(obj_row) == "unbounded":
        return "unbounded", None, []
    x = [zero] * nv
    for i, b in enumerate(basis):
        if b < nv:
            x[b] = tableau[i][-1]
    return "optimal", obj_row[-1], x


def _solution(model: LPModel, status: str, value, x: list) -> LPSolution:
    if status != "optimal":
        return LPSolution(status=status, value=None, variables={})
    return LPSolution(status, model.objective_offset + value, dict(zip(model.weight_indices, x)))


def reference_solve(model: LPModel) -> LPSolution:
    """The model solved on the Fraction tableau."""
    rows = [c.coeffs for c in model.constraints]
    rhs = [c.rhs for c in model.constraints]
    return _solution(model, *_simplex_max(list(model.objective), rows, rhs))


def slack_master(model: LPModel, work_limit: float = math.inf) -> lp._Master:
    """The model's `lp._Master` at its slack basis: variable j is (0, j) and
    constraint i's slack (1, i), so the keys sort as the reference numbers
    its variables."""
    master = lp._Master(work_limit)
    for j, c in enumerate(model.objective):
        master.add_column((0, j), c, {})
    for i, c in enumerate(model.constraints):
        master.add_row((1, i), {(0, j): a for j, a in enumerate(c.coeffs)}, c.rhs)
    return master


def master_solve(master: lp._Master, model: LPModel) -> tuple[LPSolution, list]:
    """The master solved, as the model's solution, and its prices: one per
    constraint, the dual vector at the optimum and a Farkas ray when the
    model is infeasible ([] when unbounded)."""
    status, value, x, y = master.solve()
    point = [x.get((0, j), Fraction(0)) for j in range(model.num_vars)]
    rows = range(len(model.constraints))
    prices = [] if status == "unbounded" else [y.get((1, i), Fraction(0)) for i in rows]
    return _solution(model, status, value, point), prices


def exact_solve(model: LPModel) -> tuple[LPSolution, list]:
    """The model solved by its slack-basis master, and its prices."""
    return master_solve(slack_master(model), model)


def certificate_violations(model: LPModel, value, dual: list) -> list[str]:
    """What the dual vector fails to prove, in integers and without the
    simplex; an empty list proves the LP optimum is at most `value`.

    With D the least common denominator of the prices y and of
    value - offset, and Y = D*y: `dual_<label>` names a row with Y_i < 0,
    `cover_<i>` the variable A_i where sum_i Y_i * coeffs_i < D * objective,
    and `value` is listed unless sum_i Y_i * rhs_i = D * (value - offset).
    By weak duality every feasible point then has objective at most value.
    """
    if len(dual) != len(model.constraints):
        raise ValueError("need one price per constraint")
    gap = Fraction(value) - model.objective_offset
    (*big_y, big_gap), d = lp._common_scale([Fraction(y) for y in dual] + [gap])
    rows = model.constraints
    bad = [f"dual_{c.label or i}" for i, (c, y) in enumerate(zip(rows, big_y)) if y < 0]
    for k, (i, c_k) in enumerate(zip(model.weight_indices, model.objective)):
        if sum(y * c.coeffs[k] for y, c in zip(big_y, rows)) < d * c_k:
            bad.append(f"cover_{i}")
    if sum(y * c.rhs for y, c in zip(big_y, rows)) != big_gap:
        bad.append("value")
    return bad


def farkas_violations(model: LPModel, ray: list) -> list[str]:
    """The conditions of an infeasibility proof the ray fails: y >= 0,
    y . coeffs >= 0 for every variable and y . rhs < 0."""
    rows = model.constraints
    bad = ["sign"] if any(y < 0 for y in ray) else []
    for k in range(model.num_vars):
        if sum(y * c.coeffs[k] for y, c in zip(ray, rows)) < 0:
            bad.append(f"cover_{k}")
    if sum(y * c.rhs for y, c in zip(ray, rows)) >= 0:
        bad.append("rhs")
    return bad
