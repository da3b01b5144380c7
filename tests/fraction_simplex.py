"""Reference oracles for the exact LP on an `LPModel`.

`reference_solve` is a two-phase Bland simplex on a tableau of `Fraction`s,
each row normalized so its basic entry is 1: the straightforward rational
tableau that `availcodes.lp` solved with before its rows became
content-reduced integers.  The pivot rules are the same, so on every model
the two must reach the same vertex and report the same status.

`exact_solve` is the package's integer simplex on the A-space model with no
work limit, the oracle of the B-space `lp_dimension_bound`; it is several
times faster than the Fraction tableau on the weight LP.  Its dual prices
are checked in integers by `certificate_violations`: the B-space solve
prices its columns with the same simplex's duals.
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
    neg_rows = [i for i in range(m) if rhs[i] < 0]
    n_art = len(neg_rows)
    total = nv + m + n_art
    tableau: list[list] = []
    basis: list[int] = []
    art_pos = {row_i: nv + m + a for a, row_i in enumerate(neg_rows)}
    for i in range(m):
        coeffs = [Fraction(c) for c in rows[i]]
        b = Fraction(rhs[i])
        slack = one
        if i in art_pos:
            coeffs = [-c for c in coeffs]
            b = -b
            slack = -one
        row = coeffs + [zero] * (m + n_art) + [b]
        row[nv + i] = slack
        if i in art_pos:
            row[art_pos[i]] = one
            basis.append(art_pos[i])
        else:
            basis.append(nv + i)
        tableau.append(row)

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

    def run(obj_row, active):
        while True:
            enter = next((j for j in range(active) if obj_row[j] < 0), None)
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

    def make_obj_row(cost):
        row = [-c for c in cost] + [zero]
        for i, b in enumerate(basis):
            cb = cost[b]
            if cb != zero:
                row = [v + cb * w for v, w in zip(row, tableau[i])]
        return row

    if n_art:
        obj_row = make_obj_row([zero] * (nv + m) + [-one] * n_art)
        if run(obj_row, total) == "unbounded":
            raise RuntimeError("phase 1 reported unbounded")
        if obj_row[-1] < 0:
            return "infeasible", None, []
        for i in range(m):
            if basis[i] >= nv + m:
                enter = next((j for j in range(nv + m) if tableau[i][j] != 0), None)
                if enter is not None:
                    pivot(i, enter, obj_row)
                else:
                    tableau[i] = [zero] * (total + 1)
    obj_row = make_obj_row([Fraction(c) for c in obj] + [zero] * (m + n_art))
    if run(obj_row, nv + m) == "unbounded":
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


def exact_solve(model: LPModel) -> tuple[LPSolution, list]:
    """The model solved by `lp._simplex_max` in exact mode, and its prices:
    one per constraint, the dual vector at the optimum and phase 1's Farkas
    ray when the model is infeasible ([] when unbounded)."""
    rows = [c.coeffs for c in model.constraints]
    rhs = [c.rhs for c in model.constraints]
    status, value, x, y, _ = lp._simplex_max(
        model.objective, rows, rhs, exact=True, work_limit=math.inf
    )
    return _solution(model, status, value, x), y


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
