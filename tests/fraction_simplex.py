"""Reference oracle for the exact LP: a two-phase Bland simplex on a tableau
of `Fraction`s, each row normalized so its basic entry is 1.

This is the straightforward rational tableau that `availcodes.lp` solved
with before its rows became content-reduced integers.  The pivot rules are
the same, so on every model the two must reach the same vertex, raise
`PivotLimitError` at the same pivot budget, and report the same status.
"""

from __future__ import annotations

from fractions import Fraction

from availcodes.lp import LPModel, LPSolution, PivotLimitError


def _simplex_max(obj, rows, rhs, pivot_limit):
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

    pivots_used = 0

    def pivot(pr, pc, obj_row):
        nonlocal pivots_used
        pivots_used += 1
        if pivots_used > pivot_limit:
            raise PivotLimitError(f"exceeded {pivot_limit} pivots")
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


def reference_solve(model: LPModel, pivot_limit: int) -> LPSolution:
    """`solve_lp(model, mode="exact", pivot_limit=...)` on the Fraction tableau."""
    rows = [c.coeffs for c in model.constraints]
    rhs = [c.rhs for c in model.constraints]
    status, value, x = _simplex_max(list(model.objective), rows, rhs, pivot_limit)
    if status != "optimal":
        return LPSolution(status=status, value=None, variables={})
    return LPSolution(
        status="optimal",
        value=model.objective_offset + value,
        variables=dict(zip(model.weight_indices, x)),
    )
