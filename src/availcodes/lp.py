"""Linear program over weight-distribution variables and its dimension bound.

The model maximizes 1 + sum A_i over A_{t+1}..A_n subject to nonnegativity
of the code's and the dual's weight counts plus the structural rows coming
from sums of one or two parity rows.  Constraints stated on dual counts are
folded into A-space through the weight-distribution transform, so every
row is a `<=` row of exact integers, read off one Krawtchouk column per
variable; the default solver is exact rational.

Sums of three or more parity rows would contribute further valid rows;
they are deliberately not modeled here.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Sequence

from .bounds import BoundResult, _check_block_length, _check_locality
from .weights import krawtchouk_column

DEFAULT_PIVOT_LIMIT = 200_000
FLOAT_TOL = 1e-9


class PivotLimitError(RuntimeError):
    """The simplex exceeded its pivot budget (distinct from infeasibility)."""


class InfeasibleRelaxationError(ValueError):
    """The relaxation admits no point: no code exists under these constraints."""


@dataclass(frozen=True)
class LPConstraint:
    """The row coeffs . x <= rhs, in integers."""

    coeffs: tuple[int, ...]
    rhs: int
    label: str = ""


@dataclass(frozen=True)
class LPModel:
    """Variables are A_i for i = t+1..n; lower weights are pinned to zero
    because the minimum distance is at least t+1.  Nonnegativity of the
    variables is implicit in the solver's standard form."""

    num_vars: int
    objective_offset: int
    objective: tuple[int, ...]
    constraints: tuple[LPConstraint, ...]
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        if not all(type(v) is int for v in (self.objective_offset, *self.objective)):
            raise ValueError("the objective must hold integers")
        for c in self.constraints:
            if len(c.coeffs) != self.num_vars:
                raise ValueError(f"constraint {c.label!r} has wrong arity")
            if not all(type(v) is int for v in (*c.coeffs, c.rhs)):
                raise ValueError(f"constraint {c.label!r} must hold integers")

    @property
    def weight_indices(self) -> range:
        t = self.meta["t"]
        return range(t + 1, self.meta["n"] + 1)


@dataclass(frozen=True)
class LPSolution:
    """`dual` holds one price per model constraint, in the constraints'
    order, when the status is optimal: y >= 0 with y . coeffs >= objective
    and y . rhs = value - objective_offset (see `certificate_violations`)."""

    status: str  # optimal | infeasible | unbounded
    value: Fraction | float | None
    variables: dict
    dual: tuple = ()


@dataclass(frozen=True)
class LPBoundResult(BoundResult):
    """The LP dimension bound together with the solve it came from:
    `solution.value` is the optimum M (a Fraction in exact mode) and
    `solution.variables` the optimal A-vector."""

    solution: LPSolution = field(kw_only=True)


def build_lp(q: int, n: int, r: int, t: int) -> LPModel:
    """Assemble the weight-distribution LP at (q, n, r, t).

    Rows: dual-count nonnegativity for every transform degree j = 0..n, the
    two-row-sum counts at weights 2r (only for r > 2) and 2(r+1), and the
    row-count lower bound on the dual count at weight r+1.  Every row is
    stated as `<=`: the dual-count rows K_j . A >= -(q-1)^j C(n, j) enter
    negated.  No cap A_i <= (q-1)^i C(n, i) is needed: with M = 1 + sum A,
    the dual counts B_j = K_j . A / M are nonnegative and sum to q^n / M,
    so A_i = (M / q^n) sum_j B_j K_i(j) <= K_i(0) = (q-1)^i C(n, i), as
    |K_i(j)| <= K_i(0).
    """
    if q < 2:
        raise ValueError(f"need q >= 2, got {q}")
    _check_locality(r, t)
    if n < t:
        raise ValueError(f"need n >= t, got n={n}, t={t}")
    _check_block_length(n, r)
    if (n * t) % (r + 1):
        raise ValueError(f"r+1 = {r + 1} must divide nt = {n * t}")
    m = n * t // (r + 1)
    idx = range(t + 1, n + 1)
    columns = [krawtchouk_column(q, n, i) for i in idx]
    kraw = [[column[j] for column in columns] for j in range(n + 1)]  # K_j(i), i in idx

    def volume(w: int) -> int:
        """(q-1)^w C(n, w), the number of words of weight w."""
        return (q - 1) ** w * math.comb(n, w)

    constraints = [
        LPConstraint(tuple(-k for k in kraw[j]), volume(j), f"dual_nonneg_{j}")
        for j in range(n + 1)
    ]

    def at_least(count: int, w: int, label: str) -> LPConstraint:
        """The dual count at weight w is at least `count`, in A-space."""
        coeffs = tuple(count - k for k in kraw[w])
        return LPConstraint(coeffs, volume(w) - count, label)

    pair_count = n * math.comb(t, 2)
    if r > 2 and 2 * r <= n:
        constraints.append(at_least(pair_count, 2 * r, "pair_sum_2r"))
    if r >= 2 and 2 * (r + 1) <= n:
        # distinctness of disjoint-pair sums needs row weight >= 3: with
        # weight-2 rows two disjoint pairs can sum to the same codeword
        lower = math.comb(m, 2) - pair_count
        constraints.append(at_least(lower, 2 * (r + 1), "pair_sum_2r2"))
    # row-count bound on the dual count at weight r+1
    constraints.append(at_least(m, r + 1, "row_count"))

    return LPModel(
        num_vars=len(idx),
        objective_offset=1,
        objective=(1,) * len(idx),
        constraints=tuple(constraints),
        meta={"q": q, "n": n, "r": r, "t": t, "m": m},
    )


def point_violations(model: LPModel, a_by_weight: dict[int, int | Fraction]) -> list[str]:
    """Labels of constraints an A-vector violates (exact arithmetic).

    `a_by_weight` maps weight i to A_i for i = t+1..n; raises if a positive
    count sits at a pinned weight 1..t.
    """
    t, n = model.meta["t"], model.meta["n"]
    for i in range(1, t + 1):
        if a_by_weight.get(i):
            raise ValueError(f"A_{i} must be zero: weights 1..{t} are pinned")
    x = [Fraction(a_by_weight.get(i, 0)) for i in model.weight_indices]
    bad = [f"nonneg_{i}" for i, v in zip(model.weight_indices, x) if v < 0]
    for c in model.constraints:
        if sum(cf * v for cf, v in zip(c.coeffs, x)) > c.rhs:
            bad.append(c.label)
    return bad


def certificate_violations(model: LPModel, solution: LPSolution) -> list[str]:
    """What the solution's dual vector fails to prove, in integers and
    without the simplex; an empty list proves the LP optimum is at most
    `solution.value`.

    With D the least common denominator of the prices y and of
    value - offset, and Y = D*y: `dual_<label>` names a row with Y_i < 0,
    `cover_<i>` the variable A_i where sum_i Y_i * coeffs_i < D * objective,
    and `value` is listed unless sum_i Y_i * rhs_i = D * (value - offset).
    By weak duality every feasible point then has objective at most value.
    """
    if solution.status != "optimal" or len(solution.dual) != len(model.constraints):
        raise ValueError("need an optimal solution with one price per constraint")
    prices = [Fraction(y) for y in solution.dual]
    gap = Fraction(solution.value) - model.objective_offset
    d = math.lcm(gap.denominator, *(y.denominator for y in prices))
    big_y = [y.numerator * (d // y.denominator) for y in prices]
    rows = model.constraints
    bad = [f"dual_{c.label or i}" for i, (c, y) in enumerate(zip(rows, big_y)) if y < 0]
    for k, (i, c_k) in enumerate(zip(model.weight_indices, model.objective)):
        if sum(y * c.coeffs[k] for y, c in zip(big_y, rows)) < d * c_k:
            bad.append(f"cover_{i}")
    if sum(y * c.rhs for y, c in zip(big_y, rows)) != gap.numerator * (d // gap.denominator):
        bad.append("value")
    return bad


# -- two-phase simplex --------------------------------------------------


def _reduce_content(row: list[int]) -> list[int]:
    """Exact-mode rescale: divide out the gcd of the row's entries."""
    g = math.gcd(*row)
    return row if g == 1 else [v // g for v in row]


def _unit_scale(row: list[float]) -> list[float]:
    """Float-mode rescale: divide by the row's scale, which becomes exactly 1."""
    p = row[-2]
    if p == 1.0:
        return row
    inv = 1.0 / p
    row = [v * inv for v in row]
    row[-2] = 1.0
    return row


def _simplex_max(
    obj: Sequence,
    rows: list[list],
    rhs: list,
    *,
    exact: bool,
    pivot_limit: int,
) -> tuple[str, object, list, list]:
    """maximize obj.x  s.t.  rows[i].x <= rhs[i], x >= 0  (rhs of any sign).

    Returns (status, value, x, y); at the optimum y is the dual vector, one
    price per row: y >= 0, y.rows >= obj and y.rhs = value.

    Variables are numbered structural 0..nv-1, then one slack per row, then
    one artificial per row whose right side is negative; such a row is
    negated, its artificial starts basic and phase 1 drives the artificials
    to zero.  Bland's rule picks the lowest-numbered entering variable and
    breaks ratio ties by the lowest-numbered leaving one.

    The tableau is compact: one column per nonbasic variable, `nonbasic[j]`
    being column j's, and one row per basic variable.  Row i is
    `[a_i0, .., a_i(w-1), s_i, b_i]`, the equation

        s_i * x[basis[i]] + sum_j a_ij * x[nonbasic[j]] = b_i,

    with the scale s_i > 0, so a basic value is b_i / s_i and a sign test
    needs no division.  The objective row has the same layout with z in
    place of the basic variable; at the optimum its entry at a slack's
    column over its scale is that row's dual price (0 for a basic slack).

    A pivot on row r and column e swaps their variables: the pivot row's
    entry at e becomes its old scale and its scale the pivot element
    (negated throughout if negative).  Every other row with f = row[e] != 0
    becomes p*row - f*pivot_row, with p the pivot row's new scale and
    row[e] read as 0: a positive multiple of its rational row again.
    Exact mode keeps Python ints, divides p and f by their gcd first and
    the result by the gcd of its entries; float mode divides each row by
    its scale, which keeps every scale at 1.0.  Artificial columns are
    dropped after phase 1, as no artificial re-enters.
    """
    if exact:
        zero, one, tol, feas_tol = 0, 1, 0, 0
        rescale, quotient = _reduce_content, Fraction
    else:
        zero, one, tol, feas_tol = 0.0, 1.0, FLOAT_TOL, 1e-7
        rescale, quotient = _unit_scale, operator.truediv
    nv = len(obj)
    m = len(rows)
    neg_rows = [i for i in range(m) if rhs[i] < -tol]
    n_art = len(neg_rows)
    # a negated row's slack starts nonbasic, with coefficient -1
    nonbasic = list(range(nv)) + [nv + i for i in neg_rows]
    art = {row_i: a for a, row_i in enumerate(neg_rows)}
    tableau: list[list] = []
    basis: list[int] = []
    for i in range(m):
        if i in art:
            row = [-c for c in rows[i]] + [zero] * n_art + [one, -rhs[i]]
            row[nv + art[i]] = -one
            basis.append(nv + m + art[i])
        else:
            row = list(rows[i]) + [zero] * n_art + [one, rhs[i]]
            basis.append(nv + i)
        tableau.append(row)

    def eliminate(row: list, f, prow: list) -> list:
        """p*row - f*prow with p = prow's scale, and p times row's scale as
        the scale: `row` with the variable whose coefficient is f
        substituted through the pivot row `prow`."""
        if not exact:  # every scale is 1.0
            new = [v - f * w for v, w in zip(row, prow)]
            new[-2] = one
            return new
        p = prow[-2]
        g = math.gcd(p, f)
        if g != 1:
            p //= g
            f //= g
        new = [p * v - f * w for v, w in zip(row, prow)]
        new[-2] = p * row[-2]
        return _reduce_content(new)

    pivots_used = 0

    def pivot(pr: int, pc: int, obj_row: list) -> None:
        nonlocal pivots_used
        pivots_used += 1
        if pivots_used > pivot_limit:
            raise PivotLimitError(f"exceeded {pivot_limit} pivots")
        prow = tableau[pr]
        prow[pc], prow[-2] = prow[-2], prow[pc]
        if prow[-2] < zero:
            prow = [-v for v in prow]
        prow = tableau[pr] = rescale(prow)
        basis[pr], nonbasic[pc] = nonbasic[pc], basis[pr]
        for i, row in enumerate(tableau):
            f = row[pc]
            if f != zero and i != pr:
                row[pc] = zero
                tableau[i] = eliminate(row, f, prow)
        f = obj_row[pc]
        if f != zero:
            obj_row[pc] = zero
            obj_row[:] = eliminate(obj_row, f, prow)

    def lowest(candidates) -> int | None:
        """The column of the lowest-numbered variable among (variable, column) pairs."""
        best = min(candidates, default=None)
        return None if best is None else best[1]

    def run(obj_row: list) -> str:
        while True:
            enter = lowest(
                (v, j) for j, v in enumerate(nonbasic) if obj_row[j] < -tol
            )
            if enter is None:
                return "optimal"
            # minimum ratio row[-1] / row[enter]; a row's scale cancels, so
            # candidates compare by cross-multiplication
            leave = None
            for i, row in enumerate(tableau):
                a = row[enter]
                if a > tol and (
                    leave is None
                    or (cmp := row[-1] * best_a - best_b * a) < 0
                    or (cmp == 0 and basis[i] < basis[leave])
                ):
                    leave, best_b, best_a = i, row[-1], a
            if leave is None:
                return "unbounded"
            pivot(leave, enter, obj_row)

    def make_obj_row(cost: list) -> list:
        """z - cost.x = 0 with the basic variables substituted out; a basic
        variable not yet substituted has coefficient -cost * scale."""
        row = [-cost[v] for v in nonbasic] + [one, zero]
        for prow, b in zip(tableau, basis):
            if cost[b] != zero:
                row = eliminate(row, -cost[b] * row[-2], prow)
        return row

    if n_art:
        obj_row = make_obj_row([zero] * (nv + m) + [-one] * n_art)
        status = run(obj_row)
        if status == "unbounded":
            raise RuntimeError(
                "phase 1 reported unbounded, but its objective -sum(artificials)"
                " is bounded above by 0"
            )
        # the objective row's scale is positive (exact) or 1 (float)
        if obj_row[-1] < -feas_tol:
            return "infeasible", None, [], []
        # drive leftover artificial basics out, dropping redundant rows
        for i, row in enumerate(tableau):
            if basis[i] >= nv + m:
                enter = lowest(
                    (v, j)
                    for j, v in enumerate(nonbasic)
                    if v < nv + m and abs(row[j]) > tol
                )
                if enter is not None:
                    pivot(i, enter, obj_row)
                else:
                    tableau[i] = [zero] * len(row)
        keep = [j for j, v in enumerate(nonbasic) if v < nv + m]
        nonbasic = [nonbasic[j] for j in keep]
        keep += [-2, -1]
        tableau[:] = [[row[j] for j in keep] for row in tableau]
    obj_row = make_obj_row(list(obj) + [zero] * (m + n_art))
    if run(obj_row) == "unbounded":
        return "unbounded", None, [], []
    x = [quotient(zero, one)] * nv  # Fraction(0) or 0.0
    y = [quotient(zero, one)] * m
    for row, b in zip(tableau, basis):
        if b < nv:
            x[b] = quotient(row[-1], row[-2])
    for d, v in zip(obj_row, nonbasic):
        if v >= nv:
            y[v - nv] = quotient(d, obj_row[-2])
    return "optimal", quotient(obj_row[-1], obj_row[-2]), x, y


def solve_lp(
    model: LPModel, mode: str = "exact", pivot_limit: int = DEFAULT_PIVOT_LIMIT
) -> LPSolution:
    """Solve the model; `mode` is "exact" (rational) or "float".

    Exact mode pivots on the model's integer rows as they are.  Float mode
    normalizes each row by its largest absolute coefficient and works to a
    1e-9 feasibility tolerance; it raises ValueError when an entry is
    beyond the double range.
    """
    if mode not in ("exact", "float"):
        raise ValueError(f"mode must be 'exact' or 'float', got {mode!r}")
    exact = mode == "exact"
    obj = model.objective
    rows = [c.coeffs for c in model.constraints]
    rhs = [c.rhs for c in model.constraints]
    if not exact:
        try:
            obj = [float(v) for v in obj]
            rows = [[float(v) for v in coeffs] for coeffs in rows]
            rhs = [float(b) for b in rhs]
        except OverflowError:
            raise ValueError(
                "float mode cannot hold this model: an entry exceeds the double "
                "range; use exact mode"
            ) from None
        scales = [max([abs(v) for v in fr] + [abs(fb), 1.0]) for fr, fb in zip(rows, rhs)]
        rows = [[v / scale for v in fr] for fr, scale in zip(rows, scales)]
        rhs = [fb / scale for fb, scale in zip(rhs, scales)]
    status, value, x, y = _simplex_max(
        obj, rows, rhs, exact=exact, pivot_limit=pivot_limit
    )
    if status != "optimal":
        return LPSolution(status=status, value=None, variables={})
    if not exact:  # the prices of the normalized rows, back on the model's rows
        y = [v / scale for v, scale in zip(y, scales)]
    return LPSolution(
        status="optimal",
        value=model.objective_offset + value,
        variables=dict(zip(model.weight_indices, x)),
        dual=tuple(y),
    )


def lp_dimension_bound(q: int, n: int, r: int, t: int, mode: str = "exact") -> LPBoundResult:
    """k <= log_q(M) where M is the LP optimum; M rides along in the
    diagnostics as a string and in the result's `solution`.  Raises
    InfeasibleRelaxationError when even the relaxation is empty."""
    model = build_lp(q, n, r, t)
    sol = solve_lp(model, mode=mode)
    if sol.status == "infeasible":
        raise InfeasibleRelaxationError(
            f"no code exists under relaxation at (q={q}, n={n}, r={r}, t={t})"
        )
    if sol.status == "unbounded" and mode == "float":
        # the dual_nonneg rows sum to M * sum_j B_j = q^n, so M <= q^n
        raise RuntimeError(
            f"float simplex reported unbounded, but the model is bounded by "
            f"q^n = {q}^{n}: a numerical failure; use exact mode"
        )
    if sol.status != "optimal":
        raise RuntimeError(f"unexpected LP status {sol.status}")
    m_value = sol.value
    try:
        m_float = float(m_value)
    except OverflowError:  # an exact M beyond the double range
        bound = (math.log(m_value.numerator) - math.log(m_value.denominator)) / math.log(q)
    else:
        bound = math.log(m_float, q) if m_float > 0 else 0.0
    diagnostics = {"status": "optimal", "mode": mode}
    if isinstance(m_value, Fraction):
        diagnostics["M"] = f"{m_value.numerator}/{m_value.denominator}"
    else:
        diagnostics["M"] = repr(m_value)
    return LPBoundResult(
        "lp_dim",
        {"q": q, "n": n, "r": r, "t": t},
        None,
        "dimension",
        value=bound,
        diagnostics=diagnostics,
        solution=sol,
    )
