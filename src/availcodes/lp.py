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

from .bounds import BoundResult, _check_locality
from .weights import binomial, krawtchouk_column

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
    status: str  # optimal | infeasible | unbounded
    value: Fraction | float | None
    variables: dict


@dataclass(frozen=True)
class LPBoundResult(BoundResult):
    """The LP dimension bound together with the solve it came from:
    `solution.value` is the optimum M (a Fraction in exact mode) and
    `solution.variables` the optimal A-vector."""

    solution: LPSolution = field(kw_only=True)


def build_lp(q: int, n: int, r: int, t: int, strengthen: bool = False) -> LPModel:
    """Assemble the weight-distribution LP at (q, n, r, t).

    Rows: dual-count nonnegativity for every transform degree j = 0..n, the
    two-row-sum counts at weights 2r (only for r > 2) and 2(r+1), and the
    row-count lower bound on the dual count at weight r+1.  `strengthen`
    adds the optional cap A_i <= (q-1)^i C(n, i).  Every row is stated as
    `<=`: the dual-count rows K_j . A >= -(q-1)^j C(n, j) enter negated.
    """
    if q < 2:
        raise ValueError(f"need q >= 2, got {q}")
    _check_locality(r, t)
    if n < t:
        raise ValueError(f"need n >= t, got n={n}, t={t}")
    if n < r + 1:
        raise ValueError(f"need n >= r+1, got n={n}, r={r}")
    if (n * t) % (r + 1):
        raise ValueError(f"r+1 = {r + 1} must divide nt = {n * t}")
    m = n * t // (r + 1)
    idx = range(t + 1, n + 1)
    columns = [krawtchouk_column(q, n, i) for i in idx]
    kraw = [[column[j] for column in columns] for j in range(n + 1)]  # K_j(i), i in idx

    def volume(w: int) -> int:
        """(q-1)^w C(n, w), the number of words of weight w."""
        return (q - 1) ** w * binomial(n, w)

    constraints = [
        LPConstraint(tuple(-k for k in kraw[j]), volume(j), f"dual_nonneg_{j}")
        for j in range(n + 1)
    ]

    def at_least(count: int, w: int, label: str) -> LPConstraint:
        """The dual count at weight w is at least `count`, in A-space."""
        coeffs = tuple(count - k for k in kraw[w])
        return LPConstraint(coeffs, volume(w) - count, label)

    pair_count = n * binomial(t, 2)
    if r > 2 and 2 * r <= n:
        constraints.append(at_least(pair_count, 2 * r, "pair_sum_2r"))
    if r >= 2 and 2 * (r + 1) <= n:
        # distinctness of disjoint-pair sums needs row weight >= 3: with
        # weight-2 rows two disjoint pairs can sum to the same codeword
        lower = binomial(m, 2) - pair_count
        constraints.append(at_least(lower, 2 * (r + 1), "pair_sum_2r2"))
    # row-count bound on the dual count at weight r+1
    constraints.append(at_least(m, r + 1, "row_count"))

    if strengthen:
        for pos, i in enumerate(idx):
            unit = tuple(int(p == pos) for p in range(len(idx)))
            constraints.append(LPConstraint(unit, volume(i), f"cap_{i}"))

    return LPModel(
        num_vars=len(idx),
        objective_offset=1,
        objective=(1,) * len(idx),
        constraints=tuple(constraints),
        meta={"q": q, "n": n, "r": r, "t": t, "m": m, "strengthen": strengthen},
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


# -- two-phase simplex --------------------------------------------------


def _reduce_content(row: list[int], basic: int) -> list[int]:
    """Exact-mode rescale: divide out the gcd of the row's entries."""
    g = math.gcd(*row)
    return row if g == 1 else [v // g for v in row]


def _unit_basic(row: list[float], basic: int) -> list[float]:
    """Float-mode rescale: divide by the basic entry, which becomes exactly 1."""
    p = row[basic]
    if p == 1.0:
        return row
    inv = 1.0 / p
    row = [v * inv for v in row]
    row[basic] = 1.0
    return row


def _simplex_max(
    obj: Sequence,
    rows: list[list],
    rhs: list,
    *,
    exact: bool,
    pivot_limit: int,
) -> tuple[str, object, list]:
    """maximize obj.x  s.t.  rows[i].x <= rhs[i], x >= 0  (rhs of any sign).

    Bland's rule on both the entering and leaving choices; two phases with
    artificial variables for rows whose right side is negative.

    Every tableau row, the objective row included, is stored as a positive
    multiple of its rational row: its basic entry is the row's scale, so a
    basic value is `row[-1] / row[basic]` and a sign test needs no division.
    The objective row is the row of an extra column `z` (index `total`,
    never entering) that no constraint row touches; its `z` entry is its
    denominator.  A pivot updates each row to `p*row - f*pivot_row`, a
    positive multiple again, and rescales it: exact mode keeps Python ints
    and divides out their gcd, float mode divides by the basic entry.  A
    starting row needs neither: its basic entry, a slack, artificial or
    `z` column, is 1.
    """
    if exact:
        zero, one, tol, feas_tol = 0, 1, 0, 0
        rescale, quotient = _reduce_content, Fraction
    else:
        zero, one, tol, feas_tol = 0.0, 1.0, FLOAT_TOL, 1e-7
        rescale, quotient = _unit_basic, operator.truediv
    nv = len(obj)
    m = len(rows)
    neg_rows = [i for i in range(m) if rhs[i] < -tol]
    n_art = len(neg_rows)
    total = nv + m + n_art
    width = total + 2  # columns, z, right-hand side
    tableau: list[list] = []
    basis: list[int] = []
    art_pos = {row_i: nv + m + a for a, row_i in enumerate(neg_rows)}
    for i in range(m):
        coeffs = list(rows[i])
        b = rhs[i]
        slack = one
        if i in art_pos:
            coeffs = [-c for c in coeffs]
            b = -b
            slack = -one
        row = coeffs + [zero] * (m + n_art + 1) + [b]
        row[nv + i] = slack
        if i in art_pos:
            row[art_pos[i]] = one
            basis.append(art_pos[i])
        else:
            basis.append(nv + i)
        tableau.append(row)

    def eliminate(row: list, basic: int, prow: list, pc: int) -> list:
        """`row` with column pc cleared by the pivot row `prow`."""
        f = row[pc]
        if f == zero:
            return row
        p = prow[pc]
        return rescale([p * v - f * w for v, w in zip(row, prow)], basic)

    pivots_used = 0

    def pivot(pr: int, pc: int, obj_row: list) -> None:
        nonlocal pivots_used
        pivots_used += 1
        if pivots_used > pivot_limit:
            raise PivotLimitError(f"exceeded {pivot_limit} pivots")
        prow = tableau[pr]
        if prow[pc] < zero:
            prow = [-v for v in prow]
        prow = tableau[pr] = rescale(prow, pc)
        basis[pr] = pc
        for i in range(m):
            if i != pr:
                tableau[i] = eliminate(tableau[i], basis[i], prow, pc)
        obj_row[:] = eliminate(obj_row, total, prow, pc)

    def run(obj_row: list, active: int) -> str:
        while True:
            enter = next(
                (j for j in range(active) if obj_row[j] < -tol), None
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
        """z - cost.x = 0 with the basic columns eliminated."""
        row = [-c for c in cost] + [one, zero]
        for i, b in enumerate(basis):
            row = eliminate(row, total, tableau[i], b)
        return row

    if n_art:
        cost1 = [zero] * (nv + m) + [-one] * n_art
        obj_row = make_obj_row(cost1)
        status = run(obj_row, total)
        if status == "unbounded":
            raise RuntimeError(
                "phase 1 reported unbounded, but its objective -sum(artificials)"
                " is bounded above by 0"
            )
        # the objective row's denominator is positive (exact) or 1 (float)
        if obj_row[-1] < -feas_tol:
            return "infeasible", None, []
        # drive leftover artificial basics out, dropping redundant rows
        for i in range(m):
            if basis[i] >= nv + m:
                enter = next(
                    (j for j in range(nv + m) if abs(tableau[i][j]) > tol), None
                )
                if enter is not None:
                    pivot(i, enter, obj_row)
                else:
                    tableau[i] = [zero] * width
    cost2 = list(obj) + [zero] * (m + n_art)
    obj_row = make_obj_row(cost2)
    status = run(obj_row, nv + m)
    if status == "unbounded":
        return "unbounded", None, []
    x = [quotient(zero, one)] * nv  # Fraction(0) or 0.0
    for i, b in enumerate(basis):
        if b < nv:
            x[b] = quotient(tableau[i][-1], tableau[i][b])
    return "optimal", quotient(obj_row[-1], obj_row[total]), x


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
    status, value, x = _simplex_max(
        obj, rows, rhs, exact=exact, pivot_limit=pivot_limit
    )
    if status != "optimal":
        return LPSolution(status=status, value=None, variables={})
    variables = {i: v for i, v in zip(model.weight_indices, x)}
    return LPSolution(
        status="optimal", value=model.objective_offset + value, variables=variables
    )


def lp_dimension_bound(
    q: int,
    n: int,
    r: int,
    t: int,
    mode: str = "exact",
    strengthen: bool = False,
) -> LPBoundResult:
    """k <= log_q(M) where M is the LP optimum; M rides along in the
    diagnostics as a string and in the result's `solution`.  Raises
    InfeasibleRelaxationError when even the relaxation is empty."""
    model = build_lp(q, n, r, t, strengthen=strengthen)
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
