"""The weight-distribution linear program and its dimension bound.

A code of length n over a q-ary alphabet with M words has distance
distribution A_0 = 1, A_1..A_n, and its MacWilliams transform
B_j = (1/M) sum_i K_j(i) A_i, a dual distribution with B_0 = 1 and
sum_j B_j = q^n / M (Delsarte 1973).  For strict t-availability with
locality r the code has distance at least t+1, so A_1..A_t = 0, and the
dual holds at least m = nt/(r+1) words of weight r+1 plus the sums of two
parity rows at weights 2r and 2r+2.

`build_lp` states that model in A-space: maximize M = 1 + sum A_i over
A_{t+1}..A_n subject to every B_j >= 0 and the three dual-count floors,
each a `<=` row of exact integers.  It is the model of record for a code's
A-vector (`point_violations`) and is not solved here: its optimum has
almost every A_i positive, so its basis holds about n variables.

`solve_lp`, the package's one solve, which `lp_dimension_bound` calls,
takes the same program to dual-distribution (B) space, where the optimum
has only a few positive B_j: minimize sum_j B_j over y_j = B_j - lb_j >= 0
(lb_0 = 1 fixes B_0), with one row sum_j K_i(j) B_j >= 0 per weight i (an
equality for i <= t) and the floors as the lower bounds lb_j, each clamped
at 0; then M = q^n / min sum B and A_i = sum_j K_i(j) B_j / sum_j B_j.  The
master problem holds a few columns and rows and grows by column generation
(Gilmore-Gomory 1961) and by cutting planes: each round re-solves it,
prices every column with its duals and checks its point against every row,
in integers in exact mode, and adds the most negative columns and the most
violated rows.  A round starts from the last round's basis: the columns
added keep it primal feasible and the rows added keep it dual feasible, so
a few primal and dual simplex pivots (Lemke 1954) re-optimise it.  The
loop ends only when no row is violated and no column prices negative: that
final check on the full model is the optimality certificate, so no answer
rests on the restricted master alone.  An infeasible master is priced with
its Farkas ray instead, and the columns that ray prices negative enter;
when none does, the ray proves the full model infeasible too, as its rows
include the master's.

Sums of three or more parity rows would contribute further valid rows;
they are deliberately not modeled here.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction
from typing import NamedTuple, Sequence

from . import _Record
from .bounds import BoundResult, _check_block_length, _check_exact_size, _check_locality
from .weights import krawtchouk_column, krawtchouk_row

FLOAT_TOL = 1e-9
# Both limits were measured on a 2-vCPU VM (Python 3.11).  The master's
# simplex work (see `_simplex_max`) runs at 3 to 4 ns per unit on the
# shapes that need the most, such as (q, r, t) = (2, 2, 5) at n = 90 to
# 798, so a budget of 10^8 units stops them within 0.31 to 0.41 s; the t=3
# family (q=2, n=(r+1)^2) needs 1.2 M units at r=20.  The Krawtchouk rows
# and their pricing grow with n and t on their own: t = n stops on the
# budget after 0.41 s at n=120, 1.2 s at 400, 1.8 s and 329 MB at 800, and
# 2.2 s and 520 MB at 960.  `lp_dimension_bound` refuses n over
# LP_SIZE_LIMIT before any Krawtchouk column is built.  A float entry takes
# 100 to 300 ns and counts FLOAT_ENTRY_WORK units, so a float solve that
# stalls stops within about 1 s too (0.13 s at (2, 141, 4, 5)); the
# costliest float solve probed that finishes needs 3.1 M entries (99 M
# units), at (2, 441, 2, 5).
LP_SIZE_LIMIT = 800
LP_WORK_BUDGET = 10**8
FLOAT_ENTRY_WORK = 32
COLUMN_BATCH = 5  # the most negative columns that enter per round
ROW_BATCH = 10  # the most violated rows that enter per round


class InfeasibleRelaxationError(ValueError):
    """The relaxation admits no point: no code exists under these constraints."""


class LPSizeError(ValueError):
    """The weight LP's block length is over `LP_SIZE_LIMIT`, or its master
    problems need more than `LP_WORK_BUDGET` units of simplex work."""


class LPConstraint(NamedTuple):
    """The row coeffs . x <= rhs, in integers."""

    coeffs: tuple[int, ...]
    rhs: int
    label: str = ""


class LPModel(_Record):
    """Variables are A_i for i = t+1..n; lower weights are pinned to zero
    because the minimum distance is at least t+1.  Nonnegativity of the
    variables is implicit in the solver's standard form."""

    __slots__ = ("num_vars", "objective_offset", "objective", "constraints", "meta")

    def __init__(
        self,
        num_vars: int,
        objective_offset: int,
        objective: tuple[int, ...],
        constraints: tuple[LPConstraint, ...],
        meta: dict | None = None,
    ):
        if not all(type(v) is int for v in (objective_offset, *objective)):
            raise ValueError("the objective must hold integers")
        for c in constraints:
            if len(c.coeffs) != num_vars:
                raise ValueError(f"constraint {c.label!r} has wrong arity")
            if not all(type(v) is int for v in (*c.coeffs, c.rhs)):
                raise ValueError(f"constraint {c.label!r} must hold integers")
        self.num_vars = num_vars
        self.objective_offset = objective_offset
        self.objective = objective
        self.constraints = constraints
        self.meta = {} if meta is None else meta

    @property
    def weight_indices(self) -> range:
        t = self.meta["t"]
        return range(t + 1, self.meta["n"] + 1)


class LPSolution(NamedTuple):
    """The weight LP's status, its optimum M and the A-vector over weights
    t+1..n."""

    status: str  # optimal | infeasible | unbounded
    value: Fraction | float | None
    variables: dict


class LPBoundResult(BoundResult):
    """The LP dimension bound together with the solve it came from:
    `solution.value` is the optimum M (a Fraction in exact mode) and
    `solution.variables` the optimal A-vector."""

    __slots__ = ("solution",)

    def __init__(self, *args, solution: LPSolution, **kwargs):
        super().__init__(*args, **kwargs)
        self.solution = solution


def _dual_floors(q: int, n: int, r: int, t: int) -> list[tuple[int, int, str]]:
    """Check (q, n, r, t) and return the dual-count floors (w, count,
    label), each asking for at least `count` dual words of weight w: sums
    of two parity rows at weights 2r (only for r > 2) and 2(r+1), and the
    m parity rows at weight r+1."""
    if q < 2:
        raise ValueError(f"need q >= 2, got {q}")
    _check_locality(r, t)
    if n < t:
        raise ValueError(f"need n >= t, got n={n}, t={t}")
    _check_block_length(n, r)
    if (n * t) % (r + 1):
        raise ValueError(f"r+1 = {r + 1} must divide nt = {n * t}")
    m = n * t // (r + 1)
    pair_count = n * math.comb(t, 2)
    floors = []
    if r > 2 and 2 * r <= n:
        floors.append((2 * r, pair_count, "pair_sum_2r"))
    if r >= 2 and 2 * (r + 1) <= n:
        # distinctness of disjoint-pair sums needs row weight >= 3: with
        # weight-2 rows two disjoint pairs can sum to the same codeword
        floors.append((2 * (r + 1), math.comb(m, 2) - pair_count, "pair_sum_2r2"))
    floors.append((r + 1, m, "row_count"))
    return floors


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
    floors = _dual_floors(q, n, r, t)
    idx = range(t + 1, n + 1)
    kraw = [krawtchouk_row(q, n, j)[t + 1 :] for j in range(n + 1)]  # K_j(i), i in idx

    def volume(w: int) -> int:
        """(q-1)^w C(n, w), the number of words of weight w."""
        return (q - 1) ** w * math.comb(n, w)

    constraints = [
        LPConstraint(tuple(-k for k in kraw[j]), volume(j), f"dual_nonneg_{j}")
        for j in range(n + 1)
    ]
    # the dual count at weight w is at least `count`, in A-space
    constraints += [
        LPConstraint(tuple(count - k for k in kraw[w]), volume(w) - count, label)
        for w, count, label in floors
    ]
    return LPModel(
        num_vars=len(idx),
        objective_offset=1,
        objective=(1,) * len(idx),
        constraints=tuple(constraints),
        meta={"q": q, "n": n, "r": r, "t": t, "m": n * t // (r + 1)},
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


# -- warm-started simplex ----------------------------------------------


def _floats(values) -> list[float]:
    """The values as doubles; ValueError when one is beyond the double range."""
    try:
        return [float(v) for v in values]
    except OverflowError:
        raise ValueError(
            "float mode cannot hold this model: an entry exceeds the double "
            "range; use exact mode"
        ) from None


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
    rows: list[Sequence],
    rhs: list,
    *,
    exact: bool,
    work_limit: float,
    start: Sequence[int] = (),
) -> tuple[str, object, list, list, int, list[int]]:
    """maximize obj.x  s.t.  rows[i].x <= rhs[i], x >= 0  (rhs of any sign).
    Exact mode takes integer rows as they are; float mode divides each row
    by its largest absolute entry and puts the prices back on the given rows.

    Returns (status, value, x, y, work, basis), y holding one price per row
    and basis the final basic variables.  At the optimum y is the dual
    vector: y >= 0, y.rows >= obj and y.rhs = value.  When the rows admit
    no point, y is a Farkas ray, its largest price 1: y >= 0, y.rows >= 0
    and y.rhs < 0.  `work` counts the tableau entries the pivots rewrote,
    each weighed by the bit length of its pivot row's scale in exact mode
    and by FLOAT_ENTRY_WORK in float mode; past `work_limit` work the solve
    raises LPSizeError.

    Variables are numbered structural 0..nv-1, then one slack per row, nv+i
    being row i's.  The solve starts from the slack basis, or from `start`:
    a basis an earlier solve returned, on fewer rows or columns, plus the
    slacks of the rows added since.  Each structural in `start` is pivoted
    in on the first row whose basic slack `start` leaves out.  Added
    columns keep that basis primal feasible, added rows keep it dual
    feasible (no column prices negative).  While a basic value is negative,
    dual pivots run: the lowest-numbered negative basic variable leaves,
    the column with the least ratio of its objective entry to its negated
    entry in that row enters, ties going to the lowest-numbered variable,
    and a row with no negative entry is a Farkas ray.  Columns that price
    negative are held out of those pivots; if a held column is needed, the
    dual pivots go on with those columns priced at 0 (their costs shifted),
    and the true prices come back after them.  Primal pivots then reach
    the optimum under Bland's rule: the lowest-numbered variable that
    prices negative enters, and ratio ties go to the lowest-numbered
    leaving one.

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
    its scale, which keeps every scale at 1.0.
    """
    nv = len(obj)
    m = len(rows)
    if exact:
        zero, one, tol, feas_tol = 0, 1, 0, 0
        rescale, quotient = _reduce_content, Fraction
        scales = [1] * m
    else:
        zero, one, tol, feas_tol = 0.0, 1.0, FLOAT_TOL, 1e-7
        rescale, quotient = _unit_scale, operator.truediv
        obj, rhs = _floats(obj), _floats(rhs)
        rows = [_floats(row) for row in rows]
        scales = [max([abs(v) for v in fr] + [abs(fb), 1.0]) for fr, fb in zip(rows, rhs)]
        rows = [[v / scale for v in fr] for fr, scale in zip(rows, scales)]
        rhs = [fb / scale for fb, scale in zip(rhs, scales)]
    cost = list(obj) + [zero] * m
    tableau = [list(row) + [one, b] for row, b in zip(rows, rhs)]
    basis = list(range(nv, nv + m))
    nonbasic = list(range(nv))

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

    work = 0

    def pivot(pr: int, pc: int, obj_row: list) -> None:
        nonlocal work
        prow = tableau[pr]
        prow[pc], prow[-2] = prow[-2], prow[pc]
        if prow[-2] < zero:
            prow = [-v for v in prow]
        prow = tableau[pr] = rescale(prow)
        work += len(tableau) * len(prow) * (prow[-2].bit_length() if exact else FLOAT_ENTRY_WORK)
        if work > work_limit:
            raise LPSizeError(f"exceeded {work_limit} units of work")
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
        """The index paired with the lowest-numbered variable among
        (variable, index) pairs."""
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

    def run_dual(obj_row: list, hold) -> int | None:
        """Dual pivots until no basic value is negative, the variables in
        `hold` staying nonbasic; the row left with no entering column, if
        one is."""
        while True:
            leave = lowest((basis[i], i) for i, row in enumerate(tableau) if row[-1] < -feas_tol)
            if leave is None:
                return None
            # minimum ratio obj_row[j] / -row[j], by cross-multiplication
            enter = None
            for j, a in enumerate(tableau[leave][:-2]):
                if a < -tol and nonbasic[j] not in hold and (
                    enter is None
                    or (cmp := best_d * a - obj_row[j] * best_a) < 0
                    or (cmp == 0 and nonbasic[j] < nonbasic[enter])
                ):
                    enter, best_d, best_a = j, obj_row[j], a
            if enter is None:
                return leave
            pivot(leave, enter, obj_row)

    def make_obj_row() -> list:
        """z - cost.x = 0 with the basic variables substituted out; a basic
        variable not yet substituted has coefficient -cost * scale."""
        row = [-cost[v] for v in nonbasic] + [one, zero]
        for prow, b in zip(tableau, basis):
            if cost[b] != zero:
                row = eliminate(row, -cost[b] * row[-2], prow)
        return row

    def prices(row: list, extra=()) -> list:
        """Each row's price: its slack's entry in `row`, or in the (entry,
        variable) pairs `extra`, over the scales of both rows; 0 for a
        basic slack."""
        y = [quotient(zero, one)] * m
        for d, v in (*zip(row, nonbasic), *extra):
            if v >= nv:
                y[v - nv] = quotient(d, row[-2] * scales[v - nv])
        return y

    obj_row = make_obj_row()
    chosen = set(start)
    for v in start:
        if v < nv:
            pc = nonbasic.index(v)
            pr = next(
                (i for i, row in enumerate(tableau) if basis[i] not in chosen and abs(row[pc]) > tol),
                None,
            )
            if pr is not None:
                pivot(pr, pc, obj_row)
    hold = {v for d, v in zip(obj_row, nonbasic) if d < -tol}
    ray = run_dual(obj_row, hold)
    if ray is not None and hold:
        ray = run_dual([max(d, zero) for d in obj_row[:-2]] + obj_row[-2:], ())
        obj_row = make_obj_row()
    if ray is not None:
        row = tableau[ray]
        y = prices(row, [(row[-2], basis[ray])])
        return "infeasible", None, [], [v / max(y) for v in y], work, basis
    if run(obj_row) == "unbounded":
        return "unbounded", None, [], [], work, basis
    x = [quotient(zero, one)] * nv  # Fraction(0) or 0.0
    for row, b in zip(tableau, basis):
        if b < nv:
            x[b] = quotient(row[-1], row[-2])
    return "optimal", quotient(obj_row[-1], obj_row[-2]), x, prices(obj_row), work, basis


def _common_scale(values: list) -> tuple[list[int], int]:
    """(D * values, D) for ints and Fractions, D their least common denominator."""
    d = math.lcm(*(v.denominator for v in values))
    return [v.numerator * (d // v.denominator) for v in values], d


def _combine(weights: list, vectors: list[list]) -> list:
    """sum_k weights[k] * vectors[k], entry by entry."""
    total = [0] * len(vectors[0])
    for w, vec in zip(weights, vectors):
        if w:
            total = [a + w * v for a, v in zip(total, vec)]
    return total


def solve_lp(q: int, n: int, r: int, t: int, exact: bool) -> LPSolution:
    """The weight LP's optimum by row and column generation in B-space (see
    the module docstring): value M and the A-vector over weights t+1..n."""
    lb = {0: 1}
    for w, count, _ in _dual_floors(q, n, r, t):
        if count > 0:  # a floor at or below 0 adds nothing to B_w >= 0
            lb[w] = count
    if n > LP_SIZE_LIMIT:
        raise LPSizeError(f"block length n={n} is over the LP's limit {LP_SIZE_LIMIT}")
    if exact:
        as_number, scaled, ratio, tol = list, _common_scale, Fraction, 0
    else:
        as_number, scaled, ratio, tol = _floats, lambda v: (v, 1.0), operator.truediv, FLOAT_TOL
    rows_k: dict[int, list] = {}  # weight i -> K_i(0..n): row i's coefficients
    cols_k: dict[int, list] = {}  # weight j -> K_0(j)..K_n(j): B_j's column

    def row(i: int) -> list:
        if i not in rows_k:
            rows_k[i] = as_number(krawtchouk_row(q, n, i))
        return rows_k[i]

    def col(j: int) -> list:
        if j not in cols_k:
            cols_k[j] = as_number(krawtchouk_column(q, n, j))
        return cols_k[j]

    # the master starts at the pinned weights, the floors' weights, the
    # middle weights and those near n - 2r; rows 1..t are always in it
    half = n // 2
    start = {*range(1, t + 1), r + 1, 2 * r, 2 * r + 2}
    start |= {*range(half - 1, half + 3), *range(n - 2 * r - 1, n - 2 * r + 4)}
    columns = sorted(j for j in start if 1 <= j <= n)
    cuts = sorted(i for i in start if t < i <= n)
    work_left = LP_WORK_BUDGET
    # whether each variable of the last master was basic, by label: ("B", j)
    # for B_j, ("row", i) for row i's slack.  Each master starts from the
    # last one's basis, with the slacks of its new rows
    last: dict[tuple, bool] = {}
    while True:
        # a row sum_j K_i(j) (lb_j + y_j) >= 0 reads -sum_j K_i(j) y_j <= h_i;
        # rows 1..t are equalities, stated once more as `>=`, row -i
        degrees = [*range(1, t + 1), *cuts]
        krows = [row(i) for i in degrees]
        h = [sum(k[j] * v for j, v in lb.items()) for k in krows]
        master = [[-k[j] for j in columns] for k in krows]
        master += [[-v for v in coeffs] for coeffs in master[:t]]
        labels = [("B", j) for j in columns] + [("row", i) for i in degrees]
        labels += [("row", -i) for i in degrees[:t]]
        try:
            status, _, x, y, work, basis = _simplex_max(
                [-1] * len(columns), master, h + [-v for v in h[:t]],
                exact=exact, work_limit=work_left,
                start=[k for k, v in enumerate(labels) if last.get(v, v[0] == "row")],
            )
        except LPSizeError:
            raise LPSizeError(
                f"the weight LP at (q={q}, n={n}, r={r}, t={t}) needs more than "
                f"{LP_WORK_BUDGET} units of simplex work"
            ) from None
        work_left -= work
        last = {v: k in basis for k, v in enumerate(labels)}
        if status == "unbounded":  # sum B >= 0 bounds the master
            why = "" if exact else ": a float rounding failure; use exact mode"
            raise RuntimeError(f"the master problem reported unbounded{why}")
        prices = y[: len(degrees)]
        for k in range(t):  # an equality's price is free
            prices[k] -= y[len(degrees) + k]
        # column j's reduced cost is c_j - sum_i price_i K_i(j), times the
        # prices' denominator: c_j = 1 at the optimum and 0 on a Farkas ray
        prices, unit = scaled(prices)
        cost = unit if status == "optimal" else 0
        weighed = _combine(prices, krows)
        negative = sorted(
            (cost - weighed[j], j) for j in range(1, n + 1) if cost - weighed[j] < -tol
        )
        new_columns = [j for _, j in negative if j not in columns][:COLUMN_BATCH]
        if status == "infeasible":
            if not new_columns:  # the ray proves the full model infeasible too
                raise InfeasibleRelaxationError(
                    f"no code exists under relaxation at (q={q}, n={n}, r={r}, t={t})"
                )
            columns = sorted(columns + new_columns)
            continue
        b = dict(lb)
        for j, v in zip(columns, x):
            if v:
                b[j] = b.get(j, 0) + v
        numerators, scale = scaled(list(b.values()))
        # A_i times sum B, times the common denominator, over weights 0..n
        slack = _combine(numerators, [col(j) for j in b])
        total, volumes = slack[0], col(0)
        violated = sorted(
            (ratio(slack[i], volumes[i]), i)
            for i in range(t + 1, n + 1)
            if slack[i] < -tol * volumes[i] * total
        )
        new_cuts = [i for _, i in violated if i not in cuts][:ROW_BATCH]
        if not new_cuts and not new_columns:
            break
        cuts = sorted(cuts + new_cuts)
        columns = sorted(columns + new_columns)
    if exact and (violated or negative or any(slack[1 : t + 1])):
        raise RuntimeError("the master's optimum fails its certificate on the full model")
    top = q**n if exact else _floats([q**n])[0]
    # a float A_i that met its row only within the tolerance reads 0
    a = [ratio(max(v, 0), total) for v in slack[t + 1 :]]
    return LPSolution("optimal", ratio(top * scale, total), dict(zip(range(t + 1, n + 1), a)))


def lp_dimension_bound(q: int, n: int, r: int, t: int, mode: str = "exact") -> LPBoundResult:
    """k <= log_q(M) where M is the LP optimum; M rides along in the
    diagnostics as a string and in the result's `solution`, whose
    variables are the optimal A-vector.  Raises InfeasibleRelaxationError
    when even the relaxation is empty, and LPSizeError past LP_SIZE_LIMIT or
    LP_WORK_BUDGET.  Float mode answers a float Farkas ray with an exact
    solve: its M and A-vector in floats, or the exact error."""
    if mode not in ("exact", "float"):
        raise ValueError(f"mode must be 'exact' or 'float', got {mode!r}")
    try:
        sol = solve_lp(q, n, r, t, mode == "exact")
    except InfeasibleRelaxationError:
        if mode == "exact":
            raise
        # a float ray proves nothing: the exact model answers, in floats
        sol = solve_lp(q, n, r, t, True)
        a = sol.variables
        sol = LPSolution("optimal", _floats([sol.value])[0], dict(zip(a, _floats(a.values()))))
    m_value = sol.value
    try:
        m_float = float(m_value)
    except OverflowError:  # an exact M beyond the double range
        bound = (math.log(m_value.numerator) - math.log(m_value.denominator)) / math.log(q)
    else:
        bound = math.log(m_float, q) if m_float > 0 else 0.0
    diagnostics = {"status": "optimal", "mode": mode}
    if isinstance(m_value, Fraction):
        _check_exact_size(m_value)
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
