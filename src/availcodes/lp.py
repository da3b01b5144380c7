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
in integers, and adds the most negative columns and the most violated
rows.  The master is one tableau kept across the rounds (`_Master`): a
new column's entries are read through the slack columns and a new row is
reduced by the basic rows, so the basis stays as the last round left it.
The columns added keep it primal feasible and the rows added keep it dual
feasible, so a few primal and dual simplex pivots (Lemke 1954) re-optimise
it.  The loop ends only when no row is violated and no column prices
negative: that final check on the full model is the optimality
certificate, so no answer rests on the restricted master alone.  An
infeasible master is priced with its Farkas ray instead, and the columns
that ray prices negative enter; when none does, the ray proves the full
model infeasible too, as its rows include the master's.  Float mode is
that certified optimum with M and each A_i rounded once to a double.

Sums of three or more parity rows would contribute further valid rows;
they are deliberately not modeled here.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import NamedTuple

from . import _Record
from .bounds import BoundResult, _check_block_length, _check_exact_size, _check_locality
from .weights import krawtchouk_column, krawtchouk_row

# Both limits were measured on a 2-vCPU VM (Python 3.11).  The master's
# simplex work (see `_Master`) runs at 3 to 4 ns per unit on the shapes
# that need the most, such as (q, r, t) = (2, 2, 5) at n = 90 to 798, so a
# budget of 10^8 units stops them within 0.31 to 0.41 s; the t=3 family
# (q=2, n=(r+1)^2) needs 0.70 M units at r=20.  The Krawtchouk rows
# and their pricing grow with n and t on their own: t = n stops on the
# budget after 0.41 s at n=120, 1.2 s at 400, 1.8 s and 329 MB at 800, and
# 2.2 s and 520 MB at 960.  `lp_dimension_bound` refuses n over
# LP_SIZE_LIMIT before any Krawtchouk column is built.
LP_SIZE_LIMIT = 800
LP_WORK_BUDGET = 10**8
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


# -- the master tableau ---------------------------------------------------


def _reduce_content(row: list[int]) -> list[int]:
    """Divide out the gcd of the row's entries."""
    g = math.gcd(*row)
    return row if g == 1 else [v // g for v in row]


def _eliminate(row: list, f, prow: list) -> list:
    """p*row - f*prow with p = prow's scale, and p times row's scale as the
    scale: `row` with the variable whose coefficient is f substituted
    through the pivot row `prow`."""
    p = prow[-2]
    g = math.gcd(p, f)
    if g != 1:
        p //= g
        f //= g
    new = [p * v - f * w for v, w in zip(row, prow)]
    new[-2] = p * row[-2]
    return _reduce_content(new)


class _Master:
    """maximize cost.x  s.t.  rows.x <= rhs, x >= 0  (rhs of any sign), over
    integer rows, as one simplex tableau that grows by columns and rows and
    is re-optimised from its current basis.

    Variables are named by keys, which decide every tie: a structural
    variable's key is given to `add_column`, a row's slack's to `add_row`.
    An empty master is the slack basis of whatever it grows into.  A column
    joins nonbasic and a row joins with its slack basic, so added columns
    keep the basis primal feasible and added rows keep it dual feasible (no
    column prices negative).  `solve` then pivots.  While a basic value is
    negative, dual pivots run: the lowest-keyed negative basic variable
    leaves, the column with the least ratio of its objective entry to its
    negated entry in that row enters, ties going to the lowest key, and a
    row with no negative entry is a Farkas ray.  Columns that price
    negative are held out of those pivots; if a held column is needed, the
    dual pivots go on with those columns priced at 0 (their costs shifted),
    and the true prices come back after them.  Primal pivots then reach
    the optimum under Bland's rule: the lowest-keyed variable that prices
    negative enters, and ratio ties go to the lowest-keyed leaving one.
    `work` counts the tableau entries the pivots rewrote, each weighed by
    the bit length of its pivot row's scale; past `work_limit` work a pivot
    raises LPSizeError.

    The tableau is compact: one column per nonbasic variable, `nonbasic[j]`
    being column j's, and one row per basic variable.  Row i is
    `[a_i0, .., a_i(w-1), s_i, b_i]`, the equation

        s_i * x[basis[i]] + sum_j a_ij * x[nonbasic[j]] = b_i,

    with the scale s_i > 0, so a basic value is b_i / s_i and a sign test
    needs no division.  The objective row `obj` has the same layout with z
    in place of the basic variable; its entry at a slack's column over its
    scale is that row's price (0 for a basic slack).

    A pivot on row r and column e swaps their variables: the pivot row's
    entry at e becomes its old scale and its scale the pivot element
    (negated throughout if negative).  Every other row with f = row[e] != 0
    becomes p*row - f*pivot_row, with p the pivot row's new scale and
    row[e] read as 0: a positive multiple of its rational row again.  The
    entries stay Python ints: p and f are divided by their gcd first and
    the result by the gcd of its entries.
    """

    def __init__(self, work_limit: float):
        self.work_limit = work_limit
        self.work = 0
        self.cost: dict = {}  # structural key -> objective coefficient
        self.tableau: list[list[int]] = []
        self.basis: list = []
        self.nonbasic: list = []
        self.obj = [1, 0]  # z = 0

    def add_column(self, key, cost: int, coeffs: dict) -> None:
        """The variable x[key] >= 0 with objective coefficient `cost` and
        coefficient coeffs[k] in the row whose slack is k, nonbasic.  Its
        entries are read through the slack columns, which hold the basis's
        inverse times each row's scale (a basic slack's column being its
        row's scale in its own row and 0 elsewhere)."""
        at = {v: j for j, v in enumerate(self.nonbasic)}
        through = [(at[k], a) for k, a in coeffs.items() if k in at]
        for row, b in zip(self.tableau, self.basis):
            row.insert(-2, sum(a * row[j] for j, a in through) + coeffs.get(b, 0) * row[-2])
        self.obj.insert(-2, sum(a * self.obj[j] for j, a in through) - cost * self.obj[-2])
        self.nonbasic.append(key)
        self.cost[key] = cost

    def add_row(self, key, coeffs: dict, rhs: int) -> None:
        """The row sum_v coeffs[v] * x[v] <= rhs over structural variables,
        with its slack x[key] basic."""
        self.tableau.append(self._substituted(coeffs, rhs))
        self.basis.append(key)

    def _substituted(self, coeffs: dict, rhs: int) -> list:
        """The row s * u + coeffs.x = rhs of a new basic u, with the basic
        variables substituted out; one not yet substituted has coefficient
        coeffs[v] * s, s being the row's scale so far."""
        row = [coeffs.get(v, 0) for v in self.nonbasic] + [1, rhs]
        for prow, b in zip(self.tableau, self.basis):
            if coeffs.get(b):
                row = _eliminate(row, coeffs[b] * row[-2], prow)
        return row

    def _pivot(self, pr: int, pc: int, obj_row: list) -> None:
        tableau = self.tableau
        prow = tableau[pr]
        prow[pc], prow[-2] = prow[-2], prow[pc]
        if prow[-2] < 0:
            prow = [-v for v in prow]
        prow = tableau[pr] = _reduce_content(prow)
        self.work += len(tableau) * len(prow) * prow[-2].bit_length()
        if self.work > self.work_limit:
            raise LPSizeError(f"exceeded {self.work_limit} units of work")
        self.basis[pr], self.nonbasic[pc] = self.nonbasic[pc], self.basis[pr]
        for i, row in enumerate(tableau):
            f = row[pc]
            if f and i != pr:
                row[pc] = 0
                tableau[i] = _eliminate(row, f, prow)
        f = obj_row[pc]
        if f:
            obj_row[pc] = 0
            obj_row[:] = _eliminate(obj_row, f, prow)

    def _run(self) -> str:
        basis, obj_row = self.basis, self.obj
        while True:
            enter = _lowest((v, j) for j, v in enumerate(self.nonbasic) if obj_row[j] < 0)
            if enter is None:
                return "optimal"
            # minimum ratio row[-1] / row[enter]; a row's scale cancels, so
            # candidates compare by cross-multiplication
            leave = None
            for i, row in enumerate(self.tableau):
                a = row[enter]
                if a > 0 and (
                    leave is None
                    or (cmp := row[-1] * best_a - best_b * a) < 0
                    or (cmp == 0 and basis[i] < basis[leave])
                ):
                    leave, best_b, best_a = i, row[-1], a
            if leave is None:
                return "unbounded"
            self._pivot(leave, enter, obj_row)

    def _run_dual(self, obj_row: list, hold) -> int | None:
        """Dual pivots until no basic value is negative, the variables in
        `hold` staying nonbasic; the row left with no entering column, if
        one is."""
        nonbasic = self.nonbasic
        while True:
            leave = _lowest((self.basis[i], i) for i, row in enumerate(self.tableau) if row[-1] < 0)
            if leave is None:
                return None
            # minimum ratio obj_row[j] / -row[j], by cross-multiplication
            enter = None
            for j, a in enumerate(self.tableau[leave][:-2]):
                if a < 0 and nonbasic[j] not in hold and (
                    enter is None
                    or (cmp := best_d * a - obj_row[j] * best_a) < 0
                    or (cmp == 0 and nonbasic[j] < nonbasic[enter])
                ):
                    enter, best_d, best_a = j, obj_row[j], a
            if enter is None:
                return leave
            self._pivot(leave, enter, obj_row)

    def _prices(self, row: list, extra=()) -> dict:
        """Each nonbasic slack's entry in `row`, and each in the (entry,
        variable) pairs `extra`, over `row`'s scale, by key."""
        pairs = (*zip(row, self.nonbasic), *extra)
        return {v: Fraction(d, row[-2]) for d, v in pairs if v not in self.cost}

    def solve(self) -> tuple[str, Fraction | None, dict, dict]:
        """(status, value, x, y): x holds the basic structural values by
        key and y a price per slack key, 0 where y leaves one out.  At the
        optimum y is the dual vector: y >= 0, y.rows >= cost and y.rhs =
        value.  When the rows admit no point, y is a Farkas ray: y >= 0,
        y.rows >= 0 and y.rhs < 0."""
        hold = {v for d, v in zip(self.obj, self.nonbasic) if d < 0}
        ray = self._run_dual(self.obj, hold)
        if ray is not None and hold:
            ray = self._run_dual([max(d, 0) for d in self.obj[:-2]] + self.obj[-2:], ())
            self.obj = self._substituted({v: -c for v, c in self.cost.items()}, 0)
        if ray is not None:
            row = self.tableau[ray]
            return "infeasible", None, {}, self._prices(row, [(row[-2], self.basis[ray])])
        if self._run() == "unbounded":
            return "unbounded", None, {}, {}
        x = {b: Fraction(row[-1], row[-2]) for row, b in zip(self.tableau, self.basis) if b in self.cost}
        return "optimal", Fraction(self.obj[-1], self.obj[-2]), x, self._prices(self.obj)


def _lowest(candidates) -> int | None:
    """The index paired with the lowest-keyed variable among (key, index)
    pairs."""
    best = min(candidates, default=None)
    return None if best is None else best[1]


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


def solve_lp(q: int, n: int, r: int, t: int) -> LPSolution:
    """The weight LP's optimum by row and column generation in B-space (see
    the module docstring): the exact M and A-vector over weights t+1..n."""
    lb = {0: 1}
    for w, count, _ in _dual_floors(q, n, r, t):
        if count > 0:  # a floor at or below 0 adds nothing to B_w >= 0
            lb[w] = count
    if n > LP_SIZE_LIMIT:
        raise LPSizeError(f"block length n={n} is over the LP's limit {LP_SIZE_LIMIT}")
    rows_k: dict[int, list] = {}  # weight i -> K_i(0..n): row i's coefficients
    cols_k: dict[int, list] = {}  # weight j -> K_0(j)..K_n(j): B_j's column

    def row(i: int) -> list:
        if i not in rows_k:
            rows_k[i] = krawtchouk_row(q, n, i)
        return rows_k[i]

    def col(j: int) -> list:
        if j not in cols_k:
            cols_k[j] = krawtchouk_column(q, n, j)
        return cols_k[j]

    # the master starts at the pinned weights, the floors' weights, the
    # middle weights and those near n - 2r; rows 1..t are always in it
    half = n // 2
    initial = {*range(1, t + 1), r + 1, 2 * r, 2 * r + 2}
    initial |= {*range(half - 1, half + 3), *range(n - 2 * r - 1, n - 2 * r + 4)}
    new_columns = sorted(j for j in initial if 1 <= j <= n)
    new_cuts = sorted(i for i in initial if 1 <= i <= n)
    columns: list[int] = []
    cuts: list[int] = []  # the rows' weights, 1..t first
    # B_j is variable (0, j) and row i's slack (1, i).  A row sum_j K_i(j)
    # (lb_j + y_j) >= 0 reads -sum_j K_i(j) y_j <= h_i; rows 1..t are
    # equalities, stated once more as `>=`, whose slack is (2, i).  Keys
    # break ties, so they keep B_j, then the rows, then their twins in
    # weight order
    master = _Master(LP_WORK_BUDGET)
    while True:
        for j in new_columns:
            twins = {(2, i): row(i)[j] for i in cuts[:t]}
            master.add_column((0, j), -1, {(1, i): -row(i)[j] for i in cuts} | twins)
        columns += new_columns
        for i in new_cuts:
            coeffs = {(0, j): -row(i)[j] for j in columns}
            h = sum(row(i)[j] * v for j, v in lb.items())
            master.add_row((1, i), coeffs, h)
            if i <= t:
                master.add_row((2, i), {v: -a for v, a in coeffs.items()}, -h)
        cuts += new_cuts
        try:
            status, _, x, y = master.solve()
        except LPSizeError:
            raise LPSizeError(
                f"the weight LP at (q={q}, n={n}, r={r}, t={t}) needs more than "
                f"{LP_WORK_BUDGET} units of simplex work"
            ) from None
        if status == "unbounded":  # sum B >= 0 bounds the master
            raise RuntimeError("the master problem reported unbounded")
        # row i's price; an equality's is free: its slack's less its twin's
        prices = dict.fromkeys(cuts, 0)
        for (kind, i), v in y.items():
            prices[i] += v if kind == 1 else -v
        # column j's reduced cost is c_j - sum_i price_i K_i(j), times the
        # prices' denominator: c_j = 1 at the optimum and 0 on a Farkas ray
        prices, unit = _common_scale(list(prices.values()))
        cost = unit if status == "optimal" else 0
        weighed = _combine(prices, [row(i) for i in cuts])
        negative = sorted((cost - weighed[j], j) for j in range(1, n + 1) if cost < weighed[j])
        new_columns = [j for _, j in negative if j not in columns][:COLUMN_BATCH]
        if status == "infeasible":
            if not new_columns:  # the ray proves the full model infeasible too
                raise InfeasibleRelaxationError(
                    f"no code exists under relaxation at (q={q}, n={n}, r={r}, t={t})"
                )
            new_cuts = []
            continue
        b = dict(lb)
        for (_, j), v in x.items():
            if v:
                b[j] = b.get(j, 0) + v
        numerators, scale = _common_scale(list(b.values()))
        # A_i times sum B, times the common denominator, over weights 0..n
        slack = _combine(numerators, [col(j) for j in b])
        total, volumes = slack[0], col(0)
        violated = sorted(
            (Fraction(slack[i], volumes[i]), i) for i in range(t + 1, n + 1) if slack[i] < 0
        )
        new_cuts = [i for _, i in violated if i not in cuts][:ROW_BATCH]
        if not new_cuts and not new_columns:
            break
    if violated or negative or any(slack[1 : t + 1]):
        raise RuntimeError("the master's optimum fails its certificate on the full model")
    a = [Fraction(v, total) for v in slack[t + 1 :]]
    return LPSolution("optimal", Fraction(q**n * scale, total), dict(zip(range(t + 1, n + 1), a)))


def _floats(values) -> list[float]:
    """The values as doubles; ValueError when one is beyond the double range."""
    try:
        return [float(v) for v in values]
    except OverflowError:
        raise ValueError(
            "float mode cannot hold this model: an entry exceeds the double "
            "range; use exact mode"
        ) from None


def lp_dimension_bound(q: int, n: int, r: int, t: int, mode: str = "exact") -> LPBoundResult:
    """k <= log_q(M) where M is the LP optimum; M rides along in the
    diagnostics as a string and in the result's `solution`, whose
    variables are the optimal A-vector.  Raises InfeasibleRelaxationError
    when even the relaxation is empty, and LPSizeError past LP_SIZE_LIMIT or
    LP_WORK_BUDGET.  Both modes solve exactly; float mode rounds the
    certified M and A-vector once to doubles, and raises ValueError when M
    or an A_i is beyond the double range."""
    if mode not in ("exact", "float"):
        raise ValueError(f"mode must be 'exact' or 'float', got {mode!r}")
    sol = solve_lp(q, n, r, t)
    if mode == "float":
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
