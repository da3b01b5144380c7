"""CSV generators for the five locality sweeps the package can reproduce.

Each figure is one row per locality r.  Bound columns carry the float value
to 12 significant digits plus a companion `<name>_exact` column holding the
exact rational (for the LP column, the exact optimum M).  A trailing `flag`
column marks skipped rows.
"""

from __future__ import annotations

import math
from fractions import Fraction

from . import FIGURE_IDS, LP_DEFAULT_BUDGET
from . import bounds as bd


def _t3_code(r: int) -> tuple[int, int]:
    """(n, k) of the t = 3 sweeps: n = C(r+3, 3), k = r(r+1)(r+2)/6."""
    return math.comb(r + 3, 3), r * (r + 1) * (r + 2) // 6


def _lp_rate(r: int) -> bd.BoundResult:
    """The LP bound at n = (r+1)^2: the float cell is the rate log2(M)/n,
    the exact cell M itself."""
    from .lp import lp_dimension_bound

    n = (r + 1) ** 2
    lp = lp_dimension_bound(2, n, r, 3)
    return bd.BoundResult("lp_rate", lp.params, lp.solution.value, "rate", lp.value / n)


def _huang_rate(r: int) -> bd.BoundResult:
    n = (r + 1) ** 2
    dim = bd.dim_huang(n, 4, r, 3)  # availability-3 codes have distance >= 4
    return bd.BoundResult("huang_rate", dict(dim.params), Fraction(dim.value_exact, n), "rate")


def _tamo_barg(t: int) -> tuple:
    return "tamo_barg", lambda r: bd.rate_tamo_barg(r, t)


def _wzl(t: int) -> tuple:
    return "achievable_wzl", lambda r: bd.rate_wzl_achievable(r, t)


# Each figure's (column, bound at r) pairs in column order.  Each bound is
# looked up in `bounds` at call time, so a wrapper set on that module (the
# benchmark's tracer) sees every call.
_DMIN3 = (
    ("shortening", lambda r: bd.dmin_shortening(*_t3_code(r), r, 3)),
    ("tamo_barg_dmin", lambda r: bd.dmin_tamo_barg(*_t3_code(r), r, 3)),
    ("wang_dmin", lambda r: bd.dmin_wang(*_t3_code(r), r, 3)),
)
_FIGURES = {
    "rate3": (
        ("greedy_t3", lambda r: bd.rate_greedy_t3(_t3_code(r)[0], r)),
        _tamo_barg(3),
        ("song_yue", lambda r: bd.rate_best_known(r, 3)),
        _wzl(3),
    ),
    "rate4": (("transpose", lambda r: bd.rate_transpose(r, 4)), _tamo_barg(4), _wzl(4)),
    "dmin3": _DMIN3,
    "dmin3_mdelta": (
        *_DMIN3,
        # M = n - k = C(r+2, 2) and delta = t: the unshortened bound
        ("m_delta", lambda r: bd.dmin_m_delta(*_t3_code(r), r, 3, math.comb(r + 2, 2), 3)),
        ("m_delta_max", lambda r: bd.dmin_m_delta_max(*_t3_code(r), r, 3)),
    ),
    "lp3": (("lp_bound_rate", _lp_rate), _tamo_barg(3), ("huang_griesmer", _huang_rate)),
}


def emit_figure_data(
    figure_id: str, r_min: int, r_max: int, lp_budget: int = LP_DEFAULT_BUDGET
) -> str:
    """One CSV row per r in r_min..r_max; see module docstring for layout."""
    if figure_id not in FIGURE_IDS:
        raise ValueError(f"unknown figure {figure_id!r}; choose from {FIGURE_IDS}")
    if r_min < 1 or r_max < r_min:
        raise ValueError(f"need 1 <= r_min <= r_max, got {r_min}..{r_max}")
    names, bounds = zip(*_FIGURES[figure_id])
    header = ["r", *names, *(f"{c}_exact" for c in names), "flag"]
    blank = [""] * (2 * len(names))
    # rows from r_max down: the profiles and the (M, delta) scan grow with r,
    # so a range past a limit fails on its first row, not after the others
    lines = []
    for r in range(r_max, r_min - 1, -1):
        if figure_id == "lp3" and r > lp_budget:
            lines.append(",".join([str(r), *blank, "budget"]))
            continue
        # every cell before any is written, so a bound that does not apply
        # flags the row even past a cell over the exact-output limit
        try:
            results = [bound(r) for bound in bounds]
        except bd.BoundNotApplicableError:
            lines.append(",".join([str(r), *blank, "not_applicable"]))
            continue
        floats = [bd._number_text(res.value) for res in results]
        exacts = [bd._number_text(res.value_exact) for res in results]
        lines.append(",".join([str(r), *floats, *exacts, ""]))
    return "\n".join([",".join(header), *reversed(lines)]) + "\n"
