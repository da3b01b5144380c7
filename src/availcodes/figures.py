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


def _sweep_params(figure_id: str, r: int) -> dict:
    if figure_id in ("rate3", "dmin3", "dmin3_mdelta"):
        n = math.comb(r + 3, 3)
        return {"n": n, "k": r * (r + 1) * (r + 2) // 6, "t": 3}
    return {"q": 2, "n": (r + 1) ** 2, "t": 3}  # lp3


def _row_rate3(r: int) -> dict:
    p = _sweep_params("rate3", r)
    return {
        "greedy_t3": bd.rate_greedy_t3(p["n"], r),
        "tamo_barg": bd.rate_tamo_barg(r, 3),
        "song_yue": bd.rate_best_known(r, 3),
        "achievable_wzl": bd.rate_wzl_achievable(r, 3),
    }


def _row_rate4(r: int) -> dict:
    return {
        "transpose": bd.rate_transpose(r, 4),
        "tamo_barg": bd.rate_tamo_barg(r, 4),
        "achievable_wzl": bd.rate_wzl_achievable(r, 4),
    }


def _row_dmin3(r: int) -> dict:
    p = _sweep_params("dmin3", r)
    n, k = p["n"], p["k"]
    return {
        "shortening": bd.dmin_shortening(n, k, r, 3),
        "tamo_barg_dmin": bd.dmin_tamo_barg(n, k, r, 3),
        "wang_dmin": bd.dmin_wang(n, k, r, 3),
    }


def _row_dmin3_mdelta(r: int) -> dict:
    p = _sweep_params("dmin3_mdelta", r)
    n, k = p["n"], p["k"]
    row = _row_dmin3(r)
    row["m_delta"] = bd.dmin_m_delta(n, k, r, 3, n - k, 3)
    row["m_delta_max"] = bd.dmin_m_delta_max(n, k, r, 3)
    return row


def _row_lp3(r: int) -> dict:
    from .lp import lp_dimension_bound

    p = _sweep_params("lp3", r)
    n = p["n"]
    lp = lp_dimension_bound(2, n, r, 3)
    # the float column is the rate log2(M)/n, the exact column M itself
    lp_rate = bd.BoundResult("lp_rate", lp.params, lp.solution.value, "rate", lp.value / n)
    return {
        "lp_bound_rate": lp_rate,
        "tamo_barg": bd.rate_tamo_barg(r, 3),
        "huang_griesmer": _huang_rate(n, r),
    }


def _huang_rate(n: int, r: int) -> bd.BoundResult:
    dim = bd.dim_huang(n, 4, r, 3)  # availability-3 codes have distance >= 4
    return bd.BoundResult(
        "huang_rate",
        dict(dim.params),
        Fraction(dim.value_exact, n),
        "rate",
    )


_BUILDERS = {
    "rate3": (_row_rate3, ("greedy_t3", "tamo_barg", "song_yue", "achievable_wzl")),
    "rate4": (_row_rate4, ("transpose", "tamo_barg", "achievable_wzl")),
    "dmin3": (_row_dmin3, ("shortening", "tamo_barg_dmin", "wang_dmin")),
    "dmin3_mdelta": (
        _row_dmin3_mdelta,
        ("shortening", "tamo_barg_dmin", "wang_dmin", "m_delta", "m_delta_max"),
    ),
    "lp3": (_row_lp3, ("lp_bound_rate", "tamo_barg", "huang_griesmer")),
}


def emit_figure_data(
    figure_id: str, r_min: int, r_max: int, lp_budget: int = LP_DEFAULT_BUDGET
) -> str:
    """One CSV row per r in r_min..r_max; see module docstring for layout."""
    if figure_id not in FIGURE_IDS:
        raise ValueError(f"unknown figure {figure_id!r}; choose from {FIGURE_IDS}")
    if r_min < 1 or r_max < r_min:
        raise ValueError(f"need 1 <= r_min <= r_max, got {r_min}..{r_max}")
    builder, columns = _BUILDERS[figure_id]
    header = ["r", *columns, *(f"{c}_exact" for c in columns), "flag"]
    lines = [",".join(header)]
    for r in range(r_min, r_max + 1):
        if figure_id == "lp3" and r > lp_budget:
            cells = [str(r)] + [""] * (2 * len(columns)) + ["budget"]
            lines.append(",".join(cells))
            continue
        try:
            results = builder(r)
        except bd.BoundNotApplicableError:
            cells = [str(r)] + [""] * (2 * len(columns)) + ["not_applicable"]
            lines.append(",".join(cells))
            continue
        floats = [bd._number_text(results[c].value) for c in columns]
        exacts = [bd._number_text(results[c].value_exact) for c in columns]
        lines.append(",".join([str(r), *floats, *exacts, ""]))
    return "\n".join(lines) + "\n"
