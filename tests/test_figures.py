import hashlib
import math
from fractions import Fraction

import pytest

from availcodes import (
    FIGURE_IDS,
    dmin_m_delta,
    dmin_tamo_barg,
    emit_figure_data,
    rate_greedy_t3,
    rate_tamo_barg,
    rate_transpose,
)
from availcodes.cli import run_cli
from availcodes.figures import _FIGURES


def _rows(csv_text):
    lines = csv_text.strip().split("\n")
    header = lines[0].split(",")
    return header, [dict(zip(header, line.split(","))) for line in lines[1:]]


def test_every_figure_id_has_one_table_in_order():
    assert tuple(_FIGURES) == FIGURE_IDS


def test_spec_validation():
    with pytest.raises(ValueError):
        emit_figure_data("rate5", 1, 2)
    with pytest.raises(ValueError):
        emit_figure_data("rate3", 3, 2)
    with pytest.raises(ValueError):
        emit_figure_data("rate3", 0, 2)


def test_rate3_single_row_checkpoint():
    header, rows = _rows(emit_figure_data("rate3", 3, 3))
    assert header[:5] == ["r", "greedy_t3", "tamo_barg", "song_yue", "achievable_wzl"]
    assert header[-1] == "flag"
    (row,) = rows
    assert row["greedy_t3"] == "0.55"
    assert row["greedy_t3_exact"] == "11/20"
    assert row["song_yue_exact"] == "9/16"
    assert row["tamo_barg_exact"] == "81/140"
    assert row["achievable_wzl_exact"] == "1/2"
    assert row["flag"] == ""


def test_rate4_coincidence_point():
    _, rows = _rows(emit_figure_data("rate4", 3, 4))
    assert rows[0]["transpose_exact"] == rows[0]["tamo_barg_exact"]
    assert rows[1]["transpose_exact"] == "1093/1820"


def test_cells_match_module_operations():
    _, rows = _rows(emit_figure_data("rate3", 4, 6))
    for row in rows:
        r = int(row["r"])
        n = math.comb(r + 3, 3)
        assert row["greedy_t3"] == format(float(rate_greedy_t3(n, r).value_exact), ".12g")
        assert row["tamo_barg"] == format(float(rate_tamo_barg(r, 3).value_exact), ".12g")
    _, rows4 = _rows(emit_figure_data("rate4", 5, 7))
    for row in rows4:
        r = int(row["r"])
        assert Fraction(row["transpose_exact"]) == rate_transpose(r, 4).value_exact


def test_dmin3_columns():
    _, rows = _rows(emit_figure_data("dmin3", 3, 5))
    for row in rows:
        r = int(row["r"])
        n = math.comb(r + 3, 3)
        k = r * (r + 1) * (r + 2) // 6
        assert int(row["tamo_barg_dmin"]) == int(dmin_tamo_barg(n, k, r, 3).value_exact)
        assert int(row["shortening"]) <= min(
            int(row["tamo_barg_dmin"]), int(row["wang_dmin"])
        )


def test_dmin3_mdelta_adds_columns():
    header, rows = _rows(emit_figure_data("dmin3_mdelta", 3, 4))
    assert "m_delta" in header and "m_delta_max" in header
    for row in rows:
        r = int(row["r"])
        n = math.comb(r + 3, 3)
        k = r * (r + 1) * (r + 2) // 6
        assert int(row["m_delta"]) == int(
            dmin_m_delta(n, k, r, 3, n - k, 3).value_exact
        )


def test_lp3_budget_flag():
    header, rows = _rows(emit_figure_data("lp3", 3, 8, lp_budget=4))
    by_r = {int(row["r"]): row for row in rows}
    assert by_r[3]["flag"] == "" and by_r[4]["flag"] == ""
    for r in (5, 6, 7, 8):
        assert by_r[r]["flag"] == "budget"
        assert by_r[r]["lp_bound_rate"] == ""
    lp_rate = float(by_r[3]["lp_bound_rate"])
    assert lp_rate <= float(by_r[3]["tamo_barg"])
    assert math.isclose(lp_rate, 8.266143359030218 / 16, rel_tol=1e-9)


def test_deterministic_regeneration():
    assert emit_figure_data("dmin3_mdelta", 3, 6) == emit_figure_data("dmin3_mdelta", 3, 6)


def test_default_lp3_figure_is_pinned(capsys):
    # every row up to the default budget; the lp3 goldens stop at r = 8
    assert run_cli(["figure", "lp3", "--rmin", "1", "--rmax", "27"]) == 0
    digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    assert digest == "8627b155a914298177eb707196ad3f2863284dd5ae4937dbc2fee4c0ddc0dae2"


def test_widest_dmin3_mdelta_figure_is_pinned(capsys):
    # r = 21 is the last row under M_DELTA_SCAN_LIMIT; the goldens stop at r = 11
    assert run_cli(["figure", "dmin3_mdelta", "--rmin", "3", "--rmax", "21"]) == 0
    digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    assert digest == "ff92455829c40781b91ca86949c45c796db2c4e02819ce393c4c2b19bf82e451"


@pytest.mark.parametrize(
    "argv, digest",
    [
        (["rate3", "--rmin", "1", "--rmax", "60"],
         "63bd922f7c8083b7b8aeb4aab7f22438e403bfd9e198caab3c711e292e447322"),
        (["rate4", "--rmin", "1", "--rmax", "60"],
         "bfbc3f094824c7ca143ec0f19980104768a5e2c128da09db03b99386572678c3"),
        (["dmin3", "--rmin", "1", "--rmax", "60"],
         "d00ae84b3022fd65dba311b4fd0a84bdb2b93955362c1fcde6226333778a3eca"),
        # rows 21..30 are over the budget and flagged `budget`
        (["lp3", "--rmin", "1", "--rmax", "30", "--budget", "20"],
         "81fd9cdecb57524b5a714173dae71fb18bf2931876c40d41d29570bd2958e14e"),
    ],
)
def test_figure_is_pinned(argv, digest, capsys):
    assert run_cli(["figure", *argv]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_dmin3_mdelta_row_over_the_scan_limit_fails_first(capsys):
    # the row r = 22 runs first, so the range fails before any row is written
    assert run_cli(["figure", "dmin3_mdelta", "--rmin", "1", "--rmax", "22"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: the (M, delta) scan over M = 196..276 builds profiles of total "
        "length 19116, over limit 16384\n"
    )
