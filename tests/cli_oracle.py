"""Reference parser for the CLI: the full argparse tree, built whole.

`availcodes.cli` builds only the branch of the command its argv selects.
`test_cli.py` requires it to agree with this parser on every argv it
tries: the same exit code, stdout and stderr, and for an argv that parses,
the same Namespace.
"""

from __future__ import annotations

import argparse

from availcodes import FIGURE_IDS, LP_DEFAULT_BUDGET
from availcodes.cli import DMIN_METHODS, RATE_METHODS, _index_list, _int


def build_parser() -> argparse.ArgumentParser:
    """The full parser, every command with all of its arguments."""
    parser = argparse.ArgumentParser(prog="availcodes")
    sub = parser.add_subparsers(dest="command", required=True)

    p_bounds = sub.add_parser("bounds", help="evaluate closed-form and LP bounds")
    bsub = p_bounds.add_subparsers(dest="bounds_command", required=True)

    p_rate = bsub.add_parser("rate", help="rate bounds")
    p_rate.add_argument("--r", type=_int, required=True)
    p_rate.add_argument("--t", type=_int, required=True)
    p_rate.add_argument("--n", type=_int, help="block length (greedy-t3 only)")
    p_rate.add_argument("--method", choices=sorted(RATE_METHODS), default="tamo-barg")

    p_dmin = bsub.add_parser("dmin", help="minimum-distance bounds")
    p_dmin.add_argument("--n", type=_int, required=True)
    p_dmin.add_argument("--k", type=_int, required=True)
    p_dmin.add_argument("--r", type=_int, required=True)
    p_dmin.add_argument("--t", type=_int, required=True)
    p_dmin.add_argument("--M", type=_int)
    p_dmin.add_argument("--delta", type=_int)
    p_dmin.add_argument("--method", choices=sorted(DMIN_METHODS), default="tamo-barg")

    p_lp = bsub.add_parser("lp", help="weight-distribution LP dimension bound")
    p_lp.add_argument("--q", type=_int, required=True)
    p_lp.add_argument("--n", type=_int, required=True)
    p_lp.add_argument("--r", type=_int, required=True)
    p_lp.add_argument("--t", type=_int, required=True)
    p_lp.add_argument("--float", action="store_true", dest="float_mode")

    p_con = sub.add_parser("construct", help="build strict-availability matrices")
    csub = p_con.add_subparsers(dest="construct_command", required=True)

    p_part = csub.add_parser("partition", help="recursive partition construction")
    p_part.add_argument("--r", type=_int, required=True)
    p_part.add_argument("--g", type=_int, required=True)
    p_part.add_argument("--t", type=_int, required=True)
    p_part.add_argument(
        "--choice", type=_index_list, help="comma-separated 1-based partition indices"
    )
    p_part.add_argument("-o", "--out", type=str)

    p_fun = csub.add_parser("functional", help="fiber construction from linear maps")
    p_fun.add_argument("--q", type=_int, required=True)
    p_fun.add_argument("--n1", type=_int, default=2)
    p_fun.add_argument("--m1", type=_int, default=1)
    p_fun.add_argument("--t", type=_int, required=True)
    p_fun.add_argument(
        "--matrices", type=str, help="JSON file with t m1 x n1 matrices; defaults to "
        "pairwise-independent directions when n1=2, m1=1"
    )
    p_fun.add_argument("-o", "--out", type=str)

    p_prod = csub.add_parser("product", help="axis-parity product code")
    p_prod.add_argument("--r", type=_int, required=True)
    p_prod.add_argument("--t", type=_int, required=True)
    p_prod.add_argument("-o", "--out", type=str)

    p_ver = sub.add_parser("verify", help="check availability properties of a matrix")
    p_ver.add_argument("--in", dest="infile", type=str, required=True)
    p_ver.add_argument("--r", type=_int, required=True)
    p_ver.add_argument("--t", type=_int, required=True)
    p_ver.add_argument("--strict", action="store_true")

    p_ana = sub.add_parser("analyze", help="rank/distance/trace analyses of a matrix")
    p_ana.add_argument("--in", dest="infile", type=str, required=True)
    p_ana.add_argument("--r", type=_int)
    p_ana.add_argument("--t", type=_int)
    p_ana.add_argument("--dmin", action="store_true")
    p_ana.add_argument("--greedy", action="store_true")
    p_ana.add_argument("--start", type=_int, default=1)
    p_ana.add_argument("--tiebreak", choices=["lowest", "random"], default="lowest")
    p_ana.add_argument("--seed", type=_int)
    p_ana.add_argument("--ghw", type=_int, metavar="I")

    p_fig = sub.add_parser("figure", help="emit figure data as CSV")
    p_fig.add_argument("figure_id", choices=FIGURE_IDS)
    p_fig.add_argument("--rmin", type=_int, required=True)
    p_fig.add_argument("--rmax", type=_int, required=True)
    p_fig.add_argument("--budget", type=_int, default=LP_DEFAULT_BUDGET)
    p_fig.add_argument("-o", "--out", type=str)

    return parser
