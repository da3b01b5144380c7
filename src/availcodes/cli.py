"""Command-line front end.

Exit codes: 0 success, 1 computation error, 2 usage error.  All output is
deterministic for a fixed argv; random greedy tie-breaking requires an
explicit --seed.  Relative -o paths resolve against $AVAILCODES_OUTDIR when
that variable is set.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import FIGURE_IDS, LP_DEFAULT_BUDGET

# Each method takes the `bounds` module and the parsed arguments; the
# module is imported by the command that calls it, so that building the
# parser loads no layer.
RATE_METHODS = {
    "tamo-barg": lambda bd, a: bd.rate_tamo_barg(a.r, a.t),
    "best-known": lambda bd, a: bd.rate_best_known(a.r, a.t),
    "transpose": lambda bd, a: bd.rate_transpose(a.r, a.t),
    "greedy-t3": lambda bd, a: bd.rate_greedy_t3(_require(a.n, "--n"), a.r),
    "wzl": lambda bd, a: bd.rate_wzl_achievable(a.r, a.t),
}

DMIN_METHODS = {
    "tamo-barg": lambda bd, a: bd.dmin_tamo_barg(a.n, a.k, a.r, a.t),
    "wang": lambda bd, a: bd.dmin_wang(a.n, a.k, a.r, a.t),
    "shortening": lambda bd, a: bd.dmin_shortening(a.n, a.k, a.r, a.t),
    "m-delta": lambda bd, a: bd.dmin_m_delta(
        a.n, a.k, a.r, a.t, _require(a.M, "--M"), _require(a.delta, "--delta")
    ),
    "m-delta-max": lambda bd, a: bd.dmin_m_delta_max(a.n, a.k, a.r, a.t),
}


def _require(value, flag: str):
    if value is None:
        raise ValueError(f"this method requires {flag}")
    return value


def _index_list(text: str) -> list[int]:
    """A comma-separated list of integers; "" is the empty list."""
    try:
        return [int(v) for v in text.split(",")] if text else []
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated integers, got {text!r}"
        ) from None


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="availcodes")
    sub = parser.add_subparsers(dest="command", required=True)

    p_bounds = sub.add_parser("bounds", help="evaluate closed-form and LP bounds")
    bsub = p_bounds.add_subparsers(dest="bounds_command", required=True)

    p_rate = bsub.add_parser("rate", help="rate bounds")
    p_rate.add_argument("--r", type=int, required=True)
    p_rate.add_argument("--t", type=int, required=True)
    p_rate.add_argument("--n", type=int, help="block length (greedy-t3 only)")
    p_rate.add_argument("--method", choices=sorted(RATE_METHODS), default="tamo-barg")

    p_dmin = bsub.add_parser("dmin", help="minimum-distance bounds")
    p_dmin.add_argument("--n", type=int, required=True)
    p_dmin.add_argument("--k", type=int, required=True)
    p_dmin.add_argument("--r", type=int, required=True)
    p_dmin.add_argument("--t", type=int, required=True)
    p_dmin.add_argument("--M", type=int)
    p_dmin.add_argument("--delta", type=int)
    p_dmin.add_argument("--method", choices=sorted(DMIN_METHODS), default="tamo-barg")

    p_lp = bsub.add_parser("lp", help="weight-distribution LP dimension bound")
    p_lp.add_argument("--q", type=int, required=True)
    p_lp.add_argument("--n", type=int, required=True)
    p_lp.add_argument("--r", type=int, required=True)
    p_lp.add_argument("--t", type=int, required=True)
    p_lp.add_argument("--float", action="store_true", dest="float_mode")

    p_con = sub.add_parser("construct", help="build strict-availability matrices")
    csub = p_con.add_subparsers(dest="construct_command", required=True)

    p_part = csub.add_parser("partition", help="recursive partition construction")
    p_part.add_argument("--r", type=int, required=True)
    p_part.add_argument("--g", type=int, required=True)
    p_part.add_argument("--t", type=int, required=True)
    p_part.add_argument(
        "--choice", type=_index_list, help="comma-separated 1-based partition indices"
    )
    p_part.add_argument("-o", "--out", type=str)

    p_fun = csub.add_parser("functional", help="fiber construction from linear maps")
    p_fun.add_argument("--q", type=int, required=True)
    p_fun.add_argument("--n1", type=int, default=2)
    p_fun.add_argument("--m1", type=int, default=1)
    p_fun.add_argument("--t", type=int, required=True)
    p_fun.add_argument(
        "--matrices", type=str, help="JSON file with t m1 x n1 matrices; defaults to "
        "pairwise-independent directions when n1=2, m1=1"
    )
    p_fun.add_argument("-o", "--out", type=str)

    p_prod = csub.add_parser("product", help="axis-parity product code")
    p_prod.add_argument("--r", type=int, required=True)
    p_prod.add_argument("--t", type=int, required=True)
    p_prod.add_argument("-o", "--out", type=str)

    p_ver = sub.add_parser("verify", help="check availability properties of a matrix")
    p_ver.add_argument("--in", dest="infile", type=str, required=True)
    p_ver.add_argument("--r", type=int, required=True)
    p_ver.add_argument("--t", type=int, required=True)
    p_ver.add_argument("--strict", action="store_true")

    p_ana = sub.add_parser("analyze", help="rank/distance/trace analyses of a matrix")
    p_ana.add_argument("--in", dest="infile", type=str, required=True)
    p_ana.add_argument("--r", type=int)
    p_ana.add_argument("--t", type=int)
    p_ana.add_argument("--dmin", action="store_true")
    p_ana.add_argument("--greedy", action="store_true")
    p_ana.add_argument("--start", type=int, default=1)
    p_ana.add_argument("--tiebreak", choices=["lowest", "random"], default="lowest")
    p_ana.add_argument("--seed", type=int)
    p_ana.add_argument("--ghw", type=int, metavar="I")

    p_fig = sub.add_parser("figure", help="emit figure data as CSV")
    p_fig.add_argument("figure_id", choices=FIGURE_IDS)
    p_fig.add_argument("--rmin", type=int, required=True)
    p_fig.add_argument("--rmax", type=int, required=True)
    p_fig.add_argument("--budget", type=int, default=LP_DEFAULT_BUDGET)
    p_fig.add_argument("-o", "--out", type=str)

    return parser


def _out_path(path: str) -> str:
    base = os.environ.get("AVAILCODES_OUTDIR")
    if base and not os.path.isabs(path):
        return os.path.join(base, path)
    return path


def _emit(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        with open(_out_path(out), "w") as fh:
            fh.write(text)


def _print_json(doc: dict) -> None:
    sys.stdout.write(json.dumps(doc, indent=2) + "\n")


def _write_code(code, out: str | None) -> None:
    from .bitmatrix import serialize_matrix

    _emit(serialize_matrix(code.H), out)
    if out is not None:
        _emit(json.dumps(code.sidecar(), indent=2) + "\n", os.path.splitext(out)[0] + ".json")


def _load_matrices(path: str) -> list:
    with open(path) as fh:
        data = json.load(fh)
    # JSON integers only: `type(v) is int` turns away floats, strings and bools
    if not isinstance(data, list) or not all(
        isinstance(mat, list)
        and all(isinstance(row, list) and all(type(v) is int for v in row) for row in mat)
        for mat in data
    ):
        raise ValueError(f"{path} must hold a JSON list of integer matrices")
    return [tuple(tuple(row) for row in mat) for mat in data]


def _cmd_bounds(args) -> int:
    if args.bounds_command in ("rate", "dmin"):
        from . import bounds

        methods = RATE_METHODS if args.bounds_command == "rate" else DMIN_METHODS
        if args.method == "greedy-t3" and args.t != 3:  # the only rate method with fixed t
            raise ValueError(f"greedy-t3 needs t = 3, got t={args.t}")
        _print_json(methods[args.method](bounds, args).to_json())
        return 0
    from .bounds import _number_text
    from .lp import InfeasibleRelaxationError, lp_dimension_bound

    mode = "float" if args.float_mode else "exact"
    try:
        result = lp_dimension_bound(args.q, args.n, args.r, args.t, mode=mode)
    except InfeasibleRelaxationError as exc:
        _print_json({"status": "no code exists under relaxation", "detail": str(exc)})
        return 0
    doc = result.to_json()
    doc["A"] = {str(i): _number_text(v) for i, v in result.solution.variables.items() if v}
    _print_json(doc)
    return 0


def _cmd_construct(args) -> int:
    from .constructions import (
        build_partition_family,
        functional_code,
        partition_code,
        product_code,
        projective_functionals,
    )
    from .fields import FiniteField

    if args.construct_command == "partition":
        code = partition_code(build_partition_family(args.r, args.g), args.t, args.choice)
    elif args.construct_command == "functional":
        gf = FiniteField(args.q)
        if args.matrices:
            maps = _load_matrices(args.matrices)
            if len(maps) != args.t:
                raise ValueError(f"--t is {args.t} but {args.matrices} holds {len(maps)} maps")
        elif args.n1 == 2 and args.m1 == 1:
            maps = projective_functionals(gf, args.t)
        else:
            raise ValueError("general (n1, m1) needs --matrices with the t linear maps")
        code = functional_code(gf, args.n1, args.m1, maps)
    else:
        code = product_code(args.r, args.t)
    _write_code(code, args.out)
    return 0


def _cmd_verify(args) -> int:
    from .bitmatrix import parse_matrix
    from .verification import check_availability, check_strict_availability

    with open(args.infile) as fh:
        h = parse_matrix(fh.read())
    if args.strict:
        report = check_strict_availability(h, args.r, args.t)
    else:
        report = check_availability(h, args.r, args.t)
    _print_json(report.to_json())
    return 0


def _cmd_analyze(args) -> int:
    from .bitmatrix import parse_matrix
    from .codes import AvailabilityCode
    from .verification import dual_ghw_bruteforce, greedy_cover, min_distance_bruteforce

    if args.tiebreak == "random" and args.seed is None:
        raise ValueError("--tiebreak random requires an explicit --seed")
    with open(args.infile) as fh:
        h = parse_matrix(fh.read())
    code = AvailabilityCode(H=h, r=args.r, t=args.t)
    k = code.k  # the one rank computation
    doc: dict = {"code": {"n": code.n, "m": code.m, "rank": code.n - k, "k": k}}
    checks: dict = {}
    if args.dmin:
        d = min_distance_bruteforce(code)
        checks["dmin"] = "inf" if d == float("inf") else d
    if args.ghw is not None:
        checks["ghw"] = {"dimension": args.ghw, "support": dual_ghw_bruteforce(code, args.ghw)}
    if checks:
        doc["checks"] = checks
    if args.greedy:
        trace = greedy_cover(code, start=args.start, tiebreak=args.tiebreak, seed=args.seed)
        doc["trace"] = trace.to_json()
    _print_json(doc)
    return 0


def _cmd_figure(args) -> int:
    from .figures import emit_figure_data

    _emit(emit_figure_data(args.figure_id, args.rmin, args.rmax, args.budget), args.out)
    return 0


def run_cli(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        if args.command == "bounds":
            return _cmd_bounds(args)
        if args.command == "construct":
            return _cmd_construct(args)
        if args.command == "verify":
            return _cmd_verify(args)
        if args.command == "analyze":
            return _cmd_analyze(args)
        return _cmd_figure(args)
    except (ValueError, RuntimeError, OSError, OverflowError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1


def main() -> None:
    sys.exit(run_cli())


if __name__ == "__main__":
    main()
