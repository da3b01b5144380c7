"""Command-line front end.

Exit codes: 0 success, 1 computation error, 2 usage error.  All output is
deterministic for a fixed argv; random greedy tie-breaking requires an
explicit --seed.  Relative -o paths resolve against $AVAILCODES_OUTDIR when
that variable is set.
"""

# No `from __future__ import annotations`: the annotations here evaluate on
# 3.10 as they stand, and `--help` need not import `__future__`.
import argparse
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


# CPython's default limit on the digits int() reads; the interpreter's
# settings can lift it, so the parser holds integer options to it itself
MAX_INT_DIGITS = 4300


def _int(text: str) -> int:
    """An integer option of at most MAX_INT_DIGITS digits."""
    if sum(map(str.isdigit, text)) > MAX_INT_DIGITS:
        raise argparse.ArgumentTypeError(f"invalid int value: more than {MAX_INT_DIGITS} digits")
    try:
        return int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None


def _index_list(text: str) -> list[int]:
    """A comma-separated list of integers; "" is the empty list."""
    try:
        return [_int(v) for v in text.split(",")] if text else []
    except argparse.ArgumentTypeError:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated integers, got {text!r}"
        ) from None


# Every command's name and help, at each level of the parser
_COMMANDS = {
    "bounds": "evaluate closed-form and LP bounds",
    "construct": "build strict-availability matrices",
    "verify": "check availability properties of a matrix",
    "analyze": "rank/distance/trace analyses of a matrix",
    "figure": "emit figure data as CSV",
}
_BOUNDS_COMMANDS = {
    "rate": "rate bounds",
    "dmin": "minimum-distance bounds",
    "lp": "weight-distribution LP dimension bound",
}
_CONSTRUCT_COMMANDS = {
    "partition": "recursive partition construction",
    "functional": "fiber construction from linear maps",
    "product": "axis-parity product code",
}


def _add_commands(parser, dest: str, commands: dict, argv: list[str]):
    """Add a subparser for each command; return the name and parser of the
    one argv selects, its first token that does not start with "-", and the
    tokens after it, or (None, None, []) when that token names none."""
    sub = parser.add_subparsers(dest=dest, required=True)
    parsers = {name: sub.add_parser(name, help=text) for name, text in commands.items()}
    token = next((i for i, arg in enumerate(argv) if not arg.startswith("-")), None)
    if token is None or argv[token] not in parsers:
        return None, None, []
    return argv[token], parsers[argv[token]], argv[token + 1:]


def _build_parser(argv: list[str]) -> argparse.ArgumentParser:
    """The parser for argv.  Every command is listed with its help, but only
    the command argv selects gets its arguments: argparse reads only the
    branch it parses, and help pages list only names and help strings, so
    each help page, usage error and Namespace is that of the full parser."""
    parser = argparse.ArgumentParser(prog="availcodes")
    command, p, argv = _add_commands(parser, "command", _COMMANDS, argv)
    if command == "bounds":
        command, p, _ = _add_commands(p, "bounds_command", _BOUNDS_COMMANDS, argv)
    elif command == "construct":
        command, p, _ = _add_commands(p, "construct_command", _CONSTRUCT_COMMANDS, argv)

    if command == "rate":
        p.add_argument("--r", type=_int, required=True)
        p.add_argument("--t", type=_int, required=True)
        p.add_argument("--n", type=_int, help="block length (greedy-t3 only)")
        p.add_argument("--method", choices=sorted(RATE_METHODS), default="tamo-barg")
    elif command == "dmin":
        p.add_argument("--n", type=_int, required=True)
        p.add_argument("--k", type=_int, required=True)
        p.add_argument("--r", type=_int, required=True)
        p.add_argument("--t", type=_int, required=True)
        p.add_argument("--M", type=_int)
        p.add_argument("--delta", type=_int)
        p.add_argument("--method", choices=sorted(DMIN_METHODS), default="tamo-barg")
    elif command == "lp":
        p.add_argument("--q", type=_int, required=True)
        p.add_argument("--n", type=_int, required=True)
        p.add_argument("--r", type=_int, required=True)
        p.add_argument("--t", type=_int, required=True)
        p.add_argument("--float", action="store_true", dest="float_mode")
    elif command == "partition":
        p.add_argument("--r", type=_int, required=True)
        p.add_argument("--g", type=_int, required=True)
        p.add_argument("--t", type=_int, required=True)
        p.add_argument(
            "--choice", type=_index_list, help="comma-separated 1-based partition indices"
        )
        p.add_argument("-o", "--out", type=str)
    elif command == "functional":
        p.add_argument("--q", type=_int, required=True)
        p.add_argument("--n1", type=_int, default=2)
        p.add_argument("--m1", type=_int, default=1)
        p.add_argument("--t", type=_int, required=True)
        p.add_argument(
            "--matrices", type=str, help="JSON file with t m1 x n1 matrices; defaults to "
            "pairwise-independent directions when n1=2, m1=1"
        )
        p.add_argument("-o", "--out", type=str)
    elif command == "product":
        p.add_argument("--r", type=_int, required=True)
        p.add_argument("--t", type=_int, required=True)
        p.add_argument("-o", "--out", type=str)
    elif command == "verify":
        p.add_argument("--in", dest="infile", type=str, required=True)
        p.add_argument("--r", type=_int, required=True)
        p.add_argument("--t", type=_int, required=True)
        p.add_argument("--strict", action="store_true")
    elif command == "analyze":
        p.add_argument("--in", dest="infile", type=str, required=True)
        p.add_argument("--r", type=_int)
        p.add_argument("--t", type=_int)
        p.add_argument("--dmin", action="store_true")
        p.add_argument("--greedy", action="store_true")
        p.add_argument("--start", type=_int, default=1)
        p.add_argument("--tiebreak", choices=["lowest", "random"], default="lowest")
        p.add_argument("--seed", type=_int)
        p.add_argument("--ghw", type=_int, metavar="I")
    elif command == "figure":
        p.add_argument("figure_id", choices=FIGURE_IDS)
        p.add_argument("--rmin", type=_int, required=True)
        p.add_argument("--rmax", type=_int, required=True)
        p.add_argument("--budget", type=_int, default=LP_DEFAULT_BUDGET)
        p.add_argument("-o", "--out", type=str)
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
    import json

    sys.stdout.write(json.dumps(doc, indent=2) + "\n")


def _write_code(code, out: str | None) -> None:
    import json

    from .bitmatrix import serialize_matrix

    _emit(serialize_matrix(code.H), out)
    if out is not None:
        _emit(json.dumps(code.sidecar(), indent=2) + "\n", os.path.splitext(out)[0] + ".json")


def _load_matrices(path: str) -> list:
    import json

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
    k = code.k  # the one elimination of H
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
    if argv is None:
        argv = sys.argv[1:]
    parser = _build_parser(argv)
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
