"""Workloads: the availcodes CLI argv lists each one runs, built from a seed,
and the check every command's output must pass.

A check takes a command's outcome and the work directory the command ran in
and returns None when the output is right, or a one-line problem.  Outputs
that do not depend on the seed must match the goldens in `golden/` byte for
byte; seeded outputs are held to invariants and to values known for the
codes they describe.
"""

from __future__ import annotations

import csv
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

GOLDEN = Path(__file__).resolve().parent / "golden"

# A float LP passes when log2 of its M is within this many bits of log2 of
# the exact optimum, read from the exact column of `golden/lp3_r3-8.csv`
# (the lp3 figure up to r=8).  The r=7 float solve is about 2.4e-5 bits off.
FLOAT_LOG2_TOL = 1e-3

PARTITIONS_R3_G5 = 341  # (4^5 - 1) / 3 partitions in the r=3, g=5 family


@dataclass(frozen=True)
class Outcome:
    exit_code: int
    stdout: str
    stderr: str


Check = Callable[[Outcome, Path], "str | None"]


@dataclass(frozen=True)
class Command:
    argv: tuple[str, ...]
    check: Check


def _failed(out: Outcome) -> str | None:
    if out.exit_code != 0:
        first = out.stderr.strip().splitlines()[:1]
        return f"exit {out.exit_code}: {first[0] if first else 'no message'}"
    return None


def _json(out: Outcome) -> dict:
    return json.loads(out.stdout)


def golden(name: str) -> Check:
    expected = (GOLDEN / name).read_text()

    def check(out: Outcome, workdir: Path) -> str | None:
        if problem := _failed(out):
            return problem
        return None if out.stdout == expected else f"output differs from golden {name}"

    return check


def _exact_log2_m(r: int) -> float:
    with open(GOLDEN / "lp3_r3-8.csv", newline="") as fh:
        row = next(row for row in csv.DictReader(fh) if int(row["r"]) == r)
    num, den = (int(v) for v in row["lp_bound_rate_exact"].split("/"))
    return math.log2(num) - math.log2(den)


def float_lp(r: int) -> Check:
    """`bounds lp --float` at (q=2, n=(r+1)^2, t=3) must exit 0 and agree
    with the exact optimum within FLOAT_LOG2_TOL bits."""
    exact = _exact_log2_m(r)

    def check(out: Outcome, workdir: Path) -> str | None:
        if problem := _failed(out):
            return problem
        got = _json(out)["value"]
        if abs(got - exact) > FLOAT_LOG2_TOL:
            return f"float log2 M {got} is {abs(got - exact):.3g} bits from exact {exact}"
        return None

    return check


def constructed(sidecar: str, n: int, m: int, k: int | None = None) -> Check:
    """A `construct ... -o` run: silent stdout and a strict sidecar of the given shape."""

    def check(out: Outcome, workdir: Path) -> str | None:
        if problem := _failed(out):
            return problem
        if out.stdout:
            return "construct with -o wrote to stdout"
        doc = json.loads((workdir / sidecar).read_text())
        shape = (doc["n"], doc["m"], doc["kind"])
        if shape != (n, m, "strict"):
            return f"sidecar {sidecar} has (n, m, kind) = {shape}, expected ({n}, {m}, 'strict')"
        if k is not None and doc["k"] != k:
            return f"sidecar {sidecar} has k={doc['k']}, expected {k}"
        return None

    return check


def verified() -> Check:
    def check(out: Outcome, workdir: Path) -> str | None:
        if problem := _failed(out):
            return problem
        return None if _json(out)["pass"] is True else "verify did not pass"

    return check


def analyzed(
    sidecar: str,
    dmin: int | None = None,
    ghw: int | None = None,
    start: int | None = None,
) -> Check:
    """`analyze`: k equals the sidecar's k, d_min and the dual GHW equal
    their known values, and a greedy walk starts at `start` and ends with
    n - |S| = final_bound >= k."""

    def check(out: Outcome, workdir: Path) -> str | None:
        if problem := _failed(out):
            return problem
        doc = _json(out)
        code = doc["code"]
        side_k = json.loads((workdir / sidecar).read_text())["k"]
        if code["k"] != side_k:
            return f"analyze k={code['k']} but sidecar k={side_k}"
        checks = doc.get("checks", {})
        if dmin is not None and checks.get("dmin") != dmin:
            return f"dmin {checks.get('dmin')}, expected {dmin}"
        if ghw is not None and checks.get("ghw", {}).get("support") != ghw:
            return f"ghw support {checks.get('ghw')}, expected {ghw}"
        if start is not None:
            trace = doc["trace"]
            if trace["sigma"][0] != start:
                return f"greedy started at {trace['sigma'][0]}, expected {start}"
            if trace["final_bound"] != code["n"] - len(trace["sigma"]):
                return "greedy final_bound is not n - |S|"
            if trace["final_bound"] < code["k"]:
                return f"greedy final_bound {trace['final_bound']} < k={code['k']}"
        return None

    return check


# Every workload's pass takes a few seconds, so that a run holds several
# passes and reports their median: on a shared 2-vCPU VM the time of one
# pass of fixed work varies by up to 1.8x, and runs of a single 15-40 s pass
# of larger inputs spread by 16-21% (see README.md).


def _lp_exact(rng: random.Random) -> list[Command]:
    return [
        Command(("figure", "lp3", "--rmin", "3", "--rmax", "5", "--budget", "5"), golden("lp3_r3-5.csv")),
        Command(
            ("bounds", "lp", "--q", "2", "--n", "36", "--r", "5", "--t", "3"),
            golden("bounds_lp_q2_n36_r5_t3.json"),
        ),
        Command(("bounds", "lp", "--q", "2", "--n", "64", "--r", "7", "--t", "3", "--float"), float_lp(7)),
    ]


def _bounds_sweep(rng: random.Random) -> list[Command]:
    return [
        Command(("figure", fig, "--rmin", "3", "--rmax", "11"), golden(f"{fig}_r3-11.csv"))
        for fig in ("dmin3_mdelta", "dmin3", "rate3", "rate4")
    ]


def _matrix_pipeline(rng: random.Random) -> list[Command]:
    choice = ",".join(str(c) for c in sorted(rng.sample(range(1, PARTITIONS_R3_G5 + 1), 3)))
    start_part = rng.randint(1, 1024)
    start_fun = rng.randint(1, 4096)
    return [
        Command(
            ("construct", "partition", "--r", "3", "--g", "5", "--t", "3", "--choice", choice, "-o", "part.txt"),
            constructed("part.json", 1024, 768),
        ),
        Command(("verify", "--in", "part.txt", "--r", "3", "--t", "3", "--strict"), verified()),
        Command(("verify", "--in", "part.txt", "--r", "3", "--t", "3"), verified()),
        Command(
            ("analyze", "--in", "part.txt", "--r", "3", "--t", "3", "--greedy", "--start", str(start_part)),
            analyzed("part.json", start=start_part),
        ),
        Command(("construct", "functional", "--q", "64", "--t", "3", "-o", "fun.txt"), constructed("fun.json", 4096, 192)),
        Command(("verify", "--in", "fun.txt", "--r", "63", "--t", "3", "--strict"), verified()),
        Command(
            ("analyze", "--in", "fun.txt", "--greedy", "--start", str(start_fun)),
            analyzed("fun.json", start=start_fun),
        ),
    ]


def _small_enum(rng: random.Random) -> list[Command]:
    # Known values.  d_min: 12 for the five-direction fiber code over GF(7)
    # and 4 for the 5x5 grid codes (product r=4 and fiber q=5, t=2), both
    # also found by a codeword enumeration independent of the package.  Dual
    # GHWs of the 5x5 grid: a sum of a rows and b columns has weight
    # 5a + 5b - 2ab, and an i-dimensional subspace's support is the sum of
    # its nonzero weights over 2^(i-1), so GHW_2 = (5 + 5 + 8) / 2 = 9 (two
    # crossing lines) and GHW_3 = 13 (a line and two lines crossing it).
    # GHW_2 = 7 for four parallel classes of AG(2, 4), by an enumeration of
    # coordinate subsets independent of the package.
    start = rng.randint(1, 16)
    return [
        Command(("construct", "functional", "--q", "7", "--t", "5", "-o", "f7.txt"), constructed("f7.json", 49, 35, k=18)),
        Command(("analyze", "--in", "f7.txt", "--dmin"), analyzed("f7.json", dmin=12)),
        Command(("construct", "product", "--r", "4", "--t", "2", "-o", "g5.txt"), constructed("g5.json", 25, 10, k=16)),
        Command(("analyze", "--in", "g5.txt", "--dmin", "--ghw", "2"), analyzed("g5.json", dmin=4, ghw=9)),
        Command(("construct", "partition", "--r", "3", "--g", "2", "--t", "4", "-o", "p16.txt"), constructed("p16.json", 16, 16, k=7)),
        Command(("verify", "--in", "p16.txt", "--r", "3", "--t", "4", "--strict"), verified()),
        Command(
            ("analyze", "--in", "p16.txt", "--ghw", "2", "--greedy", "--start", str(start)),
            analyzed("p16.json", ghw=7, start=start),
        ),
        Command(("construct", "functional", "--q", "5", "--t", "2", "-o", "f5.txt"), constructed("f5.json", 25, 10, k=16)),
        Command(("analyze", "--in", "f5.txt", "--dmin", "--ghw", "3"), analyzed("f5.json", dmin=4, ghw=13)),
    ]


WORKLOADS: dict[str, Callable[[random.Random], list[Command]]] = {
    "lp-exact": _lp_exact,
    "bounds-sweep": _bounds_sweep,
    "matrix-pipeline": _matrix_pipeline,
    "small-enum": _small_enum,
}

# Known failures, run once per run outside the timed passes and reported as
# they are, because a workload may hold only commands that succeed.  The r=8
# float solve exits 1 ("unexpected LP status unbounded") at the time of
# writing; once it passes its check, the report says so.
PROBES: dict[str, list[Command]] = {
    "lp-exact": [
        Command(("bounds", "lp", "--q", "2", "--n", "81", "--r", "8", "--t", "3", "--float"), float_lp(8)),
    ],
}


def commands(workload: str, seed: int) -> list[Command]:
    """The workload's argv list for this seed; the same seed gives the same list."""
    return WORKLOADS[workload](random.Random(f"{workload}:{seed}"))
