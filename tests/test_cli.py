import contextlib
import io
import itertools
import json
import math
import os
import random
import runpy
import shlex
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import cli_oracle
import enum_oracles
from availcodes import FIGURE_IDS, BitMatrix, EnumerationBudgetError
from availcodes import cli as cli_module
from availcodes import lp as lp_module
from availcodes import parse_matrix, product_code, serialize_matrix
from availcodes.bitmatrix import MatrixFormatError
from availcodes.cli import run_cli

GOLDEN = Path(__file__).parent.parent / "perfbench" / "golden"
SRC = str(Path(cli_module.__file__).resolve().parent.parent)
GOLDEN_ARGVS = {
    "bounds_lp_q2_n36_r5_t3.json": "bounds lp --q 2 --n 36 --r 5 --t 3",
    "dmin3_mdelta_r3-11.csv": "figure dmin3_mdelta --rmin 3 --rmax 11",
    "dmin3_r3-11.csv": "figure dmin3 --rmin 3 --rmax 11",
    "lp3_r3-5.csv": "figure lp3 --rmin 3 --rmax 5 --budget 5",
    "lp3_r3-8.csv": "figure lp3 --rmin 3 --rmax 8 --budget 8",
    "rate3_r3-11.csv": "figure rate3 --rmin 3 --rmax 11",
    "rate4_r3-11.csv": "figure rate4 --rmin 3 --rmax 11",
}


def _run(capsys, *argv):
    code = run_cli(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_construct_verify_pipeline(tmp_path, capsys):
    out = tmp_path / "k4.txt"
    code, _, _ = _run(
        capsys, "construct", "partition", "--r", "1", "--g", "2", "--t", "3", "-o", str(out)
    )
    assert code == 0
    sidecar = json.loads((tmp_path / "k4.json").read_text())
    assert sidecar["n"] == 4 and sidecar["k"] == 1 and sidecar["kind"] == "strict"
    code, stdout, _ = _run(
        capsys, "verify", "--in", str(out), "--r", "1", "--t", "3", "--strict"
    )
    assert code == 0
    report = json.loads(stdout)
    assert report["pass"] is True


def test_verify_availability_mode(tmp_path, capsys):
    path = tmp_path / "m.txt"
    code, stdout, _ = _run(capsys, "construct", "product", "--r", "2", "--t", "2")
    path.write_text(stdout)
    code, stdout, _ = _run(capsys, "verify", "--in", str(path), "--r", "2", "--t", "2")
    assert code == 0
    assert json.loads(stdout)["pass"] is True


def test_bounds_rate_transpose_json(capsys):
    code, stdout, _ = _run(
        capsys, "bounds", "rate", "--r", "4", "--t", "4", "--method", "transpose"
    )
    assert code == 0
    doc = json.loads(stdout)
    assert doc["exact"] == "1093/1820"
    assert doc["kind"] == "rate"


def test_bounds_rate_greedy_requires_n(capsys):
    code, _, err = _run(capsys, "bounds", "rate", "--r", "3", "--t", "3", "--method", "greedy-t3")
    assert code == 1
    assert "--n" in err
    code, stdout, _ = _run(
        capsys, "bounds", "rate", "--r", "3", "--t", "3", "--n", "20", "--method", "greedy-t3"
    )
    assert json.loads(stdout)["exact"] == "11/20"
    code, stdout, err = _run(
        capsys, "bounds", "rate", "--r", "3", "--t", "5", "--n", "20", "--method", "greedy-t3"
    )
    assert (code, stdout, err) == (1, "", "error: greedy-t3 needs t = 3, got t=5\n")


def test_bounds_dmin_methods(capsys):
    code, stdout, _ = _run(
        capsys, "bounds", "dmin", "--n", "20", "--k", "10", "--r", "2", "--t", "2"
    )
    assert json.loads(stdout)["exact"] == "5/1"
    code, stdout, _ = _run(
        capsys,
        "bounds", "dmin", "--n", "9", "--k", "4", "--r", "2", "--t", "2",
        "--method", "m-delta", "--M", "5", "--delta", "2",
    )
    assert code == 0
    assert json.loads(stdout)["kind"] == "distance"


M_DELTA_MAX_JSON = """{{
  "name": "m_delta_max_dmin",
  "params": {{
    "n": {n},
    "k": {k},
    "r": {r},
    "t": 3
  }},
  "exact": "{d}/1",
  "value": {d}.0,
  "kind": "distance",
  "diagnostics": {{
    "argmax_M": {m},
    "argmax_delta": {delta}
  }}
}}
"""


@pytest.mark.parametrize(
    "n, k, r, d, m, delta",
    [(20, 10, 3, 7, 9, 2), (364, 286, 11, 47, 77, 8)],  # the second is the r=11 dmin3_mdelta row
)
def test_bounds_dmin_m_delta_max_output(capsys, n, k, r, d, m, delta):
    code, stdout, _ = _run(
        capsys, "bounds", "dmin", "--method", "m-delta-max",
        "--n", str(n), "--k", str(k), "--r", str(r), "--t", "3",
    )
    assert code == 0
    assert stdout == M_DELTA_MAX_JSON.format(n=n, k=k, r=r, d=d, m=m, delta=delta)


SHORTENING_JSON = """{{
  "name": "{name}",
  "params": {{
    "n": {n},
    "k": {k},
    "r": {r},
    "t": {t}{extra}
  }},
  "exact": "{d}/1",
  "value": {d}.0,
  "kind": "distance",
  "diagnostics": {{
    "S": {s}
  }}
}}
"""


def _s_text(s):
    """`S` as json.dumps(indent=2) prints it at depth 2."""
    return "[]" if not s else "[\n" + ",\n".join(f"      {i}" for i in s) + "\n    ]"


@pytest.mark.parametrize(
    "n, k, r, t, md, d, s",
    [
        (9, 4, 2, 2, None, 4, [1, 2]),
        (9, 1, 2, 2, None, 9, []),  # no index qualifies: the unshortened point
        (20, 10, 3, 3, None, 6, [1, 2, 3, 4, 5]),
        (9, 4, 2, 2, (5, 2), 4, [1, 2]),
        (20, 10, 3, 3, (10, 3), 7, [1, 2, 3, 4]),
        (12, 6, 2, 2, (1, 2), 5, [1]),  # M = 1: the base entry alone
    ],
)
def test_bounds_dmin_shortening_output(capsys, n, k, r, t, md, d, s):
    argv = ["bounds", "dmin", "--n", str(n), "--k", str(k), "--r", str(r), "--t", str(t)]
    if md is None:
        name, extra = "shortening_dmin[simple]", ""
        argv += ["--method", "shortening"]
    else:
        name, extra = "m_delta_dmin", f',\n    "M": {md[0]},\n    "delta": {md[1]}'
        argv += ["--method", "m-delta", "--M", str(md[0]), "--delta", str(md[1])]
    code, stdout, _ = _run(capsys, *argv)
    assert code == 0
    assert stdout == SHORTENING_JSON.format(
        name=name, n=n, k=k, r=r, t=t, extra=extra, d=d, s=_s_text(s)
    )


README = Path(__file__).parent.parent / "README.md"


def test_readme_cli_lines_exit_0(tmp_path, capsys, monkeypatch):
    # every `availcodes ...` line of the README's CLI block, in order, so that
    # `analyze --in k4.txt` reads the matrix `construct ... -o k4.txt` wrote
    monkeypatch.chdir(tmp_path)
    block = README.read_text().split("\n## CLI\n", 1)[1].split("```sh\n", 1)[1]
    block = block.split("```", 1)[0]
    lines = [line for line in block.splitlines() if line.startswith("availcodes ")]
    assert len(lines) == 11
    for line in lines:
        code, _, err = _run(capsys, *shlex.split(line)[1:])
        assert (line, code, err) == (line, 0, "")


@pytest.mark.parametrize("name", sorted(path.name for path in GOLDEN.iterdir()))
def test_output_matches_golden(capsys, name):
    code, stdout, _ = _run(capsys, *GOLDEN_ARGVS[name].split())
    assert code == 0
    assert stdout == (GOLDEN / name).read_text()


def test_bounds_lp_json(capsys, monkeypatch):
    # the bound and the printed A-vector come from one solve
    solves = []
    solve = lp_module.lp_dimension_bound

    def counting_solve(*args, **kwargs):
        solves.append(args)
        return solve(*args, **kwargs)

    monkeypatch.setattr(lp_module, "lp_dimension_bound", counting_solve)
    code, stdout, _ = _run(
        capsys, "bounds", "lp", "--q", "2", "--n", "16", "--r", "3", "--t", "3"
    )
    assert code == 0
    doc = json.loads(stdout)
    assert doc["diagnostics"]["M"] == "1569792/5099"
    assert doc["A"]
    assert len(solves) == 1


def test_analyze_full(tmp_path, capsys):
    path = tmp_path / "k4.txt"
    _run(capsys, "construct", "functional", "--q", "2", "--t", "3", "-o", str(path))
    code, stdout, _ = _run(
        capsys,
        "analyze", "--in", str(path), "--dmin", "--greedy", "--ghw", "2",
    )
    assert code == 0
    doc = json.loads(stdout)
    assert doc["code"] == {"n": 4, "m": 6, "rank": 3, "k": 1}
    assert doc["checks"]["dmin"] == 4
    assert doc["checks"]["ghw"] == {"dimension": 2, "support": 3}
    assert doc["trace"]["g"] == [3, 2, 1]


@pytest.mark.parametrize("level", [1, 2, 3, 4])
def test_analyze_ghw_matches_oracle(tmp_path, capsys, level):
    # a dual of dimension 7: level 4 is within the subspace budget, above the level cap
    path = tmp_path / "g4.txt"
    _run(capsys, "construct", "product", "--r", "3", "--t", "2", "-o", str(path))
    try:
        expected = (0, enum_oracles.dual_ghw_bruteforce(product_code(3, 2), level), "")
    except EnumerationBudgetError as exc:
        expected = (1, None, f"error: {exc}\n")
    code, stdout, err = _run(capsys, "analyze", "--in", str(path), "--ghw", str(level))
    support = json.loads(stdout)["checks"]["ghw"]["support"] if code == 0 else None
    assert (code, support, err) == expected


def test_figure_single_row(capsys):
    code, stdout, _ = _run(capsys, "figure", "rate3", "--rmin", "3", "--rmax", "3")
    assert code == 0
    lines = stdout.strip().split("\n")
    assert len(lines) == 2
    assert lines[1].startswith("3,0.55,")


def test_figure_to_file_via_outdir(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("AVAILCODES_OUTDIR", str(tmp_path))
    code, _, _ = _run(
        capsys, "figure", "rate4", "--rmin", "3", "--rmax", "4", "-o", "fig.csv"
    )
    assert code == 0
    assert (tmp_path / "fig.csv").read_text().startswith("r,transpose")


def test_cli_determinism(capsys):
    argv = ["figure", "dmin3", "--rmin", "3", "--rmax", "6"]
    _, out1, _ = _run(capsys, *argv)
    _, out2, _ = _run(capsys, *argv)
    assert out1 == out2


def test_usage_error_exit_2(capsys):
    assert run_cli(["bounds", "rate", "--bogus"]) == 2
    capsys.readouterr()
    assert run_cli(["nonsense"]) == 2
    capsys.readouterr()
    for choice in ("a", "1,,2"):
        code, stdout, err = _run(
            capsys, "construct", "partition", "--r", "1", "--g", "2", "--t", "3", "--choice", choice
        )
        assert (code, stdout) == (2, "")
        assert f"argument --choice: expected comma-separated integers, got {choice!r}" in err


def test_lp_strengthen_is_a_usage_error(capsys):
    # the cap rows it added are implied by the model's other rows
    code, stdout, err = _run(
        capsys, "bounds", "lp", "--q", "2", "--n", "16", "--r", "3", "--t", "3", "--strengthen"
    )
    assert (code, stdout) == (2, "")
    assert err.startswith("usage: ") and "unrecognized arguments: --strengthen" in err
    assert "Traceback" not in err


def test_computation_error_exit_1(tmp_path, capsys):
    code, _, err = _run(capsys, "construct", "partition", "--r", "5", "--g", "2", "--t", "2")
    assert code == 1
    assert "prime power" in err
    bad = tmp_path / "bad.txt"
    bad.write_text("2 3\n10\n010\n")
    code, _, err = _run(capsys, "verify", "--in", bad.as_posix(), "--r", "1", "--t", "1")
    assert code == 1
    assert "line 2" in err


def test_analyze_random_tiebreak_needs_seed(tmp_path, capsys):
    path = tmp_path / "m.txt"
    _run(capsys, "construct", "product", "--r", "1", "--t", "2", "-o", str(path))
    code, _, err = _run(
        capsys, "analyze", "--in", str(path), "--greedy", "--tiebreak", "random"
    )
    assert code == 1
    assert "--seed" in err
    code, out1, _ = _run(
        capsys,
        "analyze", "--in", str(path), "--greedy", "--tiebreak", "random", "--seed", "7",
    )
    assert code == 0
    _, out2, _ = _run(
        capsys,
        "analyze", "--in", str(path), "--greedy", "--tiebreak", "random", "--seed", "7",
    )
    assert out1 == out2


def test_construct_functional_with_matrices_file(tmp_path, capsys):
    mats = tmp_path / "maps.json"
    mats.write_text(json.dumps([[[1, 0]], [[0, 1]], [[1, 1]]]))
    code, stdout, _ = _run(
        capsys,
        "construct", "functional", "--q", "2", "--t", "3", "--matrices", str(mats),
    )
    assert code == 0
    assert parse_matrix(stdout).rows == 6


def test_construct_functional_t_must_match_matrices(tmp_path, capsys):
    mats = tmp_path / "maps.json"
    mats.write_text(json.dumps([[[1, 0]], [[0, 1]], [[1, 1]]]))
    code, stdout, err = _run(
        capsys, "construct", "functional", "--q", "2", "--t", "5", "--matrices", str(mats)
    )
    assert (code, stdout) == (1, "")
    assert "--t is 5" in err and "holds 3 maps" in err


def test_construct_functional_general_needs_matrices(capsys):
    code, _, err = _run(
        capsys, "construct", "functional", "--q", "2", "--n1", "3", "--m1", "2", "--t", "2"
    )
    assert code == 1
    assert "--matrices" in err


def test_construct_functional_refuses_oversized_maps_before_any_rank(
    tmp_path, capsys, monkeypatch
):
    # dense (n1, m1) = (240, 120) maps over GF(2), each of full rank: their
    # rank checks took 0.6-0.9 s, growing as n1^3, before the block length
    # 2^240 was looked at
    from availcodes import constructions

    def no_rank(*args):
        raise AssertionError("matrix_rank called before the block-length check")

    monkeypatch.setattr(constructions, "matrix_rank", no_rank)
    rng = random.Random(1)
    rows = [[rng.randrange(2) for _ in range(240)] for _ in range(120)]
    mats = tmp_path / "maps.json"
    mats.write_text(json.dumps([rows, rows[::-1]]))
    code, stdout, err = _run(
        capsys, "construct", "functional", "--q", "2", "--n1", "240", "--m1", "120",
        "--t", "2", "--matrices", str(mats),
    )
    assert (code, stdout) == (1, "")
    assert err == "error: block length 2^240 exceeds limit 4096\n"


def test_construct_partition_rejects_repeated_choice(tmp_path, capsys):
    out = tmp_path / "rep.txt"
    code, _, err = _run(
        capsys,
        "construct", "partition", "--r", "1", "--g", "2", "--t", "3",
        "--choice", "1,1,2", "-o", str(out),
    )
    assert code == 1
    assert "distinct" in err
    assert not out.exists()


def test_analyze_computes_rank_once(tmp_path, capsys, monkeypatch):
    # every flag reads the code's one echelon form of H: k, the search's
    # basis, the walk's dual rows and the GHW's dual basis
    from availcodes import bitmatrix

    eliminations = []
    rref = bitmatrix._rref

    def counting_rref(bits, *mask):
        eliminations.append(tuple(bits))
        return rref(bits, *mask)

    monkeypatch.setattr(bitmatrix, "_rref", counting_rref)
    for r, extra, shape in [
        (2, [], {"n": 9, "m": 6, "rank": 5, "k": 4}),
        (2, ["--dmin"], {"n": 9, "m": 6, "rank": 5, "k": 4}),
        # the search hands over to the Gray walk after 136 words
        (4, ["--dmin"], {"n": 25, "m": 10, "rank": 9, "k": 16}),
        (4, ["--dmin", "--ghw", "2"], {"n": 25, "m": 10, "rank": 9, "k": 16}),
    ]:
        path = tmp_path / f"g{r}.txt"
        _run(capsys, "construct", "product", "--r", str(r), "--t", "2", "-o", str(path))
        h = parse_matrix(path.read_text())
        eliminations.clear()
        code, stdout, _ = _run(capsys, "analyze", "--in", str(path), *extra)
        assert code == 0
        assert json.loads(stdout)["code"] == shape
        assert eliminations.count(h.bits) == 1, extra


def test_partition_pipeline_at_block_length_4096(tmp_path, capsys, monkeypatch):
    # 4095 partitions of [4096], three of them used
    monkeypatch.setenv("AVAILCODES_OUTDIR", str(tmp_path))
    code, _, _ = _run(
        capsys, "construct", "partition", "--r", "1", "--g", "12", "--t", "3", "-o", "big.txt"
    )
    assert code == 0
    sidecar = json.loads((tmp_path / "big.json").read_text())
    assert (sidecar["n"], sidecar["m"], sidecar["kind"]) == (4096, 6144, "strict")
    matrix = str(tmp_path / "big.txt")
    for extra in (["--strict"], []):
        code, stdout, _ = _run(capsys, "verify", "--in", matrix, "--r", "1", "--t", "3", *extra)
        assert code == 0
        assert json.loads(stdout)["pass"] is True
    code, stdout, _ = _run(capsys, "analyze", "--in", matrix, "--r", "1", "--t", "3", "--greedy")
    assert code == 0
    doc = json.loads(stdout)
    assert doc["code"]["k"] == sidecar["k"]
    assert doc["trace"]["final_bound"] >= doc["code"]["k"]


# An apex column 1 and a row {1, a, b} for each pair of columns 2..18: at
# r = 2, t = 9 nine disjoint pairs need 18 points, so counting answers
_APEX_17 = [(1, a, b) for a, b in itertools.combinations(range(2, 19), 2)]
# Rows {1, a, b} for the edges of 12 disjoint triangles on columns 2..37: at
# r = 2, t = 13 counting admits 13 pairs in 36 points, and column 1's search
# tries the ways to take one edge from each of up to 12 triangles
_TRIANGLES_12 = [
    (1, 2 + 3 * c + x, 2 + 3 * c + y) for c in range(12) for x, y in ((0, 1), (0, 2), (1, 2))
]


BAD_INPUTS = [
    ("bounds dmin --n 10 --k 5 --r 0 --t 3", None),
    ("bounds dmin --n 10 --k 5 --r 0 --t 3 --method m-delta --M 3 --delta 1", None),
    ("bounds lp --q 2 --n 4 --r -1 --t 3", None),
    # the LP's block-length limit, checked before any Krawtchouk column,
    # and its simplex work budget
    ("bounds lp --q 2 --n 20000 --r 1 --t 1", None),
    ("bounds lp --q 2 --n 441 --r 2 --t 5", None),
    ("bounds rate --r 0 --t 0 --method wzl", None),
    ("bounds dmin --n 10 --k 5 --r 2 --t -1 --method wang", None),
    ("construct functional --q 2 --t 1 --matrices", 5),
    ("construct functional --q 2 --t 1 --matrices", [[[None, 1]]]),
    ("construct functional --q 2 --t 1 --matrices", [[[2, 1]]]),
    ("construct functional --q 2 --t 0", None),
    ("construct functional --q 2 --t 1 --matrices", []),
    ("construct product --r -2 --t 2", None),
    ("construct product --r 1 --t 0", None),
    ("construct partition --r 1 --g 2 --t 0", None),
    ("construct functional --q 2 --t 5 --matrices", [[[1, 0]], [[0, 1]], [[1, 1]]]),
    # limits checked before the work they bound: q**g, q**t, prime_power and the choice list
    ("construct partition --r 1 --g 100000000000 --t 1", None),
    ("construct product --r 1 --t 100000000000", None),
    ("construct functional --q 2305843009213693951 --t 3", None),
    ("construct partition --r 2305843009213693950 --g 1 --t 1", None),
    ("construct partition --r 1 --g 2 --t 1000000000", None),
    # OverflowError: the float of the exact value
    ("bounds dmin --n 10**400 --k 2 --r 1 --t 2", None),
    ("bounds dmin --n 10**400 --k 2 --r 1 --t 2 --method wang", None),
    # limits checked before the work they bound: the shortening profile's
    # length and the product bound's size
    ("bounds dmin --n 10**400 --k 2 --r 1 --t 2 --method shortening", None),
    ("bounds dmin --n 1000000000000 --k 2 --r 1 --t 2 --method shortening", None),
    ("bounds rate --r 1 --t 10000000", None),
    # the (M, delta) profile's length and block length, and the size of
    # the m-delta-max scan, all checked before the recursion
    ("bounds dmin --n 100 --k 50 --r 2 --t 3 --method m-delta --M 100000000000 --delta 1",
     None),
    ("bounds dmin --n 5 --k 3 --r 9 --t 2 --method m-delta --M 2 --delta 1", None),
    ("bounds dmin --n 5 --k 3 --r 9 --t 2 --method m-delta-max", None),
    ("bounds dmin --n 100000 --k 10000 --r 2 --t 3 --method m-delta-max", None),
    # an empty --choice is the empty list, not the default
    ("construct partition --r 1 --g 2 --t 3 --choice ''", None),
    # with t < 0 the search would try every subset of column 1's 21 rows
    ("verify --r 1 --t -1 --in", None),
    # the general search stops at its step budget
    ("verify --r 2 --t 13 --in", _TRIANGLES_12),
    ("bounds rate --r 3 --t 5 --n 20 --method greedy-t3", None),
    ("bounds dmin --n 5 --k 10 --r 2 --t 2 --method wang", None),
    ("bounds dmin --n -5 --k 1 --r 2 --t 2 --method wang", None),
    # rows from r_max down: r_max's profile and (M, delta) scan are over
    # their limits, so neither sweep computes the rows below first
    ("figure dmin3 --rmin 3 --rmax 2000", None),
    ("figure dmin3_mdelta --rmin 3 --rmax 40", None),
    # the partition code's entry count, checked before any partition is built
    ("construct partition --r 2 --g 7 --t 801", None),
    ("construct partition --r 1 --g 12 --t 4095", None),
    # an exact value over EXACT_BITS_LIMIT, refused by each writer of one:
    # `to_json`, the figure cells and the LP's M
    ("bounds rate --r 3 --t 7001", None),
    ("bounds rate --r 7000 --t 4 --method transpose", None),
    ("bounds rate --r 1000000 --t 4096", None),
    ("figure rate4 --rmin 7000 --rmax 7000", None),
    ("bounds lp --q 10**30 --n 150 --r 1 --t 1", None),
    # k = 64 and 41, both sides over the Gray walk's limit, and the
    # information-set search's next step over its 2^21 words
    ("analyze --dmin --in", "construct product --r 4 --t 3"),
    ("analyze --r 7 --t 4 --dmin --in", "construct partition --r 7 --g 2 --t 4"),
]


def _bad_input_argv(text: str) -> list[str]:
    """A BAD_INPUTS argv as a list, with 10**e written out."""
    return [str(10 ** int(a[4:])) if a.startswith("10**") else a for a in shlex.split(text)]


@pytest.mark.parametrize("argv,matrices", BAD_INPUTS)
def test_bad_input_exits_1_with_message(tmp_path, capsys, argv, matrices):
    argv = _bad_input_argv(argv)
    if argv[-1] == "--matrices":
        path = tmp_path / "maps.json"
        path.write_text(json.dumps(matrices))
        argv.append(str(path))
    elif argv[-1] == "--in":
        path = tmp_path / "h.txt"
        if isinstance(matrices, str):  # the matrix a construct argv writes
            assert _run(capsys, *shlex.split(matrices), "-o", str(path))[0] == 0
        else:
            rows = matrices or [(1, j) for j in range(2, 23)]  # 21 weight-2 rows through column 1
            n = max(map(max, rows))
            path.write_text(serialize_matrix(BitMatrix.from_supports(rows, n)))
        argv.append(str(path))
    start = time.perf_counter()
    code, stdout, err = _run(capsys, *argv)
    # a d_min refusal comes within a second
    assert time.perf_counter() - start < (1 if "--dmin" in argv else 3)
    assert (code, stdout) == (1, "")
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize(
    "construct,k",
    [("construct product --r 13 --t 2", 169), ("construct partition --r 3 --g 3 --t 3", 32)],
)
def test_analyze_dmin_past_the_enumeration_limit(tmp_path, capsys, construct, k):
    # min(k, n - k) = 27 and 32: answered by the information-set search
    path = tmp_path / "h.txt"
    assert _run(capsys, *shlex.split(construct), "-o", str(path))[0] == 0
    code, stdout, err = _run(capsys, "analyze", "--in", str(path), "--dmin")
    assert (code, err) == (0, "")
    doc = json.loads(stdout)
    assert (doc["code"]["k"], doc["checks"]["dmin"]) == (k, 4)


def test_integer_options_do_not_depend_on_the_int_digit_limit():
    # int() refuses over 4300 digits unless PYTHONINTMAXSTRDIGITS=0 lifts
    # that; the parser refuses them itself, with one message under both
    argv = ["bounds", "rate", "--r", "1" * 4301, "--t", "1"]
    outcomes = set()
    for limit in ("4300", "0"):
        env = {**os.environ, "PYTHONPATH": SRC, "PYTHONINTMAXSTRDIGITS": limit}
        proc = subprocess.run(
            [sys.executable, "-m", "availcodes.cli", *argv],
            env=env, capture_output=True, text=True, timeout=60,
        )
        outcomes.add((proc.returncode, proc.stdout, proc.stderr))
    [(code, stdout, stderr)] = outcomes
    assert (code, stdout) == (2, "")
    assert stderr.endswith(
        "error: argument --r: invalid int value: more than 4300 digits\n"
    )


def test_exact_output_does_not_depend_on_the_int_digit_limit(capsys):
    # PYTHONINTMAXSTRDIGITS=0 lifts CPython's limit on writing long ints;
    # the output, written and refused alike, is the default limit's
    env = {**os.environ, "PYTHONPATH": SRC, "PYTHONINTMAXSTRDIGITS": "0"}
    for t, code in ((6001, 0), (7001, 1)):
        argv = ["bounds", "rate", "--r", "3", "--t", str(t)]
        proc = subprocess.run(
            [sys.executable, "-m", "availcodes.cli", *argv],
            env=env, capture_output=True, text=True, timeout=60,
        )
        assert (proc.returncode, proc.stdout, proc.stderr) == _run(capsys, *argv)
        assert proc.returncode == code
    assert proc.stderr == (
        "error: an exact value of 16642 bits is over the 14284-bit limit of exact output\n"
    )


def test_verify_answers_the_apex_matrix_by_counting(tmp_path, capsys):
    path = tmp_path / "apex.txt"
    path.write_text(serialize_matrix(BitMatrix.from_supports(_APEX_17, 18)))
    start = time.perf_counter()
    code, stdout, err = _run(capsys, "verify", "--in", str(path), "--r", "2", "--t", "9")
    assert time.perf_counter() - start < 3
    assert (code, err) == (0, "")
    assert json.loads(stdout) == {"pass": False, "failing_columns": list(range(1, 19))}


@pytest.mark.parametrize(
    "document",
    [5, {"a": [[1, 0]]}, [[1, 0]], [[[None, 1]]], [[[1.9, 1]]], [[[1.0, 1]]],
     [[[True, 1]]], [[["0", 1]]], [[["01"]]]],
)
def test_matrices_file_holds_json_integers_only(tmp_path, capsys, document):
    path = tmp_path / "maps.json"
    path.write_text(json.dumps(document))
    code, stdout, err = _run(
        capsys, "construct", "functional", "--q", "2", "--t", "1", "--matrices", str(path)
    )
    assert (code, stdout) == (1, "")
    assert err == f"error: {path} must hold a JSON list of integer matrices\n"


def test_lp_with_q_beyond_the_double_range(capsys):
    # every coefficient and M = q^11 / 7 exceed the double range at q = 10^40
    q = 10**40
    argv = ("bounds", "lp", "--q", str(q), "--n", "12", "--r", "2", "--t", "1")
    code, stdout, err = _run(capsys, *argv)
    assert (code, err) == (0, "")
    doc = json.loads(stdout)
    assert doc["diagnostics"]["M"] == f"{q**11}/7"
    assert doc["value"] == pytest.approx(11 - math.log(7, q), rel=1e-15)
    code, stdout, err = _run(capsys, *argv, "--float")
    assert (code, stdout) == (1, "")
    assert err == (
        "error: float mode cannot hold this model: an entry exceeds the double "
        "range; use exact mode\n"
    )


_SMALL = st.integers(-2, 12)
_EXPONENT = st.integers(-2, 4)  # t, g, n1, m1: keeps q^t within a few MB of output
_BOUNDS_FLAGS = {
    "rate": {"r": _SMALL, "t": _SMALL, "n": _SMALL},
    "dmin": {"n": _SMALL, "k": _SMALL, "r": _SMALL, "t": _SMALL, "M": _SMALL, "delta": _SMALL},
    "lp": {"q": _SMALL, "n": _SMALL, "r": _SMALL, "t": _SMALL},
}
_CONSTRUCT_FLAGS = {
    "product": {"r": _SMALL, "t": _EXPONENT},
    "partition": {"r": _SMALL, "g": _EXPONENT, "t": _SMALL},
    "functional": {"q": _SMALL, "n1": _EXPONENT, "m1": _EXPONENT, "t": _SMALL},
}
_JSON = st.recursive(
    st.none() | st.booleans() | st.integers(-1, 3) | st.text(max_size=2),
    lambda inner: st.lists(inner, max_size=3),
    max_leaves=10,
)


@st.composite
def cli_argvs(draw):
    """`bounds rate|dmin|lp` and `construct product|partition|functional`
    with each flag present (as a small integer) or missing, plus the
    optional switches; functional sometimes reads a drawn JSON document."""
    group = draw(st.sampled_from(("bounds", "construct")))
    table = _BOUNDS_FLAGS if group == "bounds" else _CONSTRUCT_FLAGS
    command = draw(st.sampled_from(sorted(table)))
    argv = [group, command]
    for flag, values in table[command].items():
        if draw(st.integers(0, 5)):
            argv += [f"--{flag}", str(draw(values))]
    if command == "rate":
        argv += ["--method", draw(st.sampled_from(sorted(cli_module.RATE_METHODS)))]
    elif command == "dmin":
        argv += ["--method", draw(st.sampled_from(sorted(cli_module.DMIN_METHODS)))]
    elif command == "lp":
        argv += draw(st.sampled_from(([], ["--float"], ["--strengthen"])))
    elif command == "partition" and draw(st.booleans()):
        argv += ["--choice", ",".join(map(str, draw(st.lists(_SMALL, max_size=4))))]
    document = draw(_JSON) if command == "functional" and draw(st.booleans()) else None
    if isinstance(document, list) and draw(st.booleans()):
        argv += ["--t", str(len(document))]  # the last --t wins: past the count check
    return argv, document


@settings(
    max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
@given(cli_argvs())
@example((["bounds", "dmin", "--n", "10", "--k", "5", "--r", "0", "--t", "3"], None))
@example((["construct", "functional", "--q", "3", "--t", "2"], [[[1, 0]], [[0, 5]]]))
@example((["bounds", "lp", "--q", str(10**40), "--n", "12", "--r", "2", "--t", "1"], None))
@example((["bounds", "dmin", "--n", str(10**400), "--k", "2", "--r", "1", "--t", "2"], None))
@example((["bounds", "dmin", "--n", str(10**400), "--k", "2", "--r", "1", "--t", "2",
           "--method", "shortening"], None))
@example((["construct", "partition", "--r", "1", "--g", "100000000000", "--t", "1"], None))
@example((["construct", "product", "--r", "1", "--t", "100000000000"], None))
@example((["construct", "functional", "--q", "2305843009213693951", "--t", "3"], None))
@example((["construct", "partition", "--r", "2305843009213693950", "--g", "1", "--t", "1"], None))
@example((["construct", "partition", "--r", "1", "--g", "2", "--t", "1000000000"], None))
@example((["bounds", "dmin", "--n", "100", "--k", "50", "--r", "2", "--t", "100000000000"], None))
@example((["bounds", "rate", "--r", "1", "--t", "10000000"], None))
@example((["bounds", "dmin", "--n", "1000000000000", "--k", "2", "--r", "1", "--t", "2",
           "--method", "shortening"], None))
def test_run_cli_fuzz_exits_cleanly(tmp_path, drawn):
    argv, document = drawn
    if document is not None:
        path = tmp_path / "maps.json"
        path.write_text(json.dumps(document))
        argv = argv + ["--matrices", str(path)]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run_cli(argv)
    assert code in (0, 1, 2)
    if code == 1:
        assert err.getvalue().startswith("error: ")


@st.composite
def matrix_texts(draw):
    """A small matrix in the text format, sometimes with one defect: a
    wrong header count, a short row, a stray character or a missing row."""
    n = draw(st.integers(1, 9))
    rows = draw(st.lists(st.integers(0, (1 << n) - 1), min_size=1, max_size=6))
    lines = [f"{len(rows)} {n}"] + [format(row, f"0{n}b") for row in rows]
    defect = draw(st.sampled_from((None, None, "header", "short", "char", "missing")))
    i = draw(st.integers(1, len(rows)))
    if defect == "header":
        lines[0] = f"{len(rows) + draw(st.integers(-1, 1))} {n + draw(st.integers(-1, 1))}"
    elif defect == "short":
        lines[i] = lines[i][:-1]
    elif defect == "char":
        lines[i] = draw(st.sampled_from("x2_ ")) + lines[i][1:]
    elif defect == "missing":
        del lines[i]
    return "\n".join(lines) + "\n"


@st.composite
def matrix_argvs(draw):
    """`analyze` with any of --dmin, --ghw, --greedy (with --start and the
    tie-breaks) and the declared --r/--t, or `verify` with or without
    --strict, each flag present or missing."""
    small = st.integers(-1, 5)
    if draw(st.booleans()):
        argv = ["analyze"]
        for flag in ("--r", "--t"):
            if draw(st.booleans()):
                argv += [flag, str(draw(small))]
        if draw(st.booleans()):
            argv.append("--dmin")
        if draw(st.booleans()):
            argv += ["--ghw", str(draw(st.integers(0, 5)))]
        if draw(st.booleans()):
            argv += ["--greedy", "--start", str(draw(st.integers(0, 10)))]
            tiebreak = draw(st.sampled_from(([], ["--tiebreak", "random"])))
            argv += tiebreak
            if tiebreak and draw(st.integers(0, 3)):
                argv += ["--seed", str(draw(st.integers(0, 9)))]
    else:
        argv = ["verify"]
        for flag in ("--r", "--t"):
            if draw(st.integers(0, 5)):
                argv += [flag, str(draw(small))]
        if draw(st.booleans()):
            argv.append("--strict")
    return argv


@settings(
    max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
@given(matrix_texts(), matrix_argvs())
@example("2 4\n1100\n0011\n", ["analyze", "--dmin", "--ghw", "2", "--greedy"])
@example("2 4\n1100\n0x11\n", ["verify", "--r", "1", "--t", "1"])
@example("2 4\n1100\n1010\n", ["verify", "--r", "1", "--t", "-1"])
def test_run_cli_fuzz_matrix_commands_exit_cleanly(tmp_path, text, argv):
    path = tmp_path / "h.txt"
    path.write_text(text)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run_cli([argv[0], "--in", str(path), *argv[1:]])
    assert code in (0, 1, 2)
    assert "Traceback" not in err.getvalue()
    if code == 0:
        json.loads(out.getvalue())
    if code == 1:
        assert out.getvalue() == ""
        assert err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1
        try:
            parse_matrix(text)
        except MatrixFormatError as exc:  # unless the flags fail first, a 1-based line
            message = err.getvalue()
            assert f"line {exc.line}: " in message or "requires an explicit --seed" in message


@settings(max_examples=200, deadline=None)
@given(
    st.sampled_from(FIGURE_IDS),
    st.integers(-1, 6),
    st.integers(-1, 6),
    st.integers(-1, 5),
)
@example("lp3", 1, 5, 5)
@example("dmin3_mdelta", 1, 6, 0)
def test_run_cli_fuzz_figure_exits_cleanly(figure_id, rmin, rmax, budget):
    argv = ["figure", figure_id, "--rmin", str(rmin), "--rmax", str(rmax), "--budget", str(budget)]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run_cli(argv)
    assert code in (0, 1, 2)
    assert "Traceback" not in err.getvalue()
    if code == 0:
        assert len(out.getvalue().splitlines()) == rmax - rmin + 2
    else:
        assert out.getvalue() == ""
    if code == 1:
        assert err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1


def _workload_argvs() -> list[list[str]]:
    """Every argv of the benchmark's workloads for seeds 1-3, once each."""
    workloads = runpy.run_path(str(GOLDEN.parent / "workloads.py"))
    argvs = dict.fromkeys(
        command.argv
        for name in workloads["WORKLOADS"]
        for seed in (1, 2, 3)
        for command in workloads["commands"](name, seed)
    )
    return [list(argv) for argv in argvs]


_LEAVES = [
    "bounds rate", "bounds dmin", "bounds lp",
    "construct partition", "construct functional", "construct product",
    "verify", "analyze", "figure",
]
PARSER_ARGVS = [
    *_workload_argvs(),
    *(shlex.split(f"{cmd} --help") for cmd in ["", "bounds", "construct", *_LEAVES]),
    ["-h"], ["bounds", "-h", "rate"], ["--help", "bounds", "rate"], ["figure", "rate3", "-h"],
    # the usage errors above
    ["bounds", "rate", "--bogus"],
    ["nonsense"],
    *(shlex.split(f"construct partition --r 1 --g 2 --t 3 --choice {c}") for c in ("a", "1,,2")),
    shlex.split("bounds lp --q 2 --n 16 --r 3 --t 3 --strengthen"),
    # every bad input, with a file name after a trailing --in or --matrices
    *(_bad_input_argv(argv) + (["h.txt"] if argv.endswith(("--in", "--matrices")) else [])
      for argv, _ in BAD_INPUTS),
    # no command, a bad choice, a command at the wrong level, missing flags
    [], ["figure", "nope"], ["bounds"], ["construct"], ["bounds", "nope"],
    ["rate", "--r", "3", "--t", "3"], ["bounds", "figure"], ["verify", "rate"],
    shlex.split("bounds rate --r 3"), shlex.split("verify --r 1 --t 1"),
    shlex.split("figure rate3 --rmin 3"), shlex.split("construct product --t 2 -o x.txt"),
    # tokens that start with "-" before the command
    ["--bogus", "bounds", "rate", "--r", "3", "--t", "3"],
    ["bounds", "--bogus", "rate", "--r", "3", "--t", "3"],
    ["-", "bounds"], ["-1", "bounds"], ["--", "bounds", "rate", "--r", "3", "--t", "3"],
]


def _parsed(parser, argv):
    """(exit code or None, stdout, stderr, the Namespace's dict or None)."""
    out, err = io.StringIO(), io.StringIO()
    namespace, code = None, None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            namespace = vars(parser.parse_args(argv))
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue(), namespace


@pytest.mark.parametrize(
    "argv", PARSER_ARGVS, ids=[" ".join(argv) or "(empty)" for argv in PARSER_ARGVS]
)
def test_parser_branch_matches_the_full_parser(monkeypatch, argv):
    monkeypatch.setenv("COLUMNS", "80")
    expected = _parsed(cli_oracle.build_parser(), argv)
    assert _parsed(cli_module._build_parser(argv), argv) == expected
