"""The package's lazy exports, the layers each CLI command loads, and no
public member or export that only the tests use.

`import availcodes` loads no layer, and `run_cli` imports only the layers
of the command it runs.  No command loads `dataclasses`, which would bring
`inspect`, `ast`, `dis` and `tokenize` with it: every record is a slotted
class on `availcodes._Record`.  The matrix commands (`construct`, `verify`,
`analyze`) load no `fractions` or `decimal` either.  `--help` and the
figures load no `json`, and the parser gets the arguments of the selected
command alone.  Each argv runs in a fresh interpreter, so the modules it
leaves in `sys.modules` are its own.
"""

import argparse
import ast
import contextlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import availcodes
from availcodes.cli import run_cli

SRC = str(Path(availcodes.__file__).resolve().parent.parent)

# json is imported after the modules are listed, so the list shows whether
# the command loaded it
_PROBE = """
import contextlib, io, sys
from availcodes.cli import run_cli
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    code = run_cli(sys.argv[1:])
modules = sorted(sys.modules)
import json
print(json.dumps([code, modules]))
"""

_BOUNDS_LP = {"bounds", "lp", "weights"}
_CONSTRUCT = {"constructions", "codes", "fields", "bitmatrix"}
_MATRIX_CHECKS = {"bitmatrix", "codes", "verification", "weights"}

# argv -> the package modules it loads besides `availcodes` and `availcodes.cli`
FOOTPRINTS = [
    ("--help", set()),
    ("bounds --help", set()),
    ("figure --help", set()),
    ("bounds rate --r 3 --t 3", {"bounds"}),
    ("bounds dmin --n 20 --k 10 --r 3 --t 3 --method m-delta-max", {"bounds"}),
    ("bounds lp --q 2 --n 16 --r 3 --t 3", _BOUNDS_LP),
    ("figure rate3 --rmin 3 --rmax 5", {"figures", "bounds"}),
    ("figure dmin3_mdelta --rmin 3 --rmax 4", {"figures", "bounds"}),
    ("figure lp3 --rmin 3 --rmax 3", {"figures"} | _BOUNDS_LP),
    ("construct partition --r 1 --g 2 --t 3", _CONSTRUCT),
    ("construct functional --q 3 --t 2", _CONSTRUCT),
    ("construct product --r 2 --t 2", _CONSTRUCT),
    ("verify --in k4.txt --r 1 --t 3 --strict", _MATRIX_CHECKS),
    ("verify --in k4.txt --r 1 --t 3", _MATRIX_CHECKS),
    ("analyze --in k4.txt --dmin --greedy --ghw 2", _MATRIX_CHECKS),
]


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    path = tmp_path_factory.mktemp("footprint")
    with open(path / "k4.txt", "w") as fh, contextlib.redirect_stdout(fh):
        assert run_cli(["construct", "partition", "--r", "1", "--g", "2", "--t", "3"]) == 0
    return path


def _loaded_modules(workdir, argv: str) -> set[str]:
    """The modules a fresh interpreter holds after `run_cli(argv)` exits 0."""
    env = {k: v for k, v in os.environ.items() if k != "AVAILCODES_OUTDIR"}
    env["PYTHONPATH"] = SRC
    proc = subprocess.run(
        [sys.executable, "-c", _PROBE, *argv.split()],
        cwd=workdir, env=env, capture_output=True, text=True, check=True,
    )
    code, modules = json.loads(proc.stdout)
    assert code == 0
    return set(modules)


@pytest.mark.parametrize("argv, layers", FOOTPRINTS, ids=[argv for argv, _ in FOOTPRINTS])
def test_command_loads_only_its_layers(workdir, argv, layers):
    package = {m for m in _loaded_modules(workdir, argv) if m.split(".")[0] == "availcodes"}
    assert package == {"availcodes", "availcodes.cli", *(f"availcodes.{m}" for m in layers)}


# No command loads `dataclasses`, which would bring `inspect`, `ast`, `dis`
# and `tokenize` with it.  The bound layers do their exact arithmetic in
# `fractions`, which brings `decimal`; the matrix layers need neither.
_DATACLASSES = {"dataclasses", "inspect", "ast", "dis", "tokenize"}
_FRACTIONS = {"fractions", "decimal"}
MATRIX_COMMANDS = [argv for argv, layers in FOOTPRINTS if "bitmatrix" in layers]
BOUND_COMMANDS = [argv for argv, layers in FOOTPRINTS if "bitmatrix" not in layers]


@pytest.mark.parametrize("argv", BOUND_COMMANDS)
def test_bound_command_loads_no_dataclasses(workdir, argv):
    assert _loaded_modules(workdir, argv) & _DATACLASSES == set()


@pytest.mark.parametrize("argv", MATRIX_COMMANDS)
def test_matrix_command_loads_no_dataclasses_or_fractions(workdir, argv):
    assert _loaded_modules(workdir, argv) & (_DATACLASSES | _FRACTIONS) == set()


# `--help` and the figures write no JSON, so they do not import `json`
JSON_FREE_COMMANDS = [
    argv for argv, _ in FOOTPRINTS if argv.endswith("--help") or argv.startswith("figure ")
]


@pytest.mark.parametrize("argv", JSON_FREE_COMMANDS)
def test_help_and_figure_load_no_json(workdir, argv):
    assert "json" not in _loaded_modules(workdir, argv)


@pytest.mark.parametrize(
    "argv, calls",
    # one -h per parser built (the top level and its five commands), and the
    # figure's own five arguments
    [("--help", 6), ("figure rate3 --rmin 3 --rmax 3", 11)],
)
def test_parser_builds_only_the_selected_branch(monkeypatch, capsys, argv, calls):
    count = []
    add_argument = argparse.ArgumentParser.add_argument

    def counting_add_argument(self, *args, **kwargs):
        count.append(args)
        return add_argument(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "add_argument", counting_add_argument)
    assert run_cli(argv.split()) == 0
    assert len(count) == calls


def test_exports_are_the_defining_modules_objects():
    assert len(availcodes.__all__) == len(set(availcodes.__all__)) > 0
    for name in availcodes.__all__:
        obj = getattr(availcodes, name)
        assert obj.__module__.startswith("availcodes.")
        assert obj is getattr(sys.modules[obj.__module__], name)


def test_star_import_binds_every_export():
    namespace: dict = {}
    exec("from availcodes import *", namespace)
    assert set(availcodes.__all__) <= set(namespace)
    assert all(namespace[name] is getattr(availcodes, name) for name in availcodes.__all__)


def test_dir_lists_exports_and_version():
    assert set(availcodes.__all__) <= set(dir(availcodes))
    assert availcodes.__version__ == "0.1.0"


def test_unknown_name_raises_attribute_error_naming_the_package():
    with pytest.raises(AttributeError, match="module 'availcodes' has no attribute 'no_such'"):
        availcodes.no_such
    with pytest.raises(ImportError):
        from availcodes import no_such  # noqa: F401


# Exported though no package code uses them: the A-space model of record,
# against which a code's weight distribution and the LP's A-vector are
# checked, and the public reads of the GF(2) elimination that the
# benchmark's per-layer metrics `bitmatrix.{rank,rank_and_nullspace}.*` name
# (a code reads its echelon through `row_space_basis`)
UNUSED_EXPORTS = {"build_lp", "point_violations", "rank", "rank_and_nullspace"}
# Public, not exported and unused, but the benchmark's per-layer metrics
# `weights.krawtchouk.*` name it (perfbench/README.md)
BENCHMARK_ONLY = {"krawtchouk"}


def test_every_public_member_is_exported_or_used_in_the_package():
    # a public function or class that neither `__all__` nor other package
    # code names is test-only; it belongs in the tests.  So is an exported
    # name that no package code uses, apart from UNUSED_EXPORTS
    package = Path(availcodes.__file__).resolve().parent
    trees = [ast.parse(path.read_text()) for path in sorted(package.glob("*.py"))]
    defined = {
        node.name
        for tree in trees
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_")
    }
    named = set()
    for node in (node for tree in trees for node in ast.walk(tree)):
        if isinstance(node, ast.Name):
            named.add(node.id)
        elif isinstance(node, ast.Attribute):
            named.add(node.attr)
        elif isinstance(node, ast.alias):
            named.add(node.name)
    assert defined - set(availcodes.__all__) - named == BENCHMARK_ONLY
    assert set(availcodes.__all__) - named == UNUSED_EXPORTS
