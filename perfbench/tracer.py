"""In-process run of one workload through availcodes.cli.run_cli, traced or not.

The benchmark starts this script as a child process, twice per traced run:

    python3 perfbench/tracer.py --workload NAME --seed N --traced 0|1 --result PATH

with PYTHONPATH pointing at the package source and the working directory
and AVAILCODES_OUTDIR at the run's work directory.  With --traced 1 the
public functions of every package module are wrapped before the first
command runs, so each call records a span (name, parent span, start, end,
whether an exception left it).  Spans stay in memory and are written to
PATH with the command outcomes when the run ends; the parent turns them into
per-layer metrics with `layer_metrics`.

Wrapping is done from outside the package: every module-level name that
holds a wrapped function is rebound, not only the one in the defining module,
because callers bind with `from .x import y` (`cli` binds most of the
package, `codes` binds `rank`, `figures` binds `lp_dimension_bound`, `lp`
binds `krawtchouk`).  Two calls cannot be reached this way because the
callee is bound as a default argument: `dmin_shortening` calls
`dmin_tamo_barg` and `dim_huang` calls `k_opt_griesmer`, so their time is
the caller's self time.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import importlib
import inspect
import io
import json
import time
from collections import Counter
from fractions import Fraction

from workloads import PROBES, commands

LAYERS = (
    "cli",
    "figures",
    "bounds",
    "lp",
    "weights",
    "codes",
    "constructions",
    "fields",
    "bitmatrix",
    "verification",
)

# Public functions left unwrapped: `krawtchouk` calls `binomial` twice per
# term, hundreds of times per call, and a span per call would cost more than
# the work it times.  Its time is krawtchouk's self time.
UNWRAPPED = {"weights.binomial"}

# Classes whose construction is a layer's work: FiniteField builds its
# add/mul tables, AvailabilityCode validates the matrix it is given.
CONSTRUCTORS = (("fields", "FiniteField"), ("codes", "AvailabilityCode"))


class Tracer:
    """Spans as [name index, parent span index or -1, start, end, error]."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.spans: list[list] = []
        self.counters: Counter = Counter()
        self._stack: list[int] = []

    def wrap(self, name: str, fn, observe=None):
        name_id = len(self.names)
        self.names.append(name)
        spans, stack, counters = self.spans, self._stack, self.counters
        clock = time.perf_counter
        signature = inspect.signature(fn) if observe else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(spans)
            span = [name_id, stack[-1] if stack else -1, 0.0, 0.0, 0]
            spans.append(span)
            stack.append(index)
            span[2] = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span[4] = 1
                raise
            finally:
                span[3] = clock()
                stack.pop()
            if observe is not None:
                observe(counters, signature.bind(*args, **kwargs).arguments, result)
            return result

        return wrapper


def _observers(modules: dict) -> dict:
    """Counts derived from a call's arguments or result, keyed by span name."""
    gaussian_binomial = modules["verification"].gaussian_binomial  # the unwrapped one

    def partitions_built(c, a, result):
        c["constructions.partitions_built"] += len(result)

    def partitions_used(c, a, result):
        c["constructions.partitions_used"] += a["t"]

    def text_parsed(c, a, result):
        c["bitmatrix.text_bytes"] += len(a["text"])

    def text_written(c, a, result):
        c["bitmatrix.text_bytes"] += len(result)

    def strict_pairs(c, a, result):
        m = a["h"].rows
        c["verification.strict_pairs"] += m * (m - 1) // 2

    def greedy(c, a, result):
        steps = len(result.sigma)
        c["verification.greedy_steps"] += steps
        c["verification.greedy_row_visits"] += steps * a["code"].m

    # `analyze` reads code.k before it asks for d_min or a GHW, so k is
    # cached here and reading it runs no rank.
    def codewords(c, a, result):
        c["verification.codewords"] += 2 ** a["code"].k

    def ghw_subspaces(c, a, result):
        code = a["code"]
        c["verification.ghw_subspaces"] += gaussian_binomial(code.n - code.k, a["dimension"])

    def model_size(c, a, result):
        c["lp.model_rows"] += len(result.constraints)
        c["lp.model_vars"] += result.num_vars

    def m_bits(c, a, result):
        if isinstance(result.value, Fraction):
            bits = result.value.numerator.bit_length() + result.value.denominator.bit_length()
            c["lp.M_bits"] = max(c["lp.M_bits"], bits)

    return {
        "constructions.build_partition_family": partitions_built,
        "constructions.partition_code": partitions_used,
        "bitmatrix.parse_matrix": text_parsed,
        "bitmatrix.serialize_matrix": text_written,
        "verification.check_strict_availability": strict_pairs,
        "verification.greedy_cover": greedy,
        "verification.min_distance_bruteforce": codewords,
        "verification.dual_ghw_bruteforce": ghw_subspaces,
        "lp.build_lp": model_size,
        "lp.solve_lp": m_bits,
    }


def install(tracer: Tracer) -> None:
    """Wrap every public function of every layer and rebind each name that holds one."""
    package = importlib.import_module("availcodes")
    modules = {layer: importlib.import_module(f"availcodes.{layer}") for layer in LAYERS}
    observers = _observers(modules)
    wrapped = {}
    for layer, module in modules.items():
        for attr, obj in vars(module).items():
            name = f"{layer}.{attr}"
            if (
                inspect.isfunction(obj)
                and obj.__module__ == module.__name__
                and not attr.startswith("_")
                and name not in UNWRAPPED
            ):
                wrapped[obj] = tracer.wrap(name, obj, observers.get(name))
    for module in (package, *modules.values()):
        for attr, obj in list(vars(module).items()):
            if inspect.isfunction(obj) and obj in wrapped:
                setattr(module, attr, wrapped[obj])
    for layer, cls_name in CONSTRUCTORS:
        cls = getattr(modules[layer], cls_name)
        cls.__init__ = tracer.wrap(f"{layer}.{cls_name}", cls.__init__)


def _run(argv: tuple[str, ...], run_cli) -> tuple[float, list]:
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run_cli(list(argv))
    return time.perf_counter() - start, [code, out.getvalue(), err.getvalue()]


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--traced", type=int, choices=(0, 1), required=True)
    parser.add_argument("--result", required=True)
    args = parser.parse_args()

    tracer = Tracer()
    if args.traced:
        install(tracer)
    from availcodes.cli import run_cli

    walls, outcomes = [], []
    for command in commands(args.workload, args.seed):
        wall, outcome = _run(command.argv, run_cli)
        walls.append(wall)
        outcomes.append(outcome)
    probes = [_run(p.argv, run_cli)[1] for p in PROBES.get(args.workload, [])]
    doc = {
        "wall_s": sum(walls),
        "outcomes": outcomes,
        "probes": probes,
        "names": tracer.names,
        "spans": tracer.spans,
        "counters": dict(tracer.counters),
    }
    with open(args.result, "w") as fh:
        json.dump(doc, fh)


def layer_metrics(doc: dict) -> dict[str, float]:
    """Per-layer values from a traced run's spans and counters.

    Self time is a span's duration minus the time its child spans cover.
    Every layer gets `<layer>.errors`, the spans an exception left; every
    wrapped function gets `.calls` and `.self_s`.
    """
    names = doc["names"]
    spans = doc["spans"]
    child_time = [0.0] * len(spans)
    for name_id, parent, start, end, error in spans:
        if parent >= 0:
            child_time[parent] += end - start
    values: dict[str, float] = Counter()
    for layer in LAYERS:
        values[f"{layer}.errors"] = 0
    for name in names:
        values[f"{name}.calls"] = 0
        values[f"{name}.self_s"] = 0.0
    for index, (name_id, parent, start, end, error) in enumerate(spans):
        name = names[name_id]
        values[f"{name}.calls"] += 1
        values[f"{name}.self_s"] += end - start - child_time[index]
        values[f"{name.split('.')[0]}.errors"] += error
    counters = Counter(doc["counters"])
    for key in (
        "constructions.partitions_built",
        "bitmatrix.text_bytes",
        "verification.strict_pairs",
        "verification.greedy_steps",
        "verification.greedy_row_visits",
        "verification.codewords",
        "verification.ghw_subspaces",
        "lp.model_rows",
        "lp.model_vars",
        "lp.M_bits",
    ):
        values[key] = counters[key]
    built = counters["constructions.partitions_built"]
    values["constructions.partition_use_ratio"] = (
        counters["constructions.partitions_used"] / built if built else 0.0
    )
    values["cli.commands"] = values["cli.run_cli.calls"]
    return dict(values)


if __name__ == "__main__":
    main()
