"""Benchmark of the availcodes CLI over four workloads.

    python3 perfbench/run.py --workload NAME|all --seed N --seconds S --trace 0|1

Run it from the repository root; the package is used from `src/` and need
not be installed.  Each workload is a fixed list of CLI invocations whose
seeded arguments come from --seed (see workloads.py).

--trace 0 runs the list again and again, one fresh `python3 -m
availcodes.cli` process at a time, while another pass fits in --seconds (at
least one pass).  Each child's CPU time and max RSS come from os.wait4 on
that child.  It reports, as medians over the passes:
  wall_s       wall time of one pass over the list, spawn to reap
  cpu_s        user + sys CPU of the pass's CLI processes
  peak_rss_mb  the largest max RSS of any CLI process in the pass
  setup_s      wall time of a fresh `availcodes --help` (median of several)
and prints fail_ratio, the commands that exited non-zero or failed their
output check over the commands attempted.

--trace 1 runs the same list twice in-process through run_cli, each time in
a fresh child (tracer.py): once plain and once with every public package
function wrapped in a span.  It reports the per-layer metrics listed in
BENCHMARK.json and trace.overhead_s, the traced pass's wall time minus the
plain pass's.

Outputs and outcomes are checked after every command.  The last line of
stdout is one JSON object: correct, attempted, failed and metrics.  Work
files go to a temporary directory under .bench_work/ in the repository,
removed at exit.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

from tracer import layer_metrics
from workloads import PROBES, WORKLOADS, Command, Outcome, commands

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_PER_PASS = 2
SETUP_SAMPLES = 10  # at least, topped up after the passes


@dataclass(frozen=True)
class Run:
    outcome: Outcome
    wall_s: float
    cpu_s: float
    maxrss_mb: float


class Bench:
    def __init__(self, workdir: Path, workload: str):
        self.workdir = workdir
        self.workload = workload
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p
        )
        self.env["AVAILCODES_OUTDIR"] = str(workdir)

    def spawn(self, argv: list[str]) -> Run:
        """One child, run to its end; CPU and RSS are that child's alone."""
        out_path, err_path = self.workdir / "_stdout", self.workdir / "_stderr"
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(
                argv, cwd=self.workdir, env=self.env,
                stdin=subprocess.DEVNULL, stdout=out, stderr=err,
            )
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        outcome = Outcome(proc.returncode, out_path.read_text(), err_path.read_text())
        return Run(outcome, wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024)

    def cli(self, argv: tuple[str, ...]) -> Run:
        return self.spawn([sys.executable, "-m", "availcodes.cli", *argv])

    def check(self, command: Command, outcome: Outcome) -> str | None:
        try:
            return command.check(outcome, self.workdir)
        except (ValueError, KeyError, TypeError, IndexError, OSError) as exc:
            return f"unreadable output: {exc!r}"


def _probe_lines(bench: Bench, outcomes: list[Outcome]) -> list[str]:
    lines = []
    for probe, outcome in zip(PROBES.get(bench.workload, []), outcomes):
        problem = bench.check(probe, outcome)
        verdict = "passes its check" if problem is None else f"FAILS: {problem}"
        lines.append(f"  known-failure probe `{' '.join(probe.argv)}` {verdict}")
    return lines


def setup_s(bench: Bench) -> float:
    run = bench.cli(("--help",))
    if run.outcome.exit_code != 0 or not run.outcome.stdout.startswith("usage: availcodes"):
        raise SystemExit(f"availcodes --help failed: {run.outcome.stderr.strip()}")
    return run.wall_s


def measure(bench: Bench, seed: int, seconds: float) -> tuple[dict, int, int, list[str]]:
    setup_s(bench)  # compiles the bytecode the timed samples reuse
    cmds = commands(bench.workload, seed)
    setup, walls, cpus, rss, problems = [], [], [], [], []
    command_walls = [[] for _ in cmds]
    attempted = 0
    start = time.perf_counter()
    while True:
        # set-up samples between the passes, so that their median spans the
        # run: start-up time drifts over seconds
        setup += [setup_s(bench) for _ in range(SETUP_PER_PASS)]
        runs = [bench.cli(c.argv) for c in cmds]
        for command, run, samples in zip(cmds, runs, command_walls):
            attempted += 1
            samples.append(run.wall_s)
            if problem := bench.check(command, run.outcome):
                problems.append(f"`{' '.join(command.argv)}`: {problem}")
        walls.append(sum(r.wall_s for r in runs))
        cpus.append(sum(r.cpu_s for r in runs))
        rss.append(max(r.maxrss_mb for r in runs))
        if time.perf_counter() - start + statistics.median(walls) > seconds:
            break
    setup += [setup_s(bench) for _ in range(SETUP_SAMPLES - len(setup))]
    probes = [bench.cli(p.argv).outcome for p in PROBES.get(bench.workload, [])]

    metrics = {
        "wall_s": statistics.median(walls),
        "cpu_s": statistics.median(cpus),
        "peak_rss_mb": statistics.median(rss),
        "setup_s": statistics.median(setup),
    }
    n = len(walls)
    lines = [
        f"  wall_s       {metrics['wall_s']:.4f} s   median of {n} passes of {len(cmds)} commands",
        f"  cpu_s        {metrics['cpu_s']:.4f} s   median of {n} passes",
        f"  peak_rss_mb  {metrics['peak_rss_mb']:.1f} MB   median of {n} passes",
        f"  setup_s      {metrics['setup_s']:.4f} s   median of {len(setup)} `--help` processes",
        f"  fail_ratio   {len(problems)}/{attempted} = {len(problems) / attempted:.4f}",
        *(f"  failed {p}" for p in problems[:5]),
        *_probe_lines(bench, probes),
        *(
            f"    {statistics.median(samples):8.4f} s  {' '.join(c.argv)}"
            for c, samples in zip(cmds, command_walls)
        ),
    ]
    return metrics, attempted, len(problems), lines


def traced(bench: Bench, seed: int) -> tuple[dict, int, int, list[str]]:
    docs = {}
    for mode in (0, 1):
        result = bench.workdir / f"_trace{mode}.json"
        run = bench.spawn([
            sys.executable, str(HERE / "tracer.py"), "--workload", bench.workload,
            "--seed", str(seed), "--traced", str(mode), "--result", str(result),
        ])
        if run.outcome.exit_code != 0:
            raise SystemExit(f"tracer.py failed: {run.outcome.stderr.strip()}")
        docs[mode] = json.loads(result.read_text())
    cmds = commands(bench.workload, seed)
    problems = []
    for doc in docs.values():
        for command, outcome in zip(cmds, doc["outcomes"]):
            if problem := bench.check(command, Outcome(*outcome)):
                problems.append(f"`{' '.join(command.argv)}`: {problem}")
    metrics = layer_metrics(docs[1])
    metrics["trace.overhead_s"] = docs[1]["wall_s"] - docs[0]["wall_s"]
    attempted = 2 * len(cmds)
    lines = [
        f"  in-process pass {docs[0]['wall_s']:.4f} s plain, {docs[1]['wall_s']:.4f} s traced "
        f"({len(docs[1]['spans'])} spans); trace.overhead_s {metrics['trace.overhead_s']:.4f} s",
        f"  fail_ratio   {len(problems)}/{attempted} = {len(problems) / attempted:.4f}",
        *(f"  failed {p}" for p in problems[:5]),
        *_probe_lines(bench, [Outcome(*o) for o in docs[1]["probes"]]),
    ]
    return metrics, attempted, len(problems), lines


def main() -> int:
    parser = argparse.ArgumentParser(description="availcodes CLI benchmark")
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    # a SIGTERM unwinds through Bench.spawn, which kills and reaps its child
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not (ROOT / "src" / "availcodes" / "cli.py").is_file():
        print(f"error: no availcodes package source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    (ROOT / ".bench_work").mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="run-", dir=ROOT / ".bench_work"))
    metrics, attempted, failed = {}, 0, 0
    try:
        for name in names:
            bench = Bench(workdir, name)
            print(f"workload {name} seed {args.seed} trace {args.trace}", flush=True)
            if args.trace:
                values, n_att, n_fail, lines = traced(bench, args.seed)
            else:
                values, n_att, n_fail, lines = measure(bench, args.seed, args.seconds)
            print("\n".join(lines), flush=True)
            prefix = "" if len(names) == 1 else f"{name}."
            for m in declared:
                metrics[prefix + m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
            attempted += n_att
            failed += n_fail
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if args.trace:
        width = max(len(k) for k in metrics)
        for key, m in metrics.items():
            print(f"  {key:<{width}}  {m['value']:.6g} {m['unit']}")
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
