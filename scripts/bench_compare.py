#!/usr/bin/env python3
"""Compare the benchmark on a base revision and on the working tree.

    python3 scripts/bench_compare.py --base HEAD --workload cli-cold --pairs 10
    python3 scripts/bench_compare.py --workload cli-cold --pairs 0 --trace-seed 3001

Each of the N pairs runs `perfbench/run.py --trace 0` once per side, in
alternating order with the same seed, each run in a fresh `git archive`
copy (the working tree goes through a scratch index, so untracked files
count).  Both copies are byte-compiled first, so that neither side's
`peak_rss_mb` includes compiling the package.  Prints, per end-to-end
metric, both medians, the base's quartiles and the change's wins, and
last the line count of `src/hopfcross/*.py` on each side, counted in
those copies.  To stderr it writes, per job, the base -> change median
over the pairs of the job medians each run prints (its `job ...: median`
lines), so a move in `wall_s` can be traced to the jobs that made it.

With `--trace-seed N` it then runs `--trace 1` TRACED_RUNS times per
side with seed N, in alternating order, and prints each per-layer
metric whose median moved: every changed call count, and every other
metric that changed by more than MOVED (a fraction).  Under each such
line it writes each side's [min, max] over its traced runs to stderr,
so a move can be told from run-to-run noise while stdout keeps one line
per metric.
"""

import argparse
import glob
import json
import os
import re
import statistics
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
MOVED = 0.05
TRACED_RUNS = 3      # a median of three traced runs per side
STDERR_TAIL = 20     # lines of stderr shown for a run without a result
JOB_LINE = re.compile(r"\s*job (\S+): median (\S+) s scaled")


def git(*args, env=None):
    return subprocess.run(["git", *args], cwd=ROOT, check=True, env=env,
                          capture_output=True, text=True).stdout.strip()


def working_tree():
    """A tree object of the working tree, made without touching the index."""
    with tempfile.TemporaryDirectory() as tmp:
        env = {**os.environ, "GIT_INDEX_FILE": os.path.join(tmp, "index")}
        git("add", "-A", env=env)
        return git("write-tree", env=env)


def run_once(side, tree, args, seed, trace=0):
    """Metrics of one `perfbench/run.py` run of `tree` (see `metrics_of`),
    and the `src_lines` of the copy it ran in."""
    out, lines = run_copy(tree, args, seed, trace)
    return metrics_of(side, tree, seed, out), lines


def run_copy(tree, args, seed, trace):
    """The finished `perfbench/run.py` run of `tree` in a fresh copy, and
    the `src_lines` of that copy."""
    with tempfile.TemporaryDirectory() as copy:
        archive = subprocess.run(["git", "archive", tree], cwd=ROOT,
                                 check=True, capture_output=True).stdout
        subprocess.run(["tar", "-x", "-C", copy], input=archive, check=True)
        subprocess.run([sys.executable, "-m", "compileall", "-q", "src",
                        "perfbench"], cwd=copy, check=True)
        out = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(args.seconds),
             "--trace", str(trace)], cwd=copy, capture_output=True,
            text=True)
        lines = src_lines(copy)
    return out, lines


def job_medians(stdout):
    """Each job's scaled median, by label, from the `job ...: median`
    lines of one run's stdout."""
    return {m[1]: float(m[2])
            for m in map(JOB_LINE.match, stdout.splitlines()) if m}


def compare_jobs(jobs):
    """Writes to stderr, per job both sides ran, its base -> change median
    over the runs of each side (`medians`)."""
    base, change = medians(jobs["base"]), medians(jobs["change"])
    for label in sorted(base.keys() & change.keys()):
        mb, mc = base[label], change[label]
        print(f"job {label}: {mb:.4g} -> {mc:.4g} ({(mc - mb) / mb:+.1%})",
              file=sys.stderr, flush=True)


def src_lines(root):
    """Lines of `src/hopfcross/*.py` under `root`, counted as `wc -l` does."""
    total = 0
    for path in glob.glob(os.path.join(root, "src", "hopfcross", "*.py")):
        with open(path, "rb") as f:
            total += f.read().count(b"\n")
    return total


def print_lines(lines):
    """The `src_lines` of each side, as one line."""
    base, change = lines["base"], lines["change"]
    print(f"src/hopfcross/*.py lines: {base} -> {change} ({change - base:+d})")


def metrics_of(side, tree, seed, out):
    """The metrics in the last stdout line of the finished run `out`.
    Exits naming the side, tree and seed when the run is incorrect, or
    prints no result line (it crashed or exited 2): then with its exit
    code and the last STDERR_TAIL lines of its stderr."""
    lines = out.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
        correct = result["correct"]
    except (IndexError, json.JSONDecodeError, TypeError, KeyError):
        tail = "\n".join(out.stderr.strip().splitlines()[-STDERR_TAIL:])
        sys.exit(f"{side} ({tree}) seed {seed}: no result line, "
                 f"exit code {out.returncode}\n{tail}")
    if not correct:
        sys.exit(f"{side} ({tree}) seed {seed}: incorrect run\n{out.stdout}")
    return {k: v["value"] for k, v in result["metrics"].items()}


def compare_ends(runs, pairs):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        end_to_end = json.load(f)["end_to_end"]
    for m in end_to_end:
        name, sign = m["name"], 1 if m["better"] == "lower" else -1
        base = [r[name] for r in runs["base"]]
        change = [r[name] for r in runs["change"]]
        q1, _, q3 = statistics.quantiles(base, n=4)
        wins = sum(sign * (c - b) < 0 for b, c in zip(base, change))
        mb, mc = statistics.median(base), statistics.median(change)
        print(f"{name}: {mb:.4g} -> {mc:.4g} ({(mc - mb) / mb:+.1%}), "
              f"base quartiles [{q1:.4g}, {q3:.4g}], "
              f"change wins {wins}/{pairs}")


def order(k):
    """The sides of run k in the order they run: base first when k is even."""
    return ["base", "change"] if k % 2 == 0 else ["change", "base"]


def medians(runs):
    """Each metric's median over the runs that report it."""
    names = set().union(*runs)
    return {name: statistics.median(r[name] for r in runs if name in r)
            for name in names}


def spreads(traced, name):
    """Each side's [min, max] of one metric over the traced runs that
    report it."""
    parts = []
    for side, runs in traced.items():
        values = [r[name] for r in runs if name in r]
        if values:
            parts.append(f"{side} [{min(values):.4g}, {max(values):.4g}]")
    return ", ".join(parts)


def compare_layers(sides, args):
    """TRACED_RUNS traced runs per side in alternating order; prints the
    per-layer metrics whose medians moved, each followed on stderr by
    its `spreads`, and returns the `src_lines` of each side."""
    traced = {"base": [], "change": []}
    lines = {}
    for k in range(TRACED_RUNS):
        for side in order(k):
            metrics, lines[side] = run_once(side, sides[side], args,
                                            args.trace_seed, trace=1)
            traced[side].append(metrics)
    base, change = medians(traced["base"]), medians(traced["change"])
    print(f"per-layer metrics that moved (--trace 1, seed {args.trace_seed}, "
          f"median of {TRACED_RUNS} runs per side):")
    for name in sorted(base.keys() | change.keys()):
        b, c = base.get(name), change.get(name)
        if b is None or c is None or (name.endswith(".calls") and b != c):
            print(f"  {name}: {b} -> {c}", flush=True)
        elif abs(c - b) > MOVED * abs(b):
            rel = f" ({(c - b) / b:+.1%})" if b else ""
            print(f"  {name}: {b:.4g} -> {c:.4g}{rel}", flush=True)
        else:
            continue
        print(f"    spread: {spreads(traced, name)}", file=sys.stderr,
              flush=True)
    return lines


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--base", default="HEAD")
    p.add_argument("--workload", required=True)
    p.add_argument("--pairs", type=int, default=10)
    p.add_argument("--seconds", type=int, default=30)
    p.add_argument("--seed", type=int, default=1, help="seed of the first pair")
    p.add_argument("--trace-seed", type=int,
                   help="seed of the traced runs of each side")
    args = p.parse_args()
    sides = {"base": git("rev-parse", f"{args.base}^{{tree}}"),
             "change": working_tree()}
    runs = {"base": [], "change": []}
    jobs = {"base": [], "change": []}
    lines = {}
    for k in range(args.pairs):
        for side in order(k):
            seed = args.seed + k
            out, lines[side] = run_copy(sides[side], args, seed, 0)
            runs[side].append(metrics_of(side, sides[side], seed, out))
            jobs[side].append(job_medians(out.stdout))
        print(f"pair {k + 1}/{args.pairs}: " + ", ".join(
            f"{s} wall_s {runs[s][-1]['wall_s']:.4g}" for s in order(k)),
            flush=True)
    if args.pairs >= 2:
        compare_ends(runs, args.pairs)
    if args.pairs >= 1:
        compare_jobs(jobs)
    if args.trace_seed is not None:
        lines = compare_layers(sides, args)
    if lines:
        print_lines(lines)


if __name__ == "__main__":
    main()
