#!/usr/bin/env python3
"""Compare the benchmark on a base revision and on the working tree.

    python3 scripts/bench_compare.py --base HEAD --workload cli-cold --pairs 10

Each of the N pairs runs `perfbench/run.py --trace 0` once per side, in
alternating order with the same seed, each run in a fresh `git archive`
copy (the working tree goes through a scratch index, so untracked files
count).  Both copies are byte-compiled first, so that neither side's
`peak_rss_mb` includes compiling the package.  Prints, per end-to-end
metric, both medians, the base's quartiles and the change's wins.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def git(*args, env=None):
    return subprocess.run(["git", *args], cwd=ROOT, check=True, env=env,
                          capture_output=True, text=True).stdout.strip()


def working_tree():
    """A tree object of the working tree, made without touching the index."""
    with tempfile.TemporaryDirectory() as tmp:
        env = {**os.environ, "GIT_INDEX_FILE": os.path.join(tmp, "index")}
        git("add", "-A", env=env)
        return git("write-tree", env=env)


def run_once(tree, args, seed):
    with tempfile.TemporaryDirectory() as copy:
        archive = subprocess.run(["git", "archive", tree], cwd=ROOT,
                                 check=True, capture_output=True).stdout
        subprocess.run(["tar", "-x", "-C", copy], input=archive, check=True)
        subprocess.run([sys.executable, "-m", "compileall", "-q", "src",
                        "perfbench"], cwd=copy, check=True)
        out = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(args.seconds),
             "--trace", "0"], cwd=copy, capture_output=True, text=True)
    result = json.loads(out.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        sys.exit(f"{tree} seed {seed}: incorrect run\n{out.stdout}")
    return {k: v["value"] for k, v in result["metrics"].items()}


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--base", default="HEAD")
    p.add_argument("--workload", required=True)
    p.add_argument("--pairs", type=int, default=10)
    p.add_argument("--seconds", type=int, default=30)
    p.add_argument("--seed", type=int, default=1, help="seed of the first pair")
    args = p.parse_args()
    sides = {"base": git("rev-parse", f"{args.base}^{{tree}}"),
             "change": working_tree()}
    runs = {"base": [], "change": []}
    for k in range(args.pairs):
        order = ["base", "change"] if k % 2 == 0 else ["change", "base"]
        for side in order:
            runs[side].append(run_once(sides[side], args, args.seed + k))
        print(f"pair {k + 1}/{args.pairs}: " + ", ".join(
            f"{s} wall_s {runs[s][-1]['wall_s']:.4g}" for s in order),
            flush=True)
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
              f"change wins {wins}/{args.pairs}")


if __name__ == "__main__":
    main()
