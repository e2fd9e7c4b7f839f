"""Certificate benchmark for hopfcross.

Run from the repository root:

    python3 perfbench/run.py --workload morphism-warm --seed 1 --seconds 30 --trace 0

It imports the package from this checkout's `src/` (nothing to build)
and runs one workload of `workloads.WORKLOADS` in this process:

1. set-up (inputs, `StandardTriple`, `build_xyz`, `build_iso`), three
   times, keeping the last;
2. warm-up, untimed: fill the pair tables, or write the input files;
3. passes over the workload's certificate jobs until `--seconds` would
   be exceeded (at least one pass), each pass preceded by one more
   set-up from scratch.  Every verdict and exact `checked` count is
   asserted;
4. one soundness probe, outside the timed region, that must be caught.

Times are taken on a reference scale.  On a shared machine other
tenants slow the whole core by up to half for tens of seconds at a
time, which moved the raw median of a 30-second run by 15-25% between
runs.  So `Meter` brackets every timed call with a fixed pure-Python
loop and reports its time divided by the loop's and multiplied by
REF_S: seconds on a core where the loop takes REF_S.  A slowdown of the
core slows both and cancels.  The raw seconds are printed beside.

With `--trace 0` the last stdout line reports `wall_s` (one pass: the
sum over jobs of each job's median time), `setup_s` (the median set-up
time) and `peak_rss_mb`.  With `--trace 1` the untraced passes get half
the time, then a fresh set-up, warm-up and one pass run under
`tracing.Tracer`, and the last line reports each layer's raw time, self
time and call count over that traced part, plus `trace.overhead_frac`
(the traced pass over the untraced one, minus 1).  Spans and raw
samples are written to `.perfbench_out/`.  `failed / attempted` is the
failure fraction; any failure makes `correct` false and the exit code 1.
Exit code 2 means the package sources were not found.
"""

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
WORKLOAD_NAMES = ("morphism-warm", "exhaustive-small", "cli-cold")
SETUP_FIRST_REPS = 3
REF_S = 0.010       # reference_loop, uncontended, 2-vCPU Xeon VM, Python 3.11.7
clock = time.perf_counter


def load_package():
    """Import hopfcross from this checkout's src/, or return None."""
    if not (SRC / "hopfcross" / "__init__.py").is_file():
        return None
    sys.path.insert(0, str(SRC))
    import hopfcross
    if Path(hopfcross.__file__).resolve().parent != SRC / "hopfcross":
        return None
    return hopfcross


def git_sha():
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if head.startswith("ref: "):
            return (git / head[5:]).read_text().strip()
        return head
    except OSError:
        return "unknown"


def reference_loop():
    """Fixed dict and integer work, like the package's own inner loops."""
    acc = {}
    for i in range(60_000):
        k = i % 997
        acc[k] = acc.get(k, 0) + i * 3
    return acc


class Meter:
    """Times calls on the reference scale (see the module docstring)."""

    FRESH_S = 0.05      # a reference time older than this is re-measured

    def __init__(self):
        self._ref = None            # (seconds taken, when it ended)

    def _reference(self):
        start = clock()
        reference_loop()
        end = clock()
        self._ref = (end - start, end)
        return end - start

    def time(self, fn, *args):
        """Returns (fn(*args), raw seconds, reference-scale seconds)."""
        if self._ref is None or clock() - self._ref[1] > self.FRESH_S:
            self._reference()
        before = self._ref[0]
        start = clock()
        result = fn(*args)
        raw = clock() - start
        after = self._reference()
        return result, raw, raw * 2 * REF_S / (before + after)


class Tally:
    """Operations attempted and failed, and the summed exact counts."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.checked = 0

    def record(self, label, ok):
        self.attempted += 1
        if not ok:
            self.failed += 1
            print(f"FAILED: {label}", file=sys.stderr)


def run_job(job, tally, meter, call=None):
    """Run one job; returns (raw, scaled) time.  Exceptions are failures."""
    def attempt():
        try:
            return call(job) if call else job.run()
        except Exception:
            traceback.print_exc()
            return False, None

    (passed, checked), raw, scaled = meter.time(attempt)
    if checked is not None:
        tally.checked += checked
    tally.record(f"{job.label} (passed={passed}, checked={checked}, "
                 f"want {job.checked})", passed and checked == job.checked)
    return raw, scaled


def measure(jobs, seconds, tally, meter, before_pass):
    """Passes over the jobs until another would end after `seconds`.

    `before_pass()` runs ahead of each pass, outside the job timings.
    Returns {label: [(raw, scaled), ...]}.
    """
    samples = {job.label: [] for job in jobs}
    passes = 0
    start = clock()
    while True:
        before_pass()
        gc.collect()
        for job in jobs:
            samples[job.label].append(run_job(job, tally, meter))
        passes += 1
        elapsed = clock() - start
        if elapsed + elapsed / passes > seconds:
            return samples


def timed_setup(cls, seed, meter, times):
    """One set-up from scratch; appends its (raw, scaled) time."""
    gc.collect()
    workload, raw, scaled = meter.time(cls, seed, OUT)
    times.append((raw, scaled))
    return workload


def scaled_medians(samples):
    return sum(statistics.median(s for _, s in ts) for ts in samples.values())


def tail(values):
    """The highest percentile with at least ten samples beyond it."""
    n = len(values)
    if n < 11:
        return f"no tail percentile ({n} < 11 samples)"
    k = n - 11
    return f"p{100 * (k + 1) / n:.1f} {sorted(values)[k]:.4f} s"


def summary(label, pairs):
    raw = [r for r, _ in pairs]
    return (f"{label}: median {statistics.median(s for _, s in pairs):.4f} s "
            f"scaled; raw median {statistics.median(raw):.4f} s, min "
            f"{min(raw):.4f} s, {tail(raw)}; {len(pairs)} samples")


def report(samples, setup_times):
    for label, pairs in samples.items():
        print("  " + summary(f"job {label}", pairs))
    print(summary("set-up", setup_times))


def run_plain(cls, args, tally):
    meter = Meter()
    setup_times = []
    for _ in range(SETUP_FIRST_REPS):
        workload = None
        workload = timed_setup(cls, args.seed, meter, setup_times)
    workload.warm_up()
    samples = measure(workload.jobs(), args.seconds, tally, meter,
                      lambda: timed_setup(cls, args.seed, meter, setup_times))
    tally.record("probe", workload.probe())
    report(samples, setup_times)
    raw = OUT / f"samples-{args.workload}-seed{args.seed}.json"
    raw.write_text(json.dumps({"jobs": samples, "setup": setup_times}))
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return {"wall_s": (scaled_medians(samples), "s"),
            "setup_s": (statistics.median(s for _, s in setup_times), "s"),
            "peak_rss_mb": (peak, "MB")}


def run_traced(cls, seed, tally, meter):
    """Fresh set-up, warm-up and one pass under the tracer.

    Returns the tracer, the pass's reference-scale time and the workload.
    """
    from tracing import Tracer
    tracer = Tracer(clock)
    gc.collect()
    tracer.install()
    try:
        workload = tracer.span("bench.setup", cls, seed, OUT)
        tracer.span("bench.warm_up", workload.warm_up)
        jobs = workload.jobs()
        gc.collect()
        scaled = sum(run_job(job, tally, meter,
                             lambda j: tracer.span(f"job.{j.label}", j.run))[1]
                     for job in jobs)
    finally:
        tracer.uninstall()
    return tracer, scaled, workload


def run_with_trace(cls, args, tally):
    meter = Meter()
    setup_times = []
    workload = timed_setup(cls, args.seed, meter, setup_times)
    workload.warm_up()
    samples = measure(workload.jobs(), args.seconds / 2, tally, meter,
                      lambda: None)
    tally.record("probe", workload.probe())
    report(samples, setup_times)
    del workload
    untraced = scaled_medians(samples)
    tracer, traced, _ = run_traced(cls, args.seed, tally, meter)
    spans = OUT / f"spans-{args.workload}-seed{args.seed}.json"
    spans.write_text(json.dumps(tracer.spans))
    print(f"traced pass {traced:.4f} s vs untraced {untraced:.4f} s, "
          f"scaled; {len(tracer.spans)} spans in {spans.relative_to(ROOT)}")
    metrics = tracer.metrics()
    metrics["trace.overhead_frac"] = (traced / untraced - 1, "ratio")
    return metrics


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    if load_package() is None:
        print(f"error: no hopfcross package under {SRC}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS
    cls = WORKLOADS[args.workload]
    OUT.mkdir(exist_ok=True)
    print(f"workload {args.workload}, seed {args.seed}, {args.seconds} s, "
          f"trace {args.trace}; nproc {os.cpu_count()}, python "
          f"{platform.python_version()}, git {git_sha()}")
    print(f"stresses {', '.join(cls.STRESSES)}; bypasses "
          f"{', '.join(cls.BYPASSES)}")
    tally = Tally()
    run = run_with_trace if args.trace else run_plain
    metrics = run(cls, args, tally)
    print(f"checked {tally.checked}; fail_frac {tally.failed}/"
          f"{tally.attempted} = {tally.failed / tally.attempted}")
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0 if tally.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
