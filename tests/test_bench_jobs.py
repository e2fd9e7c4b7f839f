"""`scripts/bench_compare.py` reads each job's median off a run's stdout
and writes every job's base -> change median to stderr."""

from test_bench_compare import load_script

RUN = """workload cli-cold, seed 3, 30 s, trace 0
  job iso.beta.cyclic_3: median 0.0123 s scaled; raw median 0.0150 s, min 0.0140 s, p90.0 0.0160 s; 40 samples
  job bimodule.regular.cyclic_3: median 0.0400 s scaled; raw median 0.0450 s, min 0.0440 s, no tail percentile (9 < 11 samples); 9 samples
set-up: median 0.0020 s scaled; raw median 0.0020 s, min 0.0010 s, p90.0 0.0030 s; 40 samples
{"correct": true, "metrics": {}}
"""


def test_job_medians_reads_the_scaled_median_of_each_job():
    assert load_script().job_medians(RUN) == {
        "iso.beta.cyclic_3": 0.0123, "bimodule.regular.cyclic_3": 0.04}


def test_compare_jobs_writes_each_job_both_sides_ran(capsys):
    module = load_script()
    module.compare_jobs({
        "base": [{"a": 2.0, "b": 1.0}, {"a": 4.0, "b": 1.0}, {"a": 3.0}],
        "change": [{"a": 1.5, "c": 9.0}, {"a": 1.5}, {"a": 6.0}]})
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "job a: 3 -> 1.5 (-50.0%)\n"
