"""`scripts/bench_compare.py` reads one benchmark run's result line, and
stops with a message naming the run when there is none."""

import importlib.util
import json
import os
import subprocess

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load_script():
    spec = importlib.util.spec_from_file_location(
        "bench_compare", os.path.join(ROOT, "scripts", "bench_compare.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def finished(code, stdout, stderr=""):
    return subprocess.CompletedProcess([], code, stdout, stderr)


def test_metrics_of_a_correct_run():
    line = json.dumps({"correct": True,
                       "metrics": {"wall_s": {"value": 0.25}}})
    out = finished(0, "progress\n" + line + "\n")
    assert load_script().metrics_of("base", "abc", 3, out) == {"wall_s": 0.25}


@pytest.mark.parametrize("stdout", ["", "progress only\n", "2\n",
                                    '{"metrics": {}}\n'])
def test_a_run_without_a_result_line_names_side_seed_and_exit_code(stdout):
    module = load_script()
    stderr = "".join(f"line {k}\n" for k in range(40)) + "ValueError: boom\n"
    with pytest.raises(SystemExit) as exc:
        module.metrics_of("change", "abc", 7, finished(2, stdout, stderr))
    message = str(exc.value.code)
    assert message.startswith("change (abc) seed 7: no result line, "
                              "exit code 2\n")
    assert message.endswith("ValueError: boom")
    tail = message.split("\n")[1:]
    assert len(tail) == module.STDERR_TAIL and "line 20" not in tail


def test_an_incorrect_run_stops_the_comparison():
    line = json.dumps({"correct": False, "metrics": {}})
    with pytest.raises(SystemExit, match="base \\(abc\\) seed 1: incorrect"):
        load_script().metrics_of("base", "abc", 1, finished(1, line))
