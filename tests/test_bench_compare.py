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


def test_src_lines_counts_the_package_modules_only(tmp_path, capsys):
    """Lines are newlines, as `wc -l` counts them, of src/hopfcross/*.py:
    not of other files, subpackages or other packages."""
    package = tmp_path / "src" / "hopfcross"
    (package / "sub").mkdir(parents=True)
    (package / "a.py").write_text("x = 1\ny = 2\n\n")
    (package / "b.py").write_text("z = 3")
    (package / "notes.txt").write_text("1\n2\n")
    (package / "sub" / "c.py").write_text("1\n2\n")
    (tmp_path / "src" / "other.py").write_text("1\n")
    module = load_script()
    assert module.src_lines(tmp_path) == 3
    assert module.src_lines(tmp_path / "missing") == 0
    module.print_lines({"base": 4105, "change": 4060})
    out = capsys.readouterr().out
    assert out == "src/hopfcross/*.py lines: 4105 -> 4060 (-45)\n"


def test_traced_runs_alternate_and_report_medians(monkeypatch, capsys):
    """`--trace-seed` runs TRACED_RUNS traced runs per side, alternating
    which side runs first, and compares the medians of each metric."""
    module = load_script()
    readings = {"base": iter([1.0, 9.0, 2.0]), "change": iter([3.0, 3.5, 30])}
    calls = []

    def run_once(side, tree, args, seed, trace=0):
        calls.append((side, tree, seed, trace))
        return {"layer.s": next(readings[side]), "layer.calls": 4}, len(side)

    monkeypatch.setattr(module, "run_once", run_once)
    args = type("Args", (), {"trace_seed": 11})()
    lines = module.compare_layers({"base": "b", "change": "c"}, args)
    assert module.TRACED_RUNS == 3
    assert calls == [("base", "b", 11, 1), ("change", "c", 11, 1),
                     ("change", "c", 11, 1), ("base", "b", 11, 1),
                     ("base", "b", 11, 1), ("change", "c", 11, 1)]
    assert lines == {"base": 4, "change": 6}
    out = capsys.readouterr().out.splitlines()
    # medians 2.0 -> 3.5; the unchanged call count is not printed
    assert out[1:] == ["  layer.s: 2 -> 3.5 (+75.0%)"]


def test_each_printed_layer_metric_is_followed_by_its_spread(monkeypatch,
                                                             capsys):
    """Under every per-layer line, stderr gets each side's [min, max]
    over its traced runs; a metric that did not move gets neither, and a
    metric one side lacks gets the other side's spread only."""
    module = load_script()
    readings = {"base": iter([1.0, 9.0, 2.0]), "change": iter([3.0, 3.5, 30])}

    def run_once(side, tree, args, seed, trace=0):
        metrics = {"layer.s": next(readings[side]), "layer.calls": 4,
                   "still.s": 1.0}
        if side == "change":
            metrics["new.calls"] = 7
        return metrics, 0

    monkeypatch.setattr(module, "run_once", run_once)
    args = type("Args", (), {"trace_seed": 11})()
    module.compare_layers({"base": "b", "change": "c"}, args)
    captured = capsys.readouterr()
    assert captured.out.splitlines()[1:] == ["  layer.s: 2 -> 3.5 (+75.0%)",
                                             "  new.calls: None -> 7"]
    assert captured.err.splitlines() == [
        "    spread: base [1, 9], change [3, 30]",
        "    spread: change [7, 7]"]
