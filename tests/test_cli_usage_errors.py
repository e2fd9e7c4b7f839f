"""Argument errors are returned by `cli.main` as exit code 2, not raised."""

import resource
import subprocess
import sys

import pytest

from hopfcross import cli
from hopfcross.catalog import catalog_named
from hopfcross.hopf_json import hopf_to_json, save_document


@pytest.mark.parametrize("argv,argument", [
    (["build", "--construction", "W", "--input", "x.json"],
     "argument --construction"),
    (["build", "--construction", "X"], "--input"),
    (["build", "--construction", "X", "--input", "x.json",
      "--materialize-cap", "0"], "argument --materialize-cap"),
])
def test_usage_error_returns_2(argv, argument, capsys):
    assert cli.main(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert argument in err


def test_help_returns_0(capsys):
    assert cli.main(["--help"]) == 0
    out, _ = capsys.readouterr()
    assert "usage: hopfcross" in out


def test_semisimple_takes_no_seed(tmp_path, capsys):
    path = tmp_path / "cyclic2.json"
    save_document(path, hopf_to_json(catalog_named("cyclic:2")))
    assert cli.main(["semisimple", str(path), "--seed", "1"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert "unrecognized arguments: --seed 1" in err


def _limit_memory():
    resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))


def test_oversized_free_module_exits_2_before_building(tmp_path):
    """Run in a subprocess under a 1 GiB address-space limit and a 60 s
    timeout, so a module that is built anyway fails the test instead of
    exhausting the machine's memory."""
    path = tmp_path / "cyclic2.json"
    save_document(path, hopf_to_json(catalog_named("cyclic:2")))
    run = subprocess.run(
        [sys.executable, "-m", "hopfcross", "bimodule", "--input", str(path),
         "--module", "free:100000000"],
        text=True, capture_output=True, timeout=60, preexec_fn=_limit_memory)
    assert run.returncode == 2, run.stderr
    assert run.stdout == ""
    assert "--module 'free:100000000'" in run.stderr
    assert f"limit of {cli.MAX_MODULE_INDEX}" in run.stderr


@pytest.mark.parametrize("module,code", [("free:1", 0), ("free:2", 2),
                                         ("regular", 0)])
def test_module_limit_is_inclusive(tmp_path, capsys, monkeypatch, module,
                                   code):
    """With the limit set to 64, cyclic:2 free:1 (16 * 4 = 64) and the
    regular module (16 * 2) run; free:2 (16 * 8) is rejected unprinted."""
    path = tmp_path / "cyclic2.json"
    save_document(path, hopf_to_json(catalog_named("cyclic:2")))
    monkeypatch.setattr(cli, "MAX_MODULE_INDEX", 64)
    assert cli.main(["bimodule", "--input", str(path),
                     "--module", module]) == code
    out, err = capsys.readouterr()
    assert (out == "") is bool(code)
    assert ("--module" in err) is bool(code)
