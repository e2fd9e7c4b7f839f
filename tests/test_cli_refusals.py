"""Inputs the CLI refuses with exit 2: an --out path that cannot be
written, and a --mode random:N above `cli.MAX_TRIALS`.

A missing --out directory is refused before any certificate runs, so
nothing is printed; any other write error is refused when the file is
written.  A trial count above the bound is refused before the input is
read.
"""

import subprocess
import sys

import pytest

from hopfcross import cli
from hopfcross.catalog import catalog_named
from hopfcross.errors import FormatError
from hopfcross.hopf_json import hopf_to_json, save_document

OUT_COMMANDS = [["build", "--construction", "Z", "--input"],
                ["build", "--construction", "X", "--materialize-cap", "1",
                 "--input"],
                ["iso", "--kind", "phi", "--input"]]
MODE_COMMANDS = [["check"], ["build", "--construction", "Z", "--input"],
                 ["iso", "--kind", "phi", "--input"]]


def run_cli(args):
    return subprocess.run([sys.executable, "-m", "hopfcross", *args],
                          text=True, capture_output=True, timeout=120)


@pytest.fixture(scope="module")
def cyclic2_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("files") / "cyclic2.json"
    save_document(path, hopf_to_json(catalog_named("cyclic:2")))
    return path


@pytest.mark.parametrize("command", OUT_COMMANDS)
def test_out_in_a_missing_directory_is_input_error(cyclic2_file, tmp_path,
                                                   command):
    out = tmp_path / "no" / "such" / "x.json"
    r = run_cli([*command, str(cyclic2_file), "--out", str(out)])
    assert r.returncode == 2
    assert r.stdout == ""
    assert r.stderr == f"error: cannot write {str(out)!r}: no such directory\n"
    assert not out.parent.exists()


@pytest.mark.parametrize("command", OUT_COMMANDS)
def test_out_that_cannot_be_opened_is_input_error(cyclic2_file, tmp_path,
                                                  command):
    # the directory exists, so every certificate runs before the write
    r = run_cli([*command, str(cyclic2_file), "--out", str(tmp_path)])
    assert r.returncode == 2
    assert ": pass (" in r.stdout and "wrote" not in r.stdout
    assert r.stderr.startswith(f"error: cannot write {str(tmp_path)!r}: ")


@pytest.mark.parametrize("mode", ["random:99999999999999999999",
                                  f"random:{cli.MAX_TRIALS + 1}"])
@pytest.mark.parametrize("command", MODE_COMMANDS)
def test_too_many_trials_is_input_error(cyclic2_file, command, mode):
    r = run_cli([*command, str(cyclic2_file), "--mode", mode])
    assert r.returncode == 2
    assert r.stdout == ""
    assert r.stderr == (f"error: bad --mode {mode!r}: at most "
                        f"{cli.MAX_TRIALS} random trials\n")


def test_too_many_trials_is_refused_before_the_input_is_read(tmp_path):
    r = run_cli(["iso", "--kind", "phi", "--input", str(tmp_path / "none"),
                 "--mode", f"random:{cli.MAX_TRIALS + 1}"])
    assert r.returncode == 2
    assert "--mode" in r.stderr and str(cli.MAX_TRIALS) in r.stderr


def test_the_trial_bound_itself_is_accepted():
    assert cli._parse_mode(f"random:{cli.MAX_TRIALS}", 3).trials == \
        cli.MAX_TRIALS
    with pytest.raises(FormatError, match="bad mode 'random:0'"):
        cli._parse_mode("random:0", 3)
