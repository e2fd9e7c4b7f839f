"""Argument errors are returned by `cli.main` as exit code 2, not raised."""

import pytest

from hopfcross import cli


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
