"""The `hopfcross` console script that pyproject.toml installs.

`cli.entrypoint` is what the installed script calls: it runs `cli.main`
on `sys.argv` and exits with its code.  Other tests call `main` or
`python -m hopfcross`; these run `entrypoint` itself.
"""

import io
import sys
from contextlib import redirect_stderr, redirect_stdout

import pytest

from hopfcross import cli


def _main(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("argv,code", [
    (["describe", "--catalog", "sweedler4"], 0),
    (["describe", "--catalog", "sweedler4", "--field", "2"], 2),
])
def test_entrypoint_exits_with_the_code_and_stdout_of_main(
        argv, code, monkeypatch, capsys):
    want_code, want_out, want_err = _main(argv)
    assert want_code == code
    monkeypatch.setattr(sys, "argv", ["hopfcross", *argv])
    with pytest.raises(SystemExit) as exc:
        cli.entrypoint()
    assert exc.value.code == code
    out, err = capsys.readouterr()
    assert out == want_out
    assert err == want_err
