"""Absurd catalog parameters end in exit 2 before anything is built.

Each `describe` runs in a subprocess under a 1 GiB address-space limit
and a 60 s timeout, so a spec that builds too much fails the test
instead of exhausting the machine's memory.
"""

import resource
import subprocess
import sys

import pytest

from hopfcross.catalog import MAX_CATALOG_DIM, parse_catalog_spec

ADDRESS_SPACE = 1 << 30


def _limit_memory():
    resource.setrlimit(resource.RLIMIT_AS, (ADDRESS_SPACE, ADDRESS_SPACE))


def describe(spec):
    return subprocess.run(
        [sys.executable, "-m", "hopfcross", "describe", "--catalog", spec],
        text=True, capture_output=True, timeout=60, preexec_fn=_limit_memory)


@pytest.mark.parametrize("spec,dim", [("cyclic:100000", 100000),
                                      ("dual_cyclic:128", 128),
                                      ("taft:8:17", 64)])
def test_oversized_spec_exits_2_with_a_message(spec, dim):
    run = describe(spec)
    assert run.returncode == 2, run.stderr
    assert run.stdout == ""
    assert f"{spec} has dim H = {dim}" in run.stderr
    assert f"limit of {MAX_CATALOG_DIM}" in run.stderr


def test_spec_at_the_bound_still_runs():
    run = describe(f"cyclic:{MAX_CATALOG_DIM}")
    assert run.returncode == 0, run.stderr
    assert f"dim: {MAX_CATALOG_DIM}\n" in run.stdout
    assert "hopf axioms: pass" in run.stdout


@pytest.mark.parametrize("spec", ["cyclic:50", "dual_cyclic:50", "taft:8:17"])
def test_parse_rejects_specs_above_the_bound(spec):
    with pytest.raises(ValueError, match="above the catalog limit"):
        parse_catalog_spec(spec)


@pytest.mark.parametrize("spec", ["cyclic:49", "dual_cyclic:49", "taft:7:29",
                                  "sweedler4"])
def test_parse_accepts_specs_at_or_below_the_bound(spec):
    assert str(parse_catalog_spec(spec)) == spec
