"""A failed certificate has one outcome in the CLI and one in the library.

In the CLI every failed `CheckReport` ends the command with exit code 1
after two lines, `<label>: FAIL` and `violation: ...`, with nothing on
stderr.  The cases below fail the first certificate (the Hopf axioms of a
corrupted file) or a later one (its checker's name in `hopfcross.cli`
patched to return a failing report); each stdout is pinned by sha256.
In the library a builder given a bad action raises
`UnverifiedActionError` carrying its message and the failed report.
"""

import hashlib

import pytest

from hopfcross import cli
from hopfcross.actions import (ActionData, CoactionData,
                               bicomodule_to_module, build_bimodule_algebra,
                               regular_actions)
from hopfcross.catalog import catalog_named
from hopfcross.crossed import (StandardTriple, diagonal_crossed, left_smash,
                               right_smash, two_sided_crossed)
from hopfcross.errors import UnverifiedActionError
from hopfcross.fields import QQ
from hopfcross.hopf_json import dump_json, hopf_to_json, save_document
from hopfcross.report import CheckMode, CheckReport

# the corrupted comultiplication of acceptance criterion 9
CORRUPTED_COMULT = [[0, 0, 0, "1"], [1, 1, 1, "1"], [1, 0, 0, "1"]]

# id: (argv, label of the failed certificate, sha256 of stdout)
CORRUPTED_CASES = {
    "check": (
        ["check", "corrupted.json"], "hopf axioms",
        "ba507e9914382ce1d40c3315eac13677f488715d95448398f48e6e4afd132629"),
    "build": (
        ["build", "--construction", "Y", "--input", "corrupted.json"],
        "input hopf axioms",
        "cfaefbe563d2b0ac44def37874582003e06c0f0f42441c76fdafb5096f747656"),
    "iso": (
        ["iso", "--kind", "phi", "--input", "corrupted.json"],
        "input hopf axioms",
        "cfaefbe563d2b0ac44def37874582003e06c0f0f42441c76fdafb5096f747656"),
    "bimodule": (
        ["bimodule", "--input", "corrupted.json", "--module", "regular"],
        "input hopf axioms",
        "cfaefbe563d2b0ac44def37874582003e06c0f0f42441c76fdafb5096f747656"),
}

# id: (argv on cyclic:2, checker patched in hopfcross.cli, the call of it
#      that fails, label of the failed certificate, sha256 of stdout)
LATER_CASES = {
    "iso-inverse": (
        ["iso", "--kind", "phi"], "verify_mutually_inverse", 1, "inverse",
        "2da498e481464da48c66613123718c1598b334df1c734838c3c020566b2a7ed3"),
    "iso-composition": (
        ["iso", "--kind", "beta"], "composition_identity", 1, "composition",
        "c7629dc6bf61aff2920af4bb5bb5684dad47c7946aeda17178c85e71eaa211fa"),
    "build-associativity": (
        ["build", "--construction", "Z"], "check_handle_axioms", 1,
        "unit + associativity (exhaustive)",
        "daefee595250a9693036062626d28db8aeb3dfa19035ad71cb7e7dad228d3f51"),
    "bimodule-module-axiom": (
        ["bimodule", "--module", "regular"], "check_module_over_handle", 3,
        "Z module axiom",
        "fc0b6d0e5fd250f03ee43648bdb04edc27b18ee2dca3494925db9250d9d0c58a"),
    "bimodule-triple-roundtrip": (
        ["bimodule", "--module", "regular"], "triple_module_roundtrip", 1,
        "triple roundtrip",
        "0ca8791ba131da02d8997a17fac75985ca2349639e87a5c2d6dbed9b62af3299"),
    "bimodule-f-correspondence": (
        ["bimodule", "--module", "regular"], "verify_f_correspondence", 1,
        "f correspondence",
        "92a0acf274fac6ebb8925eebd77578ffb4f947835ec31b7234f631b81d8f3124"),
}


@pytest.fixture
def inputs(tmp_path, monkeypatch):
    """cyclic2.json and corrupted.json in the working directory, so that
    `check` prints the same `file:` line on every run."""
    doc = hopf_to_json(catalog_named("cyclic:2"))
    save_document(tmp_path / "cyclic2.json", doc)
    doc["comult"] = CORRUPTED_COMULT
    (tmp_path / "corrupted.json").write_text(dump_json(doc))
    monkeypatch.chdir(tmp_path)


def _run(argv, capsys):
    code = cli.main(argv)
    out, err = capsys.readouterr()
    return code, out, err


def _assert_failed(code, out, err, label, digest):
    lines = out.split("\n")
    assert code == 1
    assert err == ""
    assert lines[-1] == ""                      # the violation line ends it
    assert lines[-3] == f"{label}: FAIL"
    assert lines[-2].startswith("violation: ")
    assert hashlib.sha256(out.encode()).hexdigest() == digest, out


@pytest.mark.parametrize("case", sorted(CORRUPTED_CASES))
def test_corrupted_input_fails_with_exit_1(case, inputs, capsys):
    argv, label, digest = CORRUPTED_CASES[case]
    _assert_failed(*_run(argv, capsys), label, digest)


def _failing_on(call, original):
    """`original`, except that call number `call` returns a failed report."""
    calls = []

    def checker(*args, **kwargs):
        calls.append(None)
        if len(calls) < call:
            return original(*args, **kwargs)
        rep = CheckReport(mode=CheckMode.exhaustive(), checked=1)
        rep.fail("injected", (0, 1), 1, 2)
        return rep

    return checker


@pytest.mark.parametrize("case", sorted(LATER_CASES))
def test_later_certificate_fails_with_exit_1(case, inputs, capsys,
                                             monkeypatch):
    args, name, call, label, digest = LATER_CASES[case]
    monkeypatch.setattr(cli, name, _failing_on(call, getattr(cli, name)))
    argv = [args[0], "--input", "cyclic2.json", *args[1:]]
    _assert_failed(*_run(argv, capsys), label, digest)


def _corrupt(act):
    tensor = {k: dict(v) for k, v in act.tensor.items()}
    tensor[(1, 0)] = {0: 1, 1: 1}
    return ActionData(act.field, act.actor_dim, act.space_dim, act.side,
                      tensor)


def _builders():
    hopf = catalog_named("cyclic:2")
    dual = catalog_named("dual_cyclic:2").algebra
    left, right = regular_actions(hopf)
    setup = StandardTriple(hopf)
    # left and right C_2-actions (swap, diag(1, -1)) that do not commute
    swap = CoactionData(QQ, 2, 2, "left", {0: [(0, 0, 1), (1, 1, 1)],
                                           1: [(0, 1, 1), (1, 0, 1)]})
    diag = CoactionData(QQ, 2, 2, "right", {0: [(0, 0, 1), (1, 0, 1)],
                                            1: [(0, 1, 1), (1, 1, -1)]})
    cut = CoactionData(QQ, 2, 2, "left", {0: [(0, 0, 1)], 1: [(0, 1, 1)]})
    return {
        "left_smash": lambda: left_smash(dual, hopf, _corrupt(left)),
        "right_smash": lambda: right_smash(hopf, dual, _corrupt(right)),
        "two_sided.left": lambda: two_sided_crossed(
            dual, hopf, dual, _corrupt(left), right),
        "two_sided.right": lambda: two_sided_crossed(
            dual, hopf, dual, left, _corrupt(right)),
        "diagonal": lambda: diagonal_crossed(
            setup.C, setup.K, _corrupt(setup.act_left_C),
            setup.act_right_C),
        "bimodule_algebra.left": lambda: build_bimodule_algebra(
            dual, _corrupt(left), dual, right, hopf),
        "bimodule_algebra.right": lambda: build_bimodule_algebra(
            dual, left, dual, _corrupt(right), hopf),
        "bicomodule.coaction": lambda: bicomodule_to_module(
            cut, diag, hopf),
        "bicomodule.coherence": lambda: bicomodule_to_module(
            swap, diag, hopf),
    }


# id: (message, first violation of the attached report)
LIBRARY_CASES = {
    "left_smash": (
        "left smash needs a module algebra",
        "module-assoc-left at (1, 1, 0): lhs={0: 1} rhs={0: 2, 1: 1}"),
    "right_smash": (
        "right smash needs a module algebra",
        "module-assoc-right at (1, 1, 0): lhs={0: 1} rhs={0: 2, 1: 1}"),
    "two_sided.left": (
        "left factor fails its axioms",
        "module-assoc-left at (1, 1, 0): lhs={0: 1} rhs={0: 2, 1: 1}"),
    "two_sided.right": (
        "right factor fails its axioms",
        "module-assoc-right at (1, 1, 0): lhs={0: 1} rhs={0: 2, 1: 1}"),
    "diagonal": (
        "C is not a bimodule algebra",
        "module-assoc-left at (1, 1, 0): lhs={0: 1} rhs={0: 1, 1: 1, 3: 1}"),
    "bimodule_algebra.left": (
        "left factor is not a module algebra",
        "module-assoc-left at (1, 1, 0): lhs={0: 1} rhs={0: 2, 1: 1}"),
    "bimodule_algebra.right": (
        "right factor is not a module algebra",
        "module-assoc-right at (1, 1, 0): lhs={0: 1} rhs={0: 2, 1: 1}"),
    "bicomodule.coaction": (
        "coaction fails its axioms",
        "coaction-coassoc-left at (0,): lhs={(0, 0, 0): 1, (1, 1, 0): 1} "
        "rhs={(0, 0, 0): 1}"),
    "bicomodule.coherence": (
        "not a bicomodule",
        "bicomodule-coherence at (0,): lhs={(0, 0, 0): 1, (0, 0, 1): 1, "
        "(1, 1, 0): 1, (1, 1, 1): -1} rhs={(0, 0, 0): 1, (0, 0, 1): 1, "
        "(1, 1, 0): 1, (1, 1, 1): 1}"),
}


@pytest.mark.parametrize("case", sorted(LIBRARY_CASES))
def test_builder_raises_unverified_action_error(case):
    message, violation = LIBRARY_CASES[case]
    with pytest.raises(UnverifiedActionError) as info:
        _builders()[case]()
    assert (str(info.value), info.value.report.first().describe()) == (
        message, violation)
    assert not info.value.report.passed
