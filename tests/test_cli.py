import json
import subprocess
import sys

import pytest

from hopfcross.catalog import catalog_named
from hopfcross.hopf_json import dump_json, hopf_to_json, save_document


def run_cli(args, cwd=None):
    cmd = [sys.executable, "-m", "hopfcross", *args]
    return subprocess.run(cmd, cwd=cwd, text=True, capture_output=True)


@pytest.fixture(scope="module")
def cyclic2_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("files") / "cyclic2.json"
    save_document(path, hopf_to_json(catalog_named("cyclic:2")))
    return path


@pytest.fixture(scope="module")
def sweedler_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("files") / "sweedler4.json"
    save_document(path, hopf_to_json(catalog_named("sweedler4")))
    return path


def test_check_passes(cyclic2_file):
    r = run_cli(["check", str(cyclic2_file)])
    assert r.returncode == 0, r.stderr
    assert "hopf axioms: pass" in r.stdout


def test_check_random_mode_is_seeded(sweedler_file):
    r1 = run_cli(["check", str(sweedler_file), "--mode", "random:10",
                  "--seed", "42"])
    r2 = run_cli(["check", str(sweedler_file), "--mode", "random:10",
                  "--seed", "42"])
    assert r1.returncode == 0
    assert r1.stdout == r2.stdout


def test_check_corrupted_coassociativity(tmp_path, cyclic2_file):
    doc = hopf_to_json(catalog_named("cyclic:2"))
    doc["comult"] = [[0, 0, 0, "1"], [1, 1, 1, "1"], [1, 0, 0, "1"]]
    bad = tmp_path / "corrupted.json"
    bad.write_text(dump_json(doc))
    r = run_cli(["check", str(bad)])
    assert r.returncode == 1
    assert "violation: coassociativity" in r.stdout
    assert "lhs=" in r.stdout and "rhs=" in r.stdout


def test_check_parse_error(tmp_path):
    bad = tmp_path / "broken.json"
    bad.write_text("{not json")
    r = run_cli(["check", str(bad)])
    assert r.returncode == 2
    assert "error:" in r.stderr


def test_check_unknown_key(tmp_path):
    doc = hopf_to_json(catalog_named("cyclic:2"))
    doc["surprise"] = []
    path = tmp_path / "unknown.json"
    path.write_text(dump_json(doc))
    r = run_cli(["check", str(path)])
    assert r.returncode == 2
    assert "unknown keys" in r.stderr


def test_describe_catalog():
    r = run_cli(["describe", "--catalog", "sweedler4"])
    assert r.returncode == 0
    assert "dim: 4" in r.stdout
    assert "hopf axioms: pass" in r.stdout
    r = run_cli(["describe", "--catalog", "taft:2:5"])
    assert r.returncode == 0
    assert "field: F5" in r.stdout


def test_describe_bad_catalog():
    r = run_cli(["describe", "--catalog", "nosuch:1"])
    assert r.returncode == 2


def test_build_materializes_and_checks(tmp_path, cyclic2_file):
    out = tmp_path / "z.json"
    r = run_cli(["build", "--construction", "Z", "--input", str(cyclic2_file),
                 "--out", str(out)])
    assert r.returncode == 0, r.stderr
    assert "product dim: 16" in r.stdout
    assert "pass" in r.stdout
    data = json.loads(out.read_text())
    assert data["dim"] == 16
    r = run_cli(["check", str(out)])
    assert r.returncode == 0
    assert "algebra axioms: pass" in r.stdout


def test_build_descriptor_over_cap(tmp_path, sweedler_file):
    out = tmp_path / "z_big.json"
    r = run_cli(["build", "--construction", "Z", "--input", str(sweedler_file),
                 "--mode", "random:5", "--out", str(out)])
    assert r.returncode == 0, r.stderr
    assert "descriptor" in r.stdout
    data = json.loads(out.read_text())
    assert data["construction"] == "Z"
    assert data["dim"] == 256
    assert len(data["input_sha256"]) == 64
    # descriptor files are not structure constants
    r = run_cli(["semisimple", str(out)])
    assert r.returncode == 2


def test_descriptor_file_is_named_as_such(tmp_path):
    path = tmp_path / "descriptor.json"
    path.write_text(json.dumps({"construction": "Z", "input_sha256": "0" * 64,
                                "dim": 256, "field": "Q",
                                "factor_dims": [4, 4, 4, 4]}))
    for command in ("check", "semisimple"):
        r = run_cli([command, str(path)])
        assert r.returncode == 2
        assert ("this is a descriptor file, not structure constants"
                in r.stderr), r.stderr


def test_build_all_constructions(tmp_path, cyclic2_file):
    for construction, dim in (("X", 16), ("Y", 16), ("left-smash", 8),
                              ("right-smash", 8), ("two-sided", 16),
                              ("diagonal", 16)):
        r = run_cli(["build", "--construction", construction,
                     "--input", str(cyclic2_file)])
        assert r.returncode == 0, (construction, r.stderr)
        assert f"product dim: {dim}" in r.stdout


def test_iso_report_and_determinism(cyclic2_file):
    r1 = run_cli(["iso", "--kind", "phi", "--input", str(cyclic2_file)])
    assert r1.returncode == 0
    assert "morphism: pass (256 pairs)" in r1.stdout
    assert "inverse: pass" in r1.stdout
    r2 = run_cli(["iso", "--kind", "phi", "--input", str(cyclic2_file)])
    assert r1.stdout == r2.stdout


def test_iso_beta_includes_composition(cyclic2_file):
    r = run_cli(["iso", "--kind", "beta", "--input", str(cyclic2_file)])
    assert r.returncode == 0
    assert "composition: pass" in r.stdout


def test_iso_matrix_output(tmp_path, cyclic2_file):
    out = tmp_path / "phi.json"
    r = run_cli(["iso", "--kind", "phi", "--input", str(cyclic2_file),
                 "--out", str(out)])
    assert r.returncode == 0
    data = json.loads(out.read_text())
    assert data["src_dim"] == 16 and data["dst_dim"] == 16
    assert len(data["matrix"]) == 16


def test_bimodule_suite(cyclic2_file):
    r = run_cli(["bimodule", "--input", str(cyclic2_file),
                 "--module", "regular"])
    assert r.returncode == 0, r.stdout + r.stderr
    for line in ("hopf bimodule axioms: pass", "X module axiom: pass",
                 "triple roundtrip: pass", "diagonal condition: pass",
                 "f correspondence: pass"):
        assert line in r.stdout
    r = run_cli(["bimodule", "--input", str(cyclic2_file),
                 "--module", "free:2"])
    assert r.returncode == 0
    assert "module: free:2 (dim 8)" in r.stdout


def test_semisimple_exit_codes(tmp_path, cyclic2_file, sweedler_file):
    out = tmp_path / "z.json"
    run_cli(["build", "--construction", "Z", "--input", str(cyclic2_file),
             "--out", str(out)])
    r = run_cli(["semisimple", str(out)])
    assert r.returncode == 0
    assert "radical dimension: 0" in r.stdout
    assert "semisimple: yes" in r.stdout
    r = run_cli(["semisimple", str(sweedler_file)])
    assert r.returncode == 1
    assert "radical dimension: 2" in r.stdout
    assert "semisimple: no" in r.stdout


def test_semisimple_rejects_prime_field(tmp_path):
    path = tmp_path / "taft.json"
    save_document(path, hopf_to_json(catalog_named("taft:2:5")))
    r = run_cli(["semisimple", str(path)])
    assert r.returncode == 2
    assert "characteristic 0" in r.stderr


def test_missing_file_is_input_error():
    r = run_cli(["check", "/nonexistent/nowhere.json"])
    assert r.returncode == 2


GOLDEN_STDOUT = {
    ("iso", "--kind", "beta"): """\
input hopf axioms: pass (18 checks)
kind: beta (X -> Z)
input dim: 2
product dim: 16
morphism: pass (256 pairs)
inverse: pass (32 rows)
composition: pass (512 entries)
""",
    ("iso", "--kind", "phi", "--mode", "random:2"): """\
input hopf axioms: pass (18 checks)
kind: phi (X -> Y)
input dim: 2
product dim: 16
morphism: pass (2 trials)
inverse: pass (32 rows)
""",
    ("build", "--construction", "Z", "--mode", "random:3"): """\
input hopf axioms: pass (18 checks)
construction: Z
input dim: 2
product dim: 16
unit + associativity (random, 3 trials): pass (3 checks)
""",
    ("bimodule", "--module", "regular"): """\
input hopf axioms: pass (18 checks)
module: regular (dim 2)
hopf bimodule axioms: pass (50 checks)
X module axiom: pass (514 checks)
Y module axiom: pass (514 checks)
Z module axiom: pass (514 checks)
left_smash module axiom: pass (130 checks)
right_smash module axiom: pass (130 checks)
action correspondences (phi, alpha, beta): pass (32 checks)
triple roundtrip: pass (602 checks)
diagonal condition: pass (546 checks)
f correspondence: pass (32 checks)
""",
}


def test_stdout_is_pinned(cyclic2_file):
    for args, expected in GOLDEN_STDOUT.items():
        r = run_cli([*args, "--input", str(cyclic2_file)])
        assert r.returncode == 0, (args, r.stderr)
        assert r.stdout == expected, args


@pytest.mark.parametrize("mode", ["random:0", "random:-3", "random:x"])
@pytest.mark.parametrize("command", [
    ["check"], ["build", "--construction", "Z", "--input"],
    ["iso", "--kind", "phi", "--input"]])
def test_bad_mode_is_input_error(cyclic2_file, command, mode):
    r = run_cli([*command, str(cyclic2_file), "--mode", mode])
    assert r.returncode == 2
    assert r.stdout == ""
    assert repr(mode) in r.stderr


@pytest.mark.parametrize("args,option", [
    (["bimodule", "--module", "free:x"], "--module"),
    (["bimodule", "--module", "free:0"], "--module"),
    (["bimodule", "--module", "bogus"], "--module"),
    (["describe", "--catalog", "cyclic:2", "--field", "x"], "--field"),
    (["describe", "--catalog", "cyclic:x"], "--catalog"),
    (["build", "--construction", "X", "--materialize-cap", "-5"],
     "argument --materialize-cap"),
])
def test_bad_option_is_input_error(cyclic2_file, args, option):
    if args[0] == "bimodule":
        args = [*args, "--input", str(cyclic2_file)]
    r = run_cli(args)
    assert r.returncode == 2
    assert r.stdout == ""
    assert option in r.stderr


def test_deferred_mode_carries_the_seed(cyclic3):
    from hopfcross.cli import _parse_mode, make_parser
    from hopfcross.crossed import build_xyz, check_handle_axioms

    args = make_parser().parse_args(
        ["build", "--construction", "Y", "--input", "in.json", "--seed", "7"])
    mode = _parse_mode(args.mode, args.seed)
    rep = check_handle_axioms(build_xyz(cyclic3, "Y"), mode)
    assert rep.passed
    assert rep.mode.kind == "random" and rep.mode.seed == 7
