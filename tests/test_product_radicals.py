"""Trace-form radicals of the materialised products X, Y and Z.

X, Y and Z are isomorphic algebras, so their radicals have one
dimension: 96 of 256 on sweedler4, and 0 on cyclic:3 and dual_cyclic:3,
whose products are semisimple over Q.  On Z the basis returned by
`trace_form_radical` is compared entry for entry with a dense reference:
every Gram entry tr(L_i L_j) summed over the terms of L_j, and the
kernel taken by the dense Gauss-Jordan of `test_sparse_echelon.py`.
`scripts/build_catalog_products.py` cross-checks the radicals,
certifies phi, alpha and beta, builds all eight maps and certifies the
four inverse pairs, and exits 1 when any check fails.
"""

import contextlib
import hashlib
import importlib.util
import io
import os
import sys

import pytest

from hopfcross import cli
from hopfcross.algebra import trace_form_radical
from hopfcross.catalog import catalog_named
from hopfcross.crossed import StandardTriple, build_xyz, materialize
from hopfcross.hopf_json import hopf_to_json, save_document
from hopfcross.isos import ISO_SPECS
from hopfcross.linalg import LinearMap

from test_sparse_echelon import dense_kernel

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

RADICAL_DIMS = {"cyclic:3": 0, "dual_cyclic:3": 0, "sweedler4": 96}

# sha256 of the `semisimple` stdout on a sweedler4 file saved as
# sweedler4.json and on its Z written by `build --out z.json`
SEMISIMPLE_DIGESTS = {
    "sweedler4.json":
        "7d7577ddc5ae28e8e42c9a4355ae6c01d0d0c528689ef4bb539f411d3caad0e5",
    "z.json":
        "ea1e513a4e83300a95cb35ed2403ec2c1578f095119ad12d407d8f334aa1c0eb",
}


def dense_gram_radical(alg):
    """Kernel of the dense Gram matrix of the trace form."""
    n, field = alg.dim, alg.field
    left = [{} for _ in range(n)]       # i -> {(t, s): coefficient}
    for (i, s), entries in alg.mult.items():
        for t, c in entries.items():
            left[i][(t, s)] = c
    gram = [[field.canon(sum(c * left[i].get((s, t), 0)
                             for (t, s), c in left[j].items()))
             for j in range(n)] for i in range(n)]
    return dense_kernel(field, gram)


@pytest.fixture(scope="module")
def products():
    """Materialised X, Y, Z of each entry, on fresh handles."""
    out = {}
    for name in RADICAL_DIMS:
        hopf = catalog_named(name)
        setup = StandardTriple(hopf)
        for which in ("X", "Y", "Z"):
            handle = build_xyz(hopf, which, setup)
            out[name, which] = materialize(handle, cap=handle.dim)
    return out


@pytest.mark.parametrize("name", list(RADICAL_DIMS))
def test_radicals_of_x_y_z_agree(products, name):
    dims = {which: len(trace_form_radical(products[name, which]))
            for which in ("X", "Y", "Z")}
    assert dims == dict.fromkeys("XYZ", RADICAL_DIMS[name])


@pytest.mark.parametrize("name", ["cyclic:3", "sweedler4"])
def test_z_radical_equals_dense_gram_reference(products, name):
    alg = products[name, "Z"]
    radical = trace_form_radical(alg)
    assert radical == dense_gram_radical(alg)
    for vec in radical:
        assert any(vec)


def test_dense_gram_reference_on_the_hopf_algebras():
    for name in ("sweedler4", "cyclic:2", "cyclic:3", "dual_cyclic:3"):
        alg = catalog_named(name).algebra
        assert trace_form_radical(alg) == dense_gram_radical(alg)


def run_cli(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return code, out.getvalue()


def test_semisimple_on_a_256_dim_product(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    save_document("sweedler4.json", hopf_to_json(catalog_named("sweedler4")))
    code, _ = run_cli(["build", "--construction", "Z", "--input",
                       "sweedler4.json", "--materialize-cap", "256",
                       "--out", "z.json"])
    assert code == 0
    for path, radical_dim in (("sweedler4.json", 2), ("z.json", 96)):
        code, out = run_cli(["semisimple", path])
        assert code == 1
        assert f"radical dimension: {radical_dim}\n" in out
        assert out.count("radical vector: ") == radical_dim
        assert out.endswith("semisimple: no\n")
        assert (hashlib.sha256(out.encode()).hexdigest()
                == SEMISIMPLE_DIGESTS[path])


def load_catalog_script():
    spec = importlib.util.spec_from_file_location(
        "build_catalog_products",
        os.path.join(ROOT, "scripts", "build_catalog_products.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_catalog_script_cross_checks_the_radicals(monkeypatch, capsys):
    script = load_catalog_script()
    monkeypatch.setattr(sys, "argv", ["build_catalog_products.py",
                                      "--entries", "cyclic:2"])
    assert script.main() == 0
    out = capsys.readouterr().out
    for which in ("X", "Y", "Z"):
        assert f"   {which} radical dimension over Q: 0 (" in out
    assert "FAIL" not in out

    # a radical that differs on Y alone is caught
    real, calls = script.trace_form_radical, []

    def radical(alg):
        calls.append(alg)
        extra = [[1] * alg.dim] if len(calls) == 2 else []
        return real(alg) + extra
    monkeypatch.setattr(script, "trace_form_radical", radical)
    assert script.main() == 1
    out = capsys.readouterr().out
    assert "   Y radical dimension over Q: 1 (" in out
    assert "radical dimensions differ" in out


def test_catalog_script_times_the_morphisms(monkeypatch, capsys):
    script = load_catalog_script()
    monkeypatch.setattr(sys, "argv", ["build_catalog_products.py",
                                      "--entries", "cyclic:2"])
    assert script.main() == 0
    out = capsys.readouterr().out
    arrows = {"phi": "X -> Y", "alpha": "Y -> Z", "beta": "X -> Z"}
    for kind, arrow in arrows.items():
        assert (f"   {kind}: {arrow} morphism pass (exhaustive, 256 checks, "
                in out)

    # alpha with one entry moved by one is not multiplicative
    real = script.build_iso

    def build(kind, hopf, setup):
        lm = real(kind, hopf, setup)
        if kind != "alpha":
            return lm
        rows = lm.rows
        rows[0][0] = lm.field.canon(rows[0][0] + 1)
        return LinearMap(lm.field, lm.src_dim, lm.dst_dim, rows)
    monkeypatch.setattr(script, "build_iso", build)
    assert script.main() == 1
    out = capsys.readouterr().out
    assert "   alpha: Y -> Z morphism FAIL (exhaustive, " in out
    assert "   beta: X -> Z morphism pass (exhaustive, 256 checks, " in out


def test_catalog_script_builds_every_map_and_checks_the_inverses(
        monkeypatch, capsys):
    script = load_catalog_script()
    monkeypatch.setattr(sys, "argv", ["build_catalog_products.py",
                                      "--entries", "cyclic:2"])
    assert script.main() == 0
    out = capsys.readouterr().out
    for kind, (src, dst) in ISO_SPECS.items():
        assert f"   {kind}: {src} -> {dst} built (" in out
    for kind in ("phi", "alpha", "beta", "f"):
        assert (f"   {kind}, {kind}_inv: mutually inverse pass "
                "(exhaustive, 32 checks, " in out)

    # phi_inv with one entry moved by one is not the inverse of phi
    real = script.build_iso

    def build(kind, hopf, setup):
        lm = real(kind, hopf, setup)
        if kind != "phi_inv":
            return lm
        rows = lm.rows
        rows[0][0] = lm.field.canon(rows[0][0] + 1)
        return LinearMap(lm.field, lm.src_dim, lm.dst_dim, rows)
    monkeypatch.setattr(script, "build_iso", build)
    assert script.main() == 1
    out = capsys.readouterr().out
    assert "   phi, phi_inv: mutually inverse FAIL (exhaustive, " in out
    assert "   alpha, alpha_inv: mutually inverse pass (exhaustive, " in out
