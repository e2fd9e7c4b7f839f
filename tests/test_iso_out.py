"""`iso` builds each map once per triple and streams its `--out` matrix."""

from collections import Counter

import pytest

from hopfcross import cli, isos
from hopfcross.crossed import StandardTriple
from hopfcross.hopf_json import (hopf_to_json, save_document,
                                 save_document_by_rows)
from hopfcross.isos import ISO_KINDS, build_iso


def test_iso_beta_evaluates_each_map_once(cyclic3, tmp_path, monkeypatch,
                                          capsys):
    src = tmp_path / "hopf.json"
    save_document(src, hopf_to_json(cyclic3))
    evaluated = Counter()
    assemble = isos._assemble

    def counted(kind, setup):
        evaluated[kind] += 1
        return assemble(kind, setup)

    monkeypatch.setattr(isos, "_assemble", counted)
    assert cli.main(["iso", "--kind", "beta", "--input", str(src)]) == 0
    assert "composition: pass" in capsys.readouterr().out
    assert evaluated == Counter({k: 1 for k in (
        "phi", "phi_inv", "alpha", "alpha_inv", "beta", "beta_inv")})


def test_build_iso_reads_the_triple_table_first(cyclic2, setup_c2):
    for kind in ISO_KINDS:
        lm = build_iso(kind, cyclic2, setup_c2)
        assert build_iso(kind, cyclic2, setup_c2) is lm
        assert setup_c2.isos[kind] is lm
    fresh = StandardTriple(cyclic2)
    again = build_iso("beta", cyclic2, fresh)
    assert again is not setup_c2.isos["beta"]
    assert again.equals(setup_c2.isos["beta"])


@pytest.mark.parametrize("rows", [
    [],
    [[]],
    [["0", "1/2"], ["-3", "0"]],
    [["a\"b", "é", "tab\tnew\nline"], [], ["x"]],
])
def test_rows_writer_matches_save_document(rows, tmp_path):
    head = {"kind": "beta", "src": "X", "src_dim": len(rows)}
    whole, streamed = tmp_path / "whole.json", tmp_path / "streamed.json"
    save_document(whole, {**head, "matrix": rows})
    save_document_by_rows(streamed, head, "matrix", iter(rows))
    assert streamed.read_bytes() == whole.read_bytes()


def test_iter_rows_yields_the_dense_rows(cyclic2, setup_c2):
    lm = build_iso("beta_inv", cyclic2, setup_c2)
    rows = lm.iter_rows()
    assert next(rows) == lm.rows[0]
    assert [lm.rows[0], *rows] == lm.rows
