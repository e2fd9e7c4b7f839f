"""The dense `rows` view of a `LinearMap` and the `iso --out` matrix it feeds.

The digests are sha256 of the whole JSON file that
`iso --kind beta --mode random:1 --out` writes, matrix included.
"""

import hashlib

import pytest

from hopfcross import cli
from hopfcross.catalog import catalog_named
from hopfcross.fields import PrimeField, QQ
from hopfcross.hopf_json import hopf_to_json, save_document
from hopfcross.isos import ISO_KINDS, build_iso
from hopfcross.linalg import LinearMap

BETA_OUT_SHA256 = {
    "cyclic:2":
        "3358bb13f336e39fab7f05fac723bc82e6b10393fa71bfe2f413933dc5e89ae9",
    "sweedler4":
        "c110662570192b3b42747664aed9e61f87a6ed43e42cb575d0f0e17cb05d392c",
}


@pytest.mark.parametrize("name", sorted(BETA_OUT_SHA256))
def test_iso_out_matrix_is_pinned(name, tmp_path, capsys):
    src, out = tmp_path / "hopf.json", tmp_path / "beta.json"
    save_document(src, hopf_to_json(catalog_named(name)))
    code = cli.main(["iso", "--kind", "beta", "--input", str(src),
                     "--mode", "random:1", "--out", str(out)])
    assert code == 0, capsys.readouterr()
    digest = hashlib.sha256(out.read_bytes()).hexdigest()
    assert digest == BETA_OUT_SHA256[name]


@pytest.mark.parametrize("kind", ISO_KINDS)
def test_rows_round_trip(kind, cyclic2, setup_c2):
    lm = build_iso(kind, cyclic2, setup_c2)
    again = LinearMap(lm.field, lm.src_dim, lm.dst_dim, lm.rows)
    assert again.equals(lm) and lm.equals(again)
    assert again.rows == lm.rows


def test_mutating_rows_leaves_the_map_unchanged(cyclic2, setup_c2):
    lm = build_iso("phi", cyclic2, setup_c2)
    before = [list(row) for row in lm.rows]
    cols = [lm.col_sv(j) for j in range(lm.src_dim)]
    view = lm.rows
    view[0][0] = QQ.canon(view[0][0] + 1)
    view[3] = [7] * lm.src_dim
    assert lm.rows == before
    assert [lm.col_sv(j) for j in range(lm.src_dim)] == cols


def test_rows_constructor_keeps_canonical_nonzero_entries():
    f5 = PrimeField(5)
    lm = LinearMap(f5, 3, 2, [[5, 6, 0], [0, -1, 10]])
    assert [lm.col_sv(j) for j in range(3)] == [{}, {0: 1, 1: 4}, {}]
    assert lm.rows == [[0, 1, 0], [0, 4, 0]]
    assert lm.apply_dense([1, 1, 1]) == [1, 4]
