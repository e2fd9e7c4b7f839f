"""The "F is an algebra map" stream over rows of nonzero structure
constants, against the per-pair loop it replaced.

`algebra.multiplicative_items` sums both sides of every pair (i, j) of
one left index i from row i of the source and the rows of the target at
the terms of F(e_i).  `reference_items` below is the loop it replaced:
one sparse source product and one target product per basis pair.  The
tests run on the eight isomorphisms, on Delta and on the comodule
coaction rho, each honest and with one seeded image entry moved in the
first column, the last column and a column in the support of the unit.
The stream yields one block per left index, so the tests compare the
reports, (passed, checked, axiom, witness, lhs, rhs), of `certify` over
it and over the reference.
A corrupted target product must be caught at the reference's pair, and
a cold exhaustive certificate must read compiled rows only, never the
pair oracle.  `crossed.materialize` reads the same compiled rows; its
structure constants must equal those of the pair route and those of
the reference that expands the twisted tensor formula afresh for each
basis pair, and `build --out` files must keep the digests they had when
it read pairs.
"""

import contextlib
from functools import lru_cache
import hashlib
import io
import random

import pytest

from hopfcross import cli
from hopfcross.actions import comodule_algebra_map
from hopfcross.algebra import (AlgebraData, algebra_rows, dual_hopf,
                               keyed_rows, multiplicative_items,
                               tensor_hopf, tensor_product, tensor_rows,
                               variant)
from hopfcross.catalog import catalog_named
from hopfcross.crossed import (StandardTriple, build_xyz, handle_from_algebra,
                               materialize, smash_handles)
from hopfcross.hopf_json import hopf_to_json, save_document
from hopfcross.isos import ISO_SPECS, build_iso, verify_algebra_morphism
from hopfcross.linalg import sv_add_into, sv_canon
from hopfcross.report import CheckMode, certify
from test_row_compile import build_with_reference

EXHAUSTIVE = CheckMode.exhaustive()
NAMES = ("cyclic:2", "cyclic:3", "dual_cyclic:3", "sweedler4", "taft:2:5")


def reference_items(field, axiom, n, src_mul, images, dst_product):
    """The per-pair loop: F(e_i e_j) from the sparse source product and
    F(e_i) F(e_j) from the sparse target product, for every pair."""
    for i in range(n):
        fi = images[i]
        for j in range(n):
            lhs = {}
            for k, c in src_mul(i, j).items():
                sv_add_into(lhs, images[k], c)
            yield (1, axiom, (i, j), sv_canon(field, lhs),
                   dst_product(fi, images[j]))


def summary(items):
    """(passed, checked, witness, lhs, rhs) of an item stream."""
    report = certify(EXHAUSTIVE, None, lambda: iter(items), None)
    first = report.first()
    if first is None:
        return report.passed, report.checked, None
    return (report.passed, report.checked, first.witness, first.lhs,
            first.rhs)


def verdict(items):
    """(passed, checked, axiom, witness, lhs, rhs) of an item stream."""
    report = certify(EXHAUSTIVE, None, lambda: iter(items), None)
    first = report.first()
    if first is None:
        return report.passed, report.checked, None
    return (report.passed, report.checked, first.axiom, first.witness,
            first.lhs, first.rhs)


def corrupted(field, images, unit, width, seed):
    """`images` with one seeded entry moved by one in the first column,
    the last column and a column in the support of `unit`, in turn."""
    rng = random.Random(seed)
    columns = [0, len(images) - 1, rng.choice(sorted(unit))]
    out = []
    for col in columns:
        row = rng.randrange(width)
        bad = list(images)
        bad[col] = sv_canon(field, {**images[col],
                                    row: images[col].get(row, 0) + 1})
        out.append(bad)
    return out


def assert_streams_agree(field, axiom, n, rows, images, dst_rows, width,
                         src_mul, dst_product, unit, seed):
    """The row stream's report equals the per-pair loop's on the honest
    images, which pass, and on three corruptions, which fail."""
    for case, bad in [(images, False)] + [
            (c, True) for c in corrupted(field, images, unit, width, seed)]:
        new = list(multiplicative_items(field, axiom, n, rows, case,
                                        dst_rows, width))
        want = list(reference_items(field, axiom, n, src_mul, case,
                                    dst_product))
        assert verdict(new) == verdict(want)
        assert summary(new)[0] is not bad


@lru_cache(maxsize=None)
def built(name):
    hopf = catalog_named(name)
    setup = StandardTriple(hopf)
    handles = {w: build_xyz(hopf, w, setup) for w in "XYZ"}
    return hopf, setup, handles


def morphism_case(name, kind):
    hopf, setup, handles = built(name)
    src_name, dst_name, *_ = ISO_SPECS[kind]
    src, dst = handles[src_name], handles[dst_name]
    lm = build_iso(kind, hopf, setup)
    return src, dst, [lm.col_sv(k) for k in range(src.dim)]


def assert_morphism_streams_agree(name, kind):
    src, dst, images = morphism_case(name, kind)
    assert_streams_agree(
        src.field, "morphism-multiplicative", src.dim, keyed_rows(src._row),
        images, keyed_rows(dst._row), dst.dim, src.basis_product,
        dst.product, src.unit, f"{name}/{kind}")


@pytest.mark.parametrize("kind", list(ISO_SPECS))
@pytest.mark.parametrize("name", ["cyclic:2", "cyclic:3", "dual_cyclic:3"])
def test_morphism_stream_matches_the_pair_loop(name, kind):
    assert_morphism_streams_agree(name, kind)


@pytest.mark.parametrize("kind", ["phi", "beta"])
def test_forced_exhaustive_morphism_on_sweedler4(kind):
    src, dst, images = morphism_case("sweedler4", kind)
    assert src.dim ** 2 == 65_536
    assert_morphism_streams_agree("sweedler4", kind)
    lm = build_iso(kind, *built("sweedler4")[:2])
    report = verify_algebra_morphism(lm, src, dst, mode=EXHAUSTIVE)
    assert report.passed and report.checked == 65_536


@pytest.mark.parametrize("name", ["cyclic:7", "dual_cyclic:7", "taft:3:7"])
def test_delta_stream_matches_the_pair_loop(name):
    hopf = catalog_named(name)
    alg = hopf.algebra
    field, n = alg.field, alg.dim
    images = [hopf.coalgebra.delta_sv({k: field.one}) for k in range(n)]
    row = algebra_rows(alg).__getitem__
    assert_streams_agree(
        field, "comult-multiplicative", n, row, images,
        tensor_rows(row, row, n), n * n, alg.mul_basis,
        tensor_product(field, alg.mul_basis, alg.mul_basis, n, n),
        alg.unit_sv(), name)


def test_rho_stream_matches_the_pair_loop():
    hopf = catalog_named("taft:4:5")
    n, field = hopf.dim, hopf.field
    dual = dual_hopf(hopf)
    big = tensor_hopf(dual, variant(dual, "cop"))
    lm, report = comodule_algebra_map(hopf)
    assert report.passed
    images = [lm.col_sv(t) for t in range(n)]
    row = algebra_rows(dual.algebra).__getitem__
    assert_streams_agree(
        field, "comodule-algebra-map", n, row, images,
        tensor_rows(row, algebra_rows(big.algebra).__getitem__, n * n),
        n ** 3, dual.algebra.mul_basis,
        tensor_product(field, dual.algebra.mul_basis, big.algebra.mul_basis,
                       n, n * n),
        dual.algebra.unit_sv(), "taft:4:5")


@pytest.mark.parametrize("name", ["cyclic:3", "dual_cyclic:3", "sweedler4"])
def test_corrupted_target_product_is_caught_at_the_reference_pair(name):
    """Z with one structure constant moved by one, given as a handle over
    its `mult`: beta into it fails where the per-pair loop fails."""
    hopf, setup, handles = built(name)
    src = handles["X"]
    whole = materialize(build_xyz(hopf, "Z", setup), cap=src.dim)
    rng = random.Random(name)
    key = rng.choice(sorted(whole.mult))
    k = min(whole.mult[key])
    mult = {**whole.mult, key: {**whole.mult[key],
                                k: whole.field.canon(whole.mult[key][k] + 1)}}
    dst = handle_from_algebra(AlgebraData(
        whole.field, whole.dim, whole.basis_labels, mult, whole.unit))
    lm = build_iso("beta", hopf, setup)
    report = verify_algebra_morphism(lm, src, dst, mode=EXHAUSTIVE)
    images = [lm.col_sv(k) for k in range(src.dim)]
    want = summary(list(reference_items(
        src.field, "morphism-multiplicative", src.dim, src.basis_product,
        images, dst.product)))
    assert not report.passed
    first = report.first()
    assert (report.passed, report.checked, first.witness, first.lhs,
            first.rhs) == want


def count_pairs(handle):
    calls = []
    pair_fn = handle._pair_fn

    def counted(i, j):
        calls.append((i, j))
        return pair_fn(i, j)

    handle._pair_fn = counted
    return calls


def test_cold_certificate_evaluates_no_pair():
    hopf = catalog_named("cyclic:3")
    setup = StandardTriple(hopf)
    src, dst = build_xyz(hopf, "X", setup), build_xyz(hopf, "Z", setup)
    seen = [count_pairs(src), count_pairs(dst)]
    report = verify_algebra_morphism(build_iso("beta", hopf, setup), src, dst)
    assert report.passed and report.mode.kind == "exhaustive"
    assert report.checked == src.dim ** 2
    assert seen == [[], []]


# ---------------------------------------------------------------------------
# materialize

def fresh_handles(name):
    hopf = catalog_named(name)
    setup = StandardTriple(hopf)
    left, right = smash_handles(hopf, setup)
    return {"X": build_xyz(hopf, "X", setup), "Y": build_xyz(hopf, "Y", setup),
            "Z": build_xyz(hopf, "Z", setup), "left_smash": left,
            "right_smash": right}


@pytest.mark.parametrize("name", NAMES)
def test_materialize_matches_the_pair_route(name):
    rows, pairs = fresh_handles(name), fresh_handles(name)
    for which, handle in rows.items():
        seen = count_pairs(handle)
        mult = materialize(handle, cap=handle.dim).mult
        assert seen == [], which
        other = pairs[which]
        want = {}
        for i in range(other.dim):
            for j in range(other.dim):
                sv = other.basis_product(i, j)
                if sv:
                    want[(i, j)] = sv
        # the same dict, in the same key order, values of the same types
        assert ([(key, list(e.items())) for key, e in mult.items()]
                == [(key, list(e.items())) for key, e in want.items()]), which
        assert ([type(c) for e in mult.values() for c in e.values()]
                == [type(c) for e in want.values() for c in e.values()])


@pytest.mark.parametrize("which", ["X", "Y", "Z"])
@pytest.mark.parametrize("name", ["cyclic:2", "cyclic:3", "dual_cyclic:3"])
def test_materialize_matches_the_reference_formula(name, which):
    # the reference expands the twisted tensor formula afresh per basis
    # pair, so this checks `materialize` against more than its own rows
    handle, ref = build_with_reference(name, which)
    mult = materialize(handle, cap=handle.dim).mult
    want = {}
    for i in range(handle.dim):
        for j in range(handle.dim):
            sv = ref(i, j)
            if sv:
                want[(i, j)] = dict(sorted(sv.items()))
    # the same dict, in the same key order, values of the same types
    assert ([(key, list(e.items())) for key, e in mult.items()]
            == [(key, list(e.items())) for key, e in want.items()])
    assert ([type(c) for e in mult.values() for c in e.values()]
            == [type(c) for e in want.values() for c in e.values()])


# sha256 of `build --construction W --mode random:1 --materialize-cap 256
# --out` on each catalog entry, written when `materialize` read pairs
BUILD_DIGESTS = {
    ("cyclic:2", "X"): "bc28d0f544fe01c8da28e7bb7ad62dc65a146f585df19fdaff8ee2beedaaf86e",
    ("cyclic:2", "Y"): "126a6b59d93415352052495255a7d110cd4f6c03b66bd55b2efa5f12cb38f2db",
    ("cyclic:2", "Z"): "ac9db3f78b6fa51e61e1004159a7cbaf64048b84fd5a97b022bfbe86e0bed3a8",
    ("cyclic:2", "left-smash"): "59bb1bfd73a4ea25265483fde7b13bbd4f3dab320f31738bad781b0a9c2cc77b",
    ("cyclic:2", "right-smash"): "ff8f26e6faf6ffeb438f2341106c9c15c8f946f3e9c72f4d35789775c1867faa",
    ("cyclic:3", "X"): "236bc545190a7a1311a8ad721dac1adc50efaef423743ac3081685bb537e4db6",
    ("cyclic:3", "Y"): "7a27b15e38b6d85cfa1596682cd28005dd478d9867b17a179823f0c67b334dc7",
    ("cyclic:3", "Z"): "bb9c89b503f88729efe600f68cb38eb51802a98c958f4d5eb53fc1437316d81a",
    ("cyclic:3", "left-smash"): "249d9b5f10be009a7a3a5d8126ee1ee843acdb47b32ee42605d9ff6673f2d15c",
    ("cyclic:3", "right-smash"): "58f4648ca754ab73ed77a3232a536b31f61905045fc9a0eef40158362e567d41",
    ("dual_cyclic:3", "X"): "29e569dbe4d51975a72f6bc21a1b6cca7f694801ded85c1a95f014045e828d94",
    ("dual_cyclic:3", "Y"): "9d956fb63b5664b2ccfdbd052088ab23fe3fcc27688e1011393b75739886e78e",
    ("dual_cyclic:3", "Z"): "41c653bff2cfa0d6b0917c5dfd40b35a1399b57307f235f52d23ad93155ff9f3",
    ("dual_cyclic:3", "left-smash"): "cca84cca4300250988fb488282dfd7ce1e49100818f0942d2d2434afb468e55d",
    ("dual_cyclic:3", "right-smash"): "eb254925abcb3fb52c5a4c5c8a778c487f08661b346669536f3d042419d1519b",
    ("sweedler4", "X"): "ab4dd91ac87b6f2e87b74b1103fed9ea7f4f20ef2697cc507d398480b5d0aa95",
    ("sweedler4", "Y"): "dc8741adc15aceb00378d09121d2456f55485e502f686e63f89437ede247f832",
    ("sweedler4", "Z"): "e7bccccf8a2e5617e9e3c91ed3cf46076dead1d79b69634265ec7999a4279434",
    ("sweedler4", "left-smash"): "dd52809d80f0545f16867f7d3859d4b91a14ac9483fce6b972c99f106fdfcdff",
    ("sweedler4", "right-smash"): "220ddfcc1416086cebcf08bc4956d246da38291f6d23f41856ab437291a68d43",
    ("taft:2:5", "X"): "6dea82264585d21cc93df3a4c49be80869ad7940cfacbbf88c235b0d92c2d61a",
    ("taft:2:5", "Y"): "c04f95c07fa0d9294701f7588c796362068bf0437d06e621b3ffffa82febd04b",
    ("taft:2:5", "Z"): "62d6ed5c1cf39d355d1b545c997fec60ae5b856f9bf7505a9e8e85e524e1af11",
    ("taft:2:5", "left-smash"): "e2c9ceff9e062a57f61212067aea3d8363ef047eb91516c14bc24d69c1c48e05",
    ("taft:2:5", "right-smash"): "1cf2fa89b6428cf01e35148bbff35af21c5f3d2d856bf0065b37caabbfe0e15f",
}


@pytest.mark.parametrize("name", NAMES)
def test_build_out_files_keep_their_digests(tmp_path, name):
    src = tmp_path / "hopf.json"
    save_document(src, hopf_to_json(catalog_named(name)))
    for construction in ("X", "Y", "Z", "left-smash", "right-smash"):
        out = tmp_path / f"{construction}.json"
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(["build", "--construction", construction,
                             "--input", str(src), "--mode", "random:1",
                             "--materialize-cap", "256", "--out", str(out)])
        assert code == 0
        digest = hashlib.sha256(out.read_bytes()).hexdigest()
        assert digest == BUILD_DIGESTS[(name, construction)], construction
