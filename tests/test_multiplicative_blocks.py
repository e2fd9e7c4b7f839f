"""Block reports of the "F is an algebra map" stream against the per-pair
loops it replaced.

`algebra.multiplicative_items` yields one block per left index i, and a
block that fails is reported at its first failing pair (i, j) with both
sides restricted to j.  The fault tests compare (passed, checked, axiom,
witness, lhs, rhs) of `certify` over the blocks with the same tuple over
a per-pair reference: `reference_items` for the eight isomorphisms,
Delta and the comodule coaction rho, and `reference_hopf_items` for the
Hopf suite, whose eps items sit beside the Delta blocks.  The faults are
seeded single image entries moved by one, source products moved at
chosen pairs (first and last j of a block, rows 0 and n - 1, two in one
row), product entries that break Delta and eps at one pair, and several
faults at once in the Hopf data.  A passing map must give exactly n
items, so that a fall back to per-pair items shows.
"""

from functools import lru_cache
import random

import pytest

from hopfcross.actions import comodule_algebra_map
from hopfcross.algebra import (AlgebraData, CoalgebraData, HopfAlgebraData,
                               _hopf_items, algebra_rows, dual_hopf,
                               keyed_rows, multiplicative_items, tensor_hopf,
                               tensor_product, tensor_rows, variant)
from hopfcross.catalog import catalog_named
from hopfcross.crossed import StandardTriple, build_xyz
from hopfcross.fields import QQ
from hopfcross.isos import ISO_SPECS, build_iso, verify_algebra_morphism
from hopfcross.linalg import sv_canon
from hopfcross.report import CheckMode, certify_exhaustive
from test_identity_streams import reference_hopf_items, summary
from test_multiplicative_rows import reference_items, verdict

NAMES = ("cyclic:3", "dual_cyclic:3")
MAPS = (*ISO_SPECS, "delta", "rho")
FAULTS = 20


@lru_cache(maxsize=None)
def built(name):
    hopf = catalog_named(name)
    setup = StandardTriple(hopf)
    return hopf, setup, {w: build_xyz(hopf, w, setup) for w in "XYZ"}


@lru_cache(maxsize=None)
def stream_args(name, kind):
    """(field, axiom, n, src_row, images, dst_row, width) of one map and
    the (src_mul, dst_product) of its per-pair reference."""
    hopf, setup, handles = built(name)
    field, n = hopf.field, hopf.dim
    if kind == "delta":
        alg = hopf.algebra
        row = algebra_rows(alg).__getitem__
        images = [hopf.coalgebra.delta_sv({k: field.one}) for k in range(n)]
        return ((field, "comult-multiplicative", n, row, images,
                 tensor_rows(row, row, n), n * n),
                (alg.mul_basis,
                 tensor_product(field, alg.mul_basis, alg.mul_basis, n, n)))
    if kind == "rho":
        dual = dual_hopf(hopf)
        big = tensor_hopf(dual, variant(dual, "cop"))
        lm, _ = comodule_algebra_map(hopf)
        row = algebra_rows(dual.algebra).__getitem__
        return ((field, "comodule-algebra-map", n, row,
                 [lm.col_sv(t) for t in range(n)],
                 tensor_rows(row, algebra_rows(big.algebra).__getitem__,
                             n * n), n ** 3),
                (dual.algebra.mul_basis,
                 tensor_product(field, dual.algebra.mul_basis,
                                big.algebra.mul_basis, n, n * n)))
    src_name, dst_name, *_ = ISO_SPECS[kind]
    src, dst = handles[src_name], handles[dst_name]
    lm = build_iso(kind, hopf, setup)
    return ((field, "morphism-multiplicative", src.dim, keyed_rows(src._row),
             [lm.col_sv(k) for k in range(src.dim)], keyed_rows(dst._row),
             dst.dim),
            (src.basis_product, dst.product))


def reports(args, reference, images=None, src_row=None, src_mul=None):
    """The verdicts of the block stream and of the per-pair reference,
    with `images`, `src_row` and `src_mul` replaced where given."""
    field, axiom, n, row, honest, dst_row, width = args
    images = honest if images is None else images
    blocks = list(multiplicative_items(field, axiom, n, src_row or row,
                                       images, dst_row, width))
    want = reference_items(field, axiom, n, src_mul or reference[0], images,
                           reference[1])
    return verdict(blocks), verdict(list(want))


def image_faults(field, images, width, seed):
    """FAULTS copies of `images`, each with one seeded entry moved by one."""
    rng = random.Random(seed)
    out = []
    for _ in range(FAULTS):
        col, row = rng.randrange(len(images)), rng.randrange(width)
        bad = list(images)
        bad[col] = sv_canon(field, {**images[col],
                                    row: images[col].get(row, 0) + 1})
        out.append(bad)
    return out


@pytest.mark.parametrize("kind", MAPS)
@pytest.mark.parametrize("name", NAMES)
def test_seeded_image_faults_report_as_the_pair_loop(name, kind):
    args, reference = stream_args(name, kind)
    field, _, _, _, images, _, width = args
    got, want = reports(args, reference)
    assert got == want and got[0], kind
    failed = 0
    for number, bad in enumerate(image_faults(field, images, width,
                                              f"{name}/{kind}")):
        got, want = reports(args, reference, images=bad)
        assert got == want, (kind, number)
        failed += not got[0]
    assert failed == FAULTS, kind


def moved_products(field, src_row, src_mul, pairs):
    """The source rows and sparse product with e_i e_j moved by e_0 at
    each pair (i, j) of `pairs`: F(e_i e_j) moves by F(e_0) != 0 there
    and nowhere else."""
    def bumped(i, j, prod):
        return ({**prod, 0: field.canon(prod.get(0, 0) + 1)}
                if (i, j) in pairs else prod)

    def row(i):
        out = dict(src_row(i))
        for a, j in pairs:
            if a == i:
                out[j] = sv_canon(field, bumped(i, j, out.get(j, {})))
        return out

    def mul(i, j):
        return sv_canon(field, bumped(i, j, src_mul(i, j)))
    return row, mul


@pytest.mark.parametrize("kind", ["phi", "beta_inv", "delta", "rho"])
@pytest.mark.parametrize("name", NAMES)
def test_block_reports_the_first_failing_pair(name, kind):
    args, reference = stream_args(name, kind)
    field, _, n, src_row, _, _, _ = args
    middle = random.Random(f"{name}/{kind}").randrange(1, n - 1)
    cases = {
        "row 0, first j": [(0, 0)],
        "row 0, last j": [(0, n - 1)],
        "row n-1, first j": [(n - 1, 0)],
        "row n-1, last j": [(n - 1, n - 1)],
        "middle row, first j": [(middle, 0)],
        "middle row, last j": [(middle, n - 1)],
        "two in one row": [(middle, n - 1), (middle, 1)],
        "two in one row, adjacent": [(middle, 2), (middle, 1)],
    }
    for label, pairs in cases.items():
        row, mul = moved_products(field, src_row, reference[0], set(pairs))
        got, want = reports(args, reference, src_row=row, src_mul=mul)
        assert got == want, label
        i, j = min(pairs)
        assert got[:4] == (False, i * n + j + 1, args[1], (i, j)), label


def moved_product_entry(hopf, pair):
    """H with e_i e_j, for `pair` = (i, j), moved by e_0."""
    alg = hopf.algebra
    prod = dict(alg.mul_basis(*pair))
    prod[0] = hopf.field.canon(prod.get(0, 0) + 1)
    return HopfAlgebraData(AlgebraData(alg.field, alg.dim, alg.basis_labels,
                                       {**alg.mult, pair: prod}, alg.unit),
                           hopf.coalgebra, hopf.antipode)


@pytest.mark.parametrize("name", NAMES)
def test_delta_is_reported_before_eps_at_one_pair(name):
    """Moving e_i e_j by e_0 breaks Delta first.  In k[C_3], where e_0
    is grouplike, it breaks Delta and eps at that pair, and the per-pair
    stream met Delta first.  In the dual the moved product also enters
    the target H (x) H, so Delta may fail at an earlier pair."""
    hopf = catalog_named(name)
    n = hopf.dim
    for pair in [(0, 0), (0, n - 1), (n - 1, 0), (n - 1, n - 1), (1, 1)]:
        bad = moved_product_entry(hopf, pair)
        got = summary(certify_exhaustive(_hopf_items(bad)))
        assert got == summary(certify_exhaustive(reference_hopf_items(bad)))
        assert got[2] == "comult-multiplicative", pair
        if name == "cyclic:3":
            assert got[3] == pair


def nilpotent_grouplike():
    """k[x]/(x^2) with Delta(x) = x (x) x and eps(x) = 1: Delta is
    multiplicative and both unit laws hold, but eps(x x) = 0 != 1, so
    the Hopf suite first fails at an eps item, with Delta holding at the
    same pair."""
    alg = AlgebraData(QQ, 2, ["1", "x"],
                      {(0, 0): {0: 1}, (0, 1): {1: 1}, (1, 0): {1: 1}},
                      [1, 0])
    coa = CoalgebraData(QQ, 2, ["1", "x"],
                        {0: [(0, 0, 1)], 1: [(1, 1, 1)]}, [1, 1])
    return HopfAlgebraData(alg, coa, [[1, 0], [0, 1]])


def test_eps_failing_inside_a_passing_block_keeps_its_count():
    """With a group algebra of order 2 tensored on the right, pair
    (x, x) is e_2 e_2 and row 2 has j = 3 after it: the eps violation at
    (2, 2) counts the Delta pairs up to it and not the rest of the row."""
    hopf = tensor_hopf(nilpotent_grouplike(), catalog_named("cyclic:2"))
    report = certify_exhaustive(_hopf_items(hopf))
    want = certify_exhaustive(reference_hopf_items(hopf))
    assert summary(report) == summary(want)
    first = report.first()
    assert (first.axiom, first.witness) == ("counit-multiplicative", (2, 2))
    # four counit-right items, then the Delta pairs of rows 0, 1 and (2, <= 2)
    assert report.checked == 4 + 2 * 4 + 3


def several_faults(hopf, seed):
    """H with two or three seeded faults at once, each a product entry
    (three times in five), a coproduct coefficient or a counit value
    moved by one; the coalgebra checks catch most of the last two."""
    rng = random.Random(seed)
    field, n = hopf.field, hopf.dim
    alg, coa = hopf.algebra, hopf.coalgebra
    mult, comult = dict(alg.mult), dict(coa.comult)
    counit = list(coa.counit)
    for _ in range(rng.randint(2, 3)):
        where = rng.choice(("mult", "mult", "mult", "comult", "counit"))
        if where == "mult":
            pair = (rng.randrange(n), rng.randrange(n))
            prod = dict(mult.get(pair, {}))
            k = rng.randrange(n)
            prod[k] = field.canon(prod.get(k, 0) + 1)
            mult[pair] = sv_canon(field, prod)
        elif where == "comult":
            i = rng.randrange(n)
            terms = list(comult.get(i, []))
            t = rng.randrange(len(terms))
            j, k, c = terms[t]
            terms[t] = (j, k, field.canon(c + 1))
            comult[i] = terms
        else:
            i = rng.randrange(n)
            counit[i] = field.canon(counit[i] + 1)
    return HopfAlgebraData(
        AlgebraData(field, n, alg.basis_labels, mult, alg.unit),
        CoalgebraData(field, n, coa.basis_labels, comult, counit),
        hopf.antipode)


@pytest.mark.parametrize("name", [*NAMES, "nilpotent"])
def test_several_hopf_faults_report_as_the_pair_loop(name):
    hopf = (tensor_hopf(nilpotent_grouplike(), catalog_named("cyclic:2"))
            if name == "nilpotent" else catalog_named(name))
    axioms = set()
    for number in range(FAULTS):
        bad = several_faults(hopf, f"{name}/{number}")
        got = summary(certify_exhaustive(_hopf_items(bad)))
        assert got == summary(certify_exhaustive(reference_hopf_items(bad))), \
            number
        axioms.add(got[2] if len(got) > 2 else None)
    assert "comult-multiplicative" in axioms


@pytest.mark.parametrize("kind", MAPS)
def test_a_pass_is_one_item_per_left_index(kind):
    args, _ = stream_args("cyclic:3", kind)
    n = args[2]
    items = list(multiplicative_items(*args))
    assert [(count, witness, lhs == rhs) for count, _, witness, lhs, rhs
            in items] == [(n, (i,), True) for i in range(n)]


def test_hopf_suite_and_certificate_pass_in_n_blocks():
    hopf, setup, handles = built("cyclic:3")
    items = list(_hopf_items(hopf))
    delta = [item for item in items if item[1] == "comult-multiplicative"]
    assert [item[2] for item in delta] == [(i,) for i in range(hopf.dim)]
    assert certify_exhaustive(iter(items)).checked == (
        certify_exhaustive(reference_hopf_items(hopf)).checked)
    src, dst = handles["X"], handles["Z"]
    report = verify_algebra_morphism(build_iso("beta", hopf, setup), src, dst,
                                     mode=CheckMode.exhaustive())
    assert report.passed and report.checked == src.dim ** 2
