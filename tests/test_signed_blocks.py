"""Block certificates that pass on one signed difference.

`block_item` sums lhs - rhs of a block into one dict and reads the
sides apart only for a block that fails; `coalgebra_items` does the same
per item through `unequal_sides`.  The `reference_*` functions below are
the two-dict forms they replace: a `block_item` that canonicalises both
whole sides and compares them, and the bodies of
`associativity_blocks`, `multiplicative_items`, `module_algebra_items`
and `coalgebra_items` that built both sides apart.  Every report must
match theirs on (passed, checked, axiom, witness, lhs, rhs): on the
catalog inputs, on seeded single-entry corruptions of rows, images,
actions and comultiplications, on sums that vanish only once
canonicalised, and on a block holding two failing identities.  A passing
block runs its fill once, and the failing one twice.
"""

from fractions import Fraction
from functools import lru_cache
import random
import sys

import pytest

from hopfcross import algebra
from hopfcross.actions import ActionData, module_algebra_items
from hopfcross.algebra import (AlgebraData, CoalgebraData,
                               associativity_blocks, algebra_rows, block_item,
                               coalgebra_items, keyed_row,
                               multiplicative_items, tensor_rows)
from hopfcross.catalog import catalog_named
from hopfcross.crossed import StandardTriple, build_xyz
from hopfcross.fields import QQ, PrimeField
from hopfcross.isos import ISO_SPECS, build_iso
from hopfcross.linalg import sv_canon
from hopfcross.report import certify_exhaustive

from test_product_radicals import load_catalog_script

CATALOG = ("cyclic:3", "dual_cyclic:3", "taft:2:5")
PRODUCTS = ("cyclic:3", "dual_cyclic:3")     # X, Y, Z of dim 81
MODULE_ALGEBRA = CATALOG + ("sweedler4",)
FAULTS = 3


# ---------------------------------------------------------------------------
# the two-dict references

def reference_block_item(field, axiom, witness, count, width, left, right,
                         index=lambda q: (q,)):
    left, right = sv_canon(field, left), sv_canon(field, right)
    if left == right:
        return count, axiom, witness, left, right
    q = min(k for k in left.keys() | right.keys()
            if left.get(k) != right.get(k)) // width
    at = q * width
    return (q + 1, axiom, witness + index(q),
            {k - at: c for k, c in left.items() if k // width == q},
            {k - at: c for k, c in right.items() if k // width == q})


def reference_associativity_blocks(field, n, m_dim, product_row, act_row,
                                   side, axiom):
    stride = m_dim * m_dim
    acts = [act_row(m) for m in range(n)]
    by_u = [[] for _ in range(m_dim)]
    for j in range(n):
        for t, out in acts[j].items():
            if side == "left":
                for u, c in out.items():
                    by_u[u].append(((j * m_dim + t) * m_dim, c))
            else:
                by_u[t].append((j * stride, out))
    for i in range(n):
        left, right = {}, {}
        for j, prod in product_row(i).items():
            base = j * stride
            for m, c in prod.items():
                for t, out in acts[m].items():
                    at = base + t * m_dim
                    for s, c2 in out.items():
                        key = at + s
                        left[key] = left.get(key, 0) + c * c2
        row = acts[i]
        if side == "left":
            for u, out in row.items():
                for at, c in by_u[u]:
                    for s, c2 in out.items():
                        key = at + s
                        right[key] = right.get(key, 0) + c * c2
        else:
            for t, first in row.items():
                for u, c in first.items():
                    for base, out in by_u[u]:
                        at = base + t * m_dim
                        for s, c2 in out.items():
                            key = at + s
                            right[key] = right.get(key, 0) + c * c2
        yield reference_block_item(field, axiom, (i,), n * m_dim, m_dim,
                                   left, right, lambda jt: divmod(jt, m_dim))


def reference_multiplicative_items(field, axiom, n, src_row, images, dst_row,
                                   width):
    by_b = {}
    for j in range(n):
        for b, c in images[j].items():
            by_b.setdefault(b, []).append((j * width, c))
    for i in range(n):
        lhs, rhs = {}, {}
        for j, prod in src_row(i).items():
            at = j * width
            for k, c in prod.items():
                for s, cs in images[k].items():
                    key = at + s
                    lhs[key] = lhs.get(key, 0) + c * cs
        for a, ca in images[i].items():
            row = dst_row(a)
            if len(row) <= len(by_b):
                joined = [(col, prod) for b, prod in row.items()
                          if (col := by_b.get(b))]
            else:
                joined = [(col, prod) for b, col in by_b.items()
                          if (prod := row.get(b))]
            for col, prod in joined:
                for s, c in prod.items():
                    w = ca * c
                    for at, cj in col:
                        key = at + s
                        rhs[key] = rhs.get(key, 0) + w * cj
        yield reference_block_item(field, axiom, (i,), n, width, lhs, rhs)


def reference_module_items(act, actor_alg):
    one = act.field.one
    unit = actor_alg.unit_sv()
    for j in range(act.space_dim):
        m = {j: one}
        yield 1, "module-unit", (j,), act.act_sv(unit, m), m
    yield from reference_associativity_blocks(
        act.field, act.actor_dim, act.space_dim,
        algebra_rows(actor_alg).__getitem__, act.rows().__getitem__,
        act.side, f"module-assoc-{act.side}")


def reference_module_algebra_items(side, hopf, alg, act):
    yield from reference_module_items(act, hopf.algebra)
    field = act.field
    one = field.one
    n = alg.dim
    unit_a = alg.unit_sv()
    counit = hopf.coalgebra.counit
    axiom = f"module-algebra-{side}"
    mul = alg.mul_basis
    acts = act.rows()
    for h in range(hopf.dim):
        yield (0, "module-algebra-unit", (h,), act.act_sv({h: one}, unit_a),
               sv_canon(field, {k: counit[h] * c for k, c in unit_a.items()}))
        delta = hopf.coalgebra.delta(h)
        on_h = acts[h]
        for a in range(n):
            lhs, rhs = {}, {}
            for b in range(n):
                at = b * n
                for m, c in mul(a, b).items():
                    out = on_h.get(m)
                    if out:
                        for s, c2 in out.items():
                            key = at + s
                            lhs[key] = lhs.get(key, 0) + c * c2
            for h1, h2, c in delta:
                first = acts[h1].get(a)
                if not first:
                    continue
                for u, c1 in first.items():
                    w = c * c1
                    for b, out in acts[h2].items():
                        at = b * n
                        for v, c2 in out.items():
                            for s, c3 in mul(u, v).items():
                                key = at + s
                                rhs[key] = rhs.get(key, 0) + w * c2 * c3
            yield reference_block_item(field, axiom, (h, a), n, n, lhs, rhs)


def reference_coalgebra_items(coa):
    field = coa.field
    for i in range(coa.dim):
        lhs, rhs = {}, {}
        for j, k, c in coa.delta(i):
            for a, b, c2 in coa.delta(j):
                key = (a, b, k)
                lhs[key] = lhs.get(key, 0) + c * c2
            for a, b, c2 in coa.delta(k):
                key = (j, a, b)
                rhs[key] = rhs.get(key, 0) + c * c2
        yield (0, "coassociativity", (i,), sv_canon(field, lhs),
               sv_canon(field, rhs))
        left_counit, right_counit = {}, {}
        for j, k, c in coa.delta(i):
            left_counit[k] = left_counit.get(k, 0) + c * coa.counit[j]
            right_counit[j] = right_counit.get(j, 0) + c * coa.counit[k]
        target = {i: field.one}
        yield 0, "counit-left", (i,), sv_canon(field, left_counit), target
        yield 1, "counit-right", (i,), sv_canon(field, right_counit), target


# ---------------------------------------------------------------------------
# inputs and corruptions

@lru_cache(maxsize=None)
def built(name):
    hopf = catalog_named(name)
    return hopf, StandardTriple(hopf)


@lru_cache(maxsize=None)
def product_rows(name):
    """The triple and the rows {j: {k: c}} of X, Y and Z of `name`."""
    hopf, setup = built(name)
    rows = {}
    for w in "XYZ":
        handle = build_xyz(hopf, w, setup)
        rows[w] = [keyed_row(handle._row(i)) for i in range(handle.dim)]
    return setup, rows


def summary(items):
    report = certify_exhaustive(items)
    first = report.first()
    if first is None:
        return report.passed, report.checked, None
    return (report.passed, report.checked, first.axiom, first.witness,
            first.lhs, first.rhs)


def moved(field, sv, k):
    """sv with the coefficient of e_k moved by one."""
    return sv_canon(field, {**sv, k: sv.get(k, 0) + field.one})


def row_faults(field, rows, seed):
    """FAULTS copies of the rows, each with one seeded nonzero entry of
    a product e_i e_j moved by one."""
    rng = random.Random(seed)
    out = []
    for _ in range(FAULTS):
        i = rng.choice([i for i, row in enumerate(rows) if row])
        j = rng.choice(sorted(rows[i]))
        k = rng.choice(sorted(rows[i][j]))
        bad = list(rows)
        bad[i] = {**rows[i], j: moved(field, rows[i][j], k)}
        out.append(bad)
    return out


def image_faults(field, images, width, seed):
    """FAULTS copies of the images, each with one seeded coordinate
    moved by one."""
    rng = random.Random(seed)
    out = []
    for _ in range(FAULTS):
        col = rng.randrange(len(images))
        bad = list(images)
        bad[col] = moved(field, images[col], rng.randrange(width))
        out.append(bad)
    return out


def action_faults(act, seed):
    """FAULTS copies of the action, each with one seeded nonzero entry
    moved by one."""
    rng = random.Random(seed)
    out = []
    for _ in range(FAULTS):
        key = rng.choice(sorted(act.tensor))
        k = rng.choice(sorted(act.tensor[key]))
        tensor = {**act.tensor,
                  key: moved(act.field, act.tensor[key], k)}
        out.append(ActionData(act.field, act.actor_dim, act.space_dim,
                              act.side, tensor))
    return out


def algebra_faults(alg, seed):
    """FAULTS copies of the algebra, each with one seeded nonzero
    structure constant moved by one."""
    rng = random.Random(seed)
    out = []
    for _ in range(FAULTS):
        key = rng.choice(sorted(alg.mult))
        k = rng.choice(sorted(alg.mult[key]))
        mult = {**alg.mult, key: moved(alg.field, alg.mult[key], k)}
        out.append(AlgebraData(alg.field, alg.dim, alg.basis_labels, mult,
                               alg.unit))
    return out


def comult_faults(coa, seed):
    """FAULTS copies of the coalgebra, each with one seeded coefficient
    of a Delta(e_i) moved by one."""
    rng = random.Random(seed)
    out = []
    for _ in range(FAULTS):
        i = rng.choice(sorted(coa.comult))
        t = rng.randrange(len(coa.comult[i]))
        terms = list(coa.comult[i])
        j, k, c = terms[t]
        terms[t] = (j, k, coa.field.canon(c + 1))
        out.append(CoalgebraData(coa.field, coa.dim, coa.basis_labels,
                                 {**coa.comult, i: terms}, coa.counit))
    return out


def assert_pairs_agree(pairs):
    """Each (new stream, reference stream) reports alike; the first, on
    honest data, passes, and some corruption fails.  A moved entry may
    keep an identity (an idempotent's product scaled by two still
    associates), so not every one need fail."""
    verdicts = []
    for number, (new, ref) in enumerate(pairs):
        got, want = summary(new), summary(ref)
        assert got == want, number
        verdicts.append(got[0])
    assert verdicts[0] and not all(verdicts[1:])


# ---------------------------------------------------------------------------
# the four streams against their references

@pytest.mark.parametrize("which", "XYZ")
@pytest.mark.parametrize("name", PRODUCTS)
def test_product_associativity_matches_the_two_dict_blocks(name, which):
    setup, rows = product_rows(name)
    field, rows = setup.field, rows[which]
    n = len(rows)
    cases = [(rows, rows)]
    cases += [(bad, rows) for bad in row_faults(field, rows, f"{name}/p")]
    cases += [(rows, bad) for bad in row_faults(field, rows, f"{name}/a")]
    assert_pairs_agree([
        (associativity_blocks(field, n, n, prod.__getitem__,
                              act.__getitem__, "left", "associativity"),
         reference_associativity_blocks(field, n, n, prod.__getitem__,
                                        act.__getitem__, "left",
                                        "associativity"))
        for prod, act in cases])


@pytest.mark.parametrize("name", CATALOG)
def test_actor_associativity_matches_the_two_dict_blocks(name):
    """Associativity of K = H (x) H^op, dim 16 for taft:2:5 over F_5."""
    _, setup = built(name)
    field, rows = setup.field, algebra_rows(setup.K.algebra)
    n = len(rows)
    cases = [rows] + row_faults(field, rows, name)
    assert_pairs_agree([
        (associativity_blocks(field, n, n, case.__getitem__,
                              rows.__getitem__, "left", "associativity"),
         reference_associativity_blocks(field, n, n, case.__getitem__,
                                        rows.__getitem__, "left",
                                        "associativity"))
        for case in cases])


@pytest.mark.parametrize("name", MODULE_ALGEBRA)
@pytest.mark.parametrize("side", ("left", "right"))
def test_module_associativity_matches_the_two_dict_blocks(name, side):
    _, setup = built(name)
    act = setup.act_on_dual if side == "left" else setup.act_on_dual_op
    rows = algebra_rows(setup.K.algebra).__getitem__
    cases = [act] + action_faults(act, f"{name}/{side}")
    assert_pairs_agree([
        (associativity_blocks(setup.field, act.actor_dim, act.space_dim,
                              rows, case.rows().__getitem__, side, "m"),
         reference_associativity_blocks(setup.field, act.actor_dim,
                                        act.space_dim, rows,
                                        case.rows().__getitem__, side, "m"))
        for case in cases])


@pytest.mark.parametrize("kind", ("phi", "alpha", "beta"))
@pytest.mark.parametrize("name", PRODUCTS)
def test_morphisms_match_the_two_dict_blocks(name, kind):
    setup, rows = product_rows(name)
    field = setup.field
    src, dst = ISO_SPECS[kind][:2]
    lm = build_iso(kind, setup.hopf, setup)
    images = [lm.col_sv(k) for k in range(lm.src_dim)]
    n = width = len(images)
    src_rows, dst_rows = rows[src], rows[dst]
    cases = [(src_rows, images, dst_rows)]
    cases += [(src_rows, bad, dst_rows)
              for bad in image_faults(field, images, width, f"{name}/i")]
    cases += [(bad, images, dst_rows)
              for bad in row_faults(field, src_rows, f"{name}/s")]
    cases += [(src_rows, images, bad)
              for bad in row_faults(field, dst_rows, f"{name}/d")]
    assert_pairs_agree([
        (multiplicative_items(field, kind, n, s.__getitem__, imgs,
                              d.__getitem__, width),
         reference_multiplicative_items(field, kind, n, s.__getitem__, imgs,
                                        d.__getitem__, width))
        for s, imgs, d in cases])


@pytest.mark.parametrize("name", CATALOG)
def test_comultiplication_matches_the_two_dict_blocks(name):
    """Delta is multiplicative into H (x) H, whose rows are read lazily
    (`tensor_rows`)."""
    hopf, _ = built(name)
    field, n = hopf.field, hopf.dim
    rows = algebra_rows(hopf.algebra)
    images = [hopf.coalgebra.delta_sv({k: field.one}) for k in range(n)]
    dst = tensor_rows(rows.__getitem__, rows.__getitem__, n)
    cases = [(rows, images)]
    cases += [(rows, bad) for bad in image_faults(field, images, n * n, name)]
    cases += [(bad, images) for bad in row_faults(field, rows, name)]
    assert_pairs_agree([
        (multiplicative_items(field, "delta", n, r.__getitem__, imgs, dst,
                              n * n),
         reference_multiplicative_items(field, "delta", n, r.__getitem__,
                                        imgs, dst, n * n))
        for r, imgs in cases])


@pytest.mark.parametrize("name", MODULE_ALGEBRA)
@pytest.mark.parametrize("side", ("left", "right"))
def test_module_algebra_matches_the_two_dict_blocks(name, side):
    _, setup = built(name)
    if side == "left":
        alg, act = setup.dual.algebra, setup.act_on_dual
    else:
        alg, act = setup.dual_op_alg, setup.act_on_dual_op
    cases = [(alg, act)]
    cases += [(alg, bad) for bad in action_faults(act, f"{name}/{side}")]
    cases += [(bad, act) for bad in algebra_faults(alg, f"{name}/{side}")]
    assert_pairs_agree([
        (module_algebra_items(side, setup.K, a, case),
         reference_module_algebra_items(side, setup.K, a, case))
        for a, case in cases])


@pytest.mark.parametrize("name", CATALOG)
def test_coalgebra_items_match_the_two_dict_items(name):
    coa = built(name)[0].coalgebra
    counits = []
    for k in range(coa.dim):
        counit = list(coa.counit)
        counit[k] = coa.field.canon(counit[k] + 1)
        counits.append(CoalgebraData(coa.field, coa.dim, coa.basis_labels,
                                     coa.comult, counit))
    cases = [coa] + comult_faults(coa, name) + counits
    assert_pairs_agree([(coalgebra_items(case),
                         reference_coalgebra_items(case)) for case in cases])


# ---------------------------------------------------------------------------
# sums that vanish only once canonicalised, and the first failing identity

def sums_to(values, rhs):
    """A fill adding `values` at key 0 of the lhs and `rhs` at key 0 of
    the rhs."""
    def fill(left, right, sign):
        for v in values:
            left[0] = left.get(0, 0) + v
        right[0] = right.get(0, 0) + sign * rhs
    return fill


@pytest.mark.parametrize("field, values, rhs, passes", [
    (PrimeField(3), [1, 1, 1], 0, True),
    (PrimeField(3), [2, 2], 1, True),
    (PrimeField(5), [1, 1, 1], 0, False),
    (QQ, [Fraction(1, 2), Fraction(1, 2)], 1, True),
    (QQ, [Fraction(1, 2), Fraction(1, 3)], 1, False),
])
def test_a_sum_vanishing_once_canonical_passes(field, values, rhs, passes):
    left, right = {}, {}
    sums_to(values, rhs)(left, right, 1)
    want = reference_block_item(field, "a", (), 4, 2, left, right)
    got = block_item(field, "a", (), 4, 2, sums_to(values, rhs))
    assert (got[0] == 4) is passes
    if passes:
        assert got == (4, "a", (), {}, {})
        assert want[3] == want[4]
    else:
        assert got == want and got[:3] == (1, "a", (0,))


def test_a_difference_vanishing_mod_p_passes_a_stream():
    """The one-dimensional e e = e over F_3 with F(e) = e, read through
    a target row whose product is written 4 e: lhs - rhs = 1 - 4 = -3,
    zero in F_3 only once canonicalised."""
    field = PrimeField(3)
    rows, images, dst = [{0: {0: 1}}], [{0: 1}], [{0: {0: 4}}]
    args = (field, "m", 1, rows.__getitem__, images, dst.__getitem__, 1)
    new = list(multiplicative_items(*args))
    assert new == [(1, "m", (0,), {}, {})]
    assert (summary(iter(new))
            == summary(reference_multiplicative_items(*args))
            == (True, 1, None))


def test_the_smaller_of_two_failing_identities_is_reported():
    def fill(left, right, sign):     # identity 1 fails, then identity 3
        left[1 * 2 + 0] = left.get(2, 0) + 1
        right[3 * 2 + 1] = right.get(7, 0) + sign
    left, right = {}, {}
    fill(left, right, 1)
    want = reference_block_item(QQ, "a", (7,), 5, 2, left, right)
    assert block_item(QQ, "a", (7,), 5, 2, fill) == want == (
        2, "a", (7, 1), {0: 1}, {})


@pytest.mark.parametrize("name", PRODUCTS)
def test_a_block_with_two_failing_pairs_reports_the_first(name):
    """Row i of the source with e_i e_j1 and e_i e_j2 moved by e_0,
    j1 < j2: the block of i reports (i, j1) with count j1 + 1."""
    setup, rows = product_rows(name)
    field = setup.field
    lm = build_iso("beta", setup.hopf, setup)
    images = [lm.col_sv(k) for k in range(lm.src_dim)]
    n = len(images)
    src, dst = rows["X"], rows["Z"]
    rng = random.Random(name)
    i = rng.randrange(n)
    j1, j2 = sorted(rng.sample(range(n), 2))
    bad = list(src)
    bad[i] = dict(src[i])
    for j in (j1, j2):
        bad[i][j] = moved(field, src[i].get(j, {}), 0)
    new = list(multiplicative_items(field, "m", n, bad.__getitem__, images,
                                    dst.__getitem__, n))
    ref = list(reference_multiplicative_items(field, "m", n, bad.__getitem__,
                                              images, dst.__getitem__, n))
    assert new[i][:3] == (j1 + 1, "m", (i, j1))
    assert new[i] == ref[i]
    assert summary(iter(new)) == summary(iter(ref))


# ---------------------------------------------------------------------------
# fill runs

@pytest.fixture
def fill_runs(monkeypatch):
    """Per `unequal_sides` call, (passed, number of fill runs)."""
    calls = []
    real = algebra.unequal_sides

    def counted(field, fill):
        runs = []

        def counting(left, right, sign):
            runs.append(sign)
            fill(left, right, sign)
        sides = real(field, counting)
        calls.append((sides is None, len(runs)))
        return sides
    monkeypatch.setattr(algebra, "unequal_sides", counted)
    return calls


def block_streams(name, rows_of_x=None, images=None, act=None):
    """The associativity blocks of X, the blocks of phi and the module
    algebra blocks of the left action of the triple of `name`."""
    setup, rows = product_rows(name)
    field = setup.field
    x = rows_of_x or rows["X"]
    lm = build_iso("phi", setup.hopf, setup)
    images = images or [lm.col_sv(k) for k in range(lm.src_dim)]
    n = len(x)
    return {
        "associativity": (n, associativity_blocks(
            field, n, n, x.__getitem__, rows["X"].__getitem__, "left",
            "associativity")),
        "morphism": (n, multiplicative_items(
            field, "phi", n, rows["X"].__getitem__, images,
            rows["Y"].__getitem__, n)),
        "module-algebra": (setup.K.dim * (1 + setup.n), module_algebra_items(
            "left", setup.K, setup.dual.algebra, act or setup.act_on_dual)),
    }


@pytest.mark.parametrize("stream", ("associativity", "morphism",
                                    "module-algebra"))
def test_a_passing_block_fills_once(fill_runs, stream):
    blocks, items = block_streams("dual_cyclic:3")[stream]
    assert summary(items)[0]
    assert fill_runs == [(True, 1)] * blocks


@pytest.mark.parametrize("stream", ("associativity", "morphism",
                                    "module-algebra"))
def test_only_the_failing_block_fills_twice(fill_runs, stream):
    setup, rows = product_rows("cyclic:3")
    x = row_faults(setup.field, rows["X"], "runs")[0]
    lm = build_iso("phi", setup.hopf, setup)
    images = [lm.col_sv(k) for k in range(lm.src_dim)]
    images = image_faults(setup.field, images, len(images), "runs")[0]
    act = action_faults(setup.act_on_dual, "runs")[0]
    _, items = block_streams("cyclic:3", x, images, act)[stream]
    assert not summary(items)[0]
    assert fill_runs[-1] == (False, 2)
    assert set(fill_runs[:-1]) <= {(True, 1)}


def test_coalgebra_items_fill_once_unless_they_fail(fill_runs):
    coa = built("taft:2:5")[0].coalgebra
    assert summary(coalgebra_items(coa))[0]
    assert fill_runs == [(True, 1)] * (3 * coa.dim)
    fill_runs.clear()
    assert not summary(coalgebra_items(comult_faults(coa, "runs")[0]))[0]
    assert fill_runs[-1] == (False, 2)
    assert set(fill_runs[:-1]) <= {(True, 1)}


# ---------------------------------------------------------------------------
# tooling

def test_catalog_script_times_the_standard_triple(monkeypatch, capsys):
    script = load_catalog_script()
    monkeypatch.setattr(sys, "argv", ["build_catalog_products.py",
                                      "--entries", "cyclic:2", "taft:2:5"])
    assert script.main() == 0
    out = capsys.readouterr().out
    assert out.count("   StandardTriple: both module algebras certified (") == 2
    header, triple = out.splitlines()[:2]
    assert header.startswith("== cyclic:2 ")
    assert triple.startswith("   StandardTriple: ")
