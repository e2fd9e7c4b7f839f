"""One stream per algebra-map and commuting-action identity, against the
loops they replaced.

The `reference_*` generators are the loops that `multiplicative_items`
and `commute_items` replaced: Delta of a product with its Hopf-suite
loop, the algebra-map loop of the comodule coaction, the per-pair
morphism loop, and the three commuting-action loops.  The algebra-map
streams yield one block per left index, so their tests compare the
reports, (passed, checked, axiom, witness, lhs, rhs), of `certify` over
the new stream and over the old loop.  The commuting-action tests
compare whole item lists, (count, axiom, witness, lhs, rhs) for every
item, not only the reports: a report stops at its first violation, and
on the corrupted inputs below module associativity fails before any
commute item is reached.  Catalog JSON is pinned by sha256 digests, and
building taft:7:29 must fit in a small address space.
"""

from dataclasses import replace
from functools import lru_cache
import hashlib
import random
import resource
import subprocess
import sys

import pytest

from hopfcross import actions, bimodules, isos
from hopfcross.actions import (check_bimodule_algebra, commute_items,
                               comodule_algebra_map, module_algebra_items)
from hopfcross.algebra import (CoalgebraData, HopfAlgebraData, _hopf_items,
                               coalgebra_items, dual_hopf, tensor_algebra,
                               tensor_hopf, tensor_product, variant)
from hopfcross.bimodules import (_hopf_bimodule_items,
                                 _triple_condition_items,
                                 assemble_two_sided_action, example_bimodule,
                                 triple_from_bimodule, triple_module_roundtrip)
from hopfcross.catalog import catalog_named
from hopfcross.crossed import StandardTriple, build_xyz
from hopfcross.errors import DimensionMismatchError, SingularMatrixError
from hopfcross.hopf_json import (algebra_to_json, bimodule_blocks, dump_json,
                                 hopf_to_json)
from hopfcross.isos import ISO_SPECS, build_iso, verify_algebra_morphism
from hopfcross.linalg import LinearMap, sv_add_into, sv_canon, sv_tensor
from hopfcross.report import CheckMode, certify, certify_exhaustive

EXHAUSTIVE = CheckMode.exhaustive()
NAMES = ("cyclic:2", "cyclic:3", "dual_cyclic:3", "sweedler4", "taft:2:5")


@lru_cache(maxsize=None)
def built(name):
    """Hopf algebra, its canonical triple, the regular and free:2 modules."""
    hopf = catalog_named(name)
    setup = StandardTriple(hopf)
    modules = {"regular": example_bimodule(hopf, "regular"),
               "free:2": example_bimodule(hopf, "free", 2)}
    return hopf, setup, modules


def summary(report):
    first = report.first()
    if first is None:
        return report.passed, report.checked, None
    return (report.passed, report.checked, first.axiom, first.witness,
            first.lhs, first.rhs)


def recorded(monkeypatch, module, check, *args):
    """The report of `check(*args)` and, listed whole, every item stream
    it hands to `module.certify_exhaustive`."""
    streams = []

    def record(items):
        streams.append(list(items))
        return certify_exhaustive(iter(streams[-1]))

    with monkeypatch.context() as patch:
        patch.setattr(module, "certify_exhaustive", record)
        report = check(*args)
    return report, streams


def scaled_action(act, key, factor):
    """`act` with the entry at `key` scaled by `factor`; an absent entry
    becomes factor times the first basis vector."""
    canon = act.field.canon
    tensor = {k: dict(v) for k, v in act.tensor.items()}
    tensor[key] = ({k: canon(factor * c) for k, c in tensor.get(key, {}).items()}
                   or {0: canon(factor)})
    return replace(act, tensor=tensor)


def scaled(act, seed):
    """Seeded `scaled_action` edits: a random entry, the last entry and the
    last actor and space index."""
    keys = sorted(act.tensor)
    picked = [keys[random.Random(seed).randrange(len(keys))], keys[-1],
              (act.actor_dim - 1, act.space_dim - 1)]
    return [scaled_action(act, key, 2) for key in picked]


def with_coalgebra(h, comult=None, counit=None):
    coa = h.coalgebra
    return HopfAlgebraData(h.algebra, CoalgebraData(
        coa.field, coa.dim, coa.basis_labels,
        coa.comult if comult is None else comult,
        list(coa.counit if counit is None else counit)), h.antipode)


def swapped_comult(h, i):
    """H with the legs of Delta(e_i) swapped."""
    terms = [(k, j, c) for j, k, c in h.coalgebra.delta(i)]
    return with_coalgebra(h, comult={**h.coalgebra.comult, i: terms})


def doubled_counit(h):
    """H with twice its counit: the unit of H* doubles, while its product,
    its coproduct and the counit of the coaction's target stay."""
    field = h.field
    return with_coalgebra(
        h, counit=[field.canon(2 * c) for c in h.coalgebra.counit])


# ---------------------------------------------------------------------------
# algebra maps: Delta

def reference_delta_of_product(hopf, i, j):
    """Delta(e_i e_j) and Delta(e_i) Delta(e_j)."""
    alg, coa = hopf.algebra, hopf.coalgebra
    n = alg.dim
    lhs = {}
    for k, c in alg.mul_basis(i, j).items():
        for a, b, c2 in coa.delta(k):
            key = a * n + b
            lhs[key] = lhs.get(key, 0) + c * c2
    rhs = {}
    for a1, b1, c1 in coa.delta(i):
        for a2, b2, c2 in coa.delta(j):
            cc = c1 * c2
            for a, ca in alg.mul_basis(a1, a2).items():
                for b, cb in alg.mul_basis(b1, b2).items():
                    key = a * n + b
                    rhs[key] = rhs.get(key, 0) + cc * ca * cb
    return sv_canon(alg.field, lhs), sv_canon(alg.field, rhs)


def reference_hopf_items(hopf):
    alg, coa = hopf.algebra, hopf.coalgebra
    field = alg.field
    n = alg.dim
    yield from coalgebra_items(coa)
    unit = alg.unit_sv()
    unit_tensor = {}
    for i, a in unit.items():
        for j, b in unit.items():
            unit_tensor[i * n + j] = field.canon(a * b)
    yield (0, "comult-of-unit", (), coa.delta_sv(unit),
           sv_canon(field, unit_tensor))
    yield 0, "counit-of-unit", (), hopf.counit_sv(unit), field.one
    for i in range(n):
        for j in range(n):
            yield (1, "comult-multiplicative", (i, j),
                   *reference_delta_of_product(hopf, i, j))
            yield (0, "counit-multiplicative", (i, j),
                   field.canon(sum(c * coa.counit[k]
                                   for k, c in alg.mul_basis(i, j).items())),
                   field.canon(coa.counit[i] * coa.counit[j]))
    for i in range(n):
        left_acc, right_acc = {}, {}
        for j, k, c in coa.delta(i):
            for t, ct in hopf.antipode_col(j).items():
                sv_add_into(left_acc, alg.mul_basis(t, k), c * ct)
            for t, ct in hopf.antipode_col(k).items():
                sv_add_into(right_acc, alg.mul_basis(j, t), c * ct)
        target = sv_canon(field, {u: coa.counit[i] * cu
                                  for u, cu in unit.items()})
        yield 0, "antipode-left", (i,), sv_canon(field, left_acc), target
        yield 1, "antipode-right", (i,), sv_canon(field, right_acc), target
    try:
        hopf.antipode_inverse()
        invertible = "invertible"
    except SingularMatrixError:
        invertible = "singular"
    yield 0, "antipode-invertible", (), invertible, "invertible"


def test_hopf_items_match_the_old_stream():
    seen = set()
    for name in NAMES:
        hopf = built(name)[0]
        cases = [hopf] + [swapped_comult(hopf, i) for i in range(hopf.dim)]
        for case in cases:
            report = certify_exhaustive(_hopf_items(case))
            assert summary(report) == summary(
                certify_exhaustive(reference_hopf_items(case))), name
            if not report.passed:
                seen.add(report.first().axiom)
    assert seen == {"comult-multiplicative"}


# ---------------------------------------------------------------------------
# algebra maps: the comodule coaction rho

def reference_comodule_algebra_map_items(hopf, cols):
    """The algebra-map loop of `comodule_algebra_map`, on its columns."""
    dual = dual_hopf(hopf)
    n = hopf.dim
    field = hopf.field
    big = tensor_hopf(dual, variant(dual, "cop"))
    for i in range(n):
        for j in range(n):
            lhs = {}
            for k, c in dual.algebra.mul_basis(i, j).items():
                sv_add_into(lhs, cols[k], c)
            rhs = {}
            for key1, w1 in cols[i].items():
                v1, d1 = divmod(key1, n * n)
                for key2, w2 in cols[j].items():
                    v2, d2 = divmod(key2, n * n)
                    for v, cv in dual.algebra.mul_basis(v1, v2).items():
                        for d, cd in big.algebra.mul_basis(d1, d2).items():
                            key = v * n * n + d
                            rhs[key] = rhs.get(key, 0) + w1 * w2 * cv * cd
            yield (1, "comodule-algebra-map", (i, j), sv_canon(field, lhs),
                   sv_canon(field, rhs))


def comodule_streams(monkeypatch, hopf):
    """The new stream, split at the unit item, and the old algebra-map
    items; returns (report, head, unit item, tail, reference tail)."""
    (lm, report), (stream,) = recorded(
        monkeypatch, actions, lambda: comodule_algebra_map(hopf))
    at = [item[1] for item in stream].index("comodule-algebra-unit")
    cols = [lm.col_sv(t) for t in range(hopf.dim)]
    return (report, lm, stream[:at], stream[at], stream[at + 1:],
            list(reference_comodule_algebra_map_items(hopf, cols)))


def test_comodule_algebra_map_matches_the_old_stream(monkeypatch):
    seen = set()
    for name in NAMES:
        hopf = built(name)[0]
        cases = [hopf] + [swapped_comult(hopf, i) for i in range(hopf.dim)]
        for case in cases:
            report, _, head, unit, tail, want = comodule_streams(
                monkeypatch, case)
            assert (summary(certify_exhaustive(iter(tail)))
                    == summary(certify_exhaustive(iter(want)))), name
            assert {item[1] for item in head} == {"comodule-coassoc",
                                                  "comodule-counit"}
            # rho(1) = 1 (x) 1 on every case here, so the old report stands
            assert unit[0] == 0 and unit[3] == unit[4], name
            old = certify_exhaustive(iter(head + want))
            assert summary(report) == summary(old), name
            if not report.passed:
                seen.add(report.first().axiom)
    assert seen == {"comodule-algebra-map"}


@pytest.mark.parametrize("name", ("sweedler4", "cyclic:3", "taft:2:5"))
def test_comodule_algebra_map_checks_the_unit(monkeypatch, name):
    hopf = doubled_counit(built(name)[0])
    report, lm, head, _, tail, want = comodule_streams(monkeypatch, hopf)
    # without the unit item the check passes: the old report
    old = certify_exhaustive(iter(head + want))
    assert old.passed and old.checked == hopf.dim + hopf.dim ** 2
    assert not report.passed and report.checked == hopf.dim
    first = report.first()
    assert (first.axiom, first.witness) == ("comodule-algebra-unit", ())
    unit = dual_hopf(hopf).algebra.unit_sv()
    n = hopf.dim
    assert first.lhs == lm.apply_sv(unit)
    assert first.rhs == sv_tensor(hopf.field, [unit] * 3, [n] * 3)
    assert first.lhs != first.rhs


# ---------------------------------------------------------------------------
# algebra maps: the isomorphisms

def reference_morphism_items(lm, src, dst):
    for i in range(src.dim):
        fi = lm.col_sv(i)
        for j in range(src.dim):
            yield (1, "morphism-multiplicative", (i, j),
                   lm.apply_sv(src.basis_product(i, j)),
                   dst.product(fi, lm.col_sv(j)))


def moved(lm, r, c):
    """`lm` with entry (r, c) moved by one."""
    rows = lm.rows
    rows[r][c] = lm.field.canon(rows[r][c] + lm.field.one)
    return LinearMap(lm.field, lm.src_dim, lm.dst_dim, rows)


@pytest.mark.parametrize("name", ("cyclic:2", "cyclic:3", "dual_cyclic:3"))
def test_morphism_items_match_the_old_stream(monkeypatch, name):
    hopf, setup, _ = built(name)
    handles = {w: build_xyz(hopf, w, setup) for w in "XYZ"}
    rng = random.Random(name)
    seen = set()
    for kind, (src_name, dst_name, *_) in ISO_SPECS.items():
        src, dst = handles[src_name], handles[dst_name]
        lm = build_iso(kind, hopf, setup)
        bad = moved(lm, rng.randrange(lm.dst_dim), rng.randrange(lm.src_dim))
        for case in (lm, bad):
            streams = []

            def record(mode, dim, exhaustive, trial, prelude=(), **policy):
                streams.append(list(exhaustive()))
                return certify(mode, dim, lambda: iter(streams[-1]), trial,
                               prelude=prelude, **policy)

            with monkeypatch.context() as patch:
                patch.setattr(isos, "certify", record)
                report = verify_algebra_morphism(case, src, dst,
                                                 mode=EXHAUSTIVE)
            want = list(reference_morphism_items(case, src, dst))
            (new,) = streams
            assert (summary(certify_exhaustive(iter(new)))
                    == summary(certify_exhaustive(iter(want)))), kind
            unit_law = [(0, "morphism-unit", (), case.apply_sv(src.unit),
                         sv_canon(dst.field, dst.unit))]
            old = certify(EXHAUSTIVE, src.dim, lambda: iter(want), None,
                          prelude=unit_law)
            assert summary(report) == summary(old), kind
            assert report.passed == (case is lm), kind
            seen.add(None if report.passed else report.first().axiom)
    assert "morphism-multiplicative" in seen


# ---------------------------------------------------------------------------
# the product on A (x) B

def random_sparse(field, rng, dim):
    picks = rng.sample(range(dim), rng.randrange(dim + 1))
    return sv_canon(field, {k: rng.randrange(-3, 4) for k in picks})


@pytest.mark.parametrize("left,right", [("cyclic:3", "sweedler4"),
                                        ("sweedler4", "dual_cyclic:3"),
                                        ("taft:2:5", "taft:2:5")])
def test_tensor_product_matches_tensor_algebra(left, right):
    a, b = built(left)[0].algebra, built(right)[0].algebra
    whole = tensor_algebra(a, b)
    product = tensor_product(a.field, a.mul_basis, b.mul_basis, a.dim, b.dim)
    rng = random.Random(f"{left}/{right}")
    nonzero = 0
    for _ in range(60):
        x, y = (random_sparse(a.field, rng, whole.dim) for _ in range(2))
        got = product(x, y)
        assert got == whole.mul_sv(x, y)
        nonzero += bool(got)
    for i in range(whole.dim):
        for j in range(whole.dim):
            assert (product({i: a.field.one}, {j: a.field.one})
                    == whole.mul_basis(i, j))
    assert nonzero


# ---------------------------------------------------------------------------
# commuting actions

def reference_bimodule_commute(la, ra, n, _, m_dim):
    one = la.field.one
    for p in range(n):
        for q in range(n):
            for j in range(m_dim):
                yield (1, "bimodule-commute", (p, q, j),
                       ra.act_sv({q: one}, la.act_basis(p, j)),
                       la.act_sv({p: one}, ra.act_basis(q, j)))


def reference_condition_i(a_act, b_act, da, db, m_dim):
    one = a_act.field.one
    for a in range(da):
        for b in range(db):
            for j in range(m_dim):
                yield (1, "condition-i", (a, b, j),
                       b_act.act_sv({b: one}, a_act.act_basis(a, j)),
                       a_act.act_sv({a: one}, b_act.act_basis(b, j)))


def reference_actions_commute(act_left, act_right, dh, _, dc):
    one = act_left.field.one
    for h in range(dh):
        for g in range(dh):
            for c in range(dc):
                yield (1, "bimodule-actions-commute", (h, g, c),
                       act_left.act_sv({h: one}, act_right.act_basis(g, c)),
                       act_right.act_sv({g: one}, act_left.act_basis(h, c)))


REFERENCE_COMMUTE = {"bimodule-commute": reference_bimodule_commute,
                     "condition-i": reference_condition_i}


def old_commute(dims):
    """A stand-in for `commute_items` that runs the old loop of its axiom
    over the old ranges `dims`."""
    return lambda first, second, axiom: REFERENCE_COMMUTE[axiom](
        first, second, *dims)


def commuting_pairs(name):
    """(first, second, old loop, dims, swapped) per commuting-action
    check over `name`, honest and with either action scaled."""
    hopf, setup, modules = built(name)
    n = setup.n
    cases = []
    for kind, module in modules.items():
        triple = triple_from_bimodule(module, hopf, setup)
        m_dim = module.space_dim
        cases.append((module.left_act, module.right_act,
                      reference_bimodule_commute, (n, n, m_dim), False))
        cases.append((triple.a_act, triple.b_act, reference_condition_i,
                      (n, n, m_dim), False))
    cases.append((setup.act_left_C, setup.act_right_C,
                  reference_actions_commute, (n * n, n * n, n * n), True))
    out = []
    for first, second, loop, dims, swapped in cases:
        out.append((first, second, loop, dims, swapped))
        out += [(bad, second, loop, dims, swapped)
                for bad in scaled(first, f"{name}/1")]
        out += [(first, bad, loop, dims, swapped)
                for bad in scaled(second, f"{name}/2")]
    return out


def test_commute_items_match_the_three_loops():
    failing = set()
    cases = [case for name in NAMES for case in commuting_pairs(name)]
    for first, second, loop, dims, swapped in cases:
        want = list(loop(first, second, *dims))
        axiom = want[0][1]
        got = list(commute_items(first, second, axiom))
        if swapped:
            got = [(c, a, w, rhs, lhs) for c, a, w, lhs, rhs in got]
        assert got == want, axiom
        if any(lhs != rhs for *_, lhs, rhs in got):
            failing.add(axiom)
    assert failing == {"bimodule-commute", "condition-i",
                       "bimodule-actions-commute"}


@pytest.mark.parametrize("name", NAMES)
def test_hopf_bimodule_stream_matches_the_old_one(monkeypatch, name):
    _, setup, modules = built(name)
    for kind, module in modules.items():
        cases = [module]
        cases += [replace(module, left_act=bad)
                  for bad in scaled(module.left_act, f"{name}/{kind}/l")]
        cases += [replace(module, right_act=bad)
                  for bad in scaled(module.right_act, f"{name}/{kind}/r")]
        for case in cases:
            new = list(_hopf_bimodule_items(case, setup.dual))
            with monkeypatch.context() as patch:
                patch.setattr(bimodules, "commute_items",
                              old_commute((setup.n, setup.n, case.space_dim)))
                old = list(_hopf_bimodule_items(case, setup.dual))
            assert new == old, kind
            assert (sum(item[1] == "bimodule-commute" for item in new)
                    == setup.n ** 2 * case.space_dim)


@pytest.mark.parametrize("name", NAMES)
def test_bimodule_algebra_stream_matches_the_old_one(monkeypatch, name):
    _, setup, _ = built(name)
    left, right = setup.act_left_C, setup.act_right_C
    cases = [(left, right)]
    cases += [(bad, right) for bad in scaled(left, f"{name}/l")]
    cases += [(left, bad) for bad in scaled(right, f"{name}/r")]
    for act_left, act_right in cases:
        args = (setup.K, setup.C, act_left, act_right)
        report, (new,) = recorded(monkeypatch, actions,
                                  check_bimodule_algebra, *args)
        old = (list(module_algebra_items("left", setup.K, setup.C, act_left))
               + list(module_algebra_items("right", setup.K, setup.C,
                                           act_right))
               + list(reference_actions_commute(act_left, act_right,
                                                setup.K.dim, None,
                                                setup.C.dim)))
        assert new == old
        assert summary(report) == summary(certify_exhaustive(iter(old)))


def triple_args(setup):
    return (setup.dual.algebra, setup.K, setup.dual_op_alg, setup.act_on_dual,
            setup.act_on_dual_op)


@pytest.mark.parametrize("name", NAMES)
def test_triple_conditions_match_the_old_stream(monkeypatch, name):
    hopf, setup, modules = built(name)
    a_alg, hopf_mid, b_alg, act_a, act_b = triple_args(setup)
    dims = (a_alg.dim, hopf_mid.dim, b_alg.dim)
    for kind, module in modules.items():
        triple = triple_from_bimodule(module, hopf, setup)
        cases = [triple]
        cases += [replace(triple, a_act=bad)
                  for bad in scaled(triple.a_act, f"{name}/{kind}/a")]
        cases += [replace(triple, b_act=bad)
                  for bad in scaled(triple.b_act, f"{name}/{kind}/b")]
        for case in cases:
            new = list(_triple_condition_items(case, hopf_mid, act_a, act_b))
            with monkeypatch.context() as patch:
                patch.setattr(bimodules, "commute_items", old_commute(
                    (dims[0], dims[2], case.space_dim)))
                old = list(_triple_condition_items(case, hopf_mid, act_a,
                                                   act_b))
                want = triple_module_roundtrip(case, *triple_args(setup),
                                               mode=EXHAUSTIVE)
            assert new == old, kind
            got = triple_module_roundtrip(case, *triple_args(setup),
                                          mode=EXHAUSTIVE)
            assert summary(got) == summary(want), kind


WRONG_DIMS = r"are \(2, 4, 2\), not \(3, 4, 2\)"


def test_two_sided_action_rejects_wrong_dims():
    hopf, setup, modules = built("cyclic:2")
    triple = triple_from_bimodule(modules["regular"], hopf, setup)
    assert assemble_two_sided_action(triple, 2, 4, 2).actor_dim == 16
    with pytest.raises(DimensionMismatchError, match=WRONG_DIMS):
        assemble_two_sided_action(triple, 3, 4, 2)


def test_roundtrip_rejects_wrong_actor_dims(monkeypatch):
    hopf, setup, modules = built("cyclic:2")
    triple = triple_from_bimodule(modules["regular"], hopf, setup)
    a_alg = built("cyclic:3")[1].dual.algebra
    _, hopf_mid, b_alg, act_a, act_b = triple_args(setup)
    items = []
    with monkeypatch.context() as patch:
        patch.setattr(bimodules, "certify_exhaustive", items.append)
        with pytest.raises(DimensionMismatchError, match=WRONG_DIMS):
            triple_module_roundtrip(triple, a_alg, hopf_mid, b_alg, act_a,
                                    act_b)
    assert items == []


# ---------------------------------------------------------------------------
# catalog data

def digest(doc):
    return hashlib.sha256(dump_json(doc).encode()).hexdigest()


TAFT_DIGESTS = {
    "taft:1:2": "3dd9c0f52e4bf8573419d961d58cd1d5b7928f7b3f4aaa7caf563a3979a69b61",
    "taft:2:3": "80075e7e5506946101a6a69b8aea5760c934986cc3de6f935f8974182de76358",
    "taft:2:5": "0060977800073ab39e9ad62f52e9f7db8171097ee34cc9eed4fc58567a681297",
    "taft:3:7": "586e2057f8bdf1c1a55c05e9ee901a49242d7cf44e72525932754534a99c94ad",
    "taft:4:5": "4a8cc79e6fd985175baef96b33d60c39ac51aa42fb18f652550631fa2e732511",
    "taft:5:11": "c9889e1af9ebe105abe92d7fdaa9fa8cfd99a1cc6c5563432ae50287c4c2466c",
    "taft:6:7": "2f33e5ba2a51777303a3559a3fa8ec8030781120c20e53408cf0f41f01b06b4c",
    "taft:7:29": "ccf7cf3668c95e02715d0378ef7d564784e2ca5eba283bf79e915d3d92b0289b",
}


@pytest.mark.parametrize("spec", TAFT_DIGESTS)
def test_taft_json_is_pinned(spec):
    hopf = catalog_named(spec, verify=False)
    assert digest(hopf_to_json(hopf)) == TAFT_DIGESTS[spec]


# per entry: hopf_to_json, algebra_to_json of H and of C = D (x) D^op,
# bimodule_blocks of the regular and the free:2 bimodule
JSON_DIGESTS = {
    "cyclic:3": (
        "b5f17d0940fe89d542deee3090ff6d1e8754d1b5a96d6939ab9a133a0fd50692",
        "0ec0c62c6505f8f7ef9852d29233bc8c5d6b0793e4c054e1aa477e37d1780f1d",
        "83a40d82eb793287d37842e6130273a03bf53e25627eb1c0d86430e3bdf32cc6",
        "079ce86d7b6ced9cb9cd72d754c6a898c31b72c4f523672107d9f629f0f2e872",
        "c49910d65178ffc8f40daccff5cb9c1e5994a6c26baba10678d5196ad43b0ee2"),
    "sweedler4": (
        "dbf2c8a35ef4136a839857f87b5f458b057311ac83d5304a6e8c9715772811f4",
        "80a4dca8b6d97865f8954d485265d1f2c543aa7a70f59554d9a92113157403ea",
        "c2933545a10defa9ad1da7139869bb65d9e65a8de36185fb8258e5bacaa57798",
        "e4e8dbc1993576724d8179ce6e0e058aa3d8fd418855192f8d7f774540eabf5a",
        "1671a4cc7803644316cb5a014630765ba6a28500507555f5a601e89ef6261e29"),
    "taft:2:5": (
        "0060977800073ab39e9ad62f52e9f7db8171097ee34cc9eed4fc58567a681297",
        "487b9e802c02c9ec442743ab2b39c25b46945ff51b9da57098d8c25baa057dc7",
        "9488b3043151a3612c042dd570b58f5da264bc4be888ebd217d8877954ca0af6",
        "c7ea932050e375d7398b58945786a1308f1fc4dce5ed5ecea03a72c41271f35d",
        "5ba6174f1de32c875dd7afe65cb2c48e16a45b3988ecd0d31aafb40563fe5d0b"),
}


@pytest.mark.parametrize("name", JSON_DIGESTS)
def test_json_tables_are_pinned(name):
    hopf, setup, modules = built(name)
    docs = (hopf_to_json(hopf), algebra_to_json(hopf.algebra),
            algebra_to_json(setup.C), bimodule_blocks(modules["regular"]),
            bimodule_blocks(modules["free:2"]))
    assert tuple(digest(doc) for doc in docs) == JSON_DIGESTS[name]


ADDRESS_SPACE = 384 << 20


def _limit_memory():
    resource.setrlimit(resource.RLIMIT_AS, (ADDRESS_SPACE, ADDRESS_SPACE))


def test_largest_taft_describes_in_small_memory():
    run = subprocess.run(
        [sys.executable, "-m", "hopfcross", "describe", "--catalog",
         "taft:7:29"],
        text=True, capture_output=True, timeout=60, preexec_fn=_limit_memory)
    assert run.returncode == 0, run.stderr[-2000:]
    assert "dim: 49\n" in run.stdout
    assert "hopf axioms: pass" in run.stdout
