"""One stream per module identity, against the streams it replaced.

`reference_module_items` is the per-triple module-associativity stream
that `actions.module_items` ran before it used `associativity_blocks`.
The `reference_*_action` builders are the loops that `composite_action`
replaced, and the `reference_*_correspondence` checks are the two
exhaustive and random streams that now share one generator.  Every
report must match its reference on (passed, checked, axiom, witness,
lhs, rhs), on catalog inputs and on seeded corruptions of them.
"""

from dataclasses import replace
from functools import lru_cache
import random

import pytest

from hopfcross import actions, bimodules
from hopfcross.actions import (ActionData, check_bimodule_algebra,
                               check_module_algebra, check_module_axioms,
                               regular_actions)
from hopfcross.algebra import dual_hopf, op_algebra, random_dense_vector
from hopfcross.bimodules import (assemble_two_sided_action,
                                 c_action_from_bimodule, check_hopf_bimodule,
                                 composite_action, example_bimodule,
                                 triple_from_bimodule,
                                 verify_action_correspondence,
                                 verify_f_correspondence)
from hopfcross.catalog import catalog_named
from hopfcross.crossed import StandardTriple
from hopfcross.isos import build_iso
from hopfcross.linalg import sv_add_into, sv_canon, sv_from_list
from hopfcross.report import (MORPHISM_DIM_CAP, CheckMode, certify,
                              certify_exhaustive)

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


def scaled_action(act, key, factor):
    """`act` with the entry at `key` scaled by `factor`; an absent entry
    becomes factor times the first basis vector."""
    canon = act.field.canon
    tensor = {k: dict(v) for k, v in act.tensor.items()}
    tensor[key] = ({k: canon(factor * c) for k, c in tensor.get(key, {}).items()}
                   or {0: canon(factor)})
    return ActionData(act.field, act.actor_dim, act.space_dim, act.side,
                      tensor)


def corruptions(act, unit, seed):
    """Seeded edits of `act`: a random entry, the last entry, the last
    actor and space index (absent or not), an entry whose actor is in
    the support of the unit (the unit law fails first) and a random one
    whose actor is not."""
    rng = random.Random(seed)
    keys = sorted(act.tensor)
    on_unit = [k for k in keys if k[0] in unit]
    off_unit = [k for k in keys if k[0] not in unit]
    picked = [keys[rng.randrange(len(keys))], keys[-1],
              (act.actor_dim - 1, act.space_dim - 1)]
    if on_unit:
        picked.append(on_unit[0])
    if off_unit:
        picked.append(off_unit[rng.randrange(len(off_unit))])
    return [scaled_action(act, key, 2) for key in picked]


# ---------------------------------------------------------------------------
# module associativity

def reference_module_items(act, actor_alg):
    """`actions.module_items` before the block check: one item per triple."""
    one = act.field.one
    unit = actor_alg.unit_sv()
    for j in range(act.space_dim):
        m = {j: one}
        yield 1, "module-unit", (j,), act.act_sv(unit, m), m
    axiom = f"module-assoc-{act.side}"
    for a in range(act.actor_dim):
        ea = {a: one}
        for b in range(act.actor_dim):
            ab = actor_alg.mul_basis(a, b)
            eb = {b: one}
            for j in range(act.space_dim):
                m = {j: one}
                if act.side == "left":
                    rhs = act.act_sv(ea, act.act_sv(eb, m))
                else:
                    rhs = act.act_sv(eb, act.act_sv(ea, m))
                yield 1, axiom, (a, b, j), act.act_sv(ab, m), rhs


def reference(monkeypatch, check, *args):
    """`check(*args)` with the per-triple stream in place of the blocks."""
    with monkeypatch.context() as patch:
        patch.setattr(actions, "module_items", reference_module_items)
        patch.setattr(bimodules, "module_items", reference_module_items)
        return check(*args)


def module_cases(name):
    """Left and right actions over `name`, each with its actor algebra."""
    hopf, setup, modules = built(name)
    left, right = regular_actions(hopf)
    free = modules["free:2"]
    return {"regular-left": (left, hopf.algebra),
            "regular-right": (right, hopf.algebra),
            "on-dual": (setup.act_on_dual, setup.K.algebra),
            "on-dual-op": (setup.act_on_dual_op, setup.K.algebra),
            "left-C": (setup.act_left_C, setup.K.algebra),
            "right-C": (setup.act_right_C, setup.K.algebra),
            "free:2-left": (free.left_act, setup.dual.algebra),
            "free:2-right": (free.right_act, setup.dual.algebra)}


@pytest.mark.parametrize("name", NAMES)
def test_module_axioms_match_the_triple_stream(name):
    seen = set()
    for label, (act, alg) in module_cases(name).items():
        block = check_module_axioms(act, alg)
        assert block.passed, label
        assert block.checked == act.space_dim * (1 + act.actor_dim ** 2)
        want = certify_exhaustive(reference_module_items(act, alg))
        assert summary(block) == summary(want), label
        for bad in corruptions(act, alg.unit_sv(), f"{name}/{label}"):
            block = check_module_axioms(bad, alg)
            want = certify_exhaustive(reference_module_items(bad, alg))
            assert summary(block) == summary(want), label
            if not block.passed:
                seen.add(block.first().axiom)
    # some edits still give a module; across the cases all three fail
    assert seen == {"module-unit", "module-assoc-left", "module-assoc-right"}


@pytest.mark.parametrize("name", NAMES)
def test_module_algebra_matches_the_triple_stream(monkeypatch, name):
    hopf, setup, _ = built(name)
    for side, alg, act in (("left", setup.dual.algebra, setup.act_on_dual),
                           ("right", setup.dual_op_alg,
                            setup.act_on_dual_op)):
        args = (side, setup.K, alg, act)
        assert check_module_algebra(*args).passed
        assert (summary(check_module_algebra(*args))
                == summary(reference(monkeypatch, check_module_algebra,
                                     *args)))
        for bad in corruptions(act, setup.K.algebra.unit_sv(), name + side):
            args = (side, setup.K, alg, bad)
            assert (summary(check_module_algebra(*args))
                    == summary(reference(monkeypatch, check_module_algebra,
                                         *args))), side


@pytest.mark.parametrize("name", NAMES)
def test_bimodule_algebra_matches_the_triple_stream(monkeypatch, name):
    _, setup, _ = built(name)
    pair = (setup.act_left_C, setup.act_right_C)
    unit = setup.K.algebra.unit_sv()
    cases = [pair]
    cases += [(bad, pair[1]) for bad in corruptions(pair[0], unit, name)]
    cases += [(pair[0], bad) for bad in corruptions(pair[1], unit, name)]
    for left, right in cases:
        args = (setup.K, setup.C, left, right)
        assert (summary(check_bimodule_algebra(*args))
                == summary(reference(monkeypatch, check_bimodule_algebra,
                                     *args)))
    assert check_bimodule_algebra(setup.K, setup.C, *pair).passed


def reference_module_algebra_items(side, hopf, alg, act):
    """`actions.module_algebra_items` before the block check: one item
    per triple (h, a, b)."""
    yield from reference_module_items(act, hopf.algebra)
    field = act.field
    one = field.one
    unit_a = alg.unit_sv()
    counit = hopf.coalgebra.counit
    axiom = f"module-algebra-{side}"
    for h in range(hopf.dim):
        yield (0, "module-algebra-unit", (h,), act.act_sv({h: one}, unit_a),
               sv_canon(field, {k: counit[h] * c for k, c in unit_a.items()}))
        delta = hopf.coalgebra.delta(h)
        for a in range(alg.dim):
            for b in range(alg.dim):
                acc = {}
                for h1, h2, c in delta:
                    part = alg.mul_sv(act.act_basis(h1, a),
                                      act.act_basis(h2, b))
                    sv_add_into(acc, part, c)
                yield (1, axiom, (h, a, b),
                       act.act_sv({h: one}, alg.mul_basis(a, b)),
                       sv_canon(field, acc))


def product_corruptions(alg, seed):
    """Seeded edits of the product of `alg`, which leave every module
    axiom of an action on it intact: a random and the last nonzero
    product doubled, and the last (absent or not) set to e_0."""
    rng = random.Random(seed)
    keys = sorted(alg.mult)
    out = []
    for key, value in ((keys[rng.randrange(len(keys))], None),
                       (keys[-1], None), ((alg.dim - 1, alg.dim - 1), 0)):
        mult = dict(alg.mult)
        mult[key] = ({0: alg.field.one} if value == 0 else
                     {k: alg.field.canon(2 * c) for k, c in mult[key].items()})
        out.append(replace(alg, mult=mult))
    return out


@pytest.mark.parametrize("name", NAMES)
def test_module_algebra_blocks_match_the_per_triple_stream(name):
    hopf, setup, _ = built(name)
    unit = setup.K.algebra.unit_sv()
    cases = (("left", setup.dual.algebra, setup.act_on_dual),
             ("right", setup.dual_op_alg, setup.act_on_dual_op),
             ("left", setup.C, setup.act_left_C),
             ("right", setup.C, setup.act_right_C))
    failed_at = set()
    for n, (side, alg, act) in enumerate(cases):
        runs = [(alg, act)]
        runs += [(bad, act) for bad in product_corruptions(alg, f"{name}/{n}")]
        runs += [(alg, bad) for bad in corruptions(act, unit, f"{name}/{n}")]
        for alg_run, act_run in runs:
            args = (side, setup.K, alg_run, act_run)
            got = certify_exhaustive(actions.module_algebra_items(*args))
            want = certify_exhaustive(reference_module_algebra_items(*args))
            assert summary(got) == summary(want), (side, n)
            if not got.passed:
                failed_at.add(got.first().axiom)
        assert check_module_algebra(side, setup.K, alg, act).passed
    assert {"module-algebra-left", "module-algebra-right"} <= failed_at


def test_module_algebra_block_reports_the_pinned_triple():
    hopf = catalog_named("sweedler4")
    args = ("left", hopf, op_algebra(dual_hopf(hopf).algebra),
            regular_actions(hopf)[0])
    got = check_module_algebra(*args)
    want = certify_exhaustive(reference_module_algebra_items(*args))
    assert summary(got) == summary(want)
    assert got.first().witness == (2, 0, 2)


@pytest.mark.parametrize("name", NAMES)
def test_hopf_bimodule_matches_the_triple_stream(monkeypatch, name):
    hopf, setup, modules = built(name)
    unit = setup.dual.algebra.unit_sv()
    for kind, module in modules.items():
        cases = [module]
        cases += [replace(module, left_act=bad) for bad in
                  corruptions(module.left_act, unit, f"{name}/{kind}/l")]
        cases += [replace(module, right_act=bad) for bad in
                  corruptions(module.right_act, unit, f"{name}/{kind}/r")]
        for case in cases:
            assert (summary(check_hopf_bimodule(case, hopf))
                    == summary(reference(monkeypatch, check_hopf_bimodule,
                                         case, hopf))), kind
        assert check_hopf_bimodule(module, hopf).passed


# ---------------------------------------------------------------------------
# composite actions

def reference_c_action(module):
    n = module.left_act.actor_dim
    one = module.field.one
    tensor = {}
    for p in range(n):
        for q in range(n):
            for j in range(module.space_dim):
                sv = module.left_act.act_sv(
                    {p: one}, module.right_act.act_basis(q, j))
                if sv:
                    tensor[(p * n + q, j)] = sv
    return ActionData(module.field, n * n, module.space_dim, "left", tensor)


def reference_two_sided_action(triple, a_dim, h_dim, b_dim):
    field = triple.a_act.field
    one = field.one
    tensor = {}
    for a in range(a_dim):
        for h in range(h_dim):
            for b in range(b_dim):
                actor = (a * h_dim + h) * b_dim + b
                for j in range(triple.space_dim):
                    step = triple.b_act.act_basis(b, j)
                    step = triple.h_act.act_sv({h: one}, step)
                    step = triple.a_act.act_sv({a: one}, step)
                    if step:
                        tensor[(actor, j)] = step
    return ActionData(field, a_dim * h_dim * b_dim, triple.space_dim, "left",
                      tensor)


def reference_diagonal_action(c_act, h_act, dc, dh, m_dim):
    one = c_act.field.one
    tensor = {}
    for c in range(dc):
        for h in range(dh):
            for j in range(m_dim):
                sv = c_act.act_sv({c: one}, h_act.act_basis(h, j))
                if sv:
                    tensor[(c * dh + h, j)] = sv
    return ActionData(c_act.field, dc * dh, m_dim, "left", tensor)


@pytest.mark.parametrize("name", ("cyclic:3", "sweedler4"))
@pytest.mark.parametrize("kind", ("regular", "free:2"))
def test_composite_action_matches_the_loops(name, kind):
    hopf, setup, modules = built(name)
    module = modules[kind]
    n, m_dim = setup.n, module.space_dim
    triple = triple_from_bimodule(module, hopf, setup)
    c_act = reference_c_action(module)
    assert c_action_from_bimodule(module) == c_act
    assert (composite_action((module.left_act, module.right_act), m_dim)
            == c_act)
    two_sided = reference_two_sided_action(triple, n, n * n, n)
    assert assemble_two_sided_action(triple, n, n * n, n) == two_sided
    assert (composite_action((triple.a_act, triple.h_act, triple.b_act),
                             m_dim) == two_sided)
    assert (composite_action((c_act, triple.h_act), m_dim)
            == reference_diagonal_action(c_act, triple.h_act, n * n, n * n,
                                         m_dim))
    assert two_sided.tensor and c_act.tensor


# ---------------------------------------------------------------------------
# correspondences

def reference_action_correspondence(acts, maps, m_dim, mode, trials, seed):
    act_x, act_y, act_z = acts
    phi, alpha, beta = maps
    n4 = phi.src_dim
    field = act_x.field
    one = field.one

    def exhaustive():
        for i in range(n4):
            phi_i = phi.col_sv(i)
            beta_i = beta.col_sv(i)
            alpha_i = alpha.col_sv(i)
            for t in range(m_dim):
                m = {t: one}
                via_x = act_x.act_basis(i, t)
                yield (1, "correspondence-X-Y", (i, t), via_x,
                       act_y.act_sv(phi_i, m))
                yield (0, "correspondence-X-Z", (i, t), via_x,
                       act_z.act_sv(beta_i, m))
                yield (0, "correspondence-Y-Z", (i, t), act_y.act_basis(i, t),
                       act_z.act_sv(alpha_i, m))

    def trial(rng, t):
        x = random_dense_vector(field, rng, n4)
        m = sv_from_list(field, random_dense_vector(field, rng, m_dim))
        x_sv = sv_from_list(field, x)
        via_x = act_x.act_sv(x_sv, m)
        witness = ("trial", t)
        yield (1, "correspondence-X-Y", witness, via_x,
               act_y.act_sv(sv_from_list(field, phi.apply_dense(x)), m))
        yield (0, "correspondence-X-Z", witness, via_x,
               act_z.act_sv(sv_from_list(field, beta.apply_dense(x)), m))
        yield (0, "correspondence-Y-Z", witness, act_y.act_sv(x_sv, m),
               act_z.act_sv(sv_from_list(field, alpha.apply_dense(x)), m))

    return certify(mode, n4, exhaustive, trial, cap=MORPHISM_DIM_CAP,
                   trials=trials, seed=seed)


def reference_f_correspondence(assembled, z_act, f_map, m_dim, mode):
    n4 = f_map.src_dim
    field = z_act.field
    one = field.one

    def exhaustive():
        for i in range(n4):
            fi = f_map.col_sv(i)
            for t in range(m_dim):
                yield (1, "f-correspondence", (i, t), assembled.act_basis(i, t),
                       z_act.act_sv(fi, {t: one}))

    def trial(rng, t):
        x = random_dense_vector(field, rng, n4)
        m = sv_from_list(field, random_dense_vector(field, rng, m_dim))
        yield (1, "f-correspondence", ("trial", t),
               assembled.act_sv(sv_from_list(field, x), m),
               z_act.act_sv(sv_from_list(field, f_map.apply_dense(x)), m))

    return certify(mode, n4, exhaustive, trial, cap=MORPHISM_DIM_CAP)


def corrupt_derived(monkeypatch, which, seed):
    """Make `bimodules.derived_action` scale one seeded entry of `which`."""
    real = bimodules.derived_action

    def derived(module, hopf, w, setup=None):
        act = real(module, hopf, w, setup)
        if w != which:
            return act
        keys = sorted(act.tensor)
        return scaled_action(act, keys[random.Random(seed).randrange(
            len(keys))], 2)

    monkeypatch.setattr(bimodules, "derived_action", derived)
    return derived


# (input, mode, seed): exhaustive up to n4 = 81; without a mode sweedler4
# (n4 = 256) runs the default trials, seeded by the checker's own seed.
CORRESPONDENCE_RUNS = (("cyclic:2", EXHAUSTIVE, 0),
                       ("cyclic:3", EXHAUSTIVE, 0),
                       ("cyclic:3", CheckMode.random(trials=6, seed=11), 0),
                       ("sweedler4", None, 7))


@pytest.mark.parametrize("name,mode,seed", CORRESPONDENCE_RUNS)
@pytest.mark.parametrize("which", (None, "X", "Y", "Z"))
def test_action_correspondence_matches_the_old_stream(monkeypatch, name, mode,
                                                      seed, which):
    hopf, setup, modules = built(name)
    module = modules["regular"]
    derived = corrupt_derived(monkeypatch, which, f"{name}/{which}")
    acts = [derived(module, hopf, w, setup) for w in ("X", "Y", "Z")]
    maps = [build_iso(k, hopf, setup) for k in ("phi", "alpha", "beta")]
    report = verify_action_correspondence(module, hopf, setup, mode,
                                          seed=seed)
    want = reference_action_correspondence(acts, maps, module.space_dim,
                                           mode, 200, seed)
    assert summary(report) == summary(want)
    assert report.passed == (which is None)


@pytest.mark.parametrize("name,mode,seed", CORRESPONDENCE_RUNS)
@pytest.mark.parametrize("corrupt", (None, "Z", "h_act"))
def test_f_correspondence_matches_the_old_stream(monkeypatch, name, mode, seed,
                                                 corrupt):
    hopf, setup, modules = built(name)
    module = modules["regular"]
    n = setup.n
    triple = triple_from_bimodule(module, hopf, setup)
    if corrupt == "h_act":
        keys = sorted(triple.h_act.tensor)
        triple = replace(triple, h_act=scaled_action(
            triple.h_act, keys[random.Random(name).randrange(len(keys))], 2))
    derived = corrupt_derived(monkeypatch, corrupt, f"{name}/f")
    report = verify_f_correspondence(triple, module, hopf, setup, mode)
    want = reference_f_correspondence(
        reference_two_sided_action(triple, n, n * n, n),
        derived(module, hopf, "Z", setup), build_iso("f", hopf, setup),
        module.space_dim, mode)
    assert summary(report) == summary(want)
    assert report.passed == (corrupt is None)
