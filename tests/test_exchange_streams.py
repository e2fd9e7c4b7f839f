"""The module conditions are one exchange-relation stream over the
twisting maps of `crossed`, against the loops they replaced.

`reference_triple_condition_items` is the row-table loop that
`bimodules._triple_condition_items` replaced, and
`reference_diagonal_items` the inline loop of
`diagonal_module_condition`.  The tests compare whole item lists,
(count, axiom, witness, lhs, rhs) for every item, on five catalog
entries with the regular, free:1 and free:2 bimodules, each honest and
under seeded single-entry corruptions of every action: the a, h and b
actions of the triple and the c and h actions of the diagonal
condition.  The twisting maps are checked on their own too: each
inverse undoes its map, and X's twist is the column of beta^-1.
"""

from dataclasses import replace
from functools import lru_cache
import random

import pytest

from hopfcross import bimodules
from hopfcross.actions import ActionData, commute_items
from hopfcross.bimodules import (_triple_condition_items,
                                 c_action_from_bimodule,
                                 diagonal_module_condition, example_bimodule,
                                 triple_from_bimodule)
from hopfcross.catalog import catalog_named
from hopfcross.crossed import (StandardTriple, build_xyz, left_smash_twist,
                               left_smash_twist_inv, right_smash_twist,
                               right_smash_twist_inv)
from hopfcross.errors import DimensionMismatchError
from hopfcross.isos import build_iso
from hopfcross.linalg import sv_add_into, sv_canon, sv_tensor

NAMES = ("cyclic:2", "cyclic:3", "dual_cyclic:3", "sweedler4", "taft:2:5")
KINDS = ("regular", "free:1", "free:2")


@lru_cache(maxsize=None)
def built(name):
    """Hopf algebra, its canonical triple and the three bimodules."""
    hopf = catalog_named(name)
    setup = StandardTriple(hopf)
    modules = {"regular": example_bimodule(hopf, "regular"),
               "free:1": example_bimodule(hopf, "free", 1),
               "free:2": example_bimodule(hopf, "free", 2)}
    return hopf, setup, modules


def edited(act, key, entries):
    """`act` with the entry at `key` replaced (dropped when None)."""
    tensor = {k: dict(v) for k, v in act.tensor.items()}
    if entries is None:
        del tensor[key]
    else:
        tensor[key] = entries
    return ActionData(act.field, act.actor_dim, act.space_dim, act.side,
                      tensor)


def corruptions(act, seed):
    """Seeded single-entry edits: double a present entry, drop one, and
    add a basis vector to an action e_i.m_t, one that vanishes if any
    does."""
    rng = random.Random(seed)
    field = act.field
    present = sorted(act.tensor)
    absent = [(i, t) for i in range(act.actor_dim)
              for t in range(act.space_dim) if (i, t) not in act.tensor]
    doubled = present[rng.randrange(len(present))]
    dropped = present[rng.randrange(len(present))]
    added = (absent or present)[rng.randrange(len(absent or present))]
    bumped = dict(act.tensor.get(added, {}))
    k = rng.randrange(act.space_dim)
    bumped[k] = field.canon(bumped.get(k, 0) + field.one)
    return [edited(act, doubled, {k: field.canon(2 * c)
                                  for k, c in act.tensor[doubled].items()}),
            edited(act, dropped, None),
            edited(act, added, bumped)]


def failures(items):
    return sum(lhs != rhs for _, _, _, lhs, rhs in items)


# ---------------------------------------------------------------------------
# the replaced loops

def reference_triple_condition_items(triple, dims, hopf_mid, act_left_a,
                                     act_right_b):
    field = triple.a_act.field
    one = field.one
    m_dim = triple.space_dim
    a_act, h_act, b_act = triple.a_act, triple.h_act, triple.b_act
    da, dh, db = dims
    yield from commute_items(a_act, b_act, "condition-i")
    s_inv = hopf_mid.antipode_inv_col
    # a row is (axiom, x acts last on the left-hand side, moving leg,
    # moved through S^-1)
    blocks = (
        (b_act, act_right_b,
         [(x, h, (x, h)) for x in range(db) for h in range(dh)],
         (("condition-ii", True, 1, False),
          ("condition-ii-inverse-form", False, 1, True))),
        (a_act, act_left_a,
         [(x, h, (h, x)) for h in range(dh) for x in range(da)],
         (("condition-iii", False, 0, False),
          ("condition-iii-inverse-form", True, 0, True))))
    for x_act, mover, pairs, rows in blocks:
        for x, h, witness in pairs:
            delta = hopf_mid.coalgebra.delta(h)
            for j in range(m_dim):
                for axiom, x_last, leg, inverse in rows:
                    if x_last:
                        lhs = x_act.act_sv({x: one}, h_act.act_basis(h, j))
                    else:
                        lhs = h_act.act_sv({h: one}, x_act.act_basis(x, j))
                    acc = {}
                    for *legs, c in delta:
                        if inverse:
                            moved = mover.act_sv(s_inv(legs[leg]), {x: one})
                        else:
                            moved = mover.act_basis(legs[leg], x)
                        other = legs[1 - leg]
                        if x_last:
                            out = h_act.act_sv({other: one},
                                               x_act.act_sv(moved, {j: one}))
                        else:
                            out = x_act.act_sv(moved,
                                               h_act.act_basis(other, j))
                        sv_add_into(acc, out, c)
                    yield (1, axiom, (*witness, j), lhs, sv_canon(field, acc))


def reference_diagonal_items(c_act, h_act, c_alg, hopf_mid, act_left_c,
                             act_right_c):
    field = c_act.field
    one = field.one
    s_inv = hopf_mid.antipode_inv_col
    for h in range(hopf_mid.dim):
        d2 = hopf_mid.coalgebra.delta2(h)
        for c in range(c_alg.dim):
            for j in range(c_act.space_dim):
                acc = {}
                for h1, h2, h3, w in d2:
                    moved = act_right_c.act_sv(s_inv(h3),
                                               act_left_c.act_basis(h1, c))
                    inner = h_act.act_basis(h2, j)
                    sv_add_into(acc, c_act.act_sv(moved, inner), w)
                yield (1, "diagonal-condition", (h, c, j),
                       h_act.act_sv({h: one}, c_act.act_basis(c, j)),
                       sv_canon(field, acc))


# ---------------------------------------------------------------------------
# whole item lists

def triple_args(setup):
    return (setup.dual.algebra, setup.K, setup.dual_op_alg, setup.act_on_dual,
            setup.act_on_dual_op)


@pytest.mark.parametrize("name", NAMES)
def test_triple_conditions_match_the_replaced_loop(name):
    hopf, setup, modules = built(name)
    a_alg, hopf_mid, b_alg, act_a, act_b = triple_args(setup)
    dims = (a_alg.dim, hopf_mid.dim, b_alg.dim)
    for kind in KINDS:
        triple = triple_from_bimodule(modules[kind], hopf, setup)
        cases = [triple]
        for slot in ("a_act", "h_act", "b_act"):
            cases += [replace(triple, **{slot: bad}) for bad in corruptions(
                getattr(triple, slot), f"{name}/{kind}/{slot}")]
        assert len(cases) == 10
        failing = []
        for number, case in enumerate(cases):
            new = list(_triple_condition_items(case, hopf_mid, act_a, act_b))
            old = list(reference_triple_condition_items(case, dims, hopf_mid,
                                                        act_a, act_b))
            assert new == old, (kind, number)
            failing.append(failures(new) > 0)
        # the honest triple passes; the comparison meets violations
        assert not failing[0] and any(failing), kind


def recorded_condition(*args):
    """The item stream `diagonal_module_condition(*args)` hands to
    `certify_exhaustive`, listed whole; the module axiom is not run."""
    streams = []

    class Stop(Exception):
        pass

    def record(items):
        streams.append(list(items))
        raise Stop

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(bimodules, "certify_exhaustive", record)
        with pytest.raises(Stop):
            diagonal_module_condition(*args)
    (stream,) = streams
    return stream


@pytest.mark.parametrize("name", NAMES)
def test_diagonal_condition_matches_the_replaced_loop(name):
    hopf, setup, modules = built(name)
    tail = (setup.C, setup.K, setup.act_left_C, setup.act_right_C)
    for kind in KINDS:
        module = modules[kind]
        c_act = c_action_from_bimodule(module)
        h_act = triple_from_bimodule(module, hopf, setup).h_act
        cases = [(c_act, h_act)]
        cases += [(bad, h_act)
                  for bad in corruptions(c_act, f"{name}/{kind}/c")]
        cases += [(c_act, bad)
                  for bad in corruptions(h_act, f"{name}/{kind}/h")]
        failing = []
        for number, acts in enumerate(cases):
            new = recorded_condition(*acts, *tail)
            old = list(reference_diagonal_items(*acts, *tail))
            assert new == old, (kind, number)
            assert len(new) == setup.K.dim * setup.C.dim * module.space_dim
            failing.append(failures(new) > 0)
        assert not failing[0] and any(failing), kind


def test_diagonal_condition_rejects_wrong_dims():
    hopf2, setup2, modules2 = built("cyclic:2")
    hopf3, setup3, modules3 = built("cyclic:3")
    c_act = c_action_from_bimodule(modules2["regular"])
    tail = (setup2.C, setup2.K, setup2.act_left_C, setup2.act_right_C)
    k3 = triple_from_bimodule(modules3["regular"], hopf3, setup3).h_act
    free_k = triple_from_bimodule(modules2["free:1"], hopf2, setup2).h_act
    items = []
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(bimodules, "certify_exhaustive", items.append)
        with pytest.raises(DimensionMismatchError,
                           match=r"are \(4, 9\), not \(4, 4\)"):
            diagonal_module_condition(c_act, k3, *tail)
        with pytest.raises(DimensionMismatchError, match="different spaces"):
            diagonal_module_condition(c_act, free_k, *tail)
    assert items == []


# ---------------------------------------------------------------------------
# the twisting maps

def applied(twist, vector, dim_in):
    """A twist on basis pairs applied to a vector on a tensor product
    whose second factor has dim `dim_in`."""
    acc = {}
    for k, c in vector.items():
        for key, w in twist(*divmod(k, dim_in)).items():
            acc[key] = acc.get(key, 0) + c * w
    return acc


@pytest.mark.parametrize("name", NAMES)
def test_inverse_twists_undo_the_smash_twists(name):
    _, setup, _ = built(name)
    field, one = setup.field, setup.field.one
    dk, dd = setup.K.dim, setup.n
    pairs = (
        (left_smash_twist(setup.K, setup.act_on_dual),
         left_smash_twist_inv(setup.K, setup.act_on_dual), dk, dd),
        (right_smash_twist(setup.K, setup.act_on_dual_op),
         right_smash_twist_inv(setup.K, setup.act_on_dual_op), dd, dk))
    for twist, inverse, d_first, d_second in pairs:
        for x in range(d_first):
            for y in range(d_second):
                there = sv_canon(field, twist(x, y))
                assert there
                back = applied(inverse, there, d_first)
                assert sv_canon(field, back) == {x * d_second + y: one}


@pytest.mark.parametrize("name", NAMES)
def test_x_twist_is_the_column_of_beta_inverse(name):
    # beta^-1((p (x) q) >< (h (x) g)) = (1 (x) (p (x) q)) ((g (x) h) (x) 1)
    hopf, setup, _ = built(name)
    n, field, one = setup.n, setup.field, setup.field.one
    x_alg = build_xyz(hopf, "X", setup)
    beta_inv = build_iso("beta_inv", hopf, setup)
    unit_h = hopf.algebra.unit_sv()
    unit_d = setup.dual.algebra.unit_sv()
    dims = (n, n, n, n)
    for p in range(n):
        for q in range(n):
            pq = sv_tensor(field, [unit_h, unit_h, {p: one}, {q: one}], dims)
            for h in range(n):
                for g in range(n):
                    gh = sv_tensor(field, [{g: one}, {h: one}, unit_d,
                                           unit_d], dims)
                    column = ((p * n + q) * n + h) * n + g
                    assert (x_alg.product(pq, gh)
                            == beta_inv.col_sv(column)), (p, q, h, g)
