"""The joins of `associativity_blocks` and the unit law read from rows.

Block i of `algebra.associativity_blocks` meets the actions of e_i with
the actions of every e_j through their middle basis index, so on actions
where most e_i.m_u vanish it reads only the pairs that contribute.  The
module reports on such actions (the counit action of sweedler4 and
taft:2:5, whose nilpotent basis elements act by zero, and the K-action
on the dual) must match a per-triple stream on (passed, checked, axiom,
witness, lhs, rhs), honest and under seeded single-entry corruptions.

The exhaustive unit law of `check_unit_and_associativity` reads the
compiled rows instead of the sparse product; on units with several terms
its items must be those of the sparse product, and a corrupted row in
the unit's support must be reported where the sparse product reports it.
"""

from functools import lru_cache
import random

import pytest

from hopfcross import algebra
from hopfcross.actions import ActionData, check_module_axioms, trivial_action
from hopfcross.algebra import AlgebraData, check_algebra_axioms
from hopfcross.catalog import catalog_named
from hopfcross.crossed import (AlgebraHandle, StandardTriple, build_xyz,
                               check_handle_axioms, materialize)
from hopfcross.report import CheckMode, certify, certify_exhaustive

EXHAUSTIVE = CheckMode.exhaustive()


@lru_cache(maxsize=None)
def built(name):
    hopf = catalog_named(name)
    return hopf, StandardTriple(hopf)


def summary(report):
    first = report.first()
    if first is None:
        return report.passed, report.checked, None
    return (report.passed, report.checked, first.axiom, first.witness,
            first.lhs, first.rhs)


def reference_module(act, actor_alg):
    """The module axioms as one item per basis triple (i, j, t)."""
    one = act.field.one

    def items():
        for t in range(act.space_dim):
            m = {t: one}
            yield 1, "module-unit", (t,), act.act_sv(actor_alg.unit_sv(), m), m
        for i in range(act.actor_dim):
            for j in range(act.actor_dim):
                ij = actor_alg.mul_basis(i, j)
                first, second = (j, i) if act.side == "left" else (i, j)
                for t in range(act.space_dim):
                    yield (1, f"module-assoc-{act.side}", (i, j, t),
                           act.act_sv(ij, {t: one}),
                           act.act_sv({second: one},
                                      act.act_basis(first, t)))

    return certify_exhaustive(items())


def sparse_cases():
    """Actions whose rows are mostly empty, each with its actor algebra."""
    cases = {}
    for name in ("sweedler4", "taft:2:5"):
        hopf, setup = built(name)
        for side in ("left", "right"):
            cases[f"{name}/trivial-{side}"] = (trivial_action(hopf, 3, side),
                                               hopf.algebra)
        cases[f"{name}/on-dual"] = (setup.act_on_dual, setup.K.algebra)
    return cases


CASES = sparse_cases()


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
    make an absent action e_i.m_t nonzero."""
    rng = random.Random(seed)
    field = act.field
    present = sorted(act.tensor)
    absent = [(i, t) for i in range(act.actor_dim)
              for t in range(act.space_dim) if (i, t) not in act.tensor]
    doubled = present[rng.randrange(len(present))]
    dropped = present[rng.randrange(len(present))]
    added = absent[rng.randrange(len(absent))]
    return [edited(act, doubled, {k: field.canon(2 * c)
                                  for k, c in act.tensor[doubled].items()}),
            edited(act, dropped, None),
            edited(act, added, {rng.randrange(act.space_dim): field.one})]


def test_the_cases_are_sparse():
    # at least half of the actions e_i.m_t vanish in every case
    for label, (act, _) in CASES.items():
        assert 2 * len(act.tensor) <= act.actor_dim * act.space_dim, label


@pytest.mark.parametrize("label", sorted(CASES))
def test_sparse_joins_match_the_triple_stream(label):
    act, alg = CASES[label]
    honest = check_module_axioms(act, alg)
    assert honest.passed
    assert honest.checked == act.space_dim * (1 + act.actor_dim ** 2)
    assert summary(honest) == summary(reference_module(act, alg))
    for k, bad in enumerate(corruptions(act, label)):
        block = check_module_axioms(bad, alg)
        assert not block.passed, (label, k)
        assert summary(block) == summary(reference_module(bad, alg)), (label, k)


# ---------------------------------------------------------------------------
# the unit law read from the rows

def recorded_stream(monkeypatch, check, *args):
    """The report of `check(*args)` and the whole exhaustive stream that
    `check_unit_and_associativity` hands to `certify`."""
    streams = []

    def record(mode, dim, exhaustive, trial):
        streams.append(list(exhaustive()))
        return certify(mode, dim, lambda: iter(streams[-1]), trial)

    with monkeypatch.context() as patch:
        patch.setattr(algebra, "certify", record)
        report = check(*args)
    return report, streams[0]


def unit_items(n, one, unit, product):
    items = []
    for i in range(n):
        e = {i: one}
        items.append((0, "unit-law-left", (i,), product(unit, e), e))
        items.append((1, "unit-law-right", (i,), product(e, unit), e))
    return items


def rescaled(alg):
    """`alg` on the basis e'_k = (k + 1) e_k, so that the coordinates of
    its unit are not all one."""
    field = alg.field
    mult = {(i, j): {k: field.div((i + 1) * (j + 1) * c, k + 1)
                     for k, c in entries.items()}
            for (i, j), entries in alg.mult.items()}
    unit = [field.div(c, k + 1) for k, c in enumerate(alg.unit)]
    return AlgebraData(field, alg.dim, alg.basis_labels, mult, unit)


@lru_cache(maxsize=None)
def unit_algebras():
    """Algebras of dual_cyclic:3 whose units have 3 or 9 terms."""
    hopf, setup = built("dual_cyclic:3")
    x = materialize(build_xyz(hopf, "X", setup), cap=81)
    return {"H": hopf.algebra, "K": setup.K.algebra, "X": x,
            "X-rescaled": rescaled(x)}


def unit_handle(which):
    """A fresh handle of dual_cyclic:3, its rows not yet compiled."""
    hopf, setup = built("dual_cyclic:3")
    if which == "X-rescaled":
        alg = unit_algebras()[which]
        return AlgebraHandle(alg.field, (alg.dim,), alg.basis_labels,
                             alg.unit_sv(), alg.mul_basis, "rescaled")
    return build_xyz(hopf, which, setup)


@pytest.mark.parametrize("which", ("X", "Z", "X-rescaled"))
def test_unit_items_of_handles_equal_the_sparse_product(monkeypatch, which):
    handle = unit_handle(which)
    assert len(handle.unit) == 9
    report, stream = recorded_stream(monkeypatch, check_handle_axioms,
                                     handle, EXHAUSTIVE)
    assert report.passed
    n = handle.dim
    assert stream[:2 * n] == unit_items(n, handle.field.one, handle.unit,
                                        handle.product)


@pytest.mark.parametrize("which", ("H", "K", "X", "X-rescaled"))
def test_unit_items_of_algebras_equal_the_sparse_product(monkeypatch, which):
    alg = unit_algebras()[which]
    unit = alg.unit_sv()
    assert len(unit) == (3 if which == "H" else 9)
    assert (which == "X-rescaled") == (set(unit.values()) != {1})
    report, stream = recorded_stream(monkeypatch, check_algebra_axioms,
                                     alg, EXHAUSTIVE)
    assert report.passed
    assert stream[:2 * alg.dim] == unit_items(alg.dim, alg.field.one, unit,
                                              alg.mul_sv)


def bumped_row(row, j, one):
    """A compiled row [j, k, c, ...] with e_u e_j raised by e_k, k the
    first index of e_u e_j (or 0 when it is zero)."""
    terms = iter(row)
    table = {(a, k): c for a, k, c in zip(terms, terms, terms)}
    k = min((k for a, k in table if a == j), default=0)
    table[j, k] = table.get((j, k), 0) + one
    return [x for key in sorted(table) for x in (*key, table[key])]


@pytest.mark.parametrize("which", ("X", "Z", "X-rescaled"))
def test_a_corrupted_unit_row_fails_where_the_sparse_product_does(which):
    """Row u of the unit's support gets e_u e_j bumped, for j = u and for
    the next j of the support: e_u.unit and unit.e_j both change, and
    when j > u the right unit law fails first."""
    support = sorted(unit_handle(which).unit)
    for u, after in zip(support, support[1:] + support[:1]):
        for j in (u, after):
            handle = unit_handle(which)
            handle._rows[u] = bumped_row(handle._row(u), j, handle.field.one)
            want = certify_exhaustive(iter(unit_items(
                handle.dim, handle.field.one, handle.unit, handle.product)))
            axiom = "unit-law-right" if j > u else "unit-law-left"
            assert want.first().axiom == axiom, (u, j)
            assert summary(check_handle_axioms(handle, EXHAUSTIVE)) == \
                summary(want), (u, j)
