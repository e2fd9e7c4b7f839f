"""Block associativity certificates against the per-triple streams.

`reference_axioms` and `reference_module` are the exhaustive streams that
`check_unit_and_associativity` and `check_module_over_handle` ran before
the block check: one item per basis triple (i, j, t).  The block reports
must match them on (passed, checked, axiom, witness, lhs, rhs), on the
catalog products and on seeded single-entry corruptions of them.
"""

from functools import lru_cache
import random

import pytest

from hopfcross.actions import ActionData
from hopfcross.algebra import AlgebraData, check_algebra_axioms
from hopfcross.bimodules import (check_module_over_handle, derived_action,
                                 example_bimodule)
from hopfcross.catalog import catalog_named
from hopfcross.crossed import (AlgebraHandle, StandardTriple, build_xyz,
                               check_handle_axioms, materialize, smash_handles)
from hopfcross.linalg import sv_canon
from hopfcross.report import CheckMode, certify, certify_exhaustive

EXHAUSTIVE = CheckMode.exhaustive()
INPUTS = ("cyclic:2", "cyclic:3", "dual_cyclic:3")
WHICH = ("X", "Y", "Z", "left_smash", "right_smash")


@lru_cache(maxsize=None)
def built(name):
    """Hopf algebra, triple and the five handles, pair tables warm."""
    hopf = catalog_named(name)
    setup = StandardTriple(hopf)
    handles = {w: build_xyz(hopf, w, setup) for w in ("X", "Y", "Z")}
    handles["left_smash"], handles["right_smash"] = smash_handles(hopf, setup)
    return hopf, setup, handles


def summary(report):
    first = report.first()
    if first is None:
        return report.passed, report.checked, None
    return (report.passed, report.checked, first.axiom, first.witness,
            first.lhs, first.rhs)


def reference_axioms(field, n, unit, product, basis_product):
    one = field.one

    def items():
        for i in range(n):
            e = {i: one}
            yield 0, "unit-law-left", (i,), product(unit, e), e
            yield 1, "unit-law-right", (i,), product(e, unit), e
        for i in range(n):
            ei = {i: one}
            for j in range(n):
                ij = basis_product(i, j)
                for k in range(n):
                    yield (1, "associativity", (i, j, k),
                           product(ij, {k: one}),
                           product(ei, basis_product(j, k)))

    return certify_exhaustive(items())


def reference_module(handle, act):
    one = handle.field.one

    def items():
        for i in range(handle.dim):
            ei = {i: one}
            for j in range(handle.dim):
                prod = handle.basis_product(i, j)
                for t in range(act.space_dim):
                    yield (1, "module-assoc", (i, j, t),
                           act.act_sv(prod, {t: one}),
                           act.act_sv(ei, act.act_basis(j, t)))

    unit_law = [(1, "module-unit", (j,), act.act_sv(handle.unit, {j: one}),
                 {j: one}) for j in range(act.space_dim)]
    return certify(EXHAUSTIVE, None, items, None, prelude=unit_law)


def reference_handle(handle):
    return reference_axioms(handle.field, handle.dim, handle.unit,
                            handle.product, handle.basis_product)


def bumped(sv, field):
    """sv plus e_k, k its first index (or 0 when sv is zero)."""
    k = min(sv, default=0)
    out = dict(sv)
    out[k] = out.get(k, 0) + field.one
    return sv_canon(field, out)


def corrupted(handle, i0, j0):
    """`handle` with the single basis product e_i0 e_j0 bumped."""
    field = handle.field

    def pair(i, j):
        sv = handle.basis_product(i, j)
        return bumped(sv, field) if (i, j) == (i0, j0) else sv

    return AlgebraHandle(field, handle.factor_dims, handle.basis_labels,
                         handle.unit, pair, "corrupted")


def seeded_pairs(name, which, n, unit):
    """A seeded pair, one in the last left index, and one whose left
    factor is in the support of the unit (a unit law fails first)."""
    rng = random.Random(f"{name}/{which}")
    return [(rng.randrange(n), rng.randrange(n)),
            (n - 1, rng.randrange(n)),
            (min(unit), rng.randrange(n))]


# ---------------------------------------------------------------------------
# algebra associativity on handles

@pytest.mark.parametrize("name", INPUTS)
@pytest.mark.parametrize("which", WHICH)
def test_block_axioms_match_the_triple_stream(name, which):
    handle = built(name)[2][which]
    block = check_handle_axioms(handle, EXHAUSTIVE)
    assert block.passed and block.checked == handle.dim + handle.dim ** 3
    assert summary(block) == summary(reference_handle(handle))
    for i0, j0 in seeded_pairs(name, which, handle.dim, handle.unit):
        bad = corrupted(handle, i0, j0)
        block = check_handle_axioms(bad, EXHAUSTIVE)
        assert not block.passed, (i0, j0)
        assert summary(block) == summary(reference_handle(bad)), (i0, j0)


def test_unit_law_is_tripped_before_any_block():
    handle = built("cyclic:3")[2]["Z"]
    u = min(handle.unit)
    report = check_handle_axioms(corrupted(handle, u, 5), EXHAUSTIVE)
    assert report.first().axiom == "unit-law-left"
    assert report.first().witness == (5,)


def test_checked_counts_whole_blocks_then_items():
    handle = built("cyclic:3")[2]["Y"]
    n = handle.dim
    report = check_handle_axioms(corrupted(handle, n - 1, 7), EXHAUSTIVE)
    axiom, (i, j, t) = report.first().axiom, report.first().witness
    assert axiom == "associativity" and i > 0
    # n unit items, i whole blocks of n*n, then block i item by item
    assert report.checked == n + i * n * n + j * n + t + 1


# ---------------------------------------------------------------------------
# algebra associativity on structure constants

def _mult_edits(alg):
    """Three edits of the structure constants: bump an entry, drop one,
    add one where the product was zero."""
    rng = random.Random(alg.dim)
    keys = sorted(alg.mult)
    zero_keys = [(i, j) for i in range(alg.dim) for j in range(alg.dim)
                 if (i, j) not in alg.mult]
    bump = keys[rng.randrange(len(keys))]
    drop = keys[rng.randrange(len(keys))]
    add = zero_keys[rng.randrange(len(zero_keys))]
    edits = []
    for key, entries in ((bump, bumped(alg.mult[bump], alg.field)),
                         (drop, None),
                         (add, {rng.randrange(alg.dim): alg.field.one})):
        mult = dict(alg.mult)
        if entries is None:
            del mult[key]
        else:
            mult[key] = entries
        edits.append(AlgebraData(alg.field, alg.dim, alg.basis_labels, mult,
                                 alg.unit))
    return edits


@pytest.mark.parametrize("name,which", [("cyclic:2", "X"), ("cyclic:3", "Z"),
                                        ("dual_cyclic:3", "right_smash")])
def test_block_axioms_on_structure_constants(name, which):
    alg = materialize(built(name)[2][which], cap=81)
    for edited in [alg, *_mult_edits(alg)]:
        block = check_algebra_axioms(edited, EXHAUSTIVE)
        want = reference_axioms(edited.field, edited.dim, edited.unit_sv(),
                                edited.mul_sv, edited.mul_basis)
        assert summary(block) == summary(want)
    assert check_algebra_axioms(alg, EXHAUSTIVE).passed


# ---------------------------------------------------------------------------
# module associativity

def scaled_action(act, key, factor):
    """`act` with the entry at `key` scaled by `factor`; an absent entry
    becomes factor times the first basis vector."""
    tensor = {k: dict(v) for k, v in act.tensor.items()}
    tensor[key] = ({k: factor * c for k, c in tensor.get(key, {}).items()}
                   or {0: factor})
    return ActionData(act.field, act.actor_dim, act.space_dim, act.side,
                      tensor)


@pytest.mark.parametrize("name", ("cyclic:2", "cyclic:3"))
@pytest.mark.parametrize("which", WHICH)
def test_block_module_check_matches_the_triple_stream(name, which):
    hopf, setup, handles = built(name)
    handle = handles[which]
    module = example_bimodule(hopf, "regular")
    act = derived_action(module, hopf, which, setup)
    block = check_module_over_handle(handle, act, EXHAUSTIVE)
    assert block.passed
    assert block.checked == act.space_dim * (1 + handle.dim ** 2)
    assert summary(block) == summary(reference_module(handle, act))
    rng = random.Random(f"{name}/{which}/module")
    keys = sorted(act.tensor)
    for key in (keys[rng.randrange(len(keys))], keys[-1],
                (handle.dim - 1, act.space_dim - 1)):
        bad = scaled_action(act, key, 2)
        block = check_module_over_handle(handle, bad, EXHAUSTIVE)
        assert not block.passed, key
        assert summary(block) == summary(reference_module(handle, bad)), key
    bad = corrupted(handle, handle.dim - 1, rng.randrange(handle.dim))
    block = check_module_over_handle(bad, act, EXHAUSTIVE)
    assert not block.passed
    assert summary(block) == summary(reference_module(bad, act))


# ---------------------------------------------------------------------------
# scale and oracle economy

def _record_rows(handle):
    seen = []
    row_fn = handle._row_fn

    def recorded(i):
        seen.append(i)
        return row_fn(i)

    handle._row_fn = recorded
    return seen


# each pair is evaluated once: the row builder runs once per left index
def test_exhaustive_run_evaluates_every_pair_once(cyclic3, setup_c3):
    handle = build_xyz(cyclic3, "X", setup_c3)
    seen = _record_rows(handle)
    assert check_handle_axioms(handle, EXHAUSTIVE).passed
    assert sorted(seen) == list(range(handle.dim))


def test_exhaustive_module_run_evaluates_every_pair_once(cyclic3, setup_c3):
    handle = build_xyz(cyclic3, "Y", setup_c3)
    act = derived_action(example_bimodule(cyclic3, "regular"), cyclic3, "Y",
                         setup_c3)
    seen = _record_rows(handle)
    assert check_module_over_handle(handle, act, EXHAUSTIVE).passed
    assert sorted(seen) == list(range(handle.dim))


def test_exhaustive_associativity_at_dim_256(sweedler, setup_sw):
    handle = build_xyz(sweedler, "Z", setup_sw)
    report = check_handle_axioms(handle, EXHAUSTIVE)
    assert report.passed and report.mode.kind == "exhaustive"
    assert report.checked == 256 + 256 ** 3 == 16_777_472
