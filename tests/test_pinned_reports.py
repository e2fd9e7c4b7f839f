"""Pinned reports of the eleven checkers that certify the paper's identities.

For each checker: the exact `checked` count of a passing report on one
catalog input, and the first violation (axiom and witness) on one
corrupted input.  The values were recorded from checkers that each ran
their own compare-count-stop loop, so a rewrite of how checks are driven
must reproduce them.
"""

from functools import lru_cache

import pytest

from hopfcross.actions import (ActionData, CoactionData,
                               check_bicomodule_coherence,
                               check_bimodule_algebra, check_coaction_axioms,
                               check_module_algebra, check_module_axioms,
                               comodule_algebra_map, regular_actions)
from hopfcross.algebra import (CoalgebraData, HopfAlgebraData,
                               check_algebra_axioms, check_coalgebra_axioms,
                               check_hopf_axioms, dual_hopf, op_algebra)
from hopfcross.bimodules import (HopfBimoduleData, TripleModuleData,
                                 check_hopf_bimodule, check_module_over_handle,
                                 derived_action, diagonal_module_condition,
                                 example_bimodule, triple_from_bimodule,
                                 triple_module_roundtrip,
                                 verify_action_correspondence,
                                 verify_f_correspondence)
from hopfcross.catalog import catalog_named
from hopfcross.crossed import StandardTriple, build_xyz, check_handle_axioms
from hopfcross.isos import build_iso, verify_algebra_morphism


@lru_cache(maxsize=None)
def hopf(name):
    return catalog_named(name)


@lru_cache(maxsize=None)
def setup(name):
    return StandardTriple(hopf(name))


def scaled_action(act, key, factor):
    """`act` with the entry at `key` scaled by `factor`; an absent entry
    becomes factor times the first basis vector."""
    tensor = {k: dict(v) for k, v in act.tensor.items()}
    tensor[key] = ({k: factor * c for k, c in tensor.get(key, {}).items()}
                   or {0: factor})
    return ActionData(act.field, act.actor_dim, act.space_dim, act.side,
                      tensor)


def with_comult(h, i, terms):
    coa = h.coalgebra
    comult = {**coa.comult, i: terms}
    return HopfAlgebraData(h.algebra, CoalgebraData(
        coa.field, coa.dim, coa.basis_labels, comult, list(coa.counit)),
        h.antipode)


def swapped_comult(h, i):
    """H with the legs of Delta(e_i) swapped: a coalgebra still, but Delta
    is no longer multiplicative."""
    return with_comult(h, i, [(k, j, c) for j, k, c in h.coalgebra.delta(i)])


def triple_args(name):
    st = setup(name)
    return (st.dual.algebra, st.K, st.dual_op_alg, st.act_on_dual,
            st.act_on_dual_op)


def regular_triple(name):
    return triple_from_bimodule(example_bimodule(hopf(name), "regular"),
                                hopf(name), setup(name))


def c_action(module, n):
    """(p (x) q).m = p.m.q as a left action of D (x) D^op."""
    tensor = {}
    for p in range(n):
        for q in range(n):
            for j in range(module.space_dim):
                sv = module.left_act.act_sv(
                    {p: 1}, module.right_act.act_basis(q, j))
                if sv:
                    tensor[(p * n + q, j)] = sv
    return ActionData(module.field, n * n, module.space_dim, "left", tensor)


def diagonal_args(name):
    st = setup(name)
    return (st.C, st.K, st.act_left_C, st.act_right_C)


def left_coaction_cut(module, j):
    """The left coaction with all but the first leg of m_j dropped."""
    tensor = {**module.left_co.tensor, j: module.left_co.legs(j)[:1]}
    return CoactionData(module.field, module.space_dim,
                        module.left_co.coalgebra_dim, "left", tensor)


def trivial_left_coaction(module, h):
    """m -> 1 (x) m: coassociative, counital and coherent with the right
    coaction of the regular bimodule, but not compatible with the action."""
    unit = dual_hopf(h).algebra.unit
    legs = [(c, u) for c, u in enumerate(unit) if u]
    tensor = {j: [(c, j, u) for c, u in legs]
              for j in range(module.space_dim)}
    return CoactionData(module.field, module.space_dim, h.dim, "left", tensor)


# checker: (passing report, its checked count,
#           failing report, its first (axiom, witness))
CASES = {
    "check_module_axioms": (
        lambda: check_module_axioms(regular_actions(hopf("sweedler4"))[0],
                                    hopf("sweedler4").algebra), 68,
        lambda: check_module_axioms(
            scaled_action(regular_actions(hopf("sweedler4"))[0], (1, 1), 2),
            hopf("sweedler4").algebra),
        ("module-assoc-left", (1, 1, 0))),
    "check_module_algebra": (
        lambda: check_module_algebra(
            "left", setup("sweedler4").K, setup("sweedler4").dual.algebra,
            setup("sweedler4").act_on_dual), 1284,
        lambda: check_module_algebra(
            "left", hopf("sweedler4"),
            op_algebra(dual_hopf(hopf("sweedler4")).algebra),
            regular_actions(hopf("sweedler4"))[0]),
        ("module-algebra-left", (2, 0, 2))),
    "check_coaction_axioms": (
        lambda: check_coaction_axioms(
            example_bimodule(hopf("sweedler4"), "free", 1).left_co,
            dual_hopf(hopf("sweedler4")).coalgebra), 16,
        lambda: check_coaction_axioms(
            left_coaction_cut(example_bimodule(hopf("sweedler4"), "free", 1),
                              1),
            dual_hopf(hopf("sweedler4")).coalgebra),
        ("coaction-coassoc-left", (1,))),
    "check_bicomodule_coherence": (
        lambda: check_bicomodule_coherence(
            example_bimodule(hopf("sweedler4"), "free", 1).left_co,
            example_bimodule(hopf("sweedler4"), "free", 1).right_co), 16,
        lambda: check_bicomodule_coherence(
            left_coaction_cut(example_bimodule(hopf("sweedler4"), "free", 1),
                              1),
            example_bimodule(hopf("sweedler4"), "free", 1).right_co),
        ("bicomodule-coherence", (1,))),
    "check_bimodule_algebra": (
        lambda: check_bimodule_algebra(
            setup("cyclic:3").K, setup("cyclic:3").C,
            setup("cyclic:3").act_left_C, setup("cyclic:3").act_right_C),
        3663,
        lambda: check_bimodule_algebra(
            setup("cyclic:3").K, setup("cyclic:3").C,
            setup("cyclic:3").act_left_C,
            scaled_action(setup("cyclic:3").act_right_C, (1, 1), 2)),
        ("module-assoc-right", (1, 1, 0))),
    "comodule_algebra_map": (
        lambda: comodule_algebra_map(hopf("sweedler4"))[1], 20,
        lambda: comodule_algebra_map(swapped_comult(hopf("sweedler4"), 2))[1],
        ("comodule-algebra-map", (0, 2))),
    "check_coalgebra_axioms": (
        lambda: check_coalgebra_axioms(hopf("sweedler4").coalgebra), 4,
        lambda: check_coalgebra_axioms(with_comult(
            hopf("sweedler4"), 2,
            [(j, k, 2 * c) for j, k, c in hopf("sweedler4").coalgebra.delta(2)]
        ).coalgebra),
        ("coassociativity", (2,))),
    "check_hopf_axioms": (
        lambda: check_hopf_axioms(hopf("sweedler4")), 92,
        lambda: check_hopf_axioms(swapped_comult(hopf("sweedler4"), 2)),
        ("comult-multiplicative", (1, 2))),
    "check_hopf_bimodule": (
        lambda: check_hopf_bimodule(
            example_bimodule(hopf("sweedler4"), "regular"), hopf("sweedler4")),
        276,
        lambda: check_hopf_bimodule(_trivially_coacted("sweedler4"),
                                    hopf("sweedler4")),
        ("compat-left-coaction-left-action", (0, 0))),
    "triple_module_roundtrip": (
        lambda: triple_module_roundtrip(regular_triple("cyclic:2"),
                                        *triple_args("cyclic:2")), 602,
        lambda: triple_module_roundtrip(
            _scaled_triple(regular_triple("cyclic:2"), "b_act", (0, 0), 3),
            *triple_args("cyclic:2")),
        ("condition-ii-inverse-form", (0, 1, 0))),
    "diagonal_module_condition": (
        lambda: diagonal_module_condition(
            c_action(example_bimodule(hopf("cyclic:2"), "regular"), 2),
            regular_triple("cyclic:2").h_act, *diagonal_args("cyclic:2")),
        546,
        lambda: diagonal_module_condition(
            scaled_action(c_action(example_bimodule(hopf("cyclic:2"),
                                                    "regular"), 2), (1, 1), 2),
            regular_triple("cyclic:2").h_act, *diagonal_args("cyclic:2")),
        ("diagonal-condition", (1, 1, 1))),
}


def _trivially_coacted(name):
    module = example_bimodule(hopf(name), "regular")
    return HopfBimoduleData(module.field, module.space_dim, module.left_act,
                            module.right_act,
                            trivial_left_coaction(module, hopf(name)),
                            module.right_co)


def _scaled_triple(triple, slot, key, factor):
    acts = {"a_act": triple.a_act, "h_act": triple.h_act,
            "b_act": triple.b_act}
    acts[slot] = scaled_action(acts[slot], key, factor)
    return TripleModuleData(triple.space_dim, **acts)


@pytest.mark.parametrize("checker", sorted(CASES))
def test_passing_count_is_pinned(checker):
    passing, checked, _, _ = CASES[checker]
    rep = passing()
    assert rep.passed, rep.first()
    assert rep.checked == checked


@pytest.mark.parametrize("checker", sorted(CASES))
def test_first_violation_is_pinned(checker):
    _, _, failing, (axiom, witness) = CASES[checker]
    rep = failing()
    assert not rep.passed
    assert (rep.first().axiom, rep.first().witness) == (axiom, witness)


def test_triple_roundtrip_reaches_condition_iii():
    rep = triple_module_roundtrip(
        _scaled_triple(regular_triple("cyclic:2"), "a_act", (1, 0), 2),
        *triple_args("cyclic:2"))
    assert not rep.passed
    assert (rep.first().axiom, rep.first().witness) == (
        "condition-iii-inverse-form", (1, 0, 0))


def _reports_of_every_checker():
    """One report from each checker that certifies an identity."""
    c2, st = hopf("cyclic:2"), setup("cyclic:2")
    module = example_bimodule(c2, "regular")
    triple = regular_triple("cyclic:2")
    handle = build_xyz(c2, "Y", st)
    yield "check_algebra_axioms", check_algebra_axioms(c2.algebra)
    yield "check_handle_axioms", check_handle_axioms(handle)
    yield "check_module_over_handle", check_module_over_handle(
        handle, derived_action(module, c2, "Y", st))
    yield "verify_algebra_morphism", verify_algebra_morphism(
        build_iso("phi", c2, st), build_xyz(c2, "X", st), handle)
    yield "verify_action_correspondence", verify_action_correspondence(
        module, c2, st)
    yield "verify_f_correspondence", verify_f_correspondence(
        triple, module, c2, st)
    for checker, (passing, _, failing, _) in sorted(CASES.items()):
        yield checker, passing()
        yield checker, failing()


def test_every_checker_records_its_mode():
    unset = [name for name, rep in _reports_of_every_checker()
             if rep.mode is None]
    assert unset == []
