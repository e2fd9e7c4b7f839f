from fractions import Fraction

import pytest

from hopfcross.algebra import (AlgebraData, HopfAlgebraData,
                               antipode_inverse, check_algebra_axioms,
                               check_coalgebra_axioms, check_hopf_axioms,
                               dual_hopf, op_algebra, tensor_algebra,
                               tensor_hopf, trace_form_radical, variant)
from hopfcross.catalog import catalog_named
from hopfcross.errors import FieldMismatchError
from hopfcross.fields import PrimeField, QQ
from hopfcross.linalg import LinearMap
from hopfcross.report import CheckMode


def z2_group_algebra():
    mult = {(0, 0): {0: 1}, (0, 1): {1: 1}, (1, 0): {1: 1}, (1, 1): {0: 1}}
    return AlgebraData(QQ, 2, ["1", "g"], mult, [1, 0])


def test_group_algebra_passes():
    rep = check_algebra_axioms(z2_group_algebra())
    assert rep.passed and rep.checked == 10


def test_zero_unit_gives_witness():
    alg = z2_group_algebra()
    alg.unit = [0, 0]
    rep = check_algebra_axioms(alg)
    assert not rep.passed
    v = rep.first()
    assert v.axiom.startswith("unit-law")
    assert v.witness == (0,)


def test_random_mode_on_small_algebra():
    rep = check_algebra_axioms(z2_group_algebra(),
                               CheckMode.random(trials=20, seed=0))
    assert rep.passed and rep.checked == 20


def test_random_mode_catches_broken_associativity():
    mult = {(0, 0): {0: 1}, (0, 1): {1: 1}, (1, 0): {1: 1}, (1, 1): {1: 1}}
    alg = AlgebraData(QQ, 2, ["1", "g"], mult, [1, 0])
    # e1 e1 = e1 breaks nothing by itself; corrupt to a nonassociative table
    alg.mult[(1, 1)] = {0: 1, 1: 1}
    exhaustive = check_algebra_axioms(alg, CheckMode.exhaustive())
    randomized = check_algebra_axioms(alg, CheckMode.random(trials=20, seed=1))
    assert exhaustive.passed == randomized.passed


def test_index_out_of_range_rejected():
    with pytest.raises(IndexError):
        AlgebraData(QQ, 2, ["a", "b"], {(0, 2): {0: 1}}, [1, 0])
    with pytest.raises(IndexError):
        AlgebraData(QQ, 2, ["a", "b"], {(0, 0): {5: 1}}, [1, 0])


def test_hopf_axioms_catalog_entries():
    for name in ("cyclic:2", "sweedler4"):
        rep = check_hopf_axioms(catalog_named(name))
        assert rep.passed


def test_sweedler_antipode_sign_flip_detected():
    hopf = catalog_named("sweedler4")
    bad = HopfAlgebraData(hopf.algebra, hopf.coalgebra,
                          [row[:] for row in hopf.antipode])
    bad.antipode[3][2] = 1          # S(x) = +gx instead of -gx
    rep = check_hopf_axioms(bad)
    assert not rep.passed
    v = rep.first()
    assert v.axiom.startswith("antipode")
    assert v.witness == (2,)        # the basis element x witnesses the failure


def test_dual_of_cyclic2_is_pointwise_algebra(cyclic2):
    dual = dual_hopf(cyclic2)
    assert dual.algebra.mul_basis(0, 0) == {0: 1}
    assert dual.algebra.mul_basis(1, 1) == {1: 1}
    assert dual.algebra.mul_basis(0, 1) == {}
    assert dual.algebra.unit == [1, 1]
    # counit of the dual is evaluation at the group unit
    assert dual.coalgebra.counit == [1, 0]


def test_double_dual_identity(sweedler, cyclic3):
    for hopf in (sweedler, cyclic3):
        dd = dual_hopf(dual_hopf(hopf))
        assert dd.algebra.mult == hopf.algebra.mult
        assert dd.algebra.unit == hopf.algebra.unit
        assert {i: sorted(t) for i, t in dd.coalgebra.comult.items()} == \
               {i: sorted(t) for i, t in hopf.coalgebra.comult.items()}
        assert dd.antipode == hopf.antipode


def test_dual_passes_hopf_axioms(sweedler, taft25):
    for hopf in (sweedler, taft25):
        assert check_hopf_axioms(dual_hopf(hopf)).passed


def test_op_of_commutative_is_identity(cyclic2):
    op = variant(cyclic2, "op")
    assert op.algebra.mult == cyclic2.algebra.mult
    assert check_hopf_axioms(op).passed


def test_op_is_involution(sweedler):
    opop = variant(variant(sweedler, "op"), "op")
    assert opop.algebra.mult == sweedler.algebra.mult
    assert opop.antipode == sweedler.antipode
    copcop = variant(variant(sweedler, "cop"), "cop")
    assert {i: sorted(t) for i, t in copcop.coalgebra.comult.items()} == \
           {i: sorted(t) for i, t in sweedler.coalgebra.comult.items()}
    assert copcop.antipode == sweedler.antipode


def test_variants_pass_axioms(sweedler):
    for which in ("op", "cop", "op_cop"):
        assert check_hopf_axioms(variant(sweedler, which)).passed


def test_op_antipode_is_inverse_matrix(sweedler, taft25, cyclic3):
    for hopf in (sweedler, taft25, cyclic3):
        op = variant(hopf, "op")
        assert op.antipode == hopf.antipode_inverse().rows


def test_antipode_inverse_properties(sweedler, cyclic3):
    # cyclic: S is an involution, so S^-1 = S
    c = cyclic3
    assert antipode_inverse(c).rows == c.antipode
    # sweedler: S has order 4, S^-1 != S but (S^-1)^2 = S^2
    s = sweedler
    s_map = s.antipode_map()
    s_inv = antipode_inverse(s)
    assert s_inv.rows != s.antipode
    assert s_inv.compose(s_map).is_identity()
    assert s_map.compose(s_inv).is_identity()
    assert s_inv.compose(s_inv).rows == s_map.compose(s_map).rows
    # S^2(x) = -x on the nilpotent generator
    s2 = s_map.compose(s_map)
    assert s2.col_sv(2) == {2: -1}
    # S^4 = id
    assert s2.compose(s2).is_identity()


def test_tensor_hopf_dimensions_and_unit(cyclic2):
    k = tensor_hopf(cyclic2, variant(cyclic2, "op"))
    assert k.dim == 4
    assert k.algebra.unit == [1, 0, 0, 0]
    assert check_hopf_axioms(k).passed


def test_tensor_antipode_is_s_tensor_s_inverse(sweedler):
    # the antipode of H (x) H^op, acting on the right factor through S^-1
    k = tensor_hopf(sweedler, variant(sweedler, "op"))
    n = sweedler.dim
    s = sweedler.antipode
    s_inv = sweedler.antipode_inverse().rows
    for r1 in range(n):
        for r2 in range(n):
            for c1 in range(n):
                for c2 in range(n):
                    assert k.antipode[r1 * n + r2][c1 * n + c2] == \
                        s[r1][c1] * s_inv[r2][c2]


def test_tensor_field_mismatch():
    with pytest.raises(FieldMismatchError):
        tensor_hopf(catalog_named("cyclic:2"),
                    catalog_named("cyclic:2", PrimeField(5)))


def test_trace_form_radical_cases(sweedler):
    assert trace_form_radical(z2_group_algebra()) == []
    one_dim = AlgebraData(QQ, 1, ["1"], {(0, 0): {0: 1}}, [1])
    assert trace_form_radical(one_dim) == []
    radical = trace_form_radical(sweedler.algebra)
    assert len(radical) == 2
    # x lies in the radical
    assert [0, 0, 1, 0] in radical


def test_trace_form_radical_rejects_prime_fields():
    alg = AlgebraData(PrimeField(5), 1, ["1"], {(0, 0): {0: 1}}, [1])
    with pytest.raises(ValueError):
        trace_form_radical(alg)


def test_radical_vectors_are_nilpotent(sweedler):
    alg = sweedler.algebra
    n = alg.dim
    for vec in trace_form_radical(alg):
        rows = [[QQ.zero] * n for _ in range(n)]
        for j in range(n):
            out = alg.mul_sv({i: c for i, c in enumerate(vec) if c != 0},
                             {j: 1})
            for k, c in out.items():
                rows[k][j] = c
        left_mult = LinearMap(QQ, n, n, rows)
        power = left_mult
        for _ in range(n - 1):
            power = left_mult.compose(power)
        assert all(all(c == 0 for c in row) for row in power.rows)


def test_op_algebra_and_tensor_algebra():
    a = z2_group_algebra()
    assert op_algebra(a).mult == a.mult      # commutative
    t = tensor_algebra(a, a)
    assert t.dim == 4
    assert check_algebra_axioms(t).passed


def test_coalgebra_check_catches_broken_coassociativity(cyclic2):
    coa = cyclic2.coalgebra
    broken = type(coa)(coa.field, coa.dim, coa.basis_labels,
                       {0: [(0, 0, 1)], 1: [(1, 1, 1), (0, 0, 1)]},
                       list(coa.counit))
    rep = check_coalgebra_axioms(broken)
    assert not rep.passed


@pytest.mark.parametrize("trials", [0, -3])
def test_random_mode_needs_a_trial(trials):
    with pytest.raises(ValueError):
        CheckMode.random(trials=trials)


def test_report_records_the_mode_used(cyclic2):
    rep = check_algebra_axioms(cyclic2.algebra)
    assert rep.mode == CheckMode.exhaustive()
    assert rep.checked == 2 + 2 ** 3
    mode = CheckMode.random(trials=3, seed=5)
    rep = check_algebra_axioms(cyclic2.algebra, mode)
    assert rep.mode == mode and rep.checked == 3
