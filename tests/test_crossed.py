import random

import pytest

from hopfcross.algebra import AlgebraData, check_algebra_axioms, tensor_algebra
from hopfcross.actions import regular_actions, trivial_action
from hopfcross.catalog import catalog_named
from hopfcross.crossed import (AlgebraHandle, StandardTriple, build_xyz,
                               check_handle_axioms,
                               diagonal_crossed, handle_from_algebra,
                               left_smash, materialize, right_smash,
                               smash_handles, two_sided_crossed)
from hopfcross.errors import CapExceededError, UnverifiedActionError
from hopfcross.fields import QQ
from hopfcross.linalg import sv_canon, sv_tensor, unflatten_index
from hopfcross.report import CheckMode


# ---------------------------------------------------------------------------
# independent oracles: the displayed multiplication rules, written directly

def oracle_y_product(setup, i, j):
    """(p#(h(x)g)#q)(p'#(h'(x)g')#q') = sum p(h1->p'<-g1) # (h2h'1 (x) g'1g2)
    # q'(S(h'2)->q<-S^-1(g'2)); products in the last two slots taken in H
    and in the dual, not in the opposites."""
    hopf = setup.hopf
    n = setup.n
    dims = (n, n, n, n)
    p, h, g, q = unflatten_index(i, dims)
    p2, h2, g2, q2 = unflatten_index(j, dims)
    dual = setup.dual.algebra
    hmul = hopf.algebra.mul_basis
    acc = {}
    for h_1, h_2, ch in hopf.coalgebra.delta(h):
        for g_1, g_2, cg in hopf.coalgebra.delta(g):
            for hp_1, hp_2, chp in hopf.coalgebra.delta(h2):
                for gp_1, gp_2, cgp in hopf.coalgebra.delta(g2):
                    w = ch * cg * chp * cgp
                    slot1 = dual.mul_sv({p: 1}, setup.arrow_basis(h_1, p2, g_1))
                    mid_h = hmul(h_2, hp_1)
                    mid_g = hmul(gp_1, g_2)
                    tw = setup.arrow_sv(setup.s_col(hp_2), {q: 1},
                                        setup.s_inv_col(gp_2))
                    slot4 = dual.mul_sv({q2: 1}, tw)
                    for t1, c1 in slot1.items():
                        for t2, c2 in mid_h.items():
                            for t3, c3 in mid_g.items():
                                for t4, c4 in slot4.items():
                                    key = ((t1 * n + t2) * n + t3) * n + t4
                                    acc[key] = acc.get(key, 0) + w * c1 * c2 * c3 * c4
    return sv_canon(setup.field, acc)


def oracle_z_product(setup, i, j):
    """((p(x)q)><(h(x)g))((p'(x)q')><(h'(x)g')) =
    sum (p(h1->p'<-g1) (x) (h3->q'<-g3)q) >< (h2h' (x) g'g2)."""
    hopf = setup.hopf
    n = setup.n
    dims = (n, n, n, n)
    p, q, h, g = unflatten_index(i, dims)
    p2, q2, h2, g2 = unflatten_index(j, dims)
    dual = setup.dual.algebra
    hmul = hopf.algebra.mul_basis
    acc = {}
    for h_1, h_2, h_3, ch in hopf.coalgebra.delta2(h):
        for g_1, g_2, g_3, cg in hopf.coalgebra.delta2(g):
            w = ch * cg
            slot1 = dual.mul_sv({p: 1}, setup.arrow_basis(h_1, p2, g_1))
            slot2 = dual.mul_sv(setup.arrow_basis(h_3, q2, g_3), {q: 1})
            mid_h = hmul(h_2, h2)
            mid_g = hmul(g2, g_2)
            for t1, c1 in slot1.items():
                for t2, c2 in slot2.items():
                    for t3, c3 in mid_h.items():
                        for t4, c4 in mid_g.items():
                            key = ((t1 * n + t2) * n + t3) * n + t4
                            acc[key] = acc.get(key, 0) + w * c1 * c2 * c3 * c4
    return sv_canon(setup.field, acc)


@pytest.mark.parametrize("name", ["cyclic:2", "cyclic:3", "sweedler4"])
def test_y_matches_displayed_formula(name, request):
    hopf = catalog_named(name)
    setup = StandardTriple(hopf)
    handle = build_xyz(hopf, "Y", setup)
    n4 = handle.dim
    rng = random.Random(0)
    pairs = ([(i, j) for i in range(n4) for j in range(n4)] if n4 <= 81
             else [(rng.randrange(n4), rng.randrange(n4)) for _ in range(2000)])
    for i, j in pairs:
        assert handle.basis_product(i, j) == oracle_y_product(setup, i, j), (i, j)


@pytest.mark.parametrize("name", ["cyclic:2", "cyclic:3", "sweedler4"])
def test_z_matches_displayed_formula(name):
    hopf = catalog_named(name)
    setup = StandardTriple(hopf)
    handle = build_xyz(hopf, "Z", setup)
    n4 = handle.dim
    rng = random.Random(1)
    pairs = ([(i, j) for i in range(n4) for j in range(n4)] if n4 <= 81
             else [(rng.randrange(n4), rng.randrange(n4)) for _ in range(2000)])
    for i, j in pairs:
        assert handle.basis_product(i, j) == oracle_z_product(setup, i, j), (i, j)


# ---------------------------------------------------------------------------
# the defining properties of the X multiplication

def x_corner(setup, g_sv, h_sv, p_sv, q_sv):
    n = setup.n
    return sv_tensor(setup.field, [g_sv, h_sv, p_sv, q_sv], [n] * 4)


def test_x_defining_properties(sweedler, setup_sw, xyz_sw):
    setup = setup_sw
    handle = xyz_sw["X"]
    n = setup.n
    one_h = setup.hopf.algebra.unit_sv()
    one_d = setup.dual.algebra.unit_sv()
    hmul = setup.hopf.algebra.mul_basis
    dmul = setup.dual.algebra.mul_basis
    for a in range(n):
        for b in range(n):
            # first two slots carry the natural H^op (x) H product
            lhs = handle.product(x_corner(setup, {a: 1}, {b: 1}, one_d, one_d),
                                 x_corner(setup, {b: 1}, {a: 1}, one_d, one_d))
            rhs = sv_canon(QQ, {
                ((t1 * n + t2) * n + t3) * n + t4: c1 * c2 * c3 * c4
                for t1, c1 in hmul(b, a).items()
                for t2, c2 in hmul(b, a).items()
                for t3, c3 in one_d.items()
                for t4, c4 in one_d.items()})
            assert lhs == rhs, (a, b)
            # last two slots carry the natural dual (x) dual-op product
            lhs = handle.product(x_corner(setup, one_h, one_h, {a: 1}, {a: 1}),
                                 x_corner(setup, one_h, one_h, {b: 1}, {b: 1}))
            rhs = sv_canon(QQ, {
                ((t1 * n + t2) * n + t3) * n + t4: c1 * c2 * c3 * c4
                for t1, c1 in one_h.items()
                for t2, c2 in one_h.items()
                for t3, c3 in dmul(a, b).items()
                for t4, c4 in dmul(b, a).items()})
            assert lhs == rhs, (a, b)
    # every basis element factors through its two corners
    for i in range(min(handle.dim, 256)):
        g, h, p, q = unflatten_index(i, (n, n, n, n))
        left = x_corner(setup, {g: 1}, {h: 1}, one_d, one_d)
        right = x_corner(setup, one_h, one_h, {p: 1}, {q: 1})
        assert handle.product(left, right) == {i: 1}, i


def test_x_straightening_rule(sweedler, setup_sw, xyz_sw):
    # ((1(x)1)(x)(p(x)q)) ((g(x)h)(x)(1(x)1)) expands through S and S^-1
    setup = setup_sw
    handle = xyz_sw["X"]
    n = setup.n
    one_h = setup.hopf.algebra.unit_sv()
    one_d = setup.dual.algebra.unit_sv()
    for p in range(n):
        for q in range(n):
            for g in range(n):
                for h in range(n):
                    got = handle.product(
                        x_corner(setup, one_h, one_h, {p: 1}, {q: 1}),
                        x_corner(setup, {g: 1}, {h: 1}, one_d, one_d))
                    acc = {}
                    for h1, h2, h3, ch in setup.hopf.coalgebra.delta2(h):
                        for g1, g2, g3, cg in setup.hopf.coalgebra.delta2(g):
                            w = ch * cg
                            tp = setup.arrow_sv(setup.s_inv_col(h1), {p: 1},
                                                setup.s_col(g1))
                            tq = setup.arrow_sv(setup.s_col(h3), {q: 1},
                                                setup.s_inv_col(g3))
                            for t1, c1 in tp.items():
                                for t2, c2 in tq.items():
                                    key = ((g2 * n + h2) * n + t1) * n + t2
                                    acc[key] = acc.get(key, 0) + w * c1 * c2
                    assert got == sv_canon(QQ, acc), (p, q, g, h)


def test_x_twist_simplifies_for_cocommutative(cyclic3, setup_c3, xyz_c3):
    # for cocommutative H the antipode is involutive, so replacing S^-1 by S
    # in the straightening twist gives the same oracle
    setup = setup_c3
    handle = xyz_c3["X"]
    n = setup.n
    rng = random.Random(5)

    def simplified_pair(i, j):
        g, h, p, q = unflatten_index(i, (n, n, n, n))
        g2, h2, p2, q2 = unflatten_index(j, (n, n, n, n))
        acc = {}
        for hp1, hp2, hp3, c1 in setup.hopf.coalgebra.delta2(h2):
            for gp1, gp2, gp3, c2 in setup.hopf.coalgebra.delta2(g2):
                slot1 = setup.hopf.algebra.mul_basis(gp2, g)
                slot2 = setup.hopf.algebra.mul_basis(h, hp2)
                ptil = setup.arrow_sv(setup.s_col(hp1), {p: 1}, setup.s_col(gp1))
                slot3 = setup.dual.algebra.mul_sv(ptil, {p2: 1})
                qtil = setup.arrow_sv(setup.s_col(hp3), {q: 1}, setup.s_col(gp3))
                slot4 = setup.dual.algebra.mul_sv({q2: 1}, qtil)
                w = c1 * c2
                for t1, a1 in slot1.items():
                    for t2, a2 in slot2.items():
                        for t3, a3 in slot3.items():
                            for t4, a4 in slot4.items():
                                key = ((t1 * n + t2) * n + t3) * n + t4
                                acc[key] = acc.get(key, 0) + w * a1 * a2 * a3 * a4
        return sv_canon(setup.field, acc)

    for _ in range(200):
        i, j = rng.randrange(handle.dim), rng.randrange(handle.dim)
        assert handle.basis_product(i, j) == simplified_pair(i, j)


# ---------------------------------------------------------------------------
# generic builders

def test_left_smash_examples(cyclic2, setup_c2):
    left, _ = regular_actions(cyclic2)
    handle = left_smash(setup_c2.dual.algebra, cyclic2, left)
    # (e0 # g)(e1 # 1) = e0 # g since g -> e1 = e0 and e0 e0 = e0
    assert handle.basis_product(0 * 2 + 1, 1 * 2 + 0) == {1: 1}
    # unit law
    e = {3: 1}
    assert handle.product(handle.unit, e) == e
    assert check_handle_axioms(handle, CheckMode.exhaustive()).passed


def test_left_smash_with_trivial_action_is_tensor(sweedler):
    a_alg = catalog_named("dual_cyclic:2").algebra
    act = trivial_action(sweedler, a_alg.dim, "left")
    handle = left_smash(a_alg, sweedler, act)
    plain = tensor_algebra(a_alg, sweedler.algebra)
    assert materialize(handle, cap=16).mult == plain.mult


def test_right_smash_examples(cyclic2, setup_c2):
    _, right = regular_actions(cyclic2)
    handle = right_smash(cyclic2, setup_c2.dual.algebra, right)
    # (h # 1)(g # 1) = hg # 1 when the B slot holds the unit of the dual;
    # the dual unit is e0 + e1, so embed h (x) eps
    eps = setup_c2.dual.algebra.unit_sv()
    x = sv_tensor(QQ, [{1: 1}, eps], [2, 2])
    y = sv_tensor(QQ, [{1: 1}, eps], [2, 2])
    want = sv_tensor(QQ, [{0: 1}, eps], [2, 2])
    assert handle.product(x, y) == want
    # (1 # a)(g # 1) = sum g1 # (a.g2): grouplike g gives g # (a.g)
    xa = sv_tensor(QQ, [{0: 1}, {0: 1}], [2, 2])
    yg = sv_tensor(QQ, [{1: 1}, eps], [2, 2])
    moved = right.act_basis(1, 0)            # e0 <- g = e1
    want = sv_tensor(QQ, [{1: 1}, moved], [2, 2])
    assert handle.product(xa, yg) == want
    assert check_handle_axioms(handle, CheckMode.exhaustive()).passed


def test_right_smash_trivial_action_is_tensor(cyclic3):
    b_alg = catalog_named("dual_cyclic:3").algebra
    act = trivial_action(cyclic3, b_alg.dim, "right")
    handle = right_smash(cyclic3, b_alg, act)
    plain = tensor_algebra(cyclic3.algebra, b_alg)
    assert materialize(handle, cap=16).mult == plain.mult


def test_builders_reject_unverified_actions(cyclic2):
    dual = catalog_named("dual_cyclic:2")
    left, right = regular_actions(cyclic2)
    with pytest.raises(UnverifiedActionError):
        left_smash(dual.algebra, cyclic2, _corrupt(left))
    with pytest.raises(UnverifiedActionError):
        right_smash(cyclic2, dual.algebra, _corrupt(right))


def _corrupt(act):
    from hopfcross.actions import ActionData
    tensor = {k: dict(v) for k, v in act.tensor.items()}
    tensor[(1, 0)] = {0: 1, 1: 1}
    return ActionData(act.field, act.actor_dim, act.space_dim, act.side, tensor)


def test_two_sided_embeddings_are_multiplicative(cyclic2, setup_c2, xyz_c2):
    # (a#1#1)(1#h#1)(1#1#b) = a#h#b
    setup = setup_c2
    handle = build_xyz(cyclic2, "Y", setup)
    da, dk, db = 2, 4, 2
    one_a = setup.dual.algebra.unit_sv()
    one_k = setup.K.algebra.unit_sv()
    one_b = {k: v for k, v in one_a.items()}
    for a in range(da):
        for h in range(dk):
            for b in range(db):
                x = sv_tensor(QQ, [{a: 1}, one_k, one_b], [da, dk, db])
                y = sv_tensor(QQ, [one_a, {h: 1}, one_b], [da, dk, db])
                z = sv_tensor(QQ, [one_a, one_k, {b: 1}], [da, dk, db])
                got = handle.product(handle.product(x, y), z)
                assert got == {(a * dk + h) * db + b: 1}


def test_two_sided_with_dim1_h_collapses(cyclic2):
    one_dim = catalog_named("cyclic:1")
    a_alg = catalog_named("dual_cyclic:2").algebra
    b_alg = catalog_named("dual_cyclic:3").algebra
    handle = two_sided_crossed(a_alg, one_dim, b_alg,
                               trivial_action(one_dim, a_alg.dim, "left"),
                               trivial_action(one_dim, b_alg.dim, "right"))
    mat = materialize(handle, cap=16)
    plain = tensor_algebra(a_alg, b_alg)
    # the middle slot has dimension one, so indices agree directly
    assert mat.mult == plain.mult
    assert mat.unit == plain.unit


def test_two_sided_trivial_actions_give_tensor(cyclic2, setup_c2):
    a_alg = setup_c2.dual.algebra
    b_alg = setup_c2.dual_op_alg
    handle = two_sided_crossed(a_alg, cyclic2, b_alg,
                               trivial_action(cyclic2, 2, "left"),
                               trivial_action(cyclic2, 2, "right"))
    plain = tensor_algebra(tensor_algebra(a_alg, cyclic2.algebra), b_alg)
    assert materialize(handle, cap=8).mult == plain.mult


def test_diagonal_subalgebras(cyclic2, setup_c2, xyz_c2):
    handle = xyz_c2["Z"]
    setup = setup_c2
    dc, dk = 4, 4
    one_c = setup.C.unit_sv()
    one_k = setup.K.algebra.unit_sv()
    cmul = setup.C.mul_basis
    kmul = setup.K.algebra.mul_basis
    for c in range(dc):
        for c2 in range(dc):
            x = sv_tensor(QQ, [{c: 1}, one_k], [dc, dk])
            y = sv_tensor(QQ, [{c2: 1}, one_k], [dc, dk])
            want = sv_tensor(QQ, [cmul(c, c2), one_k], [dc, dk])
            assert handle.product(x, y) == want
    for h in range(dk):
        for h2 in range(dk):
            x = sv_tensor(QQ, [one_c, {h: 1}], [dc, dk])
            y = sv_tensor(QQ, [one_c, {h2: 1}], [dc, dk])
            want = sv_tensor(QQ, [one_c, kmul(h, h2)], [dc, dk])
            assert handle.product(x, y) == want


def test_diagonal_trivial_actions_give_tensor(cyclic2, setup_c2):
    c_alg = setup_c2.C
    handle = diagonal_crossed(c_alg, cyclic2,
                              trivial_action(cyclic2, c_alg.dim, "left"),
                              trivial_action(cyclic2, c_alg.dim, "right"))
    plain = tensor_algebra(c_alg, cyclic2.algebra)
    assert materialize(handle, cap=8).mult == plain.mult


def test_xyz_dims(cyclic2, sweedler, setup_c2, setup_sw):
    assert build_xyz(cyclic2, "X", setup_c2).dim == 16
    assert build_xyz(sweedler, "Z", setup_sw).dim == 256


def test_z_unit_on_random_vectors(cyclic2, xyz_c2):
    from hopfcross.algebra import random_dense_vector
    handle = xyz_c2["Z"]
    rng = random.Random(0)
    unit = handle.unit_dense()
    for _ in range(50):
        x = random_dense_vector(QQ, rng, handle.dim)
        assert handle.product_dense(unit, x) == x
        assert handle.product_dense(x, unit) == x


def test_materialize_cap_and_roundtrip(cyclic2, setup_c2):
    handle = build_xyz(cyclic2, "Y", setup_c2)
    with pytest.raises(CapExceededError):
        materialize(handle, cap=8)
    mat = materialize(handle, cap=16)
    assert check_algebra_axioms(mat, CheckMode.exhaustive()).passed
    rewrapped = handle_from_algebra(mat)
    for i in range(handle.dim):
        for j in range(handle.dim):
            assert rewrapped.basis_product(i, j) == handle.basis_product(i, j)


def test_product_dense_matches_sparse(sweedler, xyz_sw):
    from hopfcross.algebra import random_dense_vector
    from hopfcross.linalg import sv_from_list, sv_to_list
    handle = xyz_sw["Y"]
    rng = random.Random(2)
    for _ in range(3):
        x = random_dense_vector(QQ, rng, handle.dim, bound=50)
        y = random_dense_vector(QQ, rng, handle.dim, bound=50)
        dense = handle.product_dense(x, y)
        sparse = handle.product(sv_from_list(QQ, x), sv_from_list(QQ, y))
        assert sv_to_list(sparse, handle.dim) == dense


def test_embedded_k_copies_match_tensor_hopf(cyclic2, setup_c2, xyz_c2):
    # inside Y and Z the slots holding K multiply exactly as K itself
    setup = setup_c2
    y, z = xyz_c2["Y"], xyz_c2["Z"]
    one_a = setup.dual.algebra.unit_sv()
    one_c = setup.C.unit_sv()
    kmul = setup.K.algebra.mul_basis
    for h in range(4):
        for h2 in range(4):
            want = kmul(h, h2)
            got = y.product(sv_tensor(QQ, [one_a, {h: 1}, one_a], [2, 4, 2]),
                            sv_tensor(QQ, [one_a, {h2: 1}, one_a], [2, 4, 2]))
            assert got == sv_tensor(QQ, [one_a, want, one_a], [2, 4, 2])
            got = z.product(sv_tensor(QQ, [one_c, {h: 1}], [4, 4]),
                            sv_tensor(QQ, [one_c, {h2: 1}], [4, 4]))
            assert got == sv_tensor(QQ, [one_c, want], [4, 4])


# ---------------------------------------------------------------------------
# the compiled-row kernel of product_dense

def _vector_with_zeros(field, rng, dim):
    """A dense vector with about a third of its coordinates zero."""
    return [field.zero if rng.random() < 1 / 3
            else field.div(rng.randint(1, 9), rng.randint(1, 4))
            for _ in range(dim)]


def _record_pairs(handle):
    """Wrap the handle's oracle; returns the list of pairs it evaluates."""
    seen = []
    pair_fn = handle._pair_fn

    def recorded(i, j):
        seen.append((i, j))
        return pair_fn(i, j)

    handle._pair_fn = recorded
    return seen


def test_product_dense_evaluates_only_pairs_of_nonzero_coordinates(
        taft25, setup_taft):
    # rows compile from the generator products of the builder, so a dense
    # product evaluates no pair at all, and compiles exactly the rows i
    # with x_i != 0
    handle = build_xyz(taft25, "Y", setup_taft)
    field, n = handle.field, handle.dim
    seen = _record_pairs(handle)
    rng = random.Random(5)
    x = _vector_with_zeros(field, rng, n)
    y = _vector_with_zeros(field, rng, n)
    handle.product_dense(x, y)
    assert seen == []
    y_full = [field.one] * n
    handle.product_dense(x, y_full)
    assert seen == []
    handle.product_dense(x, y)
    assert seen == []
    assert all((handle._rows[i] is not None) == (x[i] != 0) for i in range(n))


@pytest.mark.parametrize("name,setup_name", [("sweedler", "setup_sw"),
                                             ("taft25", "setup_taft")])
def test_compiled_rows_match_cold_and_sparse_products(name, setup_name,
                                                      request):
    from hopfcross.linalg import sv_from_list, sv_to_list
    hopf = request.getfixturevalue(name)
    setup = request.getfixturevalue(setup_name)
    for which in ("X", "Y", "Z"):
        handle = build_xyz(hopf, which, setup)
        field, n = handle.field, handle.dim
        rng = random.Random(7)
        x = _vector_with_zeros(field, rng, n)
        y = _vector_with_zeros(field, rng, n)
        cold = handle.product_dense(x, y)
        assert all((handle._rows[i] is not None) == (x[i] != 0)
                   for i in range(n))
        for i in range(n):
            for j in range(n):
                handle.basis_product(i, j)
        warm = handle.product_dense(x, y)
        assert all(row is not None for row in handle._rows)
        sparse = handle.product(sv_from_list(field, x), sv_from_list(field, y))
        assert warm == cold == sv_to_list(sparse, n), which


def test_an_empty_compiled_row_is_still_used():
    # row 1 has no nonzero structure constant, so it compiles to []; the
    # kernel must read it as compiled and not go back to the pair table
    handle = AlgebraHandle(QQ, (3,), ["a", "b", "c"], {0: 1},
                           lambda i, j: {} if i == 1 else {(i + j) % 3: 1},
                           "test")
    for i in range(3):
        for j in range(3):
            handle.basis_product(i, j)
    x = y = [1, 2, 3]
    assert handle.product_dense(x, y) == [7, 11, 6]
    assert handle._rows[1] == []

    def unreachable(i, j):
        raise AssertionError(f"pair ({i}, {j}) evaluated again")

    handle._pair_fn = unreachable
    handle._pairs = [None] * 9
    assert handle.product_dense(x, y) == [7, 11, 6]
