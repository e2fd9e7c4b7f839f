import time

import pytest

from hopfcross.algebra import check_hopf_axioms
from hopfcross.catalog import (catalog_hopf, catalog_named, least_root_of_unity,
                               parse_catalog_spec)
from hopfcross.fields import PrimeField, QQ, is_probable_prime


def test_every_catalog_entry_passes_exhaustively():
    for name in ("cyclic:2", "cyclic:3", "cyclic:5", "dual_cyclic:2",
                 "dual_cyclic:3", "sweedler4", "taft:2:5", "taft:3:7"):
        hopf = catalog_named(name, verify=False)
        rep = check_hopf_axioms(hopf)
        assert rep.passed, f"{name}: {rep.first()}"


def test_cyclic2_antipode_is_identity(cyclic2):
    assert cyclic2.antipode == [[1, 0], [0, 1]]


def test_cyclic_is_commutative_and_cocommutative(cyclic3):
    alg, coa = cyclic3.algebra, cyclic3.coalgebra
    for i in range(3):
        for j in range(3):
            assert alg.mul_basis(i, j) == alg.mul_basis(j, i)
        flipped = sorted((k, j, c) for j, k, c in coa.delta(i))
        assert flipped == sorted(coa.delta(i))


def test_sweedler_is_neither_commutative_nor_cocommutative(sweedler):
    alg, coa = sweedler.algebra, sweedler.coalgebra
    # witnesses: x g = -gx but g x = gx; Delta(x) is not flip-invariant
    assert alg.mul_basis(2, 1) == {3: -1}
    assert alg.mul_basis(1, 2) == {3: 1}
    assert sorted(coa.delta(2)) != sorted((k, j, c) for j, k, c in coa.delta(2))


def test_sweedler_antipode_has_order_four(sweedler):
    s = sweedler.antipode_map()
    s2 = s.compose(s)
    assert not s2.is_identity()
    assert s2.compose(s2).is_identity()
    assert sweedler.antipode != sweedler.antipode_inverse().rows


def test_least_root_of_unity():
    assert least_root_of_unity(5, 2) == 4           # -1 mod 5
    assert least_root_of_unity(7, 3) == 2           # 2^3 = 8 = 1 mod 7
    assert least_root_of_unity(13, 4) == 5
    with pytest.raises(ValueError):
        least_root_of_unity(7, 4)                   # 4 does not divide 6


def _least_root_by_search(p, n):
    """The reference: the first residue whose order is exactly n."""
    for r in range(1, p):
        x, order = r, 1
        while x != 1 and order <= n:
            x = x * r % p
            order += 1
        if order == n:
            return r
    return None


def test_least_root_of_unity_agrees_with_search():
    for p in range(2, 400):
        if not is_probable_prime(p):
            continue
        for n in range(1, p):
            if (p - 1) % n == 0:
                assert least_root_of_unity(p, n) == _least_root_by_search(p, n)


def test_taft_near_the_largest_prime_builds_fast():
    start = time.perf_counter()
    hopf = catalog_named("taft:2:2147483647")
    assert time.perf_counter() - start < 1.0
    assert hopf.dim == 4


def test_taft_2_5_matches_sweedler_over_f5():
    # identical up to the basis permutation (g^i x^j) -> sweedler order,
    # with the sign convention -1 = 4 in F_5
    taft = catalog_named("taft:2:5")
    sw = catalog_named("sweedler4", PrimeField(5))
    perm = {0: 0, 2: 1, 1: 2, 3: 3}    # taft (i*2+j) -> sweedler index
    for (i, j), entries in sw.algebra.mult.items():
        ti = next(k for k, v in perm.items() if v == i)
        tj = next(k for k, v in perm.items() if v == j)
        got = {perm[k]: c for k, c in taft.algebra.mul_basis(ti, tj).items()}
        assert got == entries, (i, j)
    for i in range(4):
        ti = next(k for k, v in perm.items() if v == i)
        got = sorted((perm[j], perm[k], c) for j, k, c in
                     taft.coalgebra.delta(ti))
        assert got == sorted(sw.coalgebra.delta(i))
        assert taft.coalgebra.counit[ti] == sw.coalgebra.counit[i]
    for c in range(4):
        tc = next(k for k, v in perm.items() if v == c)
        col = {perm[r]: taft.antipode[r][tc] for r in range(4)
               if taft.antipode[r][tc] != 0}
        want = {r: sw.antipode[r][c] for r in range(4) if sw.antipode[r][c] != 0}
        assert col == want


def test_invalid_parameters_rejected():
    with pytest.raises(ValueError):
        catalog_named("taft:4:7")                    # 4 does not divide 6
    with pytest.raises(ValueError):
        catalog_named("sweedler4", PrimeField(2))    # characteristic 2
    with pytest.raises(ValueError):
        catalog_named("cyclic:0")
    with pytest.raises(ValueError):
        catalog_named("nosuch:3")
    with pytest.raises(ValueError):
        parse_catalog_spec("taft:2:5", QQ)           # taft forces F_p


def test_spec_parsing_and_str():
    spec = parse_catalog_spec("taft:2:5")
    assert spec.field == PrimeField(5)
    assert str(spec) == "taft:2:5"
    assert str(parse_catalog_spec("sweedler4")) == "sweedler4"
    assert parse_catalog_spec("cyclic:4").params == (4,)


def test_dual_cyclic_counit(cyclic2):
    dual = catalog_named("dual_cyclic:2")
    assert dual.coalgebra.counit == [1, 0]
    assert dual.algebra.unit == [1, 1]
