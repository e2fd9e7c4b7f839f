"""The two arrow actions of K = H (x) H^op on the dual, checked against
the evaluation oracles of `test_actions.py`.

`StandardTriple.act_on_dual` is (h (x) g).f = h -> f <- g, and
`act_on_dual_op` is f.(h (x) g) = S(h) -> f <- S^-1(g).  The displayed
formula tests of `test_crossed.py` read the same tables through
`arrow_basis` and `arrow_sv`, so here every entry is recomputed from
(h -> f)(h') = f(h' h) and (f <- h')(h) = f(h' h), with S and S^-1 read
off the antipode matrix and its inverse.
"""

import pytest

from hopfcross.catalog import catalog_named
from hopfcross.crossed import StandardTriple
from hopfcross.linalg import mat_inv, sv_canon

from test_actions import oracle_left_arrow, oracle_right_arrow


def column(matrix, j):
    return {r: row[j] for r, row in enumerate(matrix) if row[j]}


def oracle_arrow(hopf, h_sv, j, g_sv):
    """h -> e^j <- g for sparse h and g over H, from the oracles."""
    field = hopf.field
    acc = {}
    for v, cv in g_sv.items():
        right = oracle_right_arrow(hopf, {j: field.one}, v)
        for u, cu in h_sv.items():
            for t, c in oracle_left_arrow(hopf, u, right).items():
                acc[t] = acc.get(t, 0) + cu * cv * c
    return sv_canon(field, acc)


@pytest.mark.parametrize(
    "name", ["cyclic:2", "cyclic:3", "dual_cyclic:3", "sweedler4", "taft:2:5"])
def test_arrow_tables_match_the_evaluation_oracle(name):
    hopf = catalog_named(name)
    setup = StandardTriple(hopf)
    field, n = hopf.field, hopf.dim
    one = field.one
    s = hopf.antipode
    s_inv = mat_inv(field, s)
    for u in range(n):
        for v in range(n):
            kappa = u * n + v
            for j in range(n):
                assert (setup.act_on_dual.act_basis(kappa, j)
                        == oracle_arrow(hopf, {u: one}, j, {v: one}))
                assert (setup.act_on_dual_op.act_basis(kappa, j)
                        == oracle_arrow(hopf, column(s, u), j,
                                        column(s_inv, v)))
