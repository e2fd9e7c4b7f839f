"""Sweedler's 4-dimensional algebra is the Taft algebra T_2.

The catalog lists sweedler4 on 1, g, x, gx (x-major) and taft:2:p on
g^i x^j with g major, so over F_p the two are one algebra under the
basis permutation that swaps g and x.  Over F_2, where -1 = 1, there is
no sweedler4, and the parser refuses it as it refuses a taft spec
without a root of unity.
"""

import pytest

from hopfcross import cli
from hopfcross.catalog import catalog_named, parse_catalog_spec
from hopfcross.fields import PrimeField

PERM = [0, 2, 1, 3]       # taft index -> sweedler4 index, an involution


def _permuted(hopf):
    """`hopf` on the basis reordered by PERM, in the shapes of its data."""
    alg, coa = hopf.algebra, hopf.coalgebra
    labels = [None] * 4
    for t, label in enumerate(alg.basis_labels):
        labels[PERM[t]] = label
    mult = {(PERM[a], PERM[b]): {PERM[k]: c for k, c in entries.items()}
            for (a, b), entries in alg.mult.items()}
    unit = [alg.unit[PERM[t]] for t in range(4)]
    comult = {PERM[t]: {(PERM[j], PERM[k], c) for j, k, c in terms}
              for t, terms in coa.comult.items()}
    counit = [coa.counit[PERM[t]] for t in range(4)]
    antipode = [[hopf.antipode[PERM[r]][PERM[c]] for c in range(4)]
                for r in range(4)]
    return labels, mult, unit, comult, counit, antipode


def _plain(hopf):
    alg, coa = hopf.algebra, hopf.coalgebra
    comult = {t: set(terms) for t, terms in coa.comult.items()}
    return (alg.basis_labels, alg.mult, alg.unit, comult, coa.counit,
            hopf.antipode)


@pytest.mark.parametrize("p", (3, 5, 7, 11, 13))
def test_sweedler4_over_fp_is_taft_2_p_with_g_and_x_swapped(p):
    sweedler = catalog_named("sweedler4", PrimeField(p))
    taft = catalog_named(f"taft:2:{p}")
    assert sweedler.algebra.basis_labels == ["1", "g", "x", "gx"]
    assert _permuted(taft) == _plain(sweedler)


def test_sweedler4_in_characteristic_2_is_refused_by_the_parser(capsys):
    with pytest.raises(ValueError, match="no primitive root of unity of "
                                         "order 2"):
        parse_catalog_spec("sweedler4", PrimeField(2))
    assert cli.main(["describe", "--catalog", "sweedler4", "--field", "2"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    lines = err.splitlines()
    assert len(lines) == 1
    assert "--catalog" in lines[0] and "'sweedler4'" in lines[0]
