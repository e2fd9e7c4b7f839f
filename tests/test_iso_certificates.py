"""The inverse and composition certificates of `isos` run through `certify`.

A perturbed map is made as the benchmark's probe makes it: one entry of
the dense matrix moved by one.  Both checks compare column by column, so
the witness is the first column whose image differs.
"""

import random

import pytest

from hopfcross import isos
from hopfcross.isos import (build_iso, composition_identity,
                            verify_mutually_inverse)
from hopfcross.linalg import LinearMap

KINDS = ("phi", "alpha", "beta", "f")


def perturbed(lm, r, c):
    rows = lm.rows
    rows[r][c] = lm.field.canon(rows[r][c] + lm.field.one)
    return LinearMap(lm.field, lm.src_dim, lm.dst_dim, rows)


@pytest.mark.parametrize("kind", KINDS)
def test_inverse_check_is_exhaustive(kind, cyclic2, setup_c2):
    fwd = build_iso(kind, cyclic2, setup_c2)
    bwd = build_iso(kind + "_inv", cyclic2, setup_c2)
    rep = verify_mutually_inverse(fwd, bwd)
    assert rep.passed and rep.checked == 32
    assert rep.mode.kind == "exhaustive"


def test_composition_check_is_exhaustive(cyclic2, setup_c2):
    rep = composition_identity(cyclic2, setup_c2)
    assert rep.passed and rep.checked == 512
    assert rep.mode.kind == "exhaustive"


@pytest.mark.parametrize("seed", range(4))
def test_perturbed_inverse_caught_at_its_column(seed, cyclic2, setup_c2):
    fwd = build_iso("beta", cyclic2, setup_c2)
    bwd = build_iso("beta_inv", cyclic2, setup_c2)
    rng = random.Random(seed)
    r, c = rng.randrange(bwd.dst_dim), rng.randrange(bwd.src_dim)
    bad = perturbed(bwd, r, c)
    # column j of fwd o bad is fwd(bad e_j): the first bad one is j = c
    rep = verify_mutually_inverse(fwd, bad)
    assert rep.mode.kind == "exhaustive"
    assert not rep.passed and rep.checked == c + 1
    first = rep.first()
    assert (first.axiom, first.witness) == ("inverse-forward", (c,))
    assert (first.lhs, first.rhs) == (fwd.apply_sv(bad.col_sv(c)), {c: 1})


@pytest.mark.parametrize("target,axiom", [("beta", "beta-composition"),
                                          ("phi", "beta-composition"),
                                          ("beta_inv", "beta-inv-composition"),
                                          ("alpha_inv", "beta-inv-composition")])
def test_perturbed_composition_caught_at_its_column(target, axiom, cyclic2,
                                                    setup_c2, monkeypatch):
    rng = random.Random(target)
    dim = 16
    r, c = rng.randrange(dim), rng.randrange(dim)

    def build(kind, hopf, setup=None):
        lm = build_iso(kind, hopf, setup)
        return perturbed(lm, r, c) if kind == target else lm

    monkeypatch.setattr(isos, "build_iso", build)
    rep = composition_identity(cyclic2, setup_c2)
    assert rep.mode.kind == "exhaustive"
    assert not rep.passed
    first = rep.first()
    assert (first.axiom, first.witness) == (axiom, (c,))
    assert first.lhs != first.rhs
    half = 0 if axiom == "beta-composition" else dim * dim
    assert rep.checked == half + (c + 1) * dim
