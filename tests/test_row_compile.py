"""Compiled rows of `product_dense`, built from the generator products.

`crossed.twisted_tensor` gives every handle a row builder that compiles
row i straight from the generator products e_i (a' (x) 1) and the
product table of B.  The pair oracle evaluates the same formula one
basis pair at a time, and the exhaustive certificates read it, so the
two routes are compared here row for row: on X, Y and Z, on both smash
halves and on direct two-sided and diagonal builds.  A cold dense
product must not touch the pair oracle, must agree with the sparse
product on vectors with zero coordinates, and must give the same result
when four threads compile rows of one handle at once.
"""

import random
import sys
import threading

import pytest

from hopfcross.actions import build_bimodule_algebra, regular_actions
from hopfcross.algebra import dual_hopf
from hopfcross.catalog import catalog_named
from hopfcross.crossed import (StandardTriple, build_xyz, diagonal_crossed,
                               handle_from_algebra, smash_handles,
                               two_sided_crossed)
from hopfcross.linalg import sv_from_list, sv_to_list

NAMES = ["cyclic:2", "cyclic:3", "dual_cyclic:3", "sweedler4", "taft:2:5"]
WHICH = ["X", "Y", "Z", "left_smash", "right_smash", "two_sided",
         "diagonal"]


def build(name, which):
    """A fresh handle: X, Y, Z, a smash half over the canonical triple,
    or a two-sided or diagonal product built directly over H."""
    hopf = catalog_named(name)
    if which in ("two_sided", "diagonal"):
        dual = dual_hopf(hopf).algebra
        left, right = regular_actions(hopf)
        if which == "two_sided":
            return two_sided_crossed(dual, hopf, dual, left, right)
        c_alg, c_left, c_right = build_bimodule_algebra(dual, left, dual,
                                                        right, hopf)
        return diagonal_crossed(c_alg, hopf, c_left, c_right)
    setup = StandardTriple(hopf)
    if which in ("X", "Y", "Z"):
        return build_xyz(hopf, which, setup)
    left, right = smash_handles(hopf, setup)
    return left if which == "left_smash" else right


def rows_from_pairs(handle):
    """Every row as compiled from a fully filled pair table."""
    rows = []
    for i in range(handle.dim):
        row = []
        for j in range(handle.dim):
            for k, c in sorted(handle.basis_product(i, j).items()):
                row += (j, k, c)
        rows.append(row)
    return rows


def vector_with_zeros(field, rng, dim):
    """A dense vector with about a third of its coordinates zero."""
    return [field.zero if rng.random() < 1 / 3
            else field.canon(field.div(rng.randint(-9, 9), rng.randint(1, 4)))
            for _ in range(dim)]


def record_pairs(handle):
    seen = []
    pair_fn = handle._pair_fn

    def recorded(i, j):
        seen.append((i, j))
        return pair_fn(i, j)

    handle._pair_fn = recorded
    return seen


@pytest.mark.parametrize("which", WHICH)
@pytest.mark.parametrize("name", NAMES)
def test_builder_rows_equal_rows_of_the_pair_table(name, which):
    handle = build(name, which)
    assert handle._row_fn is not None
    # every row, in reverse order, so rows sharing an A index are not
    # compiled one after another
    built = {i: handle._row(i) for i in reversed(range(handle.dim))}
    want = rows_from_pairs(build(name, which))
    for i in range(handle.dim):
        assert built[i] == want[i], i
        assert [type(t) for t in built[i]] == [type(t) for t in want[i]], i


@pytest.mark.parametrize("which", ["X", "Y", "Z"])
@pytest.mark.parametrize("name", ["sweedler4", "taft:2:5"])
def test_a_cold_dense_product_evaluates_no_pair(name, which):
    handle = build(name, which)
    seen = record_pairs(handle)
    field, n = handle.field, handle.dim
    rng = random.Random(f"{name}/{which}")
    x = vector_with_zeros(field, rng, n)
    y = vector_with_zeros(field, rng, n)
    handle.product_dense(x, y)
    assert seen == []
    assert all(row is None for row in handle._pairs)
    assert all((handle._rows[i] is not None) == (x[i] != 0) for i in range(n))


@pytest.mark.parametrize("which", WHICH)
@pytest.mark.parametrize("name", ["cyclic:3", "sweedler4", "taft:2:5"])
def test_dense_and_sparse_products_agree_on_vectors_with_zeros(name, which):
    handle = build(name, which)
    field, n = handle.field, handle.dim
    rng = random.Random(f"{name}/{which}")
    for _ in range(3):
        x = vector_with_zeros(field, rng, n)
        y = vector_with_zeros(field, rng, n)
        assert any(v == field.zero for v in x)
        sparse = handle.product(sv_from_list(field, x), sv_from_list(field, y))
        assert handle.product_dense(x, y) == sv_to_list(sparse, n)


def test_a_handle_without_builder_compiles_rows_from_its_pairs(sweedler):
    alg = sweedler.algebra
    handle = handle_from_algebra(alg)
    assert handle._row_fn is None
    rng = random.Random(3)
    for _ in range(5):
        x = vector_with_zeros(alg.field, rng, alg.dim)
        y = vector_with_zeros(alg.field, rng, alg.dim)
        assert handle.product_dense(x, y) == alg.mul_dense(x, y)


def test_threads_compiling_rows_of_one_handle_read_the_reference(cyclic3,
                                                                 setup_c3):
    # thread t compiles the rows whose A index a = i // dim B has
    # a = t mod 4, so at any moment the threads work on different a
    reference = build_xyz(cyclic3, "Y", setup_c3)
    field, n = reference.field, reference.dim
    db = reference.factor_dims[-1]
    rng = random.Random(11)
    xs = [[field.one + i if i // db % 4 == t else field.zero
           for i in range(n)] for t in range(4)]
    y = vector_with_zeros(field, rng, n)
    want = [sv_to_list(reference.product(sv_from_list(field, x),
                                         sv_from_list(field, y)), n)
            for x in xs]

    def run(handle, start, x, out):
        start.wait()
        out.append(handle.product_dense(x, y))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(200):
            handle = build_xyz(cyclic3, "Y", setup_c3)
            start = threading.Barrier(len(xs))
            got = [[] for _ in xs]
            threads = [threading.Thread(target=run,
                                        args=(handle, start, x, out))
                       for x, out in zip(xs, got)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
            assert not any(thread.is_alive() for thread in threads)
            assert got == [[w] for w in want]
    finally:
        sys.setswitchinterval(interval)
