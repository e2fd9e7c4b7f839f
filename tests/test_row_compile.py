"""Compiled rows, the one product store of a handle.

`crossed.twisted_tensor` gives every handle a row builder that compiles
row i straight from the generator products e_i (a' (x) 1) and the
product table of B, and every product reads those rows.  The rows are
compared here with `reference_pair_fn` of `test_pair_oracle`, which
expands the twisted tensor formula afresh for each basis pair: on X, Y
and Z, on both smash halves and on direct two-sided and diagonal
builds.  A cold dense product must not touch a pair oracle, the dense
and sparse products must agree with the reference on vectors with zero
coordinates, `basis_product` must find the products at the edges of a
row and in an empty row, and four threads compiling rows of one handle
at once must get the same result, sharded by A index and by B index.
Each twist R must be evaluated exactly once per basis pair (b, a') when
every row is compiled.
"""

import functools
import random
import sys
import threading

import pytest

from hopfcross import crossed
from hopfcross.actions import build_bimodule_algebra, regular_actions
from hopfcross.algebra import dual_hopf
from hopfcross.catalog import catalog_named
from hopfcross.crossed import (AlgebraHandle, StandardTriple, build_xyz,
                               diagonal_crossed, handle_from_algebra,
                               smash_handles, two_sided_crossed)
from hopfcross.fields import QQ
from hopfcross.linalg import sv_canon, sv_from_list, sv_to_list
from test_pair_oracle import reference_pair_fn

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


def build_with_reference(name, which):
    """A fresh handle and the reference closure of its formula, over the
    references of the handles it is built on (the A # H factor of a
    two-sided product), so that no compiled row is read."""
    calls = {}
    real = crossed.twisted_tensor

    def recording(*args):
        handle = real(*args)
        calls[handle] = args
        return handle

    crossed.twisted_tensor = recording
    try:
        handle = build(name, which)
    finally:
        crossed.twisted_tensor = real

    def reference_of(h):
        field, a_row, b_mul, db, twist = calls[h][:5]
        if hasattr(h, "left"):
            a_mul = functools.cache(reference_of(h.left))
        else:
            def a_mul(a, a3):
                return a_row(a).get(a3, {})
        return reference_pair_fn(field, a_mul, b_mul, db, twist)
    return handle, reference_of(handle)


def reference_rows(dim, ref):
    """Every row [j, k, c, ...] as the reference gives it."""
    rows = []
    for i in range(dim):
        row = []
        for j in range(dim):
            sv = ref(i, j)
            for k in sorted(sv):
                row += (j, k, sv[k])
        rows.append(row)
    return rows


def reference_product(field, ref, x, y):
    """sum x_i y_j e_i e_j over the reference, for dense x and y."""
    acc = {}
    for i, a in enumerate(x):
        if a != field.zero:
            for j, b in enumerate(y):
                if b != field.zero:
                    for k, c in ref(i, j).items():
                        acc[k] = acc.get(k, 0) + a * b * c
    return sv_canon(field, acc)


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
    # the pair table is that of the reference, one expansion per pair
    handle, ref = build_with_reference(name, which)
    assert handle._row_fn is not None
    # every row, in reverse order, so rows sharing an A index are not
    # compiled one after another
    built = {i: handle._row(i) for i in reversed(range(handle.dim))}
    want = reference_rows(handle.dim, ref)
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
    assert all((handle._rows[i] is not None) == (x[i] != 0) for i in range(n))


@pytest.mark.parametrize("which", WHICH)
@pytest.mark.parametrize("name", ["cyclic:3", "sweedler4", "taft:2:5"])
def test_dense_and_sparse_products_agree_on_vectors_with_zeros(name, which):
    handle, ref = build_with_reference(name, which)
    ref = functools.cache(ref)
    field, n = handle.field, handle.dim
    rng = random.Random(f"{name}/{which}")
    for _ in range(3):
        x = vector_with_zeros(field, rng, n)
        y = vector_with_zeros(field, rng, n)
        assert any(v == field.zero for v in x)
        sparse = handle.product(sv_from_list(field, x), sv_from_list(field, y))
        assert sparse == reference_product(field, ref, x, y)
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


def test_basis_product_finds_the_edges_of_a_row():
    # row 2 has entries at j = 1 and 2 only, two k terms at j = 2, and
    # row 1 is empty; basis_product must match the oracle at every j
    def pair_fn(i, j):
        if i == 1 or (i == 2 and j in (0, 3)):
            return {}
        return {0: 1, 3: QQ.div(2, 3)} if j == 2 else {(i + j) % 4: i + 1}

    handle = AlgebraHandle(QQ, (4,), list("abcd"), {0: 1}, pair_fn, "test")
    assert handle._row(1) == []
    assert handle._row(2)[0] == 1 and handle._row(2)[-3] == 2
    for i in range(4):
        for j in range(4):
            assert handle.basis_product(i, j) == pair_fn(i, j), (i, j)


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


def build_recording_twists(name, which):
    """A fresh handle, with dim B and the (b, a') of every call of each
    twist R recorded, keyed by the handle that R belongs to."""
    calls = {}
    real = crossed.twisted_tensor

    def recording(field, a_mul, b_mul, db, twist, *rest):
        seen = []

        def recorded(b, a2):
            seen.append((b, a2))
            return twist(b, a2)

        handle = real(field, a_mul, b_mul, db, recorded, *rest)
        calls[handle] = db, seen
        return handle

    crossed.twisted_tensor = recording
    try:
        handle = build(name, which)
    finally:
        crossed.twisted_tensor = real
    return handle, calls


@pytest.mark.parametrize("which", WHICH)
@pytest.mark.parametrize("name", ["cyclic:3", "taft:2:5"])
def test_every_twist_pair_is_evaluated_once(name, which):
    handle, calls = build_recording_twists(name, which)
    for i in reversed(range(handle.dim)):
        handle._row(i)
    # the A # H factor of a two-sided product has every row compiled too
    for h in filter(None, (handle, getattr(handle, "left", None))):
        db, seen = calls[h]
        assert len(seen) == len(set(seen)) == h.dim, which
        assert set(seen) == {(b, a2) for b in range(db)
                             for a2 in range(h.dim // db)}


@pytest.mark.parametrize("which", ["X", "Z"])
def test_threads_sharded_by_b_compile_rows_of_the_reference(which, taft25):
    # thread t compiles the rows whose b = i mod dim B has b = t mod 4,
    # so the threads share the products a a3 of one A index at a time;
    # sharded by a, as above, they share the twist rows of one b instead
    _, ref = build_with_reference("taft:2:5", which)
    db = taft25.dim ** 2      # B is D (x) D^op for X and K for Z
    n = db * db
    want = reference_rows(n, ref)
    setup = StandardTriple(taft25)
    shards = [[i for i in range(n) if i % db % 4 == t] for t in range(4)]

    def run(handle, start, rows, out):
        start.wait()
        out.extend(handle._row(i) for i in rows)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(200):
            handle = build_xyz(taft25, which, setup)
            start = threading.Barrier(len(shards))
            got = [[] for _ in shards]
            threads = [threading.Thread(target=run,
                                        args=(handle, start, rows, out))
                       for rows, out in zip(shards, got)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
            assert not any(thread.is_alive() for thread in threads)
            assert got == [[want[i] for i in rows] for rows in shards]
    finally:
        sys.setswitchinterval(interval)
