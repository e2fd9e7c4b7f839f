"""Basis products of `crossed.twisted_tensor` handles against a reference.

Every pair of X, Y, Z and the two smash halves equals the plain
closure, which expands R(b (x) a') afresh for each basis pair, in
row-major, column-major and random reading order; a basis product
compiles only the row of its left index, and a zero product has no
entry in the compiled rows.
"""

import functools
import random
import resource
import subprocess
import sys
import textwrap
import threading

import pytest

from hopfcross import crossed
from hopfcross.catalog import catalog_named
from hopfcross.crossed import StandardTriple, build_xyz, smash_handles
from hopfcross.linalg import add_tensor, sv_canon

NAMES = ["cyclic:2", "cyclic:3", "dual_cyclic:3", "sweedler4", "taft:2:5"]
WHICH = ["X", "Y", "Z", "left_smash", "right_smash"]
ORDERS = ["rows", "columns", "random"]


def reference_pair_fn(field, a_mul, b_mul, db, twist):
    """(a (x) b)(a' (x) b') = sum a a3 (x) b3 b' over R(b (x) a'), one
    basis pair at a time."""
    def pair(i, j):
        a, b = divmod(i, db)
        a2, b2 = divmod(j, db)
        acc = {}
        for k, c in sv_canon(field, twist(b, a2)).items():
            a3, b3 = divmod(k, db)
            first = a_mul(a, a3)
            if first:
                add_tensor(acc, first, b_mul(b3, b2), db, c)
        return sv_canon(field, acc)
    return pair


def build(name, which):
    """A fresh handle and the reference closure over the same A, B and R."""
    hopf = catalog_named(name)
    setup = StandardTriple(hopf)
    calls = []
    real = crossed.twisted_tensor

    def recording(*args):
        handle = real(*args)
        calls.append((handle, args))
        return handle

    crossed.twisted_tensor = recording
    try:
        if which in ("X", "Y", "Z"):
            handle = build_xyz(hopf, which, setup)
        else:
            left, right = smash_handles(hopf, setup)
            handle = left if which == "left_smash" else right
    finally:
        crossed.twisted_tensor = real
    field, a_row, b_mul, db, twist = next(
        args for h, args in calls if h is handle)[:5]
    a_row = functools.cache(a_row)
    return handle, reference_pair_fn(
        field, lambda a, a3: a_row(a).get(a3, {}), b_mul, db, twist)


def reading_order(order, n, seed):
    pairs = [(i, j) for i in range(n) for j in range(n)]
    if order == "columns":
        pairs.sort(key=lambda p: (p[1], p[0]))
    elif order == "random":
        random.Random(seed).shuffle(pairs)
    return pairs


@pytest.fixture(scope="module")
def reference_products():
    cache = {}

    def products(name, which):
        if (name, which) not in cache:
            handle, ref = build(name, which)
            cache[(name, which)] = {(i, j): ref(i, j)
                                    for i in range(handle.dim)
                                    for j in range(handle.dim)}
        return cache[(name, which)]
    return products


@pytest.mark.parametrize("order", ORDERS)
@pytest.mark.parametrize("which", WHICH)
@pytest.mark.parametrize("name", NAMES)
def test_every_pair_matches_the_reference(name, which, order,
                                          reference_products):
    want = reference_products(name, which)
    handle, _ = build(name, which)
    for i, j in reading_order(order, handle.dim, seed=len(want)):
        assert handle.basis_product(i, j) == want[(i, j)], (i, j)


def test_threads_filling_one_handle_read_the_reference(reference_products,
                                                       cyclic3, setup_c3):
    # each call must use the generators of its own row, even when another
    # thread moved the oracle to a different row in between
    want = reference_products("cyclic:3", "Y")
    orders = [reading_order(order, 81, seed)
              for seed, order in enumerate(ORDERS + ["random"])]

    def fill(handle, order, out):
        for i, j in order:
            out[(i, j)] = handle.basis_product(i, j)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(20):
            handle = build_xyz(cyclic3, "Y", setup_c3)
            got = [{} for _ in orders]
            threads = [threading.Thread(target=fill, args=(handle, *args))
                       for args in zip(orders, got)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
            assert not any(thread.is_alive() for thread in threads)
            assert all(out == want for out in got)
    finally:
        sys.setswitchinterval(interval)


def compiled(handle):
    return [i for i, row in enumerate(handle._rows) if row is not None]


@pytest.mark.parametrize("which", ["X", "Y", "Z"])
def test_a_basis_product_allocates_one_pair_row(which):
    # a cold basis product compiles the row of its left index and no
    # other, and so does a sparse product of two basis vectors
    handle, ref = build("sweedler4", which)
    n = handle.dim
    assert len(handle._rows) == n and compiled(handle) == []
    assert handle.basis_product(n // 3, n // 2) == ref(n // 3, n // 2)
    assert compiled(handle) == [n // 3]
    handle, _ = build("sweedler4", which)
    handle.product({n - 1: 1}, {n // 2: 1})
    assert compiled(handle) == [n - 1]


def test_zero_products_take_no_row_entry(reference_products):
    zeros = 0
    for which in ("X", "Y", "Z"):
        want = reference_products("taft:2:5", which)
        handle, _ = build("taft:2:5", which)
        entries = set()
        for i in range(handle.dim):
            terms = iter(handle._row(i))
            for j, k, c in zip(terms, terms, terms):
                assert c != 0, (i, j, k)
                entries.add((i, j))
        assert entries == {pair for pair, sv in want.items() if sv}, which
        zeros += len(want) - len(entries)
    assert zeros


ADDRESS_SPACE = 1 << 30
TRACED_LIMIT = 64 << 20

BUILD_CYCLIC_10 = textwrap.dedent("""
    import tracemalloc
    from hopfcross.catalog import catalog_named
    from hopfcross.crossed import StandardTriple, build_xyz
    hopf = catalog_named("cyclic:10")
    setup = StandardTriple(hopf)
    tracemalloc.start()
    for which in "XYZ":
        handle = build_xyz(hopf, which, setup)
        assert handle.dim == 10 ** 4
        handle.basis_product(handle.dim - 1, handle.dim - 1)
    print(tracemalloc.get_traced_memory()[1])
""")


def _limit_memory():
    resource.setrlimit(resource.RLIMIT_AS, (ADDRESS_SPACE, ADDRESS_SPACE))


def test_building_xyz_on_cyclic_10_allocates_no_pair_table():
    run = subprocess.run([sys.executable, "-c", BUILD_CYCLIC_10], text=True,
                         capture_output=True, timeout=120,
                         preexec_fn=_limit_memory)
    assert run.returncode == 0, run.stderr
    assert int(run.stdout) < TRACED_LIMIT
