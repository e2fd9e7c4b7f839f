"""Row compiles that read their A factor a row at a time.

`crossed.twisted_tensor` takes row a of A as {a3: {a4: c}}.  On the
catalog entries every (j, k) of X, Y and Z receives exactly one term and
no sum cancels, so the sums of the row builder are checked here on a
twisted tensor product built directly, with a hand-written R that need
not be a twisting map: terms of two b3 groups meet at one (j, k), and
some of those sums are zero, over Q or only over F_3.  The diagonal
twist, which joins Delta^2(h) with the nonzero actions h1.c, is compared
with the probe loop it replaced.  A compile of Y reads the rows of its
D # K factor, never a basis product, also when four threads walk the A
indices together.
"""

import sys
import threading

import pytest

from hopfcross.actions import build_bimodule_algebra, regular_actions
from hopfcross.algebra import AlgebraData, algebra_rows, dual_hopf
from hopfcross.catalog import catalog_named
from hopfcross.crossed import (AlgebraHandle, StandardTriple, build_xyz,
                               diagonal_twist, twisted_tensor)
from hopfcross.fields import QQ, PrimeField
from hopfcross.linalg import add_tensor
from test_pair_oracle import reference_pair_fn
from test_row_compile import build_with_reference, reference_rows

NAMES = ["cyclic:2", "cyclic:3", "dual_cyclic:3", "sweedler4", "taft:2:5"]
F3 = PrimeField(3)


def hand_written(field):
    """A (x)_R B on dim A = dim B = 2, and the reference of its formula.

    In B, e_b3 e_b2 = e_b2 for both b3, so the terms c a3 (x) e_0 and
    c' a3 (x) e_1 of one R(b (x) a') meet at every (j, k) of that a'
    with the sum c + c'.  R(0 (x) 0) sums to 0 over any field,
    R(0 (x) 1) to 1/2 + 1/2 = 1, and R(1 (x) 0) to 1 + 2 = 3, which is 0
    over F_3."""
    half = field.div(1, 2)
    a_alg = AlgebraData(field, 2, ["a0", "a1"],
                        {(0, 0): {0: 1}, (0, 1): {1: 1}, (1, 0): {1: 1},
                         (1, 1): {0: 1, 1: field.canon(-1)}}, [1, 0])
    b_alg = AlgebraData(field, 2, ["b0", "b1"],
                        {(b3, b2): {b2: 1} for b3 in range(2)
                         for b2 in range(2)}, [1, 0])
    table = {(0, 0): {0: 1, 1: field.canon(-1)},
             (0, 1): {2: half, 3: half},
             (1, 0): {0: 1, 1: 2},
             (1, 1): {2: 1, 1: 3}}

    def twist(b, a2):
        return dict(table[(b, a2)])

    handle = twisted_tensor(field, algebra_rows(a_alg).__getitem__,
                            b_alg.mul_basis, 2, twist, (2, 2), list("wxyz"),
                            {0: 1}, "hand-written")
    return handle, reference_pair_fn(field, a_alg.mul_basis,
                                     b_alg.mul_basis, 2, twist)


@pytest.mark.parametrize("field", [QQ, F3], ids=str)
def test_sums_of_two_b3_groups_match_the_reference(field):
    handle, ref = hand_written(field)
    want = reference_rows(handle.dim, ref)
    for i in reversed(range(handle.dim)):
        row = handle._row(i)
        assert row == want[i], i
        assert [type(t) for t in row] == [type(t) for t in want[i]], i
        assert field.zero not in row[2::3], i
    # j = a' db + b2 with a' = 0 cancels in every row with b = 0, and,
    # over F_3 only, in every row with b = 1; a' = 1 never does
    for i in range(handle.dim):
        a2s = {j // 2 for j in handle._row(i)[::3]}
        cancelled = i % 2 == 0 or field is F3
        assert a2s == ({1} if cancelled else {0, 1}), i
    # 1/2 + 1/2 is stored as the int 1, as the reference canonicalises it
    if field is QQ:
        assert type(handle._row(0)[2]) is int


def probe_loop(hopf, act_left, act_right):
    """The diagonal R(h (x) c) as it was computed before the join: every
    Delta^2(h) term probes h1.c."""
    dh, delta2, s_inv = hopf.dim, hopf.coalgebra.delta2, hopf.antipode_inv_col

    def twist(h, c):
        acc = {}
        for h1, h2, h3, w in delta2(h):
            if moved := act_left.act_basis(h1, c):
                add_tensor(acc, act_right.act_sv(s_inv(h3), moved), {h2: w},
                           dh, 1)
        return acc

    return twist


@pytest.mark.parametrize("name", NAMES)
def test_diagonal_twist_equals_the_probe_loop(name):
    hopf = catalog_named(name)
    setup = StandardTriple(hopf)
    dual = dual_hopf(hopf).algebra
    left, right = regular_actions(hopf)
    direct = build_bimodule_algebra(dual, left, dual, right, hopf)
    for h_alg, (c_alg, act_left, act_right) in (
            (setup.K, (setup.C, setup.act_left_C, setup.act_right_C)),
            (hopf, direct)):
        twist = diagonal_twist(h_alg, act_left, act_right)
        want = probe_loop(h_alg, act_left, act_right)
        for h in range(h_alg.dim):
            for c in range(c_alg.dim):
                assert twist(h, c) == want(h, c), (h, c)


def test_a_y_compile_reads_no_basis_product(cyclic3, setup_c3, monkeypatch):
    def refuse(self, i, j):
        raise AssertionError(f"basis_product({i}, {j}) on {self.provenance}")

    monkeypatch.setattr(AlgebraHandle, "basis_product", refuse)
    handle = build_xyz(cyclic3, "Y", setup_c3)
    assert all(handle._row(i) for i in range(handle.dim))


def test_threads_sharded_by_b_compile_rows_of_y(taft25):
    # Y is D # K (x)_R D^op; thread t compiles the rows whose b = i mod
    # dim D^op has b = t mod 4, so the threads walk the A indices of the
    # D # K factor together and compile and read its rows at once
    _, ref = build_with_reference("taft:2:5", "Y")
    db = taft25.dim
    n = db ** 4
    want = reference_rows(n, ref)
    setup = StandardTriple(taft25)
    shards = [[i for i in range(n) if i % db % 4 == t] for t in range(4)]

    def run(handle, start, rows, out):
        start.wait()
        out.extend(handle._row(i) for i in rows)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(100):
            handle = build_xyz(taft25, "Y", setup)
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
