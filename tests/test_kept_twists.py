"""One memo per twist, shared by every reader of a `StandardTriple`.

Each twist constructor of `crossed` returns one closure per (H, action),
memoised per argument and kept on the action it reads; X's and Z's R
are composites kept on the triple.  Here:

* Z's composite R equals `diagonal_twist` at every basis pair, and a
  composite with S in place of S^-1 in its second half does not;
* compiling every row of X, Y, Z and the right smash half and building
  all eight maps evaluates each base twist at most once per argument;
* the eight maps equal, entry for entry and value type for value type,
  the column-by-column assembly they replaced, kept here as the
  reference over unmemoised twists;
* two threads compiling Y and Z of one fresh triple at once read the
  rows of `reference_pair_fn`;
* a second triple on the same H, and the same action under another H,
  evaluate their own twists.
"""

import collections
import functools
import sys
import threading

import pytest

from hopfcross import crossed
from hopfcross.catalog import catalog_named
from hopfcross.crossed import (StandardTriple, build_xyz, diagonal_twist,
                               left_smash_twist, smash_handles, x_index,
                               x_twist, z_twist)
from hopfcross.isos import ISO_KINDS, ISO_SPECS, build_iso
from hopfcross.linalg import add_tensor, sv_canon
from test_row_compile import build_with_reference, reference_rows

NAMES = ("cyclic:2", "cyclic:3", "dual_cyclic:3", "sweedler4", "taft:2:5")
BASE_TWISTS = ("left_smash_twist", "left_smash_twist_inv",
               "right_smash_twist", "right_smash_twist_inv", "diagonal_twist")


@functools.cache
def triple(name):
    hopf = catalog_named(name)
    return hopf, StandardTriple(hopf)


def composite(setup, first, second):
    """Z's R read as `first` = D # K's R at (kappa, p), then `second` at
    (k, q) carrying q past the K leg k of each term."""
    n = setup.n
    nn = n * n

    def twist(kappa, pq):
        p, q = divmod(pq, n)
        acc = {}
        for pk, c in first(kappa, p).items():
            p2, k = divmod(pk, nn)
            for qk, c1 in second(k, q).items():
                q2, k2 = divmod(qk, nn)
                key = (p2 * n + q2) * nn + k2
                acc[key] = acc.get(key, 0) + c * c1
        return acc

    return twist


def right_smash_twist_inv_with_s(hopf, act):
    """The inverse right smash twist with S where S^-1 belongs."""
    one = act.field.one

    def twist(h, b):
        acc = {}
        for h1, h2, c in hopf.coalgebra.delta(h):
            moved = act.act_sv(hopf.antipode_col(h2), {b: one})
            add_tensor(acc, moved, {h1: c}, hopf.dim, 1)
        return acc

    return twist


def differences(setup, twist):
    """The basis pairs (kappa, c) where `twist` and `diagonal_twist` of
    the triple's C >< K differ."""
    field = setup.field
    diagonal = diagonal_twist(setup.K, setup.act_left_C, setup.act_right_C)
    return [(kappa, c) for kappa in range(setup.K.dim)
            for c in range(setup.C.dim)
            if sv_canon(field, twist(kappa, c))
            != sv_canon(field, diagonal(kappa, c))]


@pytest.mark.parametrize("name", NAMES)
def test_z_composite_equals_the_diagonal_twist(name):
    _, setup = triple(name)
    assert differences(setup, z_twist(setup)) == []


def test_a_composite_with_s_for_s_inverse_differs_on_sweedler():
    _, setup = triple("sweedler4")
    wrong = composite(setup, left_smash_twist(setup.K, setup.act_on_dual),
                      right_smash_twist_inv_with_s(setup.K,
                                                   setup.act_on_dual_op))
    assert differences(setup, wrong)


def counting(make, seen, name):
    """`make` with each twist it makes counting its calls in `seen`, keyed
    by the twist's name, the ids of its constructor arguments and the
    argument pair."""
    @functools.wraps(make)
    def counted_make(*args):
        twist, ids = make(*args), tuple(map(id, args))

        def counted(x, y):
            seen[(name, ids, x, y)] += 1
            return twist(x, y)

        return counted
    return counted_make


@pytest.fixture
def evaluations(monkeypatch):
    """Every evaluation of the five base twists, counted per argument."""
    seen = collections.Counter()
    for name in BASE_TWISTS:
        constructor = getattr(crossed, name)
        monkeypatch.setattr(constructor, "__wrapped__",
                            counting(constructor.__wrapped__, seen, name))
    return seen


def compile_all(hopf, setup):
    """Every row of X, Y, Z and the right smash half, and all eight maps."""
    handles = [build_xyz(hopf, which, setup) for which in "XYZ"]
    handles.append(smash_handles(hopf, setup)[1])
    for handle in handles:
        for i in range(handle.dim):
            handle._row(i)
    for kind in ISO_KINDS:
        build_iso(kind, hopf, setup)


@pytest.mark.parametrize("name", ["cyclic:3", "taft:2:5"])
def test_each_base_twist_is_evaluated_once_per_argument(name, evaluations):
    hopf = catalog_named(name)
    compile_all(hopf, StandardTriple(hopf))
    assert max(evaluations.values()) == 1
    assert {key[0] for key in evaluations} == set(BASE_TWISTS[:4])


def test_a_second_triple_evaluates_its_own_twists(evaluations):
    hopf = catalog_named("cyclic:3")
    first, second = StandardTriple(hopf), StandardTriple(hopf)
    compile_all(hopf, first)
    once = dict(evaluations)
    compile_all(hopf, second)
    assert max(evaluations.values()) == 1
    assert len(evaluations) == 2 * len(once)
    assert x_twist(first) is x_twist(first)
    assert x_twist(first) is not x_twist(second)
    assert (left_smash_twist(first.K, first.act_on_dual)
            is not left_smash_twist(second.K, second.act_on_dual))
    for kind in ISO_KINDS:
        assert (build_iso(kind, hopf, first)._cols
                == build_iso(kind, hopf, second)._cols), kind


def test_the_same_action_under_another_h_keeps_another_twist():
    hopf, setup = triple("cyclic:3")
    other_k = StandardTriple(hopf).K
    act = setup.act_on_dual
    kept = left_smash_twist(setup.K, act)
    assert left_smash_twist(setup.K, act) is kept
    assert left_smash_twist(other_k, act) is not kept
    assert all(left_smash_twist(other_k, act)(kappa, p) == kept(kappa, p)
               for kappa in range(setup.K.dim) for p in range(setup.n))


def reference_map_columns(kind, setup):
    """The columns of `kind` as they were assembled one (p, kappa, q) at a
    time, each canonical and sorted afresh, over fresh unmemoised
    twists (the undecorated constructors) cached per map."""
    n, K = setup.n, setup.K
    nn, act, act_op = n * n, setup.act_on_dual, setup.act_on_dual_op
    index = {"X": functools.partial(x_index, n),
             "Y": lambda p, kappa, q: (p * nn + kappa) * n + q,
             "Z": lambda p, kappa, q: (p * n + q) * nn + kappa}
    src, dst = ISO_SPECS[kind]
    at, to = index[src], index[dst]

    def fresh(constructor, *args):
        return functools.cache(constructor.__wrapped__(*args))

    if kind == "phi":
        twist = fresh(crossed.left_smash_twist, K, act)
        column = lambda p, kappa, q: {
            to(pk // nn, pk % nn, q): c for pk, c in twist(kappa, p).items()}
    elif kind == "phi_inv":
        twist = fresh(crossed.left_smash_twist_inv, K, act)
        column = lambda p, kappa, q: {
            to(kp % n, kp // n, q): c for kp, c in twist(p, kappa).items()}
    elif kind in ("alpha", "alpha_inv", "f_inv"):
        twist = fresh(crossed.right_smash_twist, K,
                      act if kind == "alpha" else act_op)
        column = lambda p, kappa, q: {
            to(p, kq // n, kq % n): c for kq, c in twist(q, kappa).items()}
    elif kind == "f":
        twist = fresh(crossed.right_smash_twist_inv, K, act_op)
        column = lambda p, kappa, q: {
            to(p, qk % nn, qk // nn): c for qk, c in twist(kappa, q).items()}
    elif kind == "beta_inv":
        twist = fresh(crossed.x_twist, setup)
        column = lambda p, kappa, q: twist(p * n + q,
                                           kappa % n * n + kappa // n)
    else:
        delta2, arrows = K.coalgebra.delta2, act.tensor

        def column(p, kappa, q):
            acc = {}
            for k1, k2, k3, c in delta2(kappa):
                pv = arrows.get((k1, p))
                qv = pv and arrows.get((k3, q))
                if qv:
                    for p2, cp in pv.items():
                        for q2, cq in qv.items():
                            key = to(p2, k2, q2)
                            acc[key] = acc.get(key, 0) + c * cp * cq
            return acc

    cols = [None] * n ** 4
    for p in range(n):
        for kappa in range(nn):
            for q in range(n):
                col = sv_canon(setup.field, column(p, kappa, q))
                cols[at(p, kappa, q)] = [x for r in sorted(col)
                                         for x in (r, col[r])]
    return cols


def typed(cols):
    return [[(type(x).__name__, x) for x in col] for col in cols]


@pytest.mark.parametrize("kind", ISO_KINDS)
@pytest.mark.parametrize("name", ["cyclic:3", "dual_cyclic:3", "sweedler4",
                                  "taft:2:5"])
def test_maps_equal_the_column_by_column_assembly(name, kind):
    hopf = catalog_named(name)
    built, reference = StandardTriple(hopf), StandardTriple(hopf)
    lm = build_iso(kind, hopf, built)
    assert typed(lm._cols) == typed(reference_map_columns(kind, reference))


def test_threads_compiling_y_and_z_of_one_triple_read_the_reference():
    # Y and Z share D # K's R; each round starts from a fresh triple, so
    # the two threads fill the kept twists of that triple at once
    hopf = catalog_named("cyclic:3")
    want = {}
    for which in "YZ":
        handle, ref = build_with_reference("cyclic:3", which)
        want[which] = reference_rows(handle.dim, ref)

    def run(handle, start, out):
        start.wait()
        out.extend(handle._row(i) for i in range(handle.dim))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(100):
            setup = StandardTriple(hopf)
            handles = {which: build_xyz(hopf, which, setup) for which in "YZ"}
            start = threading.Barrier(len(handles))
            got = {which: [] for which in handles}
            threads = [threading.Thread(target=run,
                                        args=(handles[w], start, got[w]))
                       for w in handles]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
            assert not any(thread.is_alive() for thread in threads)
            assert got == want
    finally:
        sys.setswitchinterval(interval)
