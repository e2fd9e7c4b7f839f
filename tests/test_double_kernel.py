"""The double-precision path of `AlgebraHandle.product_dense` over Q.

Over Q with `int` coordinates, and once every row is compiled, the dense
kernel runs its loop on doubles when max(1, max|x|) max(1, max|y|) m
< 2^53 for the handle's bound m (`_double_bound`), and on the exact
scalars otherwise.  Its results must equal the exact loop's, entry for
entry and type for type: on X, Y and Z of two catalog entries, at both
sides of the bound, with `Fraction` coordinates or structure constants,
and inside a certificate that fails.  F_p handles never take the path.

The same change sends the module trials of `check_module_over_handle`
through the dense kernel and lets `ActionData.act_sv` walk the tensor
when its inputs have more coordinate pairs than the tensor has entries;
both must give what the older forms gave.
"""

import random
from fractions import Fraction

import pytest

from hopfcross import crossed
from hopfcross.actions import ActionData
from hopfcross.algebra import random_dense_vector
from hopfcross.bimodules import (check_module_over_handle, derived_action,
                                 example_bimodule)
from hopfcross.crossed import AlgebraHandle, StandardTriple, build_xyz
from hopfcross.fields import QQ
from hopfcross.isos import build_iso, verify_algebra_morphism
from hopfcross.linalg import LinearMap, sv_canon, sv_from_list
from hopfcross.report import MORPHISM_DIM_CAP, CheckMode, certify

LIMIT = 2 ** 53


def exact_only(monkeypatch):
    monkeypatch.setattr(AlgebraHandle, "_exact_in_doubles",
                        lambda self, xs, ys: False)


def record_paths(monkeypatch):
    """Wrap the guard; returns the list of its verdicts, one per product."""
    seen = []
    guard = AlgebraHandle._exact_in_doubles

    def recorded(self, xs, ys):
        seen.append(guard(self, xs, ys))
        return seen[-1]

    monkeypatch.setattr(AlgebraHandle, "_exact_in_doubles", recorded)
    return seen


def warm(handle):
    """Compile every row, so the bound can be computed."""
    for i in range(handle.dim):
        handle._row(i)
    return handle


def constant_handle(c, dim=2):
    """e_i e_j = c e_0 for all i, j: N_0 = dim^2 terms, so m = |c| dim^2."""
    return warm(AlgebraHandle(QQ, (dim,), [f"e{i}" for i in range(dim)],
                              {0: 1}, lambda i, j: {0: c}, "test"))


def types(xs):
    return [type(v) for v in xs]


# ---------------------------------------------------------------------------
# (a) catalog products: the double path equals the exact loop

@pytest.mark.parametrize("which", ["X", "Y", "Z"])
@pytest.mark.parametrize("name", ["sweedler4", "cyclic:3"])
def test_doubles_give_the_exact_list(name, which, monkeypatch, request):
    handles = request.getfixturevalue(
        {"sweedler4": "xyz_sw", "cyclic:3": "xyz_c3"}[name])
    handle = warm(handles[which])
    assert handle._double_bound() > 0
    rng = random.Random(f"{name}/{which}")
    pairs = [[random_dense_vector(QQ, rng, handle.dim) for _ in range(2)]
             for _ in range(4)]
    seen = record_paths(monkeypatch)
    fast = [handle.product_dense(x, y) for x, y in pairs]
    assert seen == [True] * len(pairs)
    exact_only(monkeypatch)
    for (x, y), got in zip(pairs, fast):
        want = handle.product_dense(x, y)
        assert got == want and types(got) == types(want) == [int] * handle.dim


def test_the_bound_of_sweedler4_products(xyz_sw):
    # 136 = max|c| max_k N_k over the compiled rows of each of X, Y, Z
    for handle in xyz_sw.values():
        assert warm(handle)._double_bound() == 136


def test_a_cold_handle_runs_exact_until_every_row_is_compiled(sweedler,
                                                              setup_sw,
                                                              monkeypatch):
    handle = build_xyz(sweedler, "X", setup_sw)
    rng = random.Random(2)
    x, y = (random_dense_vector(QQ, rng, handle.dim) for _ in range(2))
    x[0] = 0
    seen = record_paths(monkeypatch)
    first = handle.product_dense(x, y)
    assert handle._rows[0] is None and handle._bound is None
    x[0] = 1
    second = handle.product_dense(x, y)
    third = handle.product_dense(x, y)
    assert seen == [False, False, True]
    assert second == third and types(second) == types(third)
    assert first != second


# ---------------------------------------------------------------------------
# (b) both sides of the 2^53 bound

def test_the_bound_counts_every_term_of_an_output_index():
    assert constant_handle(3)._double_bound() == 12
    assert constant_handle(-5, dim=3)._double_bound() == 45


@pytest.mark.parametrize("x0,doubles", [
    (LIMIT - 1, True),       # m = 1: the largest x the bound admits
    (LIMIT, False),
    (LIMIT + 1, False),      # a double rounds 2^53 + 1 to 2^53
])
def test_one_term_at_the_bound(x0, doubles, monkeypatch):
    handle = constant_handle(1, dim=1)
    seen = record_paths(monkeypatch)
    got = handle.product_dense([x0], [1])
    assert seen == [doubles]
    assert got == [x0] and types(got) == [int]


def test_a_result_above_two_to_the_53_stays_exact(monkeypatch):
    # x y = 2^53 + 2^27 + 2^26 + 1 is odd and above 2^53, so no double
    # holds it; the bound sends the product to the exact loop
    handle = constant_handle(1, dim=1)
    x, y = 2 ** 27 + 1, 2 ** 26 + 1
    assert float(x) * float(y) != x * y
    seen = record_paths(monkeypatch)
    assert handle.product_dense([x], [y]) == [x * y]
    assert seen == [False]


@pytest.mark.parametrize("scale,doubles", [(0, True), (1, False)])
def test_sums_at_the_bound(scale, doubles, monkeypatch):
    # m = 12 and the one output entry is 3 (x0 + x1)(y0 + y1) = 12 X Y
    # for x = [X, X], y = [Y, Y]: the largest X with 12 X < 2^53 gives
    # an exact double sum just below 2^53, one more goes to the ints
    handle = constant_handle(3)
    big = (LIMIT - 1) // 12 + scale
    seen = record_paths(monkeypatch)
    got = handle.product_dense([big, big], [1, 1])
    assert seen == [doubles]
    assert got == [12 * big, 0] and types(got) == [int, int]
    assert (12 * big < LIMIT) == doubles


def test_zero_and_negative_coordinates_at_the_bound(monkeypatch):
    handle = constant_handle(-3)
    big = (LIMIT - 1) // 12
    seen = record_paths(monkeypatch)
    got = handle.product_dense([-big, 0], [1, -1])
    assert seen == [True]
    assert got == [0, 0] and types(got) == [int, int]
    got = handle.product_dense([-big, -big], [-1, -1])
    assert got == [-12 * big, 0]


# ---------------------------------------------------------------------------
# (c) Fractions take the exact path

def test_a_fraction_coordinate_takes_the_exact_path(xyz_c3, monkeypatch):
    handle = warm(xyz_c3["Y"])
    rng = random.Random(4)
    x, y = (random_dense_vector(QQ, rng, handle.dim) for _ in range(2))
    fraction_y = y[:5] + [Fraction(1, 3)] + y[6:]
    fraction_x = x[:7] + [Fraction(-2, 7)] + x[8:]
    inputs = [(x, fraction_y), (fraction_x, y)]
    seen = record_paths(monkeypatch)
    got = [handle.product_dense(a, b) for a, b in inputs]
    assert seen == [False, False]
    exact_only(monkeypatch)
    for (a, b), out in zip(inputs, got):
        want = handle.product_dense(a, b)
        assert out == want and types(out) == types(want)
        assert Fraction in set(types(out))


def test_an_integral_fraction_coordinate_takes_the_exact_path(monkeypatch):
    handle = constant_handle(2)
    seen = record_paths(monkeypatch)
    got = handle.product_dense([Fraction(3), 1], [1, 1])
    assert seen == [False]
    assert got == [16, 0]


def test_a_fraction_structure_constant_sets_no_bound(monkeypatch):
    handle = constant_handle(Fraction(1, 2))
    assert handle._double_bound() == 0
    seen = record_paths(monkeypatch)
    got = handle.product_dense([1, 3], [2, 2])
    assert seen == [False]
    assert got == [8, 0] and types(got) == [int, int]
    got = handle.product_dense([1, 0], [1, 0])
    assert got == [Fraction(1, 2), 0]


def test_an_empty_product_sets_no_bound():
    handle = warm(AlgebraHandle(QQ, (2,), ["a", "b"], {0: 1},
                                lambda i, j: {}, "test"))
    assert handle._double_bound() == 0
    assert handle.product_dense([1, 2], [3, 4]) == [0, 0]


# ---------------------------------------------------------------------------
# (d) F_p never takes the path

def test_prime_field_handles_never_compute_the_bound(xyz_taft, taft25,
                                                     setup_taft, monkeypatch):
    def refused(*args):
        raise AssertionError("a prime field product reached the doubles")

    monkeypatch.setattr(AlgebraHandle, "_double_bound", refused)
    monkeypatch.setattr(crossed, "float", refused, raising=False)
    rng = random.Random(9)
    for handle in xyz_taft.values():
        warm(handle)
        field = handle.field
        assert field.characteristic == 5
        for _ in range(2):
            x, y = (random_dense_vector(field, rng, handle.dim)
                    for _ in range(2))
            got = handle.product_dense(x, y)
            assert types(got) == [int] * handle.dim
            assert all(0 <= v < 5 for v in got)
        assert handle._bound is None
    phi = build_iso("phi", taft25, setup_taft)
    assert verify_algebra_morphism(phi, xyz_taft["X"], xyz_taft["Y"],
                                   CheckMode.random(trials=2, seed=1)).passed


# ---------------------------------------------------------------------------
# (e) a failing certificate reports what the exact loop reports

@pytest.mark.parametrize("seed", [0, 1])
def test_a_perturbed_phi_fails_alike_on_doubles(seed, sweedler, setup_sw,
                                              xyz_sw, monkeypatch):
    phi = build_iso("phi", sweedler, setup_sw)
    rows = [list(row) for row in phi.rows]
    rng = random.Random(seed)
    r, c = rng.randrange(phi.dst_dim), rng.randrange(phi.src_dim)
    rows[r][c] += 1
    broken = LinearMap(QQ, phi.src_dim, phi.dst_dim, rows)
    src, dst = warm(xyz_sw["X"]), warm(xyz_sw["Y"])
    mode = CheckMode.random(trials=3, seed=seed)

    seen = record_paths(monkeypatch)
    fast = verify_algebra_morphism(broken, src, dst, mode)
    assert seen and all(seen)
    exact_only(monkeypatch)
    want = verify_algebra_morphism(broken, src, dst, mode)
    assert not want.passed
    assert fast == want
    got, expected = fast.first(), want.first()
    assert got.witness == expected.witness
    assert types(got.lhs) == types(expected.lhs)
    assert types(got.rhs) == types(expected.rhs)


# ---------------------------------------------------------------------------
# (f) the two branches of act_sv

def probed(act, actor_sv, space_sv):
    """The action by probing every pair of the two supports."""
    acc = {}
    for i, a in actor_sv.items():
        for j, b in space_sv.items():
            for k, c in act.tensor.get((i, j), {}).items():
                acc[k] = acc.get(k, 0) + a * b * c
    return sv_canon(act.field, acc)


def sparse_vector(field, rng, dim, size):
    return {i: field.random(rng, 10 ** 6) or field.one
            for i in rng.sample(range(dim), size)}


@pytest.mark.parametrize("name", ["sweedler4", "taft:2:5"])
def test_act_sv_walks_or_probes_alike(name, request):
    hopf = request.getfixturevalue(
        {"sweedler4": "sweedler", "taft:2:5": "taft25"}[name])
    act = derived_action(example_bimodule(hopf, "regular"), hopf, "Y")
    field, entries = hopf.field, len(act.tensor)
    rng = random.Random(name)
    sizes = [(1, 1), (8, 1), (20, 2), (act.actor_dim // 2, act.space_dim),
             (act.actor_dim, act.space_dim)]
    branches = set()
    for x_size, m_size in sizes:
        for _ in range(3):
            x = sparse_vector(field, rng, act.actor_dim, x_size)
            m = sparse_vector(field, rng, act.space_dim, m_size)
            branches.add(len(x) * len(m) > entries)
            assert act.act_sv(x, m) == probed(act, x, m)
    assert branches == {False, True}


def test_act_sv_walks_an_empty_tensor_and_empty_inputs():
    act = ActionData(QQ, 2, 2, "left", {(0, 1): {0: 3}})
    assert act.act_sv({0: 1, 1: 1}, {0: 2, 1: 5}) == {0: 15}
    assert act.act_sv({}, {0: 1}) == {}
    assert act.act_sv({0: 1}, {}) == {}
    empty = ActionData(QQ, 2, 2, "left", {})
    assert empty.act_sv({0: 1}, {1: 1}) == {}


# ---------------------------------------------------------------------------
# (g) the module trial through the dense kernel

def module_report_over_sparse_products(handle, act, mode):
    """`check_module_over_handle` in random mode with (xy).m read through
    `handle.product` on the sparse x and y, the form the dense kernel
    replaced."""
    field, one = handle.field, handle.field.one

    def trial(rng, t):
        x = sv_from_list(field, random_dense_vector(field, rng, handle.dim))
        y = sv_from_list(field, random_dense_vector(field, rng, handle.dim))
        m = sv_from_list(field, random_dense_vector(field, rng, act.space_dim))
        yield (1, "module-assoc", ("trial", t),
               act.act_sv(handle.product(x, y), m),
               act.act_sv(x, act.act_sv(y, m)))

    unit_law = ((1, "module-unit", (j,), act.act_sv(handle.unit, {j: one}),
                 {j: one}) for j in range(act.space_dim))
    return certify(mode, handle.dim, None, trial, prelude=unit_law,
                   cap=MORPHISM_DIM_CAP)


def broken_action(act, unit):
    """A copy of the action with one entry moved by one, its actor index
    outside the support of the unit, so the unit law still holds."""
    tensor = dict(act.tensor)
    key = sorted(key for key in tensor if key[0] not in unit)[len(tensor) // 3]
    k = min(tensor[key])
    tensor[key] = {**tensor[key], k: act.field.canon(tensor[key][k] + 1)}
    return ActionData(act.field, act.actor_dim, act.space_dim, act.side,
                      tensor)


@pytest.mark.parametrize("name", ["cyclic:3", "sweedler4", "taft:2:5"])
def test_module_trials_report_as_the_sparse_form(name, request):
    hopf = request.getfixturevalue(
        {"cyclic:3": "cyclic3", "sweedler4": "sweedler",
         "taft:2:5": "taft25"}[name])
    handle = build_xyz(hopf, "Y", StandardTriple(hopf))
    act = derived_action(example_bimodule(hopf, "regular"), hopf, "Y")
    for seed, action in ((3, act), (4, broken_action(act, handle.unit))):
        mode = CheckMode.random(trials=3, seed=seed)
        got = check_module_over_handle(handle, action, mode)
        assert got == module_report_over_sparse_products(handle, action, mode)
    assert got.first().axiom == "module-assoc"
