"""The keyed row view of a handle, the signed zero test, the antipode
columns of the Hopf suite and the pair walks of `LinearMap`.

`AlgebraHandle.keyed_row(i)` is row i keyed as {j: {k: c}}, made once
per row from the compiled row and kept, so the exhaustive certificates
on one set of handles (axioms, morphisms, module associativity) key each
row once between them; threads keying rows at once read whole rows.
`algebra.unequal_sides` decides a signed difference without
canonicalising each value: as it stands over Q, modulo p over F_p.
`algebra.check_hopf_axioms` reads each antipode column once, and
`LinearMap.col_sv` and `apply_sv` walk a column as pairs; the
`reference_*` functions below are the loops they replace, and each
result must match theirs type for type.
`scripts/build_catalog_products.py` times the keying on a line of its
own, between the row compile and the associativity certificate.
"""

from collections import Counter
from fractions import Fraction
from functools import lru_cache
import random
import sys
import threading

import pytest

from hopfcross import algebra
from hopfcross.algebra import (HopfAlgebraData, check_hopf_axioms, keyed_row,
                               unequal_sides)
from hopfcross.bimodules import (check_module_over_handle, derived_action,
                                 example_bimodule)
from hopfcross.catalog import catalog_named
from hopfcross.crossed import StandardTriple, build_xyz, check_handle_axioms
from hopfcross.fields import QQ, PrimeField
from hopfcross.isos import ISO_KINDS, build_iso, verify_algebra_morphism
from hopfcross.linalg import sv_add_into, sv_canon
from hopfcross.report import CheckMode, certify_exhaustive

from test_product_radicals import load_catalog_script

EXHAUSTIVE = CheckMode.exhaustive()
ROUTES = {"phi": ("X", "Y"), "alpha": ("Y", "Z"), "beta": ("X", "Z"),
          "f": ("Y", "Z")}
HOPF = ("cyclic:2", "cyclic:3", "dual_cyclic:3", "sweedler4", "taft:2:5")


@lru_cache(maxsize=None)
def triple(name):
    hopf = catalog_named(name)
    return hopf, StandardTriple(hopf)


def fresh_handles(name):
    """X, Y and Z built afresh, their rows compiled but not keyed."""
    hopf, setup = triple(name)
    handles = {w: build_xyz(hopf, w, setup) for w in ("X", "Y", "Z")}
    for handle in handles.values():
        for i in range(handle.dim):
            handle._row(i)
    return handles


def summary(report):
    first = report.first()
    if first is None:
        return report.passed, report.checked, None
    return (report.passed, report.checked, first.axiom, first.witness,
            first.lhs, first.rhs)


# ---------------------------------------------------------------------------
# the keyed view

def test_certificates_key_each_handle_once(monkeypatch):
    hopf, setup = triple("cyclic:3")
    handles = fresh_handles("cyclic:3")
    act = derived_action(example_bimodule(hopf, "regular"), hopf, "Y", setup)
    maps = {kind: build_iso(kind, hopf, setup) for kind in ROUTES}
    keyed = Counter()

    def counting(flat):
        keyed[id(flat)] += 1
        return keyed_row(flat)
    monkeypatch.setattr(algebra, "keyed_row", counting)

    for handle in handles.values():
        assert check_handle_axioms(handle, EXHAUSTIVE).passed
    for kind, (src, dst) in ROUTES.items():
        assert verify_algebra_morphism(maps[kind], handles[src],
                                       handles[dst], EXHAUSTIVE).passed
    assert check_module_over_handle(handles["Y"], act, EXHAUSTIVE).passed

    rows = [id(row) for handle in handles.values() for row in handle._rows]
    assert sum(keyed.values()) == len(rows) == 3 * 81
    assert set(keyed) == set(rows)
    assert set(keyed.values()) == {1}


def test_random_trials_key_no_row(monkeypatch):
    hopf, setup = triple("cyclic:3")
    handles = fresh_handles("cyclic:3")
    act = derived_action(example_bimodule(hopf, "regular"), hopf, "Y", setup)
    keyed = []
    monkeypatch.setattr(algebra, "keyed_row", keyed.append)
    trials = CheckMode.random(trials=2, seed=3)
    for handle in handles.values():
        assert check_handle_axioms(handle, trials).passed
    for kind, (src, dst) in ROUTES.items():
        assert verify_algebra_morphism(build_iso(kind, hopf, setup),
                                       handles[src], handles[dst],
                                       trials).passed
    assert check_module_over_handle(handles["Y"], act, trials).passed
    assert keyed == []


def test_keyed_rows_are_the_compiled_rows_keyed():
    for handle in fresh_handles("taft:2:5").values():
        for i in range(handle.dim):
            row = handle.keyed_row(i)
            assert row == keyed_row(handle._row(i))
            assert handle.keyed_row(i) is row


@pytest.mark.parametrize("compiled", [False, True])
def test_threads_keying_one_handle_read_whole_rows(compiled):
    # every thread keys every row in the same order, so the threads
    # race for each row, and compares each row with the reference as
    # soon as it has it: a row stored before it is complete would still
    # be filled in after the threads end
    hopf, setup = triple("taft:2:5")
    reference = build_xyz(hopf, "Z", setup)
    n = reference.dim
    want = [keyed_row(reference._row(i)) for i in range(n)]

    def run(handle, start, out):
        start.wait()
        for i in range(n):
            out.append(handle.keyed_row(i) == want[i])

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(20):
            handle = build_xyz(hopf, "Z", setup)
            if compiled:
                for i in range(n):
                    handle._row(i)
            start = threading.Barrier(4)
            got = [[] for _ in range(4)]
            threads = [threading.Thread(target=run, args=(handle, start, out))
                       for out in got]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
            assert not any(thread.is_alive() for thread in threads)
            assert got == [[True] * n] * 4
            assert [handle.keyed_row(i) for i in range(n)] == want
    finally:
        sys.setswitchinterval(interval)


# ---------------------------------------------------------------------------
# the signed zero test

def sums(left_terms, right_terms):
    """A fill adding `left_terms` into left and sign times `right_terms`
    into right, each a list of (key, value)."""
    def fill(left, right, sign):
        for k, c in left_terms:
            left[k] = left.get(k, 0) + c
        for k, c in right_terms:
            right[k] = right.get(k, 0) + sign * c
    return fill


def test_multiples_of_p_are_zero_over_f_p():
    f5 = PrimeField(5)
    assert unequal_sides(f5, sums([(0, 5)], [(1, 10)])) is None
    assert unequal_sides(f5, sums([(0, 5), (1, 2)], [(0, 0), (1, 12)])) is None
    assert unequal_sides(f5, sums([(0, 3)], [])) == ({0: 3}, {})
    assert unequal_sides(f5, sums([(0, 4)], [(0, 6)])) == ({0: 4}, {0: 1})


def test_zero_over_q_is_tested_as_it_stands():
    half = Fraction(1, 2)
    assert unequal_sides(QQ, sums([(0, half), (0, half)], [(0, 1)])) is None
    big = 10 ** 30
    assert (unequal_sides(QQ, sums([(0, big), (0, 1)], [(0, big)]))
            == ({0: big + 1}, {0: big}))
    left, right = unequal_sides(QQ, sums([(0, half), (0, half)], [(0, 2)]))
    assert left == {0: 1} and type(left[0]) is int
    assert right == {0: 2}


# ---------------------------------------------------------------------------
# the antipode columns of the Hopf suite

def reference_antipode_items(hopf):
    """The convolution items of the suite, reading a column per term."""
    alg, coa, field = hopf.algebra, hopf.coalgebra, hopf.field
    unit = alg.unit_sv()
    for i in range(hopf.dim):
        left_acc, right_acc = {}, {}
        for j, k, c in coa.delta(i):
            for t, ct in hopf.antipode_col(j).items():
                sv_add_into(left_acc, alg.mul_basis(t, k), c * ct)
            for t, ct in hopf.antipode_col(k).items():
                sv_add_into(right_acc, alg.mul_basis(j, t), c * ct)
        target = sv_canon(field, {u: coa.counit[i] * cu
                                  for u, cu in unit.items()})
        yield 0, "antipode-left", (i,), sv_canon(field, left_acc), target
        yield 1, "antipode-right", (i,), sv_canon(field, right_acc), target


def moved_antipode(hopf, r, c):
    antipode = [list(row) for row in hopf.antipode]
    antipode[r][c] = hopf.field.canon(antipode[r][c] + 1)
    return HopfAlgebraData(hopf.algebra, hopf.coalgebra, antipode)


def reference_hopf_report(hopf):
    """The report of `check_hopf_axioms` with the per-term antipode items."""
    items = [item for item in algebra._hopf_items(hopf)
             if not item[1].startswith("antipode-") or not item[2]]
    at = next(t for t, item in enumerate(items)
              if item[1] == "antipode-invertible")
    items[at:at] = reference_antipode_items(hopf)
    report = algebra.check_algebra_axioms(hopf.algebra)
    report.absorb(certify_exhaustive(iter(items)))
    return report


@pytest.mark.parametrize("name", HOPF)
def test_hopf_suite_reads_each_antipode_column_once(name, monkeypatch):
    hopf = catalog_named(name)
    rng = random.Random(5)
    cases = [hopf] + [moved_antipode(hopf, rng.randrange(hopf.dim),
                                     rng.randrange(hopf.dim))
                      for _ in range(3)]
    real, calls = HopfAlgebraData.antipode_col, []

    def counting(self, j):
        calls.append(j)
        return real(self, j)

    reports = []
    for case in cases:
        calls.clear()
        monkeypatch.setattr(HopfAlgebraData, "antipode_col", counting)
        reports.append(summary(check_hopf_axioms(case)))
        monkeypatch.setattr(HopfAlgebraData, "antipode_col", real)
        assert 0 < len(calls) <= hopf.dim
    assert reports == [summary(reference_hopf_report(case))
                       for case in cases]
    assert reports[0] == (True, reports[0][1], None)
    assert not any(passed for passed, *_ in reports[1:])


# ---------------------------------------------------------------------------
# the pair walks of LinearMap

def reference_col_sv(lm, j):
    flat = lm._cols[j]
    return {flat[t]: flat[t + 1] for t in range(0, len(flat), 2)}


def reference_apply_sv(lm, v):
    acc = {}
    for j, x in v.items():
        flat = lm._cols[j]
        for t in range(0, len(flat), 2):
            r = flat[t]
            acc[r] = acc.get(r, 0) + x * flat[t + 1]
    return sv_canon(lm.field, acc)


def typed(sv):
    """A sparse vector with the type of every entry, in order."""
    return [(k, type(c), c) for k, c in sv.items()]


def vector_with_zeros(field, rng, dim):
    """A dense vector, about half of it zero; over Q some entries are
    integral Fractions and some are not."""
    out = []
    for _ in range(dim):
        r = rng.random()
        if r < 0.5:
            out.append(field.zero)
        elif field.characteristic or r < 0.7:
            out.append(field.canon(field.random(rng, 9)))
        elif r < 0.85:
            out.append(Fraction(rng.randint(-9, 9), rng.randint(1, 4)))
        else:
            out.append(Fraction(rng.randint(-9, 9)))
    return out


@pytest.mark.parametrize("name", ["cyclic:3", "taft:2:5"])
def test_pair_walks_match_the_indexed_loops(name):
    hopf, setup = triple(name)
    rng = random.Random(13)
    for kind in ISO_KINDS:
        lm = build_iso(kind, hopf, setup)
        for j in range(lm.src_dim):
            assert typed(lm.col_sv(j)) == typed(reference_col_sv(lm, j))
        for _ in range(4):
            xs = vector_with_zeros(lm.field, rng, lm.src_dim)
            # every nonzero coordinate, and some zero ones, as keys
            v = {j: x for j, x in enumerate(xs) if x or rng.random() < 0.2}
            assert typed(lm.apply_sv(v)) == typed(reference_apply_sv(lm, v))
        assert typed(lm.apply_sv({})) == []


# ---------------------------------------------------------------------------
# tooling

def test_catalog_script_keys_the_rows_before_the_certificates(monkeypatch,
                                                              capsys):
    script = load_catalog_script()
    monkeypatch.setattr(sys, "argv", ["build_catalog_products.py",
                                      "--entries", "cyclic:2"])
    assert script.main() == 0
    lines = capsys.readouterr().out.splitlines()
    for which in ("X", "Y", "Z"):
        at = lines.index(next(line for line in lines
                              if line.startswith(f"   {which}: 16 rows keyed (")))
        assert lines[at - 1].startswith(f"   {which}: 16 rows compiled (")
        assert lines[at + 1].startswith(f"   {which}: associativity pass ")
