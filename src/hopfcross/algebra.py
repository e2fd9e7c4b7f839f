"""Structure-constant algebras, coalgebras and Hopf algebras.

Conventions, fixed once for the whole package:

* multiplication is a sparse map ``(i, j) -> {k: c}`` meaning
  ``e_i e_j = sum_k c e_k``; the unit is a dense coefficient vector;
* comultiplication is ``i -> [(j, k, c), ...]`` meaning
  ``Delta(e_i) = sum c e_j (x) e_k``; the counit is a dense vector;
* the antipode is a dense matrix, column j = S(e_j);
* all tensor-product bases are lexicographic with the left factor major
  (``index = i * dim_right + j``);
* the double dual is identified with the original space through the
  evaluation pairing and no other identification is ever used.

Which axiom checks run exhaustively and which on random exact trials,
and the error bound of one trial, are set out once, in `report.certify`.
"""

from dataclasses import dataclass, field as dc_field

from .errors import (DimensionMismatchError, FieldMismatchError,
                     SingularMatrixError)
from .linalg import (LinearMap, add_tensor, mat_inv, null_space,
                     sv_add_into, sv_canon, sv_from_list, sv_tensor)
from .report import RANDOM_COORD_BOUND, certify, certify_exhaustive


@dataclass
class AlgebraData:
    field: object
    dim: int
    basis_labels: list
    mult: dict          # (i, j) -> {k: scalar}
    unit: list          # dense length-dim vector

    def __post_init__(self):
        n = self.dim
        if len(self.basis_labels) != n or len(self.unit) != n:
            raise DimensionMismatchError("labels/unit length must equal dim")
        for (i, j), entries in self.mult.items():
            if not (0 <= i < n and 0 <= j < n):
                raise IndexError(f"mult key ({i}, {j}) out of range")
            for k in entries:
                if not 0 <= k < n:
                    raise IndexError(f"mult target {k} out of range")

    def unit_sv(self):
        return sv_from_list(self.field, self.unit)

    def mul_basis(self, i, j):
        return self.mult.get((i, j), {})

    def mul_sv(self, x, y):
        acc = {}
        mult = self.mult
        for i, a in x.items():
            for j, b in y.items():
                entries = mult.get((i, j))
                if entries:
                    sv_add_into(acc, entries, a * b)
        return sv_canon(self.field, acc)

    def mul_dense(self, xs, ys):
        acc = [0] * self.dim
        zero = self.field.zero
        for (i, j), entries in self.mult.items():
            c = xs[i]
            if c == zero:
                continue
            d = ys[j]
            if d == zero:
                continue
            cd = c * d
            for k, m in entries.items():
                acc[k] += cd * m
        canon = self.field.canon
        return [canon(v) for v in acc]


@dataclass
class CoalgebraData:
    field: object
    dim: int
    basis_labels: list
    comult: dict        # i -> [(j, k, scalar), ...]
    counit: list
    _delta2: dict = dc_field(default_factory=dict, repr=False, compare=False)

    def __post_init__(self):
        n = self.dim
        if len(self.basis_labels) != n or len(self.counit) != n:
            raise DimensionMismatchError("labels/counit length must equal dim")
        for i, terms in self.comult.items():
            if not 0 <= i < n:
                raise IndexError(f"comult key {i} out of range")
            for j, k, _ in terms:
                if not (0 <= j < n and 0 <= k < n):
                    raise IndexError(f"comult leg ({j}, {k}) out of range")

    def delta(self, i):
        return self.comult.get(i, [])

    def delta2(self, i):
        """(Delta (x) id) Delta on basis i, cached: [(a, b, c, coeff), ...]."""
        cached = self._delta2.get(i)
        if cached is None:
            acc = {}
            for j, k, c in self.delta(i):
                for a, b, c2 in self.delta(j):
                    key = (a, b, k)
                    acc[key] = acc.get(key, 0) + c * c2
            canon = self.field.canon
            cached = [(a, b, k, cc) for (a, b, k), v in acc.items()
                      for cc in (canon(v),) if cc != self.field.zero]
            self._delta2[i] = cached
        return cached

    def delta_sv(self, v):
        """Delta applied to a sparse vector, flattened over dim*dim."""
        n = self.dim
        acc = {}
        for i, c in v.items():
            for j, k, c2 in self.delta(i):
                key = j * n + k
                acc[key] = acc.get(key, 0) + c * c2
        return sv_canon(self.field, acc)


@dataclass
class HopfAlgebraData:
    algebra: AlgebraData
    coalgebra: CoalgebraData
    antipode: list      # dense dim x dim matrix, column j = S(e_j)
    _s_inv: object = dc_field(default=None, repr=False, compare=False)

    def __post_init__(self):
        if self.algebra.dim != self.coalgebra.dim:
            raise DimensionMismatchError("algebra and coalgebra dims differ")
        n = self.algebra.dim
        if len(self.antipode) != n or any(len(r) != n for r in self.antipode):
            raise DimensionMismatchError("antipode matrix must be dim x dim")

    @property
    def field(self):
        return self.algebra.field

    @property
    def dim(self):
        return self.algebra.dim

    @property
    def basis_labels(self):
        return self.algebra.basis_labels

    def antipode_map(self):
        return LinearMap(self.field, self.dim, self.dim, self.antipode)

    def antipode_col(self, j):
        zero = self.field.zero
        return {r: self.antipode[r][j] for r in range(self.dim)
                if self.antipode[r][j] != zero}

    def antipode_inverse(self):
        if self._s_inv is None:
            self._s_inv = LinearMap(self.field, self.dim, self.dim,
                                    mat_inv(self.field, self.antipode))
        return self._s_inv

    def antipode_inv_col(self, j):
        return self.antipode_inverse().col_sv(j)

    def counit_sv(self, v):
        acc = 0
        for i, c in v.items():
            acc += c * self.coalgebra.counit[i]
        return self.field.canon(acc)


def random_dense_vector(field, rng, dim, bound=RANDOM_COORD_BOUND):
    return [field.random(rng, bound) for _ in range(dim)]


# ---------------------------------------------------------------------------
# axiom checks

def check_algebra_axioms(alg, mode=None):
    """Unit law and associativity, exhaustive or on random exact vectors."""
    return check_unit_and_associativity(
        alg.field, alg.dim, alg.unit_sv(), list(alg.unit),
        lambda: algebra_rows(alg).__getitem__, alg.mul_dense, mode)


def check_unit_and_associativity(field, n, unit, unit_dense, rows,
                                 product_dense, mode):
    """Unit law and associativity of a product given by its dense kernel
    and by `rows()`, which makes the row function {j: {k: c}} of the
    exhaustive check (unit.e_i = sum c_u row(u)[i], e_i.unit = sum c_u
    row(i)[u], left regular action) only when it runs."""
    one = field.one

    def exhaustive():
        row = rows()
        for i in range(n):
            e, left, right = {i: one}, {}, {}
            for u, c in unit.items():
                sv_add_into(left, row(u).get(i, {}), c)
                sv_add_into(right, row(i).get(u, {}), c)
            yield 0, "unit-law-left", (i,), sv_canon(field, left), e
            yield 1, "unit-law-right", (i,), sv_canon(field, right), e
        yield from associativity_blocks(field, n, n, row, row, "left",
                                        "associativity")

    def trial(rng, t):
        x, y, z = (random_dense_vector(field, rng, n) for _ in range(3))
        witness = ("trial", t)
        yield 0, "unit-law-left", witness, product_dense(unit_dense, x), x
        yield 0, "unit-law-right", witness, product_dense(x, unit_dense), x
        yield (1, "associativity", witness,
               product_dense(product_dense(x, y), z),
               product_dense(x, product_dense(y, z)))

    return certify(mode, n, exhaustive, trial)


def associativity_blocks(field, n, m_dim, product_row, act_row, side, axiom):
    """Items of (e_i e_j).m_t = e_i.(e_j.m_t) for a left action, or of
    m_t.(e_i e_j) = (m_t.e_i).e_j for a right one, for all i, j < n and
    t < m_dim, one block per first actor index i.

    `product_row(i)` is {j: {m: c}} over the nonzero e_i e_j = sum c e_m
    (`algebra_rows`, `keyed_rows`), and `act_row(j)` is {t: {s: c}} over
    the nonzero canonical actions of e_j on m_t, in the order of `side`
    (`ActionData.rows`); algebra associativity is the case of the left
    regular action, whose action rows are the product rows.
    Block i is a `block_item` fill over every (j, t) at once, keyed by
    the flattened (j, t, s): one side runs over the nonzero terms
    e_i e_j = sum c e_m, then over e_m acting on m_t (the action row m
    flattened once to [(t * m_dim + s, c)]); the other acts on m_t by
    e_j then e_i (left) or e_i then e_j (right), joined on the middle
    index u with the actions of the e_j (`by_u`), so it reads only
    pairs of nonzero terms.
    The keys (j, t, s) partition the block, identity (i, j, t) owning
    the keys with that (j, t), so the block passes if and only if every
    one of the n*m_dim identities holds: the check stays exact and
    exhaustive, and a zero product e_i e_j costs nothing.

    A passing block is one item of count n*m_dim, witness (i,) and empty
    sides.  In a block that differs, the smallest differing key names
    the first failing identity (i, j, t): one item of count
    j*m_dim + t + 1 whose sides are restricted to that (j, t), keyed by
    s.  So the report is that of the per-triple stream.  The action rows
    are read once, up front; product row i is read by block i.
    """
    stride = m_dim * m_dim
    acts = [act_row(m) for m in range(n)]
    flat = [[(t * m_dim + s, c) for t, out in row.items()
             for s, c in out.items()] for row in acts]
    # left: by_u[u] = [(flattened (j, t, 0), c)] over the nonzero
    # e_j.m_t = c m_u; right: by_u[u] = [(flattened (j, 0, 0), m_u.e_j)]
    by_u = [[] for _ in range(m_dim)]
    for j in range(n):
        for t, out in acts[j].items():
            if side == "left":
                for u, c in out.items():
                    by_u[u].append(((j * m_dim + t) * m_dim, c))
            else:
                by_u[t].append((j * stride, list(out.items())))
    for i in range(n):
        prods = product_row(i)
        row = [(t, list(out.items())) for t, out in acts[i].items()]

        def fill(left, right, sign):
            for j, prod in prods.items():
                base = j * stride
                for m, c in prod.items():
                    for off, c2 in flat[m]:
                        key = base + off
                        left[key] = left.get(key, 0) + c * c2
            if side == "left":
                for u, out in row:
                    for at, c in by_u[u]:
                        w = sign * c
                        for s, c2 in out:
                            key = at + s
                            right[key] = right.get(key, 0) + w * c2
            else:
                for t, first in row:
                    tm = t * m_dim
                    for u, c in first:
                        w = sign * c
                        for base, out in by_u[u]:
                            at = base + tm
                            for s, c2 in out:
                                key = at + s
                                right[key] = right.get(key, 0) + w * c2
        yield block_item(field, axiom, (i,), n * m_dim, m_dim, fill,
                         lambda jt: divmod(jt, m_dim))


def unequal_sides(field, fill):
    """None if the two sides that `fill(left, right, sign)` sums are
    equal in `field`, else both sides as canonical sparse dicts.

    `fill` adds the lhs terms into `left` and `sign` times the rhs terms
    into `right`.  It runs once into one dict with sign -1, and the sides
    are equal exactly when every value of lhs - rhs is zero in `field`.
    The zero test runs in C and is exact by characteristic: over Q a
    value is zero as it stands (`canon` only turns an integral Fraction
    into an int, which never changes whether it is zero), and over F_p
    when it is divisible by p.  Only unequal sides are summed apart, by
    a second run with sign 1."""
    diff = {}
    fill(diff, diff, -1)
    p = field.characteristic
    if not any(map(p.__rmod__, diff.values()) if p else diff.values()):
        return None
    left, right = {}, {}
    fill(left, right, 1)
    return sv_canon(field, left), sv_canon(field, right)


def block_item(field, axiom, witness, count, width, fill,
               index=lambda q: (q,)):
    """The item of a block of `count` identities whose two sides
    `fill(left, right, sign)` adds into sparse dicts keyed by
    q * width + s, identity q owning the keys with that q, the rhs
    terms times `sign` (`unequal_sides`).  Equal sides give one item of
    count `count`, witness `witness` and empty sides: only `certify`
    reads them.  Otherwise the smallest differing key names the first
    failing identity q: one item of count q + 1, witness
    `witness + index(q)` and both sides restricted to q, keyed by s."""
    sides = unequal_sides(field, fill)
    if sides is None:
        return count, axiom, witness, {}, {}
    left, right = sides
    q = min(k for k in left.keys() | right.keys()
            if left.get(k) != right.get(k)) // width
    at = q * width
    return (q + 1, axiom, witness + index(q),
            {k - at: c for k, c in left.items() if k // width == q},
            {k - at: c for k, c in right.items() if k // width == q})


def multiplicative_items(field, axiom, n, src_row, images, dst_row, width):
    """Blocks of the items (1, axiom, (i, j), F(e_i e_j), F(e_i) F(e_j))
    for all i, j < n, where F(e_k) = images[k] has coordinates below
    `width`: the linear map F is multiplicative.  One `block_item` per
    left index i, so the report is that of the per-pair stream, and a
    passing block carries empty sides.

    Rows are mappings {j: {k: c}} over the nonzero structure
    constants e_i e_j = sum c e_k (`algebra_rows`, `keyed_rows`,
    `tensor_rows`): `src_row(i)` of the source, `dst_row(a)` of the
    target.  F(e_i e_j) for every j is summed from the terms of row i of
    the source, each image read as a list of its terms, made once.
    F(e_i) F(e_j) for every j is summed over the terms a of
    F(e_i), joining row a of the target with the transpose of the
    images, b -> [(j, coefficient of e_b in F(e_j))], built once; the
    join walks whichever side is smaller and looks the other up.  Both
    sides are keyed by j * width + s, and only nonzero basis products
    are read.  Each caller checks its own unit law."""
    by_b = {}           # b -> [(j * width, coefficient of e_b in F(e_j))]
    for j in range(n):
        for b, c in images[j].items():
            by_b.setdefault(b, []).append((j * width, c))
    terms = [list(image.items()) for image in images]
    for i in range(n):
        prods = src_row(i)

        def fill(lhs, rhs, sign):
            for j, prod in prods.items():
                at = j * width
                for k, c in prod.items():
                    for s, cs in terms[k]:
                        key = at + s
                        lhs[key] = lhs.get(key, 0) + c * cs
            for a, ca in terms[i]:
                row = dst_row(a)
                if len(row) <= len(by_b):
                    joined = [(col, prod) for b, prod in row.items()
                              if (col := by_b.get(b))]
                else:
                    joined = [(col, prod) for b, col in by_b.items()
                              if (prod := row.get(b))]
                ca *= sign
                for col, prod in joined:
                    for s, c in prod.items():
                        w = ca * c
                        for at, cj in col:
                            key = at + s
                            rhs[key] = rhs.get(key, 0) + w * cj
        yield block_item(field, axiom, (i,), n, width, fill)


def algebra_rows(alg):
    """Row i is {j: {k: c}} over the nonzero e_i e_j = sum c e_k."""
    return grouped_rows(alg.mult, alg.dim)


def grouped_rows(table, dim):
    """A table (i, j) -> {k: c} grouped by i, as a list of dim rows
    {j: {k: c}} over its nonempty entries, whose dicts are the table's."""
    rows = [{} for _ in range(dim)]
    for (i, j), entries in table.items():
        if entries:
            rows[i][j] = entries
    return rows


def keyed_row(flat):
    """The row {j: {k: c}} of a row [j, k, c, ...], such as a compiled
    row of a handle."""
    out = {}
    terms = iter(flat)
    for j, k, c in zip(terms, terms, terms):
        out.setdefault(j, {})[k] = c
    return out


def keyed_rows(flat_row):
    """Rows {j: {k: c}} from rows [j, k, c, ...] (`keyed_row`), each
    converted once and kept; a row is stored only once it is complete."""
    rows = {}

    def row(i):
        out = rows.get(i)
        if out is None:
            out = rows[i] = keyed_row(flat_row(i))
        return out
    return row


def tensor_rows(a_row, b_row, db):
    """Rows {b: {s: c}} of A (x) B, whose product is componentwise, from
    the rows of A and of B and dim B: row a1 * db + a2 is read lazily from
    rows a1 and a2, so a lookup in it costs one lookup in each factor."""
    def row(a):
        a1, a2 = divmod(a, db)
        return _TensorRow(a_row(a1), b_row(a2), db)
    return row


class _TensorRow:
    """Row (a1, a2) of A (x) B: keyed by b1 * db + b2, with products
    {s1 * db + s2: c1 * c2}, from row a1 of A and row a2 of B."""

    __slots__ = ("left", "right", "db")

    def __init__(self, left, right, db):
        self.left, self.right, self.db = left, right, db

    def __len__(self):
        return len(self.left) * len(self.right)

    def get(self, b):
        b1, b2 = divmod(b, self.db)
        first = self.left.get(b1)
        second = self.right.get(b2) if first else None
        return self._terms(first, second) if second else None

    def items(self):
        db = self.db
        for b1, first in self.left.items():
            for b2, second in self.right.items():
                yield b1 * db + b2, self._terms(first, second)

    def _terms(self, first, second):
        db = self.db
        return {s1 * db + s2: c1 * c2 for s1, c1 in first.items()
                for s2, c2 in second.items()}


def check_coalgebra_axioms(coa):
    """Coassociativity and the counit law (linear, so always per basis)."""
    return certify_exhaustive(coalgebra_items(coa))


def coalgebra_items(coa):
    """Items of `check_coalgebra_axioms`, for the checks that chain it:
    per basis element, coassociativity, keyed (a, b, c) in H (x) H (x) H,
    and the two counit laws.  Each is summed as one signed difference
    (`unequal_sides`), so a passing item carries empty sides."""
    field, counit = coa.field, coa.counit
    for i in range(coa.dim):
        delta = coa.delta(i)

        def coassociativity(lhs, rhs, sign):
            for j, k, c in delta:
                for a, b, c2 in coa.delta(j):
                    key = (a, b, k)
                    lhs[key] = lhs.get(key, 0) + c * c2
                w = sign * c
                for a, b, c2 in coa.delta(k):
                    key = (j, a, b)
                    rhs[key] = rhs.get(key, 0) + w * c2

        def counit_left(lhs, rhs, sign):
            for j, k, c in delta:
                lhs[k] = lhs.get(k, 0) + c * counit[j]
            rhs[i] = rhs.get(i, 0) + sign * field.one

        def counit_right(lhs, rhs, sign):
            for j, k, c in delta:
                lhs[j] = lhs.get(j, 0) + c * counit[k]
            rhs[i] = rhs.get(i, 0) + sign * field.one

        for count, axiom, fill in ((0, "coassociativity", coassociativity),
                                   (0, "counit-left", counit_left),
                                   (1, "counit-right", counit_right)):
            yield (count, axiom, (i,),
                   *(unequal_sides(field, fill) or ({}, {})))


def check_hopf_axioms(hopf, mode=None):
    """Full Hopf suite: (co)algebra, bialgebra, antipode, S invertible.

    The algebra axioms run in `mode`; the rest are linear in each basis
    element and always run exhaustively, after them.
    """
    report = check_algebra_axioms(hopf.algebra, mode)
    if report.passed:
        report.absorb(certify_exhaustive(_hopf_items(hopf)))
    return report


def _hopf_items(hopf):
    """The items of `check_hopf_axioms` after the algebra axioms.  Delta
    is multiplicative in one block per left index i, with the report of
    the per-pair stream, where eps(e_i e_j) followed Delta(e_i e_j): the
    eps items of the pairs block i holds go first and carry their counts."""
    alg, coa = hopf.algebra, hopf.coalgebra
    field = alg.field
    n = alg.dim
    yield from coalgebra_items(coa)

    # Delta and counit are algebra maps; Delta(1) = 1 (x) 1, eps(1) = 1.
    unit = alg.unit_sv()
    yield (0, "comult-of-unit", (), coa.delta_sv(unit),
           sv_tensor(field, [unit, unit], [n, n]))
    yield 0, "counit-of-unit", (), hopf.counit_sv(unit), field.one
    images = [coa.delta_sv({k: field.one}) for k in range(n)]
    row = algebra_rows(alg).__getitem__
    for count, axiom, witness, lhs, rhs in multiplicative_items(
            field, "comult-multiplicative", n, row, images,
            tensor_rows(row, row, n), n * n):
        i, stop = witness[0], witness[1] if len(witness) > 1 else n
        for j in range(stop):
            yield (1, "counit-multiplicative", (i, j),
                   hopf.counit_sv(alg.mul_basis(i, j)),
                   field.canon(coa.counit[i] * coa.counit[j]))
        yield count - stop, axiom, witness, lhs, rhs

    # Convolution identities for the antipode, over its n columns, each
    # read off the dense matrix once.
    s_cols = [hopf.antipode_col(j) for j in range(n)]
    for i in range(n):
        left_acc, right_acc = {}, {}
        for j, k, c in coa.delta(i):
            for t, ct in s_cols[j].items():
                sv_add_into(left_acc, alg.mul_basis(t, k), c * ct)
            for t, ct in s_cols[k].items():
                sv_add_into(right_acc, alg.mul_basis(j, t), c * ct)
        target = sv_canon(field, {u: coa.counit[i] * cu for u, cu in unit.items()})
        yield 0, "antipode-left", (i,), sv_canon(field, left_acc), target
        yield 1, "antipode-right", (i,), sv_canon(field, right_acc), target

    try:
        hopf.antipode_inverse()
        invertible = "invertible"
    except SingularMatrixError:
        invertible = "singular"
    yield 0, "antipode-invertible", (), invertible, "invertible"


# ---------------------------------------------------------------------------
# constructions

def dual_hopf(hopf):
    """The dual Hopf algebra on the dual basis.

    Multiplication of the dual is the transpose of Delta, its unit is the
    counit, comultiplication is the transpose of multiplication, the
    counit is evaluation at 1, and the antipode is the transpose of S.
    Taking the dual twice returns the original structure constants under
    the evaluation pairing.
    """
    alg, coa = hopf.algebra, hopf.coalgebra
    field = alg.field
    n = alg.dim
    labels = [f"{lbl}^" for lbl in alg.basis_labels]

    mult = {}
    for i, terms in coa.comult.items():
        for j, k, c in terms:
            mult.setdefault((j, k), {})[i] = c
    dual_alg = AlgebraData(field, n, labels, mult, list(coa.counit))

    comult = {}
    for (i, j), entries in alg.mult.items():
        for k, c in entries.items():
            comult.setdefault(k, []).append((i, j, c))
    dual_coa = CoalgebraData(field, n, labels, comult, list(alg.unit))

    antipode = [[hopf.antipode[c][r] for c in range(n)] for r in range(n)]
    return HopfAlgebraData(dual_alg, dual_coa, antipode)


def op_algebra(alg, labels=None):
    """Same space with reversed multiplication, sharing the entry dicts."""
    mult = {(j, i): entries for (i, j), entries in alg.mult.items()}
    return AlgebraData(alg.field, alg.dim,
                       list(labels or alg.basis_labels), mult, list(alg.unit))


def cop_coalgebra(coa):
    """Same space with reversed comultiplication."""
    comult = {}
    for i, terms in coa.comult.items():
        comult[i] = [(k, j, c) for j, k, c in terms]
    return CoalgebraData(coa.field, coa.dim, list(coa.basis_labels), comult,
                         list(coa.counit))


def variant(hopf, which):
    """op / cop / op_cop of a Hopf algebra.

    op reverses multiplication, cop reverses comultiplication; in either
    single case the antipode becomes S^-1, while op_cop keeps S.
    """
    if which not in ("op", "cop", "op_cop"):
        raise ValueError(f"unknown variant {which!r}")
    alg, coa = hopf.algebra, hopf.coalgebra
    if which == "op":
        new_alg, new_coa = op_algebra(alg), coa
    elif which == "cop":
        new_alg, new_coa = alg, cop_coalgebra(coa)
    else:
        new_alg, new_coa = op_algebra(alg), cop_coalgebra(coa)
    if which == "op_cop":
        antipode = [row[:] for row in hopf.antipode]
    else:
        antipode = hopf.antipode_inverse().rows
    return HopfAlgebraData(new_alg, new_coa, antipode)


def tensor_algebra(a, b):
    """Componentwise algebra structure on basis pairs, left factor major."""
    if a.field != b.field:
        raise FieldMismatchError("tensor factors over different fields")
    field = a.field
    da, db = a.dim, b.dim
    labels = [f"{la}*{lb}" for la in a.basis_labels for lb in b.basis_labels]
    mult = {}
    for (i1, j1), e1 in a.mult.items():
        for (i2, j2), e2 in b.mult.items():
            entries = {}
            for k1, c1 in e1.items():
                for k2, c2 in e2.items():
                    c = field.canon(c1 * c2)
                    if c != field.zero:
                        entries[k1 * db + k2] = c
            if entries:
                mult[(i1 * db + i2, j1 * db + j2)] = entries
    unit = [field.canon(ua * ub) for ua in a.unit for ub in b.unit]
    return AlgebraData(field, da * db, labels, mult, unit)


def tensor_product(field, a_mul, b_mul, da, db):
    """The sparse product (a (x) b)(a' (x) b') = aa' (x) bb' of A (x) B on
    the left-major flattened basis, from the basis products and dims of
    A and B; no structure constants of A (x) B are built."""

    def product(x, y):
        acc = {}
        for s, cx in x.items():
            a1, b1 = divmod(s, db)
            for t, cy in y.items():
                a2, b2 = divmod(t, db)
                add_tensor(acc, a_mul(a1, a2), b_mul(b1, b2), db, cx * cy)
        return sv_canon(field, acc)

    return product


def tensor_hopf(h1, h2):
    """H1 (x) H2 with componentwise structure and antipode S1 (x) S2."""
    if h1.field != h2.field:
        raise FieldMismatchError("tensor factors over different fields")
    field = h1.field
    d1, d2 = h1.dim, h2.dim
    alg = tensor_algebra(h1.algebra, h2.algebra)
    labels = alg.basis_labels
    comult = {}
    for i1 in range(d1):
        for i2 in range(d2):
            terms = []
            for j1, k1, c1 in h1.coalgebra.delta(i1):
                for j2, k2, c2 in h2.coalgebra.delta(i2):
                    c = field.canon(c1 * c2)
                    if c != field.zero:
                        terms.append((j1 * d2 + j2, k1 * d2 + k2, c))
            if terms:
                comult[i1 * d2 + i2] = terms
    counit = [field.canon(h1.coalgebra.counit[i1] * h2.coalgebra.counit[i2])
              for i1 in range(d1) for i2 in range(d2)]
    coa = CoalgebraData(field, d1 * d2, labels, comult, counit)
    antipode = [[field.canon(h1.antipode[r1][c1] * h2.antipode[r2][c2])
                 for c1 in range(d1) for c2 in range(d2)]
                for r1 in range(d1) for r2 in range(d2)]
    return HopfAlgebraData(alg, coa, antipode)


def antipode_inverse(hopf):
    """S^-1 as a LinearMap; raises SingularMatrixError on corrupted input."""
    return hopf.antipode_inverse()


def trace_form_radical(alg):
    """Basis of the radical of the trace form (x, y) -> tr(L_x L_y).

    In characteristic 0 this kernel is the Jacobson radical, so the
    algebra is semisimple iff the result is empty.  Rejected over F_p,
    where the criterion is invalid.
    """
    if alg.field.characteristic != 0:
        raise ValueError("trace-form radical requires characteristic 0")
    n = alg.dim
    field = alg.field

    # trace(L_i L_j) = sum_t coefficient of e_t in e_i (e_j e_t): a sum
    # over the nonzero e_j e_t = c e_s of c * c2, for every nonzero
    # e_i e_s = c2 e_t, so only matching pairs of terms are visited
    back = [{} for _ in range(n)]   # t -> s -> [(i, c2)]: e_i e_s has c2 e_t
    for (i, s), entries in alg.mult.items():
        for t, c2 in entries.items():
            back[t].setdefault(s, []).append((i, c2))
    gram = [{} for _ in range(n)]   # gram[j][i] = trace(L_i L_j), symmetric
    for (j, t), entries in alg.mult.items():
        row, back_t = gram[j], back[t]
        for s, c in entries.items():
            for i, c2 in back_t.get(s, ()):
                row[i] = row.get(i, 0) + c * c2
    return null_space(field, [sv_canon(field, row) for row in gram], n)
