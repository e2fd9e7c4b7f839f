"""Crossed-product algebra builders, exposed as lazy multiplication oracles.

Every product algebra here is a twisted tensor product A (x)_R B: the
space A (x) B, flattened left-major, with the product

  (a (x) b)(a' (x) b') = sum a a'' (x) b'' b',  R(b (x) a') = sum a'' (x) b''

for a twisting map R: B (x) A -> A (x) B.  `twisted_tensor` is the one
builder; each construction only names its factors and its R:

* left smash  A # H = A (x)_R H,  R(h (x) b) = sum h1.b (x) h2:
    (a # h)(b # g)   = sum a (h1.b) # h2 g
* right smash H # B = H (x)_R B,  R(a (x) g) = sum g1 (x) a.g2:
    (h # a)(g # b)   = sum h g1 # (a.g2) b
* two-sided   A # H # B = (A # H) (x)_R B,  R(b (x) a#h) = sum a#h1 (x) b.h2:
    (a # h # b)(a' # h' # b') = sum a (h1.a') # h2 h'1 # (b.h'2) b'
* diagonal    C >< H = C (x)_R H,  R(h (x) c) = sum h1.c.S^-1(h3) (x) h2:
    (c >< h)(c' >< h') = sum c (h1.c'.S^-1(h3)) >< h2 h'

and the dedicated four-slot algebras built from a Hopf algebra H with
dual D and K = H (x) H^op:

* Y = D # K # D^op on (p, h, g, q)-slots, via the two-sided builder;
* Z = (D (x) D^op) >< K on (p, q, h, g)-slots, the diagonal product;
* X = (H^op (x) H) (x)_R (D (x) D^op) on (g, h, p, q)-slots, whose R
  straightens ((1(x)1)(x)(p(x)q)) ((g(x)h)(x)(1(x)1)) to
  sum (g2 (x) h2) (x) (S^-1(h1)->p<-S(g1) (x) S(h3)->q<-S^-1(g3)).

Each R is one constructor, `left_smash_twist`, `right_smash_twist` or
`diagonal_twist` (the two-sided R carries a along the right-smash R),
read by the builders and, with the `_inv` twists, by the module
conditions of `bimodules`.  X's R, `x_twist`, is K # D^op's R carrying
q past kappa = h (x) g, then D # K's R^-1 carrying p past k1; Z's R,
`z_twist`, is D # K's R carrying p past kappa, then K # D^op's R^-1
carrying q past k2.  The maps of `isos` read the same constructors, so
one mechanism moves the dual slots p and q for builders, conditions and
maps alike.  Each constructor returns one closure per (H, action),
memoised per argument and kept on the action it reads, and the two
composites are kept on their `StandardTriple`: every reader of one
triple shares one evaluation of each R per argument.
"""

import functools
import math
from bisect import bisect_left

from .algebra import (AlgebraData, algebra_rows, check_unit_and_associativity,
                      dual_hopf, keyed_row, keyed_rows, op_algebra,
                      tensor_algebra, tensor_hopf, variant)
from .actions import (ActionData, build_bimodule_algebra,
                      check_bimodule_algebra, check_module_algebra,
                      composite_action, regular_actions)
from .errors import CapExceededError
from .linalg import add_tensor, sv_canon, sv_tensor

# Slot order of each four- and three-slot algebra: p, q over D, h, g over H.
LAYOUTS = {"X": "ghpq", "Y": "phgq", "Z": "pqhg",
           "left_smash": "phg", "right_smash": "hgq"}


class AlgebraHandle:
    """An algebra given by a multiplication oracle on coefficient vectors.

    The one product store is the compiled rows: `_row(i)` is row i as
    one flat [j, k, c, ...] list over the nonzero structure constants
    e_i e_j = sum c e_k, sorted by (j, k) and compiled on first use,
    from `row_fn(i)` when the builder gives one, else from
    `pair_fn(i, j)` over every j.  A handle that is built but not used
    holds O(dim) slots.  `basis_product` finds its j in row i by binary
    search, `product` walks the rows of the support of x, and
    `product_dense` and `materialize` read rows too; over Q, once every
    row is compiled, `product_dense` runs on doubles wherever a bound
    read off the rows proves them exact.

    `keyed_row(i)` is row i keyed as {j: {k: c}} (`algebra.keyed_rows`),
    the row shape the exhaustive certificates read: the axioms, module
    associativity and both sides of every morphism certificate.  It is
    made from `_row(i)` once per row and kept, so the certificates on one
    handle key each row once, not once per certificate; only a whole row
    is stored, so threads reading it see whole rows.  The random trials
    never key a row.
    """

    def __init__(self, field, factor_dims, basis_labels, unit_sv, pair_fn,
                 provenance, row_fn=None):
        self.field = field
        self.factor_dims = tuple(factor_dims)
        self.dim = dim = math.prod(self.factor_dims)
        self.basis_labels = basis_labels
        self.unit = dict(unit_sv)
        self.provenance = provenance
        self._pair_fn = pair_fn
        self._row_fn = row_fn
        self._rows = [None] * dim
        self._bound = None      # `_double_bound`, once every row is compiled
        self.keyed_row = keyed_rows(self._row)

    def _row(self, i):
        """Row i as [j, k, c, ...] over every nonzero e_i e_j = sum c e_k,
        sorted by (j, k); compiled on first use."""
        row = self._rows[i]
        if row is None:
            if self._row_fn is not None:
                row = self._row_fn(i)
            else:
                row = []
                for j in range(self.dim):
                    sv = self._pair_fn(i, j)
                    for k in sorted(sv):
                        row += (j, k, sv[k])
            self._rows[i] = row
        return row

    def basis_product(self, i, j):
        row = self._row(i)
        t = 3 * bisect_left(range(0, len(row), 3), j, key=row.__getitem__)
        out = {}
        while t < len(row) and row[t] == j:
            out[row[t + 1]] = row[t + 2]
            t += 3
        return out

    def product(self, x, y):
        """Sparse-vector product over the rows of x's support; exact and
        canonical."""
        acc = {}
        for i, a in x.items():
            terms = iter(self._row(i))
            for j, k, c in zip(terms, terms, terms):
                b = y.get(j)
                if b is not None:
                    acc[k] = acc.get(k, 0) + a * b * c
        return sv_canon(self.field, acc)

    def product_dense(self, xs, ys):
        """Dense product of coefficient lists over the rows of x's support;
        exact and canonical.

        Over Q with `int` coordinates the loop runs on doubles when
        max(1, max|x|) max(1, max|y|) m < 2^53, m = `_double_bound()`.
        Then x_i, y_j, c, y_j c, x_i (y_j c) and every partial sum of
        acc[k] are integers below 2^53 in magnitude: acc[k] sums at most
        N_k terms, each at most max|x| max|y| max|c|.  IEEE-754 doubles
        represent such integers, and their products and sums are exact,
        so `int` of each entry is the list the exact loop gives, entry
        for entry and type for type.  Otherwise, and always over F_p
        (whose residues are small cached ints), the loop runs on the
        exact scalars.
        """
        acc = [0] * self.dim
        zero = self.field.zero
        doubles = self._exact_in_doubles(xs, ys)
        if doubles:
            xs, ys = list(map(float, xs)), list(map(float, ys))
        for i, a in enumerate(xs):
            if a == zero:
                continue
            terms = iter(self._row(i))
            for j, k, c in zip(terms, terms, terms):
                acc[k] += a * (ys[j] * c)
        if doubles:
            return list(map(int, acc))
        canon = self.field.canon
        return [canon(v) for v in acc]

    def _exact_in_doubles(self, xs, ys):
        """Whether `product_dense` of xs and ys runs exactly on doubles."""
        if self.field.characteristic or not self._double_bound():
            return False
        if not set(map(type, xs)) == set(map(type, ys)) == {int}:
            return False
        return (max(1, max(map(abs, xs), default=0))
                * max(1, max(map(abs, ys), default=0)) * self._bound < 2 ** 53)

    def _double_bound(self):
        """m = max|c| max_k N_k, N_k the number of row terms with output
        index k over all rows; 0 when a structure constant is not an
        `int` or there is no term.  Computed once every row is compiled,
        and read as 0 until then."""
        if self._bound is None and None not in self._rows:
            counts = [0] * self.dim
            top = 0
            for row in self._rows:
                for k in row[1::3]:
                    counts[k] += 1
                consts = row[2::3]
                if not set(map(type, consts)) <= {int}:
                    top = 0
                    break
                top = max(top, max(map(abs, consts), default=0))
            self._bound = top * max(counts)
        return self._bound or 0

    def unit_dense(self):
        out = [self.field.zero] * self.dim
        for k, c in self.unit.items():
            out[k] = c
        return out


def materialize(handle, cap):
    """Structure constants read off the compiled rows, keyed (i, j) in
    order and each sorted by k.

    Refuses when dim exceeds the cap, signalling the caller to stay in
    oracle mode.
    """
    if handle.dim > cap:
        raise CapExceededError(
            f"dim {handle.dim} exceeds materialization cap {cap}")
    mult = {}
    for i in range(handle.dim):
        terms = iter(handle._row(i))
        for j, k, c in zip(terms, terms, terms):
            mult.setdefault((i, j), {})[k] = c
    return AlgebraData(handle.field, handle.dim, list(handle.basis_labels),
                       mult, handle.unit_dense())


def handle_from_algebra(alg):
    return AlgebraHandle(alg.field, (alg.dim,), alg.basis_labels,
                         alg.unit_sv(), alg.mul_basis, "plain")


def check_handle_axioms(handle, mode=None):
    """Unit law and associativity through the compiled rows."""
    return check_unit_and_associativity(
        handle.field, handle.dim, handle.unit, handle.unit_dense(),
        lambda: handle.keyed_row, handle.product_dense, mode)


# ---------------------------------------------------------------------------
# the twisted tensor product and the generic builders

def twisted_tensor(field, a_row, b_mul, db, twist, factor_dims, labels, unit,
                   provenance):
    """A (x)_R B, with `twist(b, a')` = R(b (x) a') on the flattened basis.

    `a_row(a)` is row a of A, {a3: {a4: c}} over the nonzero products
    e_a e_a3 = sum c e_a4 (the row shape of `algebra_rows` and
    `keyed_row`), `b_mul` is the basis product of B, and `db` is dim B.
    The handle's rows are its only product store, and the row builder
    here is the only evaluation of the formula.  Row i of a (x) b is
    compiled in one pass over nonzero terms only:

    * the twist row of b, R(b (x) a') = sum c a3 (x) b3 over every a',
      as lists of (a', a3, c) grouped by b3, tabled on the first row
      with this b, so R is evaluated once per basis pair (b, a');
    * each term joined with row a of A, read once for the last a asked
      for (the db rows i = a db + b share it), summed into one dict per
      b3 keyed by (a', a4);
    * each b3 dict times every nonzero product b3 b' of B (tabled on
      the first row), summed into one dict keyed by (j, k), whose sorted
      keys and canonical nonzero values are the row.

    A table is stored only once it is complete, so threads compiling
    rows of one handle at once read whole tables or build their own.
    """
    dim = math.prod(factor_dims)
    da = dim // db
    canon, zero = field.canon, field.zero
    twist_rows = [None] * db    # b -> [(b3, [(a' dim, a3, c), ...]), ...]
    b_terms = None      # b3 -> [(b' dim + b5, c), ...] over the nonzero b3 b'
    # (a, row a of A) of the last left A index, rebound whole, so a call
    # never reads the row of another index
    a_cache = (None, None)

    def row(i):
        """Row i as [j, k, c, ...], sorted by (j, k)."""
        nonlocal b_terms, a_cache
        if b_terms is None:
            b_terms = [[(b2 * dim + b5, c) for b2 in range(db)
                        for b5, c in b_mul(b3, b2).items()]
                       for b3 in range(db)]
        a, b = divmod(i, db)
        groups = twist_rows[b]
        if groups is None:
            by_b3 = {}
            for a2 in range(da):
                for k, c in sv_canon(field, twist(b, a2)).items():
                    a3, b3 = divmod(k, db)
                    by_b3.setdefault(b3, []).append((a2 * dim, a3, c))
            groups = twist_rows[b] = list(by_b3.items())
        cached, products = a_cache
        if cached != a:
            products = a_row(a)
            a_cache = (a, products)
        acc = {}
        for b3, terms in groups:
            group = {}
            for at, a3, c in terms:
                prod = products.get(a3)
                if prod:
                    for a4, ca in prod.items():
                        key = at + a4
                        group[key] = group.get(key, 0) + c * ca
            expand = b_terms[b3]
            for at, c in group.items():
                at *= db
                for off, cb in expand:
                    key = at + off
                    acc[key] = acc.get(key, 0) + c * cb
        out = []
        for key in sorted(acc):
            c = canon(acc[key])
            if c != zero:
                out += (key // dim, key % dim, c)
        return out

    return AlgebraHandle(field, factor_dims, labels, unit, None, provenance,
                         row)


def _algebra_row(alg):
    """Row a of `algebra_rows(alg)`, the rows grouped on the first call."""
    rows = None

    def row(a):
        nonlocal rows
        if rows is None:
            rows = algebra_rows(alg)
        return rows[a]
    return row


def _tensor_sum(dim_y, terms):
    """sum x (x) y over the sparse pairs (x, y) of `terms`, flattened."""
    acc = {}
    for x, y in terms:
        add_tensor(acc, x, y, dim_y, 1)
    return acc


def _kept(holder):
    """A decorator: the closure a twist constructor makes, memoised per
    argument, made once and kept in the `twists` of the constructor's
    argument at position `holder` (the action it reads, or the triple).

    The key matches the other arguments by identity, and the entry holds
    them, so their ids are not reused while it is kept.  A value is
    stored whole and shared by every reader, which must not change it.
    The undecorated constructor is read from `__wrapped__` when a twist
    is made, so a test can count the evaluations under the memo."""
    def decorate(make):
        @functools.wraps(make)
        def constructor(*args):
            others = args[:holder] + args[holder + 1:]
            key, kept = (constructor, *map(id, others)), args[holder].twists
            if key not in kept:
                kept[key] = others, functools.cache(
                    constructor.__wrapped__(*args))
            return kept[key][1]
        return constructor
    return decorate


@_kept(1)
def left_smash_twist(hopf, act):
    """R(h (x) a) = sum h1.a (x) h2, the twist of A # H."""
    dh, delta = hopf.dim, hopf.coalgebra.delta

    def twist(h, a):
        acc = {}
        for h1, h2, c in delta(h):
            add_tensor(acc, act.act_basis(h1, a), {h2: c}, dh, 1)
        return acc

    return twist


def _s_inv_action(hopf, act):
    """(h, x) -> S^-1(h) acting on e_x, memoised per (h, x)."""
    s_inv, one = hopf.antipode_inv_col, act.field.one
    return functools.cache(lambda h, x: act.act_sv(s_inv(h), {x: one}))


@_kept(1)
def left_smash_twist_inv(hopf, act):
    """R^-1(a (x) h) = sum h2 (x) S^-1(h1).a, on H (x) A."""
    delta, moved = hopf.coalgebra.delta, _s_inv_action(hopf, act)
    return lambda a, h: _tensor_sum(act.space_dim, (
        ({h2: c}, moved(h1, a)) for h1, h2, c in delta(h)))


@_kept(1)
def right_smash_twist(hopf, act):
    """R(b (x) h) = sum h1 (x) b.h2, the twist of H # B."""
    db, delta = act.space_dim, hopf.coalgebra.delta

    def twist(b, h):
        acc = {}
        for h1, h2, c in delta(h):
            add_tensor(acc, {h1: c}, act.act_basis(h2, b), db, 1)
        return acc

    return twist


@_kept(1)
def right_smash_twist_inv(hopf, act):
    """R^-1(h (x) b) = sum b.S^-1(h2) (x) h1, on B (x) H."""
    delta, moved = hopf.coalgebra.delta, _s_inv_action(hopf, act)
    return lambda h, b: _tensor_sum(hopf.dim, (
        (moved(h2, b), {h1: c}) for h1, h2, c in delta(h)))


@_kept(1)
def diagonal_twist(hopf, act_left, act_right):
    """R(h (x) c) = sum h1.c.S^-1(h3) (x) h2, the twist of C >< H, kept
    on `act_left`.

    The sum joins the Delta^2(h) terms, indexed by h1, with the nonzero
    h1.c, indexed by c, so a term whose h1.c vanishes is never read.
    Both indexes are built on the first call."""
    dh, delta2, s_inv = hopf.dim, hopf.coalgebra.delta2, hopf.antipode_inv_col
    # (c -> {h1: h1.c}, h -> {h1: [Delta^2(h) terms with that h1]}), both
    # sharing the dicts of the action and the terms of `delta2`
    index = None

    def twist(h, c):
        nonlocal index
        if index is None:
            moves = [{} for _ in range(act_left.space_dim)]
            for (h1, x), moved in act_left.tensor.items():
                if moved:
                    moves[x][h1] = moved
            legs = [{} for _ in range(dh)]
            for g, by_h1 in enumerate(legs):
                for term in delta2(g):
                    by_h1.setdefault(term[0], []).append(term)
            index = moves, legs
        moves, legs = index
        acc = {}
        moved_by, terms = moves[c], legs[h]
        for h1 in moved_by.keys() & terms.keys():
            moved = moved_by[h1]
            for _, h2, h3, w in terms[h1]:
                add_tensor(acc, act_right.act_sv(s_inv(h3), moved), {h2: w},
                           dh, 1)
        return acc

    return twist


def _twisted_pair(a_alg, b_alg, twist, sep, provenance):
    """A (x)_R B for two algebras, with the basis labels a{sep}b."""
    dims = (a_alg.dim, b_alg.dim)
    labels = [f"{la}{sep}{lb}" for la in a_alg.basis_labels
              for lb in b_alg.basis_labels]
    unit = sv_tensor(a_alg.field, [a_alg.unit_sv(), b_alg.unit_sv()], dims)
    return twisted_tensor(a_alg.field, _algebra_row(a_alg), b_alg.mul_basis,
                          b_alg.dim, twist, dims, labels, unit, provenance)


def left_smash(a_alg, hopf, act, verify=True):
    """A # H for a left H-module algebra A."""
    if verify:
        check_module_algebra("left", hopf, a_alg, act).require(
            "left smash needs a module algebra")
    return _twisted_pair(a_alg, hopf.algebra, left_smash_twist(hopf, act),
                         "#", "left_smash")


def right_smash(hopf, b_alg, act, verify=True):
    """H # B for a right H-module algebra B."""
    if verify:
        check_module_algebra("right", hopf, b_alg, act).require(
            "right smash needs a module algebra")
    return _twisted_pair(hopf.algebra, b_alg, right_smash_twist(hopf, act),
                         "#", "right_smash")


def two_sided_crossed(a_alg, hopf, b_alg, act_left, act_right, verify=True):
    """A # H # B combining a left action on A and a right action on B.

    The A # H factor it is built over is kept on the handle as `left`.
    """
    if verify:
        check_module_algebra("left", hopf, a_alg, act_left).require(
            "left factor fails its axioms")
        check_module_algebra("right", hopf, b_alg, act_right).require(
            "right factor fails its axioms")
    da, dh, db = a_alg.dim, hopf.dim, b_alg.dim
    left = left_smash(a_alg, hopf, act_left, verify=False)
    right = right_smash_twist(hopf, act_right)

    def twist(b, ah):
        a, h = divmod(ah, dh)
        return {a * dh * db + k: c for k, c in right(b, h).items()}

    labels = [f"{la}#{lb}" for la in left.basis_labels
              for lb in b_alg.basis_labels]
    unit = sv_tensor(a_alg.field, [left.unit, b_alg.unit_sv()], [da * dh, db])
    # row a of A # H is grouped afresh for each A index, not kept: a kept
    # copy of every row would add to the peak memory of the handle
    handle = twisted_tensor(a_alg.field, lambda a: keyed_row(left._row(a)),
                            b_alg.mul_basis, db, twist, (da, dh, db), labels,
                            unit, "two_sided")
    handle.left = left
    return handle


def diagonal_crossed(c_alg, hopf, act_left, act_right, verify=True):
    """C >< H for an H-bimodule algebra C, with the S^-1-twisted product."""
    if verify:
        check_bimodule_algebra(hopf, c_alg, act_left, act_right).require(
            "C is not a bimodule algebra")
    return _twisted_pair(c_alg, hopf.algebra,
                         diagonal_twist(hopf, act_left, act_right), "><",
                         "diagonal")


# ---------------------------------------------------------------------------
# the canonical data built from one Hopf algebra

class StandardTriple:
    """The canonical module-algebra data every four-slot product is built on.

    From a Hopf algebra H with dual D this bundles K = H (x) H^op, the
    left K-action (h (x) g).f = h -> f <- g making D a K-module algebra,
    the right K-action f.(h (x) g) = S(h) -> f <- S^-1(g) making D^op one,
    and their tensor product C = D (x) D^op, a K-bimodule algebra.
    The arrows are stored once, as `act_on_dual`, the `composite_action`
    of the regular actions; `act_on_dual_op` is read off it at
    S_K(kappa), and `arrow_basis` and `arrow_sv` read it.  `isos` keeps
    each map `isos.build_iso` has built on this triple, by kind, and
    `twists` keeps X's and Z's R, `x_twist` and `z_twist`.  Both
    K-actions are certified as module-algebra actions on construction.
    """

    def __init__(self, hopf):
        self.hopf = hopf
        self.field = hopf.field
        self.n = hopf.dim
        self.dual = dual_hopf(hopf)
        self.hop = variant(hopf, "op")
        self.K = tensor_hopf(hopf, self.hop)
        self.dual_op_alg = op_algebra(
            self.dual.algebra,
            labels=[f"{l}~" for l in self.dual.algebra.basis_labels])
        self.isos = {}
        self.twists = {}

        n = self.n
        # e_u -> f <- e_v, the right arrows read as a left H^op-action
        left, right = regular_actions(hopf)
        self.act_on_dual = composite_action(
            (left, ActionData(self.field, n, n, "left", right.tensor)), n)
        # S_K = S (x) S^-1, so S(h) -> f <- S^-1(g) is S_K(h (x) g) acting
        self.act_on_dual_op = ActionData(
            self.field, n * n, n, "right",
            self._precomposed(self.act_on_dual, self.K.antipode_col))
        check_module_algebra("left", self.K, self.dual.algebra,
                             self.act_on_dual).require(
            "regular arrows do not give a module algebra")
        check_module_algebra("right", self.K, self.dual_op_alg,
                             self.act_on_dual_op).require(
            "twisted arrows do not give a module algebra")
        self.C, self.act_left_C, self.act_right_C = build_bimodule_algebra(
            self.dual.algebra, self.act_on_dual,
            self.dual_op_alg, self.act_on_dual_op,
            self.K, verify=False)

    # -- antipode columns and arrows -------------------------------------------

    def s_col(self, u):
        return self.hopf.antipode_col(u)

    def s_inv_col(self, u):
        return self.hopf.antipode_inv_col(u)

    def arrow_basis(self, u, j, v):
        """e_u -> e^j <- e_v as a sparse dual vector."""
        return self.act_on_dual.act_basis(u * self.n + v, j)

    def arrow_sv(self, hv, pv, gv):
        """h -> p <- g for sparse h, g over H and p over the dual."""
        n = self.n
        kappa = {u * n + v: cu * cv for u, cu in hv.items()
                 for v, cv in gv.items()}
        return self.act_on_dual.act_sv(kappa, pv)

    def _precomposed(self, act, antipode_col):
        """The table (kappa, x) -> antipode_col(kappa) . e_x, nonzero only."""
        one = self.field.one
        table = {}
        for kappa in range(self.n * self.n):
            moved_by = antipode_col(kappa)
            for x in range(self.n):
                if moved := act.act_sv(moved_by, {x: one}):
                    table[(kappa, x)] = moved
        return table


def x_index(n, p, kappa, q):
    """The flat index in X's slot order (g, h, p, q); kappa = h n + g."""
    h, g = divmod(kappa, n)
    return ((g * n + h) * n + p) * n + q


@_kept(0)
def x_twist(setup):
    """X's R: (p (x) q) (x) (g (x) h) -> sum (g2 (x) h2) (x)
    (S^-1(h1) -> p <- S(g1) (x) S(h3) -> q <- S^-1(g3)).

    K # D^op's R carries q past kappa = h n + g, then D # K's R^-1
    carries p past its leg k1."""
    n = setup.n
    right = right_smash_twist(setup.K, setup.act_on_dual_op)
    left = left_smash_twist_inv(setup.K, setup.act_on_dual)

    def twist(pq, gh):
        p, q = divmod(pq, n)
        g, h = divmod(gh, n)
        acc = {}
        for kq, c in right(q, h * n + g).items():
            k1, q2 = divmod(kq, n)
            for kp, c1 in left(p, k1).items():
                k2, p2 = divmod(kp, n)
                key = x_index(n, p2, k2, q2)
                acc[key] = acc.get(key, 0) + c * c1
        return acc

    return twist


@_kept(0)
def z_twist(setup):
    """Z's R: kappa (x) (p (x) q) -> sum (k1 -> p (x) q <- S_K^-1(k3)) (x) k2,
    the `diagonal_twist` of the triple's C >< K as a composite.

    D # K's R carries p past kappa, then K # D^op's R^-1 carries q past
    its leg k2; by coassociativity that is the diagonal R."""
    n = setup.n
    nn = n * n
    left = left_smash_twist(setup.K, setup.act_on_dual)
    right = right_smash_twist_inv(setup.K, setup.act_on_dual_op)

    def twist(kappa, pq):
        p, q = divmod(pq, n)
        acc = {}
        for pk, c in left(kappa, p).items():
            p2, k = divmod(pk, nn)
            for qk, c1 in right(k, q).items():
                q2, k2 = divmod(qk, nn)
                key = (p2 * n + q2) * nn + k2
                acc[key] = acc.get(key, 0) + c * c1
        return acc

    return twist


def build_xyz(hopf, which, setup=None):
    """The three four-slot product algebras attached to H; dim = (dim H)^4.

    Slot orders: X on (g, h, p, q), Y on (p, (h, g), q), Z on ((p, q), (h, g)).
    Y comes from the generic two-sided builder over the canonical actions,
    Z is C >< K twisted by `z_twist`, and X twists H^op (x) H past
    D (x) D^op by `x_twist`.
    """
    if which not in ("X", "Y", "Z"):
        raise ValueError(f"unknown construction {which!r}")
    if setup is None:
        setup = StandardTriple(hopf)
    if which == "Y":
        return two_sided_crossed(setup.dual.algebra, setup.K,
                                 setup.dual_op_alg, setup.act_on_dual,
                                 setup.act_on_dual_op, verify=False)
    if which == "Z":
        return _twisted_pair(setup.C, setup.K.algebra, z_twist(setup), "><",
                             "Z")

    n = setup.n
    field = setup.field
    hopf_alg = hopf.algebra
    dual_alg = setup.dual.algebra
    gh = tensor_algebra(setup.hop.algebra, hopf_alg)
    hl = hopf.basis_labels
    dl = dual_alg.basis_labels
    labels = [f"{lg}*{lh}#{lp}*{lq}" for lg in hl for lh in hl
              for lp in dl for lq in dl]
    unit = sv_tensor(field, [hopf_alg.unit_sv(), hopf_alg.unit_sv(),
                             dual_alg.unit_sv(), dual_alg.unit_sv()],
                     (n, n, n, n))
    return twisted_tensor(field, _algebra_row(gh), setup.C.mul_basis, n * n,
                          x_twist(setup), (n, n, n, n), labels, unit, "X")


def smash_handles(hopf, setup=None):
    """The canonical halves D # K and K # D^op (dim = (dim H)^3 each)."""
    if setup is None:
        setup = StandardTriple(hopf)
    left = left_smash(setup.dual.algebra, setup.K, setup.act_on_dual,
                      verify=False)
    right = right_smash(setup.K, setup.dual_op_alg, setup.act_on_dual_op,
                        verify=False)
    return left, right
