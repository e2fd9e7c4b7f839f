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
* Z = (D (x) D^op) >< K on (p, q, h, g)-slots, via the diagonal builder;
* X = (H^op (x) H) (x)_R (D (x) D^op) on (g, h, p, q)-slots, whose R
  straightens ((1(x)1)(x)(p(x)q)) ((g(x)h)(x)(1(x)1)) to
  sum (g2 (x) h2) (x) (S^-1(h1)->p<-S(g1) (x) S(h3)->q<-S^-1(g3)).

Basis-pair products are cached the first time they are asked for (as
flat [k1, c1, k2, c2, ...] lists), and R is evaluated once per basis pair
(b, a'), so exhaustive checks and repeated oracle products cost one
expansion per pair; iterated coproducts are cached on the coalgebras.
Once every pair (i, .) is cached, `product_dense` compiles row i into
one flat [j, k, c, ...] list of the nonzero structure constants of
e_i e_j = sum c e_k and loops over those terms only.  A row compiles only
when fully evaluated, so a dense product never evaluates a pair whose
two coordinates are not both nonzero.

The maps between X, Y and Z and the module actions on Hopf bimodules
move the dual slots p and q by the same regular arrows.  A slot rule
names how many coproduct legs of kappa = h (x) g in K to take, which
`StandardTriple.moves` table moves p and q by which leg, and which leg
is kept in the K slot; `StandardTriple.expand` evaluates one rule.
"""

from .algebra import (AlgebraData, check_unit_and_associativity, dual_hopf,
                      op_algebra, tensor_algebra, tensor_hopf, variant)
from .actions import (ActionData, build_bimodule_algebra,
                      check_bimodule_algebra, check_module_algebra)
from .errors import CapExceededError, UnverifiedActionError
from .linalg import sv_canon, sv_tensor

# Slot order of each four- and three-slot algebra: p, q over D, h, g over H.
LAYOUTS = {"X": "ghpq", "Y": "phgq", "Z": "pqhg",
           "left_smash": "phg", "right_smash": "hgq"}


class AlgebraHandle:
    """An algebra given by a multiplication oracle on coefficient vectors.

    `pair_fn(i, j)` returns the sparse product of basis elements i and j;
    results are cached, and rows of them are compiled by `_row`.
    `materialized` is filled by `materialize`.
    """

    def __init__(self, field, factor_dims, basis_labels, unit_sv, pair_fn,
                 provenance):
        self.field = field
        self.factor_dims = tuple(factor_dims)
        dim = 1
        for d in self.factor_dims:
            dim *= d
        self.dim = dim
        self.basis_labels = basis_labels
        self.unit = dict(unit_sv)
        self.provenance = provenance
        self.materialized = None
        self._pair_fn = pair_fn
        self._pairs = [None] * (dim * dim)
        self._rows = [None] * dim

    def _pair(self, i, j):
        idx = i * self.dim + j
        flat = self._pairs[idx]
        if flat is None:
            sv = self._pair_fn(i, j)
            flat = []
            for k in sorted(sv):
                flat.append(k)
                flat.append(sv[k])
            self._pairs[idx] = flat
        return flat

    def _row(self, i):
        """Row i as [j, k, c, ...] over every nonzero e_i e_j = sum c e_k,
        or None while some pair (i, j) is unevaluated."""
        row = self._rows[i]
        if row is None:
            n = self.dim
            flats = self._pairs[i * n:(i + 1) * n]
            if None in flats:
                return None
            row = []
            for j, flat in enumerate(flats):
                for t in range(0, len(flat), 2):
                    row += (j, flat[t], flat[t + 1])
            self._rows[i] = row
        return row

    def basis_product(self, i, j):
        flat = self._pair(i, j)
        return {flat[t]: flat[t + 1] for t in range(0, len(flat), 2)}

    def product(self, x, y):
        """Sparse-vector product via the oracle; exact and canonical."""
        acc = {}
        for i, a in x.items():
            for j, b in y.items():
                flat = self._pair(i, j)
                ab = a * b
                for t in range(0, len(flat), 2):
                    k = flat[t]
                    acc[k] = acc.get(k, 0) + ab * flat[t + 1]
        return sv_canon(self.field, acc)

    def product_dense(self, xs, ys):
        n = self.dim
        acc = [0] * n
        zero = self.field.zero
        pair = self._pair
        for i in range(n):
            a = xs[i]
            if a == zero:
                continue
            row = self._row(i)
            if row is not None:
                terms = iter(row)
                for j, k, c in zip(terms, terms, terms):
                    acc[k] += a * ys[j] * c
                continue
            for j in range(n):
                b = ys[j]
                if b == zero:
                    continue
                flat = pair(i, j)
                ab = a * b
                for t in range(0, len(flat), 2):
                    acc[flat[t]] += ab * flat[t + 1]
        canon = self.field.canon
        return [canon(v) for v in acc]

    def unit_dense(self):
        out = [self.field.zero] * self.dim
        for k, c in self.unit.items():
            out[k] = c
        return out


def materialize(handle, cap=64):
    """Structure constants from the oracle on all basis pairs.

    Refuses when dim exceeds the cap, signalling the caller to stay in
    oracle mode.  The result is cached on the handle.
    """
    if handle.dim > cap:
        raise CapExceededError(
            f"dim {handle.dim} exceeds materialization cap {cap}")
    if handle.materialized is not None:
        return handle.materialized
    mult = {}
    for i in range(handle.dim):
        for j in range(handle.dim):
            sv = handle.basis_product(i, j)
            if sv:
                mult[(i, j)] = sv
    alg = AlgebraData(handle.field, handle.dim, list(handle.basis_labels),
                      mult, handle.unit_dense())
    handle.materialized = alg
    return alg


def handle_from_algebra(alg, provenance="plain", factor_dims=None):
    h = AlgebraHandle(alg.field, factor_dims or (alg.dim,), alg.basis_labels,
                      alg.unit_sv(), alg.mul_basis, provenance)
    h.materialized = alg
    return h


def check_handle_axioms(handle, mode=None):
    """Unit law and associativity through the oracle."""
    return check_unit_and_associativity(
        handle.field, handle.dim, handle.unit, handle.unit_dense(),
        handle.product, handle.basis_product, handle.product_dense, mode)


# ---------------------------------------------------------------------------
# the twisted tensor product and the generic builders

def add_tensor(acc, x, y, dim_y, c):
    """acc += c * (x (x) y) on the left-major flattened basis."""
    for s, cs in x.items():
        base = s * dim_y
        w = c * cs
        for t, ct in y.items():
            key = base + t
            acc[key] = acc.get(key, 0) + w * ct


def twisted_tensor(field, a_mul, b_mul, db, twist, factor_dims, labels, unit,
                   provenance):
    """A (x)_R B, with `twist(b, a')` = R(b (x) a') on the flattened basis.

    `a_mul` and `b_mul` are the basis products of A and B, and `db` is
    dim B.  R is evaluated once per basis pair (b, a'); the results are
    kept on the handle as `twists`.
    """
    twists = {}

    def pair(i, j):
        a, b = divmod(i, db)
        a2, b2 = divmod(j, db)
        terms = twists.get((b, a2))
        if terms is None:
            terms = [(*divmod(k, db), c)
                     for k, c in sv_canon(field, twist(b, a2)).items()]
            twists[(b, a2)] = terms
        acc = {}
        for a3, b3, c in terms:
            first = a_mul(a, a3)
            if first:
                add_tensor(acc, first, b_mul(b3, b2), db, c)
        return sv_canon(field, acc)

    handle = AlgebraHandle(field, factor_dims, labels, unit, pair, provenance)
    handle.twists = twists
    return handle


def _require(rep, message):
    if not rep.passed:
        raise UnverifiedActionError(message, rep)


def left_smash(a_alg, hopf, act, verify=True, provenance="left_smash"):
    """A # H for a left H-module algebra A."""
    if verify:
        _require(check_module_algebra("left", hopf, a_alg, act),
                 "left smash needs a module algebra")
    field = a_alg.field
    da, dh = a_alg.dim, hopf.dim
    delta = hopf.coalgebra.delta

    def twist(h, b):
        acc = {}
        for h1, h2, c in delta(h):
            add_tensor(acc, act.act_basis(h1, b), {h2: c}, dh, 1)
        return acc

    labels = [f"{la}#{lh}" for la in a_alg.basis_labels
              for lh in hopf.basis_labels]
    unit = sv_tensor(field, [a_alg.unit_sv(), hopf.algebra.unit_sv()], [da, dh])
    return twisted_tensor(field, a_alg.mul_basis, hopf.algebra.mul_basis, dh,
                          twist, (da, dh), labels, unit, provenance)


def right_smash(hopf, b_alg, act, verify=True, provenance="right_smash"):
    """H # B for a right H-module algebra B."""
    if verify:
        _require(check_module_algebra("right", hopf, b_alg, act),
                 "right smash needs a module algebra")
    field = b_alg.field
    dh, db = hopf.dim, b_alg.dim
    delta = hopf.coalgebra.delta

    def twist(a, g):
        acc = {}
        for g1, g2, c in delta(g):
            add_tensor(acc, {g1: c}, act.act_basis(g2, a), db, 1)
        return acc

    labels = [f"{lh}#{lb}" for lh in hopf.basis_labels
              for lb in b_alg.basis_labels]
    unit = sv_tensor(field, [hopf.algebra.unit_sv(), b_alg.unit_sv()], [dh, db])
    return twisted_tensor(field, hopf.algebra.mul_basis, b_alg.mul_basis, db,
                          twist, (dh, db), labels, unit, provenance)


def two_sided_crossed(a_alg, hopf, b_alg, act_left, act_right, verify=True,
                      provenance="two_sided"):
    """A # H # B combining a left action on A and a right action on B."""
    if verify:
        _require(check_module_algebra("left", hopf, a_alg, act_left),
                 "left factor fails its axioms")
        _require(check_module_algebra("right", hopf, b_alg, act_right),
                 "right factor fails its axioms")
    field = a_alg.field
    da, dh, db = a_alg.dim, hopf.dim, b_alg.dim
    delta = hopf.coalgebra.delta
    left = left_smash(a_alg, hopf, act_left, verify=False)

    def twist(b, ah):
        a, h = divmod(ah, dh)
        acc = {}
        for h1, h2, c in delta(h):
            add_tensor(acc, {a * dh + h1: c}, act_right.act_basis(h2, b), db, 1)
        return acc

    labels = [f"{la}#{lb}" for la in left.basis_labels
              for lb in b_alg.basis_labels]
    unit = sv_tensor(field, [left.unit, b_alg.unit_sv()], [da * dh, db])
    return twisted_tensor(field, left.basis_product, b_alg.mul_basis, db,
                          twist, (da, dh, db), labels, unit, provenance)


def diagonal_crossed(c_alg, hopf, act_left, act_right, verify=True,
                     provenance="diagonal"):
    """C >< H for an H-bimodule algebra C, with the S^-1-twisted product."""
    if verify:
        _require(check_bimodule_algebra(hopf, c_alg, act_left, act_right),
                 "C is not a bimodule algebra")
    field = c_alg.field
    dc, dh = c_alg.dim, hopf.dim
    delta2 = hopf.coalgebra.delta2
    s_inv_col = hopf.antipode_inv_col

    def twist(h, c):
        acc = {}
        for h1, h2, h3, w in delta2(h):
            moved = act_right.act_sv(s_inv_col(h3), act_left.act_basis(h1, c))
            add_tensor(acc, moved, {h2: w}, dh, 1)
        return acc

    labels = [f"{lc}><{lh}" for lc in c_alg.basis_labels
              for lh in hopf.basis_labels]
    unit = sv_tensor(field, [c_alg.unit_sv(), hopf.algebra.unit_sv()], [dc, dh])
    return twisted_tensor(field, c_alg.mul_basis, hopf.algebra.mul_basis, dh,
                          twist, (dc, dh), labels, unit, provenance)


# ---------------------------------------------------------------------------
# the canonical data built from one Hopf algebra

class StandardTriple:
    """The canonical module-algebra data every four-slot product is built on.

    From a Hopf algebra H with dual D this bundles K = H (x) H^op, the
    left K-action (h (x) g).f = h -> f <- g making D a K-module algebra,
    the right K-action f.(h (x) g) = S(h) -> f <- S^-1(g) making D^op one,
    and their tensor product C = D (x) D^op, a K-bimodule algebra.
    Arrow tables (matrices of e_u -> . <- e_v on the dual basis) and the
    slot-move tables are cached here and shared by the product builders,
    the isomorphisms and the module-action code.
    """

    def __init__(self, hopf, verify=True):
        self.hopf = hopf
        self.field = hopf.field
        self.n = hopf.dim
        self.dual = dual_hopf(hopf)
        self.hop = variant(hopf, "op")
        self.K = tensor_hopf(hopf, self.hop)
        self.dual_op_alg = op_algebra(
            self.dual.algebra,
            labels=[f"{l}~" for l in self.dual.algebra.basis_labels])
        self._arrow_mats = {}
        self._moves = {}
        self._coproducts = {}
        self._rules = {}

        n = self.n
        field = self.field
        left_tensor, right_tensor = {}, {}
        for u in range(n):
            for v in range(n):
                kappa = u * n + v
                for j in range(n):
                    col = self.arrow_basis(u, j, v)
                    if col:
                        left_tensor[(kappa, j)] = col
                    tw = self.arrow_sv(self.s_col(u), {j: field.one},
                                       self.s_inv_col(v))
                    if tw:
                        right_tensor[(kappa, j)] = tw
        self.act_on_dual = ActionData(field, n * n, n, "left", left_tensor)
        self.act_on_dual_op = ActionData(field, n * n, n, "right", right_tensor)
        if verify:
            _require(check_module_algebra("left", self.K, self.dual.algebra,
                                          self.act_on_dual),
                     "regular arrows do not give a module algebra")
            _require(check_module_algebra("right", self.K, self.dual_op_alg,
                                          self.act_on_dual_op),
                     "twisted arrows do not give a module algebra")
        self.C, self.act_left_C, self.act_right_C = build_bimodule_algebra(
            self.dual.algebra, self.act_on_dual,
            self.dual_op_alg, self.act_on_dual_op,
            self.K, verify=False)

    # -- small cached helpers ------------------------------------------------

    def s_col(self, u):
        return self.hopf.antipode_col(u)

    def s_inv_col(self, u):
        return self.hopf.antipode_inv_col(u)

    def _arrow_mat(self, u, v):
        """Matrix of e_u -> . <- e_v on the dual basis: j -> {t: c}."""
        key = (u, v)
        mat = self._arrow_mats.get(key)
        if mat is None:
            mat = {}
            alg = self.hopf.algebra
            one = self.field.one
            for t in range(self.n):
                out = alg.mul_sv(alg.mul_basis(v, t), {u: one})
                for s, c in out.items():
                    mat.setdefault(s, {})[t] = c
            self._arrow_mats[key] = mat
        return mat

    def arrow_basis(self, u, j, v):
        """e_u -> e^j <- e_v as a sparse dual vector."""
        return self._arrow_mat(u, v).get(j, {})

    def arrow_sv(self, hv, pv, gv):
        """h -> p <- g for sparse h, g over H and p over the dual."""
        acc = {}
        for u, cu in hv.items():
            for v, cv in gv.items():
                mat = self._arrow_mat(u, v)
                w = cu * cv
                for j, cj in pv.items():
                    col = mat.get(j)
                    if col:
                        for t, c in col.items():
                            acc[t] = acc.get(t, 0) + w * cj * c
        return sv_canon(self.field, acc)

    # -- slot rules ------------------------------------------------------------

    def moves(self, rule):
        """The table (kappa, x) -> sparse dual vector of one move rule.

        "L" is kappa -> x <- (the left K-action on D), "R" is
        S(h) -> x <- S^-1(g) (the right K-action on D^op), "L~" and "R~"
        apply S_K^-1 to kappa first, and None leaves x where it is.
        """
        table = self._moves.get(rule)
        if table is None:
            n = self.n
            one = self.field.one
            if rule is None:
                table = {(kappa, x): {x: one}
                         for kappa in range(n * n) for x in range(n)}
            elif rule.endswith("~"):
                act = self.act_on_dual if rule == "L~" else self.act_on_dual_op
                table = {}
                for kappa in range(n * n):
                    s_inv = self.K.antipode_inv_col(kappa)
                    for x in range(n):
                        moved = act.act_sv(s_inv, {x: one})
                        if moved:
                            table[(kappa, x)] = moved
            else:
                act = self.act_on_dual if rule == "L" else self.act_on_dual_op
                table = act.tensor
            self._moves[rule] = table
        return table

    def coproduct(self, kappa, legs):
        """The legs-fold coproduct of kappa in K: [(leg indices, coeff)]."""
        key = (kappa, legs)
        terms = self._coproducts.get(key)
        if terms is None:
            coa = self.K.coalgebra
            if legs == 1:
                terms = [((kappa,), self.field.one)]
            elif legs == 2:
                terms = [((k1, k2), c) for k1, k2, c in coa.delta(kappa)]
            else:
                terms = [((k1, k2, k3), c)
                         for k1, k2, k3, c in coa.delta2(kappa)]
            self._coproducts[key] = terms
        return terms

    def expand(self, rule, p, kappa, q):
        """One slot rule on basis p, kappa, q: [(coeff, p', K leg, q')].

        `rule` is (legs, p move, q move, K leg), a move being None or
        (moves-table rule, leg).  Terms where a move vanishes are dropped.
        """
        resolved = self._rules.get(rule)
        if resolved is None:
            legs, p_move, q_move, k_leg = rule
            p_rule, p_leg = p_move or (None, 0)
            q_rule, q_leg = q_move or (None, 0)
            resolved = (legs, self.moves(p_rule), p_leg, self.moves(q_rule),
                        q_leg, k_leg)
            self._rules[rule] = resolved
        legs, p_table, p_leg, q_table, q_leg, k_leg = resolved
        out = []
        for leg, c in self.coproduct(kappa, legs):
            pv = p_table.get((leg[p_leg], p))
            if pv:
                qv = q_table.get((leg[q_leg], q))
                if qv:
                    out.append((c, pv, leg[k_leg], qv))
        return out

    def slot_terms(self, rule, slots="pq"):
        """`expand` over every basis p, kappa, q, yielding (p, kappa, q,
        terms); a dual slot missing from `slots` stays at 0, unmoved."""
        rule = tuple(rule)
        n = self.n
        ps = range(n if "p" in slots else 1)
        qs = range(n if "q" in slots else 1)
        for kappa in range(n * n):
            for p in ps:
                for q in qs:
                    yield p, kappa, q, self.expand(rule, p, kappa, q)

    def strides(self, layout):
        """Flat-index stride of each slot letter of a layout."""
        return {s: self.n ** (len(layout) - 1 - t)
                for t, s in enumerate(layout)}


def standard_triple(hopf, verify=True):
    return StandardTriple(hopf, verify=verify)


# X's R: (p (x) q) (x) (g (x) h) -> sum (g2 (x) h2) (x)
#        (S^-1(h1) -> p <- S(g1) (x) S(h3) -> q <- S^-1(g3))
X_TWIST = (3, ("L~", 0), ("R", 2), 1)


def build_xyz(hopf, which, setup=None):
    """The three four-slot product algebras attached to H; dim = (dim H)^4.

    Slot orders: X on (g, h, p, q), Y on (p, (h, g), q), Z on ((p, q), (h, g)).
    Y and Z come from the generic two-sided and diagonal builders over the
    canonical actions; X twists H^op (x) H past D (x) D^op by X_TWIST.
    """
    if which not in ("X", "Y", "Z"):
        raise ValueError(f"unknown construction {which!r}")
    if setup is None:
        setup = StandardTriple(hopf)
    if which == "Y":
        return two_sided_crossed(setup.dual.algebra, setup.K,
                                 setup.dual_op_alg, setup.act_on_dual,
                                 setup.act_on_dual_op, verify=False,
                                 provenance="Y")
    if which == "Z":
        return diagonal_crossed(setup.C, setup.K, setup.act_left_C,
                                setup.act_right_C, verify=False,
                                provenance="Z")

    n = setup.n
    field = setup.field
    hopf_alg = hopf.algebra
    dual_alg = setup.dual.algebra
    gh = tensor_algebra(setup.hop.algebra, hopf_alg)

    def twist(pq, gh_index):
        p, q = divmod(pq, n)
        g, h = divmod(gh_index, n)
        acc = {}
        for c, pv, leg, qv in setup.expand(X_TWIST, p, h * n + g, q):
            h2, g2 = divmod(leg, n)
            base = (g2 * n + h2) * n
            add_tensor(acc, {base + t: c * ct for t, ct in pv.items()}, qv,
                       n, 1)
        return acc

    hl = hopf.basis_labels
    dl = dual_alg.basis_labels
    labels = [f"{lg}*{lh}#{lp}*{lq}" for lg in hl for lh in hl
              for lp in dl for lq in dl]
    unit = sv_tensor(field, [hopf_alg.unit_sv(), hopf_alg.unit_sv(),
                             dual_alg.unit_sv(), dual_alg.unit_sv()],
                     (n, n, n, n))
    return twisted_tensor(field, gh.mul_basis, setup.C.mul_basis, n * n,
                          twist, (n, n, n, n), labels, unit, "X")


def smash_handles(hopf, setup=None):
    """The canonical halves D # K and K # D^op (dim = (dim H)^3 each)."""
    if setup is None:
        setup = StandardTriple(hopf)
    left = left_smash(setup.dual.algebra, setup.K, setup.act_on_dual,
                      verify=False)
    right = right_smash(setup.K, setup.dual_op_alg, setup.act_on_dual_op,
                        verify=False)
    return left, right
