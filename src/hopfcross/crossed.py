"""Crossed-product algebra builders, exposed as lazy multiplication oracles.

Every product algebra here lives on a tensor-product basis, flattened
left-major, and is represented by an AlgebraHandle: a bilinear oracle on
coefficient vectors plus an optional materialization.  Basis-pair
products are cached the first time they are asked for (as flat
[k1, c1, k2, c2, ...] lists), so exhaustive checks and repeated oracle
products cost one expansion per pair; iterated coproducts are cached on
the coalgebras themselves.

The slot conventions follow the displayed multiplication rules:

* left smash  A # H:   (a # h)(b # g)   = sum a (h1.b) # h2 g
* right smash H # B:   (h # a)(g # b)   = sum h g1 # (a.g2) b
* two-sided   A # H # B:
  (a # h # b)(a' # h' # b') = sum a (h1.a') # h2 h'1 # (b.h'2) b'
* diagonal    C >< H:  (c >< h)(c' >< h') = sum c (h1.c'.S^-1(h3)) >< h2 h'

and the dedicated four-slot algebras built from a Hopf algebra H with
dual D and K = H (x) H^op:

* Y = D # K # D^op on (p, h, g, q)-slots, via the two-sided builder;
* Z = (D (x) D^op) >< K on (p, q, h, g)-slots, via the diagonal builder;
* X on (g, h, p, q)-slots, where the first two and last two slots keep
  their natural (H^op (x) H and D (x) D^op) products and
  ((1(x)1)(x)(p(x)q)) ((g(x)h)(x)(1(x)1)) straightens to
  sum (g2 (x) h2) (x) (S^-1(h1)->p<-S(g1) (x) S(h3)->q<-S^-1(g3)).
"""

from .algebra import (AlgebraData, check_unit_and_associativity, dual_hopf,
                      op_algebra, tensor_hopf, variant)
from .actions import (ActionData, build_bimodule_algebra,
                      check_bimodule_algebra, check_module_algebra)
from .errors import CapExceededError, UnverifiedActionError
from .linalg import sv_canon, sv_tensor, unflatten_index


class AlgebraHandle:
    """An algebra given by a multiplication oracle on coefficient vectors.

    `pair_fn(i, j)` returns the sparse product of basis elements i and j;
    results are cached.  `materialized` is filled by `materialize`.
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
# generic builders

def left_smash(a_alg, hopf, act, verify=True, provenance="left_smash"):
    """A # H for a left H-module algebra A."""
    if verify:
        rep = check_module_algebra("left", hopf, a_alg, act)
        if not rep.passed:
            raise UnverifiedActionError("left smash needs a module algebra", rep)
    field = a_alg.field
    da, dh = a_alg.dim, hopf.dim
    one = field.one
    delta = hopf.coalgebra.delta
    hmul = hopf.algebra.mul_basis

    def pair(i, j):
        a, h = divmod(i, dh)
        b, g = divmod(j, dh)
        acc = {}
        for h1, h2, c in delta(h):
            first = a_alg.mul_sv({a: one}, act.act_basis(h1, b))
            if not first:
                continue
            second = hmul(h2, g)
            for t1, c1 in first.items():
                base = t1 * dh
                cc1 = c * c1
                for t2, c2 in second.items():
                    key = base + t2
                    acc[key] = acc.get(key, 0) + cc1 * c2
        return sv_canon(field, acc)

    labels = [f"{la}#{lh}" for la in a_alg.basis_labels
              for lh in hopf.basis_labels]
    unit = sv_tensor(field, [a_alg.unit_sv(), hopf.algebra.unit_sv()], [da, dh])
    return AlgebraHandle(field, (da, dh), labels, unit, pair, provenance)


def right_smash(hopf, b_alg, act, verify=True, provenance="right_smash"):
    """H # B for a right H-module algebra B."""
    if verify:
        rep = check_module_algebra("right", hopf, b_alg, act)
        if not rep.passed:
            raise UnverifiedActionError("right smash needs a module algebra", rep)
    field = b_alg.field
    dh, db = hopf.dim, b_alg.dim
    one = field.one
    delta = hopf.coalgebra.delta
    hmul = hopf.algebra.mul_basis

    def pair(i, j):
        h, a = divmod(i, db)
        g, b = divmod(j, db)
        acc = {}
        for g1, g2, c in delta(g):
            first = hmul(h, g1)
            if not first:
                continue
            second = b_alg.mul_sv(act.act_basis(g2, a), {b: one})
            for t1, c1 in first.items():
                base = t1 * db
                cc1 = c * c1
                for t2, c2 in second.items():
                    key = base + t2
                    acc[key] = acc.get(key, 0) + cc1 * c2
        return sv_canon(field, acc)

    labels = [f"{lh}#{lb}" for lh in hopf.basis_labels
              for lb in b_alg.basis_labels]
    unit = sv_tensor(field, [hopf.algebra.unit_sv(), b_alg.unit_sv()], [dh, db])
    return AlgebraHandle(field, (dh, db), labels, unit, pair, provenance)


def two_sided_crossed(a_alg, hopf, b_alg, act_left, act_right, verify=True,
                      provenance="two_sided"):
    """A # H # B combining a left action on A and a right action on B."""
    if verify:
        rep = check_module_algebra("left", hopf, a_alg, act_left)
        if not rep.passed:
            raise UnverifiedActionError("left factor fails its axioms", rep)
        rep = check_module_algebra("right", hopf, b_alg, act_right)
        if not rep.passed:
            raise UnverifiedActionError("right factor fails its axioms", rep)
    field = a_alg.field
    da, dh, db = a_alg.dim, hopf.dim, b_alg.dim
    one = field.one
    delta = hopf.coalgebra.delta
    hmul = hopf.algebra.mul_basis

    def pair(i, j):
        a, rest = divmod(i, dh * db)
        h, b = divmod(rest, db)
        a2, rest = divmod(j, dh * db)
        h2, b2 = divmod(rest, db)
        acc = {}
        for h_1, h_2, c in delta(h):
            first = a_alg.mul_sv({a: one}, act_left.act_basis(h_1, a2))
            if not first:
                continue
            for hp_1, hp_2, c2 in delta(h2):
                mid = hmul(h_2, hp_1)
                if not mid:
                    continue
                third = b_alg.mul_sv(act_right.act_basis(hp_2, b), {b2: one})
                if not third:
                    continue
                w = c * c2
                for t1, c_1 in first.items():
                    base1 = t1 * dh
                    for t2, c_2 in mid.items():
                        base2 = (base1 + t2) * db
                        cc = w * c_1 * c_2
                        for t3, c_3 in third.items():
                            key = base2 + t3
                            acc[key] = acc.get(key, 0) + cc * c_3
        return sv_canon(field, acc)

    labels = [f"{la}#{lh}#{lb}" for la in a_alg.basis_labels
              for lh in hopf.basis_labels for lb in b_alg.basis_labels]
    unit = sv_tensor(field, [a_alg.unit_sv(), hopf.algebra.unit_sv(),
                             b_alg.unit_sv()], [da, dh, db])
    return AlgebraHandle(field, (da, dh, db), labels, unit, pair, provenance)


def diagonal_crossed(c_alg, hopf, act_left, act_right, verify=True,
                     provenance="diagonal"):
    """C >< H for an H-bimodule algebra C, with the S^-1-twisted product."""
    if verify:
        rep = check_bimodule_algebra(hopf, c_alg, act_left, act_right)
        if not rep.passed:
            raise UnverifiedActionError("C is not a bimodule algebra", rep)
    field = c_alg.field
    dc, dh = c_alg.dim, hopf.dim
    one = field.one
    delta2 = hopf.coalgebra.delta2
    hmul = hopf.algebra.mul_basis
    s_inv_col = hopf.antipode_inv_col

    def pair(i, j):
        c, h = divmod(i, dh)
        c2, h2 = divmod(j, dh)
        acc = {}
        for h_1, h_2, h_3, w in delta2(h):
            mid = hmul(h_2, h2)
            if not mid:
                continue
            twisted = act_right.act_sv(s_inv_col(h_3),
                                       act_left.act_basis(h_1, c2))
            if not twisted:
                continue
            first = c_alg.mul_sv({c: one}, twisted)
            for t1, c_1 in first.items():
                base = t1 * dh
                cc = w * c_1
                for t2, c_2 in mid.items():
                    key = base + t2
                    acc[key] = acc.get(key, 0) + cc * c_2
        return sv_canon(field, acc)

    labels = [f"{lc}><{lh}" for lc in c_alg.basis_labels
              for lh in hopf.basis_labels]
    unit = sv_tensor(field, [c_alg.unit_sv(), hopf.algebra.unit_sv()], [dc, dh])
    return AlgebraHandle(field, (dc, dh), labels, unit, pair, provenance)


# ---------------------------------------------------------------------------
# the canonical data built from one Hopf algebra

class StandardTriple:
    """The canonical module-algebra data every four-slot product is built on.

    From a Hopf algebra H with dual D this bundles K = H (x) H^op, the
    left K-action (h (x) g).f = h -> f <- g making D a K-module algebra,
    the right K-action f.(h (x) g) = S(h) -> f <- S^-1(g) making D^op one,
    and their tensor product C = D (x) D^op, a K-bimodule algebra.
    Arrow tables (matrices of e_u -> . <- e_v on the dual basis) are
    cached here and shared by the product builders, the isomorphisms and
    the module-action code.
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
            rep = check_module_algebra("left", self.K, self.dual.algebra,
                                       self.act_on_dual)
            if not rep.passed:
                raise UnverifiedActionError(
                    "regular arrows do not give a module algebra", rep)
            rep = check_module_algebra("right", self.K, self.dual_op_alg,
                                       self.act_on_dual_op)
            if not rep.passed:
                raise UnverifiedActionError(
                    "twisted arrows do not give a module algebra", rep)
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


def standard_triple(hopf, verify=True):
    return StandardTriple(hopf, verify=verify)


def build_xyz(hopf, which, setup=None):
    """The three four-slot product algebras attached to H; dim = (dim H)^4.

    Slot orders: X on (g, h, p, q), Y on (p, (h, g), q), Z on ((p, q), (h, g)).
    Y and Z come from the generic two-sided and diagonal builders over the
    canonical actions; X multiplies by straightening mixed products into
    corner products.
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
    one = field.one
    hopf_alg = hopf.algebra
    dual_alg = setup.dual.algebra
    delta2 = hopf.coalgebra.delta2
    dims = (n, n, n, n)

    def pair(i, j):
        g, h, p, q = unflatten_index(i, dims)
        g2, h2, p2, q2 = unflatten_index(j, dims)
        acc = {}
        for hp1, hp2, hp3, c1 in delta2(h2):
            slot2 = hopf_alg.mul_basis(h, hp2)
            if not slot2:
                continue
            for gp1, gp2, gp3, c2 in delta2(g2):
                slot1 = hopf_alg.mul_basis(gp2, g)
                if not slot1:
                    continue
                ptil = setup.arrow_sv(setup.s_inv_col(hp1), {p: one},
                                      setup.s_col(gp1))
                slot3 = dual_alg.mul_sv(ptil, {p2: one})
                if not slot3:
                    continue
                qtil = setup.arrow_sv(setup.s_col(hp3), {q: one},
                                      setup.s_inv_col(gp3))
                slot4 = dual_alg.mul_sv({q2: one}, qtil)
                if not slot4:
                    continue
                w = c1 * c2
                for t1, a1 in slot1.items():
                    for t2, a2 in slot2.items():
                        base2 = (t1 * n + t2) * n
                        w12 = w * a1 * a2
                        for t3, a3 in slot3.items():
                            base3 = (base2 + t3) * n
                            w123 = w12 * a3
                            for t4, a4 in slot4.items():
                                key = base3 + t4
                                acc[key] = acc.get(key, 0) + w123 * a4
        return sv_canon(field, acc)

    hl = hopf.basis_labels
    dl = setup.dual.algebra.basis_labels
    labels = [f"{lg}*{lh}#{lp}*{lq}" for lg in hl for lh in hl
              for lp in dl for lq in dl]
    unit = sv_tensor(field, [hopf_alg.unit_sv(), hopf_alg.unit_sv(),
                             dual_alg.unit_sv(), dual_alg.unit_sv()], dims)
    return AlgebraHandle(field, dims, labels, unit, pair, "X")


def smash_handles(hopf, setup=None):
    """The canonical halves D # K and K # D^op (dim = (dim H)^3 each)."""
    if setup is None:
        setup = StandardTriple(hopf)
    left = left_smash(setup.dual.algebra, setup.K, setup.act_on_dual,
                      verify=False)
    right = right_smash(setup.K, setup.dual_op_alg, setup.act_on_dual_op,
                        verify=False)
    return left, right
