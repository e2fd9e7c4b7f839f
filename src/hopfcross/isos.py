"""The explicit linear isomorphisms between the four-slot product algebras.

All maps are built column by column from their displayed formulas, as
matrices of size (dim H)^4.  Sources and targets use the slot orders
fixed in `crossed`: X on (g, h, p, q), Y on (p, (h, g), q), Z on
((p, q), (h, g)).  `phi` maps X to Y, `alpha` maps Y to Z, `beta` maps
X to Z, and `f` is the generic two-sided-to-diagonal map instantiated on
the canonical triple (where it coincides with alpha).

`beta` is deliberately built from its own formula; that it equals
`alpha o phi` as a matrix is a verification target, not an assumption.
"""

from .algebra import random_dense_vector
from .crossed import StandardTriple
from .errors import DimensionMismatchError
from .linalg import LinearMap, sv_canon
from .report import CheckReport, MORPHISM_DIM_CAP, certify

ISO_KINDS = ("phi", "phi_inv", "alpha", "alpha_inv", "beta", "beta_inv",
             "f", "f_inv")

MORPHISM_TRIALS = 200


def build_iso(kind, hopf, setup=None):
    """The matrix of one of phi/alpha/beta/f or an inverse, on full bases."""
    if kind not in ISO_KINDS:
        raise ValueError(f"unknown isomorphism kind {kind!r}")
    if setup is None:
        setup = StandardTriple(hopf)
    n = setup.n
    n4 = n ** 4
    field = setup.field
    one = field.one
    delta = hopf.coalgebra.delta
    delta2 = hopf.coalgebra.delta2
    arrow = setup.arrow_sv
    arrow_basis = setup.arrow_basis
    s_col, s_inv_col = setup.s_col, setup.s_inv_col
    cols = []

    if kind == "phi":
        # X -> Y: sum (h1 -> p <- g1) # (h2 (x) g2) # q
        for i in range(n4):
            q = i % n; p = i // n % n; h = i // n**2 % n; g = i // n**3
            acc = {}
            for h1, h2, ch in delta(h):
                for g1, g2, cg in delta(g):
                    w = ch * cg
                    for t, c in arrow_basis(h1, p, g1).items():
                        key = ((t * n + h2) * n + g2) * n + q
                        acc[key] = acc.get(key, 0) + w * c
            cols.append(sv_canon(field, acc))
    elif kind == "phi_inv":
        # Y -> X: sum (g2 (x) h2) (x) (S^-1(h1) -> p <- S(g1) (x) q)
        for i in range(n4):
            q = i % n; g = i // n % n; h = i // n**2 % n; p = i // n**3
            acc = {}
            for h1, h2, ch in delta(h):
                for g1, g2, cg in delta(g):
                    w = ch * cg
                    tw = arrow(s_inv_col(h1), {p: one}, s_col(g1))
                    for t, c in tw.items():
                        key = ((g2 * n + h2) * n + t) * n + q
                        acc[key] = acc.get(key, 0) + w * c
            cols.append(sv_canon(field, acc))
    elif kind == "alpha":
        # Y -> Z: sum (p (x) (h2 -> q <- g2)) >< (h1 (x) g1)
        for i in range(n4):
            q = i % n; g = i // n % n; h = i // n**2 % n; p = i // n**3
            acc = {}
            for h1, h2, ch in delta(h):
                for g1, g2, cg in delta(g):
                    w = ch * cg
                    for t, c in arrow_basis(h2, q, g2).items():
                        key = ((p * n + t) * n + h1) * n + g1
                        acc[key] = acc.get(key, 0) + w * c
            cols.append(sv_canon(field, acc))
    elif kind == "alpha_inv":
        # Z -> Y: sum p # (h1 (x) g1) # (S(h2) -> q <- S^-1(g2))
        for i in range(n4):
            g = i % n; h = i // n % n; q = i // n**2 % n; p = i // n**3
            acc = {}
            for h1, h2, ch in delta(h):
                for g1, g2, cg in delta(g):
                    w = ch * cg
                    tw = arrow(s_col(h2), {q: one}, s_inv_col(g2))
                    for t, c in tw.items():
                        key = ((p * n + h1) * n + g1) * n + t
                        acc[key] = acc.get(key, 0) + w * c
            cols.append(sv_canon(field, acc))
    elif kind == "beta":
        # X -> Z: sum (h1 -> p <- g1 (x) h3 -> q <- g3) >< (h2 (x) g2)
        for i in range(n4):
            q = i % n; p = i // n % n; h = i // n**2 % n; g = i // n**3
            acc = {}
            for h1, h2, h3, ch in delta2(h):
                for g1, g2, g3, cg in delta2(g):
                    w = ch * cg
                    for t1, c1 in arrow_basis(h1, p, g1).items():
                        for t2, c2 in arrow_basis(h3, q, g3).items():
                            key = ((t1 * n + t2) * n + h2) * n + g2
                            acc[key] = acc.get(key, 0) + w * c1 * c2
            cols.append(sv_canon(field, acc))
    elif kind == "beta_inv":
        # Z -> X: sum (g2 (x) h2) (x)
        #         (S^-1(h1) -> p <- S(g1) (x) S(h3) -> q <- S^-1(g3))
        for i in range(n4):
            g = i % n; h = i // n % n; q = i // n**2 % n; p = i // n**3
            acc = {}
            for h1, h2, h3, ch in delta2(h):
                for g1, g2, g3, cg in delta2(g):
                    w = ch * cg
                    tw_p = arrow(s_inv_col(h1), {p: one}, s_col(g1))
                    tw_q = arrow(s_col(h3), {q: one}, s_inv_col(g3))
                    for t1, c1 in tw_p.items():
                        for t2, c2 in tw_q.items():
                            key = ((g2 * n + h2) * n + t1) * n + t2
                            acc[key] = acc.get(key, 0) + w * c1 * c2
            cols.append(sv_canon(field, acc))
    elif kind == "f":
        return two_sided_to_diagonal(setup.dual.algebra, setup.K,
                                     setup.dual_op_alg, setup.act_on_dual_op)
    else:
        return diagonal_to_two_sided(setup.dual.algebra, setup.K,
                                     setup.dual_op_alg, setup.act_on_dual_op)
    return LinearMap.from_columns(field, n4, n4, cols)


def two_sided_to_diagonal(a_alg, hopf, b_alg, act_right):
    """f(a # h # b) = sum (a (x) b.S^-1(h2)) >< h1 as a matrix."""
    da, dh, db = a_alg.dim, hopf.dim, b_alg.dim
    field = a_alg.field
    one = field.one
    cols = []
    for i in range(da * dh * db):
        a, rest = divmod(i, dh * db)
        h, b = divmod(rest, db)
        acc = {}
        for h1, h2, c in hopf.coalgebra.delta(h):
            moved = act_right.act_sv(hopf.antipode_inv_col(h2), {b: one})
            for t, ct in moved.items():
                key = (a * db + t) * dh + h1
                acc[key] = acc.get(key, 0) + c * ct
        cols.append(sv_canon(field, acc))
    return LinearMap.from_columns(field, da * dh * db, da * db * dh, cols)


def diagonal_to_two_sided(a_alg, hopf, b_alg, act_right):
    """f^-1((a (x) b) >< h) = sum a # h1 # b.h2 as a matrix."""
    da, dh, db = a_alg.dim, hopf.dim, b_alg.dim
    field = a_alg.field
    cols = []
    for i in range(da * db * dh):
        ab, h = divmod(i, dh)
        a, b = divmod(ab, db)
        acc = {}
        for h1, h2, c in hopf.coalgebra.delta(h):
            for t, ct in act_right.act_basis(h2, b).items():
                key = (a * dh + h1) * db + t
                acc[key] = acc.get(key, 0) + c * ct
        cols.append(sv_canon(field, acc))
    return LinearMap.from_columns(field, da * db * dh, da * dh * db, cols)


# ---------------------------------------------------------------------------
# verification

def verify_algebra_morphism(lm, src, dst, mode=None, seed=0,
                            trials=MORPHISM_TRIALS):
    """map(unit) = unit and map(xy) = map(x)map(y).

    Exhaustive over all basis pairs when the source dimension is at most
    81, else `trials` seeded random exact vector pairs.
    """
    if lm.src_dim != src.dim or lm.dst_dim != dst.dim:
        raise DimensionMismatchError("map does not match the two algebras")

    def exhaustive():
        for i in range(src.dim):
            fi = lm.col_sv(i)
            for j in range(src.dim):
                yield (1, "morphism-multiplicative", (i, j),
                       lm.apply_sv(src.basis_product(i, j)),
                       dst.product(fi, lm.col_sv(j)))

    def trial(rng, t):
        x, y = (random_dense_vector(src.field, rng, src.dim) for _ in range(2))
        yield (1, "morphism-multiplicative", ("trial", t),
               lm.apply_dense(src.product_dense(x, y)),
               dst.product_dense(lm.apply_dense(x), lm.apply_dense(y)))

    unit_law = [(0, "morphism-unit", (), lm.apply_sv(src.unit),
                 sv_canon(dst.field, dst.unit))]
    return certify(mode, src.dim, exhaustive, trial, prelude=unit_law,
                   cap=MORPHISM_DIM_CAP, trials=trials, seed=seed)


def verify_mutually_inverse(m1, m2):
    """m1 m2 = id and m2 m1 = id, entrywise."""
    report = CheckReport()
    if m1.src_dim != m2.dst_dim or m1.dst_dim != m2.src_dim:
        raise DimensionMismatchError("maps cannot be mutually inverse")
    fwd = m1.compose(m2)
    report.checked += fwd.src_dim
    if not fwd.is_identity():
        report.fail("inverse-forward", (), "m1 m2", "id")
        return report
    back = m2.compose(m1)
    report.checked += back.src_dim
    if not back.is_identity():
        report.fail("inverse-backward", (), "m2 m1", "id")
        return report
    return report


def composition_identity(hopf, setup=None):
    """beta = alpha o phi and beta^-1 = phi^-1 o alpha^-1 as matrices."""
    if setup is None:
        setup = StandardTriple(hopf)
    report = CheckReport()
    phi = build_iso("phi", hopf, setup)
    alpha = build_iso("alpha", hopf, setup)
    beta = build_iso("beta", hopf, setup)
    composed = alpha.compose(phi)
    report.checked += beta.src_dim ** 2
    if not beta.equals(composed):
        report.fail("beta-composition", (), "alpha o phi", "beta")
        return report
    phi_inv = build_iso("phi_inv", hopf, setup)
    alpha_inv = build_iso("alpha_inv", hopf, setup)
    beta_inv = build_iso("beta_inv", hopf, setup)
    composed_inv = phi_inv.compose(alpha_inv)
    report.checked += beta_inv.src_dim ** 2
    if not beta_inv.equals(composed_inv):
        report.fail("beta-inv-composition", (), "phi^-1 o alpha^-1", "beta^-1")
        return report
    return report
