"""The explicit linear isomorphisms between the four-slot product algebras.

All maps are built column by column from their displayed formulas, as
matrices of size (dim H)^4.  Sources and targets use the slot orders
fixed in `crossed`: X on (g, h, p, q), Y on (p, (h, g), q), Z on
((p, q), (h, g)).  `phi` maps X to Y, `alpha` maps Y to Z, `beta` maps
X to Z, and `f` is the generic two-sided-to-diagonal map instantiated on
the canonical triple (where it coincides with alpha).

Every map is one row of `ISO_SPECS`: expand the coproduct of
kappa = h (x) g, move p and q by regular arrows, keep one leg in the K
slot, and place the result in the target's slot order.  `beta` has its
own row; that it equals `alpha o phi` as a matrix is a verification
target, not an assumption.  `f` has its own row too, the generic
formula written with S_K^-1, so that it agrees with alpha is a test
between two computations, not one computation read twice.
"""

from .algebra import random_dense_vector
from .crossed import LAYOUTS, StandardTriple
from .errors import DimensionMismatchError
from .linalg import LinearMap, sv_canon
from .report import CheckReport, MORPHISM_DIM_CAP, certify

MORPHISM_TRIALS = 200

# kind: (source, target, coproduct legs of kappa = h (x) g, p move, q move,
#        leg kept in the K slot); a move is None or (moves rule, leg).
ISO_SPECS = {
    # X -> Y: sum (h1 -> p <- g1) # (h2 (x) g2) # q
    "phi": ("X", "Y", 2, ("L", 0), None, 1),
    # Y -> X: sum (g2 (x) h2) (x) (S^-1(h1) -> p <- S(g1) (x) q)
    "phi_inv": ("Y", "X", 2, ("L~", 0), None, 1),
    # Y -> Z: sum (p (x) (h2 -> q <- g2)) >< (h1 (x) g1)
    "alpha": ("Y", "Z", 2, None, ("L", 1), 0),
    # Z -> Y: sum p # (h1 (x) g1) # (S(h2) -> q <- S^-1(g2))
    "alpha_inv": ("Z", "Y", 2, None, ("R", 1), 0),
    # X -> Z: sum (h1 -> p <- g1 (x) h3 -> q <- g3) >< (h2 (x) g2)
    "beta": ("X", "Z", 3, ("L", 0), ("L", 2), 1),
    # Z -> X: sum (g2 (x) h2) (x)
    #         (S^-1(h1) -> p <- S(g1) (x) S(h3) -> q <- S^-1(g3))
    "beta_inv": ("Z", "X", 3, ("L~", 0), ("R", 2), 1),
    # Y -> Z: f(a # k # b) = sum (a (x) b.S_K^-1(k2)) >< k1
    "f": ("Y", "Z", 2, None, ("R~", 1), 0),
    # Z -> Y: f^-1((a (x) b) >< k) = sum a # k1 # b.k2
    "f_inv": ("Z", "Y", 2, None, ("R", 1), 0),
}
ISO_KINDS = tuple(ISO_SPECS)


def build_iso(kind, hopf, setup=None):
    """The matrix of one of phi/alpha/beta/f or an inverse, on full bases."""
    if kind not in ISO_SPECS:
        raise ValueError(f"unknown isomorphism kind {kind!r}")
    if setup is None:
        setup = StandardTriple(hopf)
    src, dst, *rule = ISO_SPECS[kind]
    n = setup.n
    n4 = n ** 4
    field = setup.field
    at, to = setup.strides(LAYOUTS[src]), setup.strides(LAYOUTS[dst])
    cols = [None] * n4
    for p, kappa, q, terms in setup.slot_terms(rule):
        acc = {}
        for c, pv, leg, qv in terms:
            h, g = divmod(leg, n)
            base = h * to["h"] + g * to["g"]
            for tp, cp in pv.items():
                at_p = base + tp * to["p"]
                w = c * cp
                for tq, cq in qv.items():
                    key = at_p + tq * to["q"]
                    acc[key] = acc.get(key, 0) + w * cq
        h, g = divmod(kappa, n)
        i = p * at["p"] + q * at["q"] + h * at["h"] + g * at["g"]
        cols[i] = sv_canon(field, acc)
    return LinearMap.from_columns(field, n4, n4, cols)


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
