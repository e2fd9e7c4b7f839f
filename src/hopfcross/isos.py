"""The explicit linear isomorphisms between the four-slot product algebras.

All maps are built column by column from their displayed formulas, as
sparse-column `LinearMap`s of size (dim H)^4.  Sources and targets use the slot orders
fixed in `crossed`: X on (g, h, p, q), Y on (p, (h, g), q), Z on
((p, q), (h, g)).  `phi` maps X to Y, `alpha` maps Y to Z, `beta` maps
X to Z, and `f` is the generic two-sided-to-diagonal map instantiated on
the canonical triple (where it coincides with alpha).

Every map is one row of `ISO_SPECS`: expand the coproduct of
kappa = h (x) g, move p and q by regular arrows, keep one leg in the K
slot, and place the result in the target's slot order.  `beta` has its
own row; that it equals `alpha o phi` is a verification target, not an
assumption.  `f` has its own row too, the generic formula written with
S_K^-1, but on the canonical triple it is alpha read twice: its "R~"
moves table equals alpha's "L" table entry for entry (act_on_dual_op o
S_K^-1 = act_on_dual), and the `f_inv` row is the `alpha_inv` row.  f
against alpha becomes an independent check only once f is built by a
generic construction for any triple (ROADMAP item 6, `generic_f`).

Every certificate here runs through `report.certify`: the morphism check
over the compiled rows of both handles, one block per left index with
the report of the per-pair stream, or by random trials; the inverse and
composition checks exhaustively, one column of the composite at a time.
"""

from .algebra import keyed_rows, multiplicative_items, random_dense_vector
from .crossed import LAYOUTS, X_TWIST, StandardTriple
from .errors import DimensionMismatchError
from .linalg import LinearMap, sv_canon
from .report import MORPHISM_DIM_CAP, certify, certify_exhaustive

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
    # Z -> X: beta^-1((p (x) q) >< kappa) = (1 (x) (p (x) q)) (kappa (x) 1)
    #         in X, which is X's twist of (p (x) q) (x) kappa
    "beta_inv": ("Z", "X", *X_TWIST),
    # Y -> Z: f(a # k # b) = sum (a (x) b.S_K^-1(k2)) >< k1
    "f": ("Y", "Z", 2, None, ("R~", 1), 0),
    # Z -> Y: f^-1((a (x) b) >< k) = sum a # k1 # b.k2
    "f_inv": ("Z", "Y", 2, None, ("R", 1), 0),
}
ISO_KINDS = tuple(ISO_SPECS)


def build_iso(kind, hopf, setup=None):
    """The matrix of one of phi/alpha/beta/f or an inverse, on full bases.

    Each kind is built once per `StandardTriple` and kept in its `isos`
    table, which later calls read first.
    """
    if kind not in ISO_SPECS:
        raise ValueError(f"unknown isomorphism kind {kind!r}")
    if setup is None:
        setup = StandardTriple(hopf)
    lm = setup.isos.get(kind)
    if lm is None:
        lm = setup.isos[kind] = _assemble(kind, setup)
    return lm


def _assemble(kind, setup):
    """Evaluate the row of `ISO_SPECS` for `kind`, column by column."""
    src, dst, *rule = ISO_SPECS[kind]
    rule, n, field = tuple(rule), setup.n, setup.field
    at, to = setup.strides(LAYOUTS[src]), setup.strides(LAYOUTS[dst])
    cols = [None] * n ** 4
    for kappa in range(n * n):
        h, g = divmod(kappa, n)
        for p in range(n):
            for q in range(n):
                i = p * at["p"] + q * at["q"] + h * at["h"] + g * at["g"]
                cols[i] = sv_canon(field, setup.place(rule, p, kappa, q, to))
    return LinearMap.from_columns(field, n ** 4, n ** 4, cols)


# ---------------------------------------------------------------------------
# verification

def verify_algebra_morphism(lm, src, dst, mode=None, seed=0,
                            trials=MORPHISM_TRIALS):
    """map(unit) = unit and map(xy) = map(x)map(y).

    Exhaustive over all basis pairs when the source dimension is at most
    81, else `trials` seeded random exact vector pairs; both modes read
    the compiled rows of `src` and `dst`, the one product store of a
    handle.  The exhaustive check is `multiplicative_items` over the
    rows (`AlgebraHandle._row`): one block per left index, the report
    of the per-pair stream, reading only the nonzero basis products.
    """
    if lm.src_dim != src.dim or lm.dst_dim != dst.dim:
        raise DimensionMismatchError("map does not match the two algebras")

    def exhaustive():
        return multiplicative_items(
            src.field, "morphism-multiplicative", src.dim,
            keyed_rows(src._row), [lm.col_sv(k) for k in range(src.dim)],
            keyed_rows(dst._row), dst.dim)

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
    """m1 m2 = id and m2 m1 = id, column by column: each column counts
    once, and a violation is column (j,) of the composite against e_j."""
    if m1.src_dim != m2.dst_dim or m1.dst_dim != m2.src_dim:
        raise DimensionMismatchError("maps cannot be mutually inverse")
    one = m1.field.one

    def items():
        for axiom, outer, inner in (("inverse-forward", m1, m2),
                                    ("inverse-backward", m2, m1)):
            yield from _composite_columns(axiom, outer, inner,
                                          lambda j: {j: one}, 1)

    return certify_exhaustive(items())


def composition_identity(hopf, setup=None):
    """beta = alpha o phi and beta^-1 = phi^-1 o alpha^-1, column by column.

    Each column counts its dst_dim entries, and a violation is column (j,)
    of the composite against that of beta or beta^-1.  The inverse maps
    are built only once the forward identity holds.
    """
    if setup is None:
        setup = StandardTriple(hopf)

    def items():
        for axiom, outer, inner, whole in (
                ("beta-composition", "alpha", "phi", "beta"),
                ("beta-inv-composition", "phi_inv", "alpha_inv", "beta_inv")):
            outer, inner, whole = (build_iso(kind, hopf, setup)
                                   for kind in (outer, inner, whole))
            yield from _composite_columns(axiom, outer, inner, whole.col_sv,
                                          whole.dst_dim)

    return certify_exhaustive(items())


def _composite_columns(axiom, outer, inner, want, count):
    """Items comparing column j of outer o inner with want(j), for every j."""
    for j in range(inner.src_dim):
        yield (count, axiom, (j,), outer.apply_sv(inner.col_sv(j)), want(j))
