"""The explicit linear isomorphisms between the four-slot product algebras.

All maps are built column by column from their displayed formulas, as
sparse-column `LinearMap`s of size (dim H)^4.  Sources and targets use the slot orders
fixed in `crossed`: X on (g, h, p, q), Y on (p, (h, g), q), Z on
((p, q), (h, g)).  `phi` maps X to Y, `alpha` maps Y to Z, `beta` maps
X to Z, and `f` is the generic two-sided-to-diagonal map instantiated on
the canonical triple (where it coincides with alpha).

Each map straightens generators that sit out of order in its source,
and in a twisted tensor product that product is the twisting map R.  So
a column is one twist constructor of `crossed` read at two slots, the
third carried (`_reads`), and beta_inv is X's R, `crossed.x_twist`.
The twists are the closures kept on the action they read (or, for X's
R, on the triple), so the maps, the row builders and the module
conditions of one triple evaluate each R once per argument, and a map
reads each value once for the n columns of its carried slot.
`beta` keeps its own displayed formula: that it equals `alpha o phi` is
a verification target, not an assumption.  `f` is the generic formula,
with S_K^-1, but on the canonical triple it equals alpha
(act_on_dual_op o S_K^-1 = act_on_dual) and `f_inv` is `alpha_inv`; f
becomes an independent check only once it is built by a generic
construction for any triple (ROADMAP item 6, `generic_f`).

Every certificate here runs through `report.certify`: the morphism check
over the compiled rows of both handles, one block per left index with
the report of the per-pair stream, or by random trials; the inverse and
composition checks exhaustively, one column of the composite at a time.
"""

import functools

from .algebra import multiplicative_items, random_dense_vector
from .crossed import (StandardTriple, left_smash_twist, left_smash_twist_inv,
                      right_smash_twist, right_smash_twist_inv, x_index,
                      x_twist)
from .errors import DimensionMismatchError
from .linalg import LinearMap, sv_canon
from .report import MORPHISM_DIM_CAP, certify, certify_exhaustive

MORPHISM_TRIALS = 200

# kind: (source, target); `_reads` holds the formula of each
ISO_SPECS = {"phi": ("X", "Y"), "phi_inv": ("Y", "X"), "alpha": ("Y", "Z"),
             "alpha_inv": ("Z", "Y"), "beta": ("X", "Z"),
             "beta_inv": ("Z", "X"), "f": ("Y", "Z"), "f_inv": ("Z", "Y")}
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
    """The matrix of `kind`, one column per source basis (p, kappa, q),
    kappa = h n + g, each slot order of `crossed.LAYOUTS` as an index.

    A map read off a twist reads each value of R once, at its two slots
    (`_reads`): canonical and sorted once, the value is the column with
    the carried slot at 0, and the other n - 1 columns of that slot are
    it shifted by the slot's stride in both layouts."""
    n, field = setup.n, setup.field
    nn = n * n
    index = {"X": functools.partial(x_index, n),
             "Y": lambda p, kappa, q: (p * nn + kappa) * n + q,
             "Z": lambda p, kappa, q: (p * n + q) * nn + kappa}
    src, dst = ISO_SPECS[kind]
    at, to = index[src], index[dst]
    reads, target, carried = _reads(kind, setup, at, to)
    src_step, dst_step = (f(*carried) - f(0, 0, 0) for f in (at, to))
    shifts = range(1, n if any(carried) else 1)
    cols = [None] * n ** 4
    for j, sv in reads:
        sv = sv_canon(field, sv)
        if target is not None:
            sv = {target(k): c for k, c in sv.items()}
        rows = sorted(sv)
        cols[j] = [x for r in rows for x in (r, sv[r])]
        for t in shifts:
            off = t * dst_step
            cols[j + t * src_step] = [x for r in rows
                                      for x in (r + off, sv[r])]
    return LinearMap.from_flat_columns(field, n ** 4, n ** 4, cols)


def _reads(kind, setup, at, to):
    """(reads, target, carried) of `kind`: `reads` yields (j, sv), column j
    of the map with the carried slot at 0 and each key k of sv an entry
    at row target(k), or at row k when `target` is None; `carried` is
    that slot as a unit (p, kappa, q), or zero when no slot is carried.
    A map read off a twist yields R(x (x) y) once per argument pair; k1,
    k2, k3 are the coproduct legs of kappa in K."""
    n, K = setup.n, setup.K
    nn, act, act_op = n * n, setup.act_on_dual, setup.act_on_dual_op
    if kind == "phi":
        # X -> Y: sum (k1 -> p) # k2 # q, D # K's R at (kappa, p)
        twist = left_smash_twist(K, act)
        return (((at(p, kappa, 0), twist(kappa, p))
                 for kappa in range(nn) for p in range(n)),
                lambda pk: to(pk // nn, pk % nn, 0), (0, 0, 1))
    if kind == "phi_inv":
        # Y -> X: sum k2 (x) (S_K^-1(k1) -> p (x) q), its R^-1 at (p, kappa)
        twist = left_smash_twist_inv(K, act)
        return (((at(p, kappa, 0), twist(p, kappa))
                 for p in range(n) for kappa in range(nn)),
                lambda kp: to(kp % n, kp // n, 0), (0, 0, 1))
    if kind in ("alpha", "alpha_inv", "f_inv"):
        # Z -> Y: sum p # k1 # q.k2, K # D^op's R at (q, kappa); alpha,
        # Y -> Z: sum (p (x) k2 -> q) >< k1, is that R over `act`
        twist = right_smash_twist(K, act if kind == "alpha" else act_op)
        return (((at(0, kappa, q), twist(q, kappa))
                 for q in range(n) for kappa in range(nn)),
                lambda kq: to(0, kq // n, kq % n), (1, 0, 0))
    if kind == "f":
        # Y -> Z: sum (p (x) q.S_K^-1(k2)) >< k1, its R^-1 at (kappa, q)
        twist = right_smash_twist_inv(K, act_op)
        return (((at(0, kappa, q), twist(kappa, q))
                 for kappa in range(nn) for q in range(n)),
                lambda qk: to(0, qk % nn, qk // nn), (1, 0, 0))
    if kind == "beta_inv":
        # Z -> X: (1 (x) (p (x) q)) (kappa (x) 1) in X, X's R at
        # (p n + q, g n + h), whose keys are X's indices
        twist = x_twist(setup)
        return (((at(pq // n, gh % n * n + gh // n, pq % n), twist(pq, gh))
                 for pq in range(nn) for gh in range(nn)),
                None, (0, 0, 0))
    # X -> Z: sum (k1 -> p (x) k3 -> q) >< k2, over Delta^2(kappa), the
    # n^2 columns of one kappa in one pass over its terms; `arrows[k]`
    # lists the nonzero k -> e^x by x, and a term whose p arrows all
    # vanish is skipped before its q arrows are read
    delta2 = K.coalgebra.delta2
    arrows = [[(x, sv) for x in range(n) if (sv := act.tensor.get((k, x)))]
              for k in range(nn)]

    def columns(kappa):
        accs = [{} for _ in range(nn)]      # column (p, kappa, q) at p n + q
        for k1, k2, k3, c in delta2(kappa):
            pvs = arrows[k1]
            qvs = pvs and arrows[k3]
            for p, pv in pvs:
                for q, qv in qvs:
                    acc = accs[p * n + q]
                    for p2, cp in pv.items():
                        cp *= c
                        for q2, cq in qv.items():
                            key = (p2 * n + q2) * nn + k2
                            acc[key] = acc.get(key, 0) + cp * cq
        return ((at(pq // n, kappa, pq % n), acc)
                for pq, acc in enumerate(accs))

    return ((item for kappa in range(nn) for item in columns(kappa)),
            None, (0, 0, 0))


# ---------------------------------------------------------------------------
# verification

def verify_algebra_morphism(lm, src, dst, mode=None):
    """map(unit) = unit and map(xy) = map(x)map(y).

    Exhaustive over all basis pairs when the source dimension is at most
    81, else MORPHISM_TRIALS seeded random exact vector pairs; both modes
    read the compiled rows of `src` and `dst`, the one product store of a
    handle.  The exhaustive check is `multiplicative_items` over the
    keyed rows of both handles (`AlgebraHandle.keyed_row`, made once per
    handle): one block per left index, the report of the per-pair
    stream, reading only the nonzero basis products.
    """
    if lm.src_dim != src.dim or lm.dst_dim != dst.dim:
        raise DimensionMismatchError("map does not match the two algebras")

    def exhaustive():
        return multiplicative_items(
            src.field, "morphism-multiplicative", src.dim,
            src.keyed_row, [lm.col_sv(k) for k in range(src.dim)],
            dst.keyed_row, dst.dim)

    def trial(rng, t):
        x, y = (random_dense_vector(src.field, rng, src.dim) for _ in range(2))
        yield (1, "morphism-multiplicative", ("trial", t),
               lm.apply_dense(src.product_dense(x, y)),
               dst.product_dense(lm.apply_dense(x), lm.apply_dense(y)))

    unit_law = [(0, "morphism-unit", (), lm.apply_sv(src.unit),
                 sv_canon(dst.field, dst.unit))]
    return certify(mode, src.dim, exhaustive, trial, prelude=unit_law,
                   cap=MORPHISM_DIM_CAP, trials=MORPHISM_TRIALS)


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
