"""Hopf bimodules over the dual and the module structures derived from them.

A Hopf bimodule over the dual D of H is a space with a D-bimodule
structure and a D-bicomodule structure subject to four compatibility
conditions ("the coaction of a scaled element is the scaled coaction"),
written out in docs/file-format.md and checked verbatim here:

  lambda(p.m) = sum p1 m(-1) (x) p2.m(0)
  rho(p.m)    = sum p1.m(0)  (x) p2 m(1)
  lambda(m.q) = sum m(-1) q1 (x) m(0).q2
  rho(m.q)    = sum m(0).q1  (x) m(1) q2

Such a module is simultaneously a left module over each of the four-slot
product algebras; `derived_action` builds each action as a composite of
the module's factor actions, with no slot rule, and the equalities
between them under the isomorphisms are verified by
`verify_action_correspondence`.  The paper's conditions (ii) and (iii),
their S^-1 forms and the diagonal condition are one stream,
`actions.exchange_items`, over the twisting maps of `crossed`.
"""

from dataclasses import dataclass

from .actions import (ActionData, CoactionData, bicomodule_to_module,
                      coaction_items, coherence_items, commute_items,
                      composite_action, evaluation_action, exchange_items,
                      module_items)
from .algebra import (associativity_blocks, dual_hopf, op_algebra,
                      random_dense_vector)
from .crossed import (LAYOUTS, StandardTriple, diagonal_crossed,
                      diagonal_twist, left_smash_twist, left_smash_twist_inv,
                      right_smash_twist, right_smash_twist_inv,
                      two_sided_crossed)
from .errors import DimensionMismatchError
from .isos import MORPHISM_TRIALS, build_iso
from .linalg import sv_canon, sv_from_list, sv_tensor
from .report import MORPHISM_DIM_CAP, certify, certify_exhaustive


@dataclass
class HopfBimoduleData:
    field: object
    space_dim: int
    left_act: ActionData      # D acting on the left
    right_act: ActionData     # D acting on the right
    left_co: CoactionData     # coaction by D, left
    right_co: CoactionData    # coaction by D, right


@dataclass
class TripleModuleData:
    """Left actions of A, K and B on one space, candidate (A, K, B)-module."""
    space_dim: int
    a_act: ActionData
    h_act: ActionData
    b_act: ActionData


# ---------------------------------------------------------------------------
# axioms

def check_hopf_bimodule(module, hopf):
    """Bimodule + bicomodule + the four action/coaction compatibilities."""
    n = hopf.dim
    if module.left_act.actor_dim != n or module.right_act.actor_dim != n:
        raise DimensionMismatchError("actions must be by the dual of H")
    return certify_exhaustive(_hopf_bimodule_items(module, dual_hopf(hopf)))


def _hopf_bimodule_items(module, dual):
    la, ra = module.left_act, module.right_act
    yield from module_items(la, dual.algebra)
    yield from module_items(ra, dual.algebra)
    yield from commute_items(la, ra, "bimodule-commute")
    n = dual.dim
    m_dim = module.space_dim
    field = module.field
    for co in (module.left_co, module.right_co):
        yield from coaction_items(co, dual.coalgebra)
    yield from coherence_items(module.left_co, module.right_co)

    # the four compatibilities, as elements of D (x) M or M (x) D: the
    # coaction of p.m or m.p against sum (leg x times m's coaction leg c,
    # in that order or the reverse) (x) (the other leg y acting on m(0))
    dmul = dual.algebra.mul_basis
    compat = (
        ("compat-left-coaction-left-action", module.left_co, la, 0, True),
        ("compat-right-coaction-left-action", module.right_co, la, 1, True),
        ("compat-left-coaction-right-action", module.left_co, ra, 0, False),
        ("compat-right-coaction-right-action", module.right_co, ra, 1, False))
    for p in range(n):
        for j in range(m_dim):
            for axiom, co, act, x_leg, x_first in compat:
                lhs = {}
                for c, k, w in _co_of_sv(co, act.act_basis(p, j)):
                    lhs[(c, k)] = lhs.get((c, k), 0) + w
                rhs = {}
                for *legs, cp in dual.coalgebra.delta(p):
                    x, y = legs[x_leg], legs[1 - x_leg]
                    for c, k, w in co.legs(j):
                        prod = dmul(x, c) if x_first else dmul(c, x)
                        for c2, cc in prod.items():
                            for k2, ck in act.act_basis(y, k).items():
                                key = (c2, k2)
                                rhs[key] = rhs.get(key, 0) + cp * w * cc * ck
                yield (1, axiom, (p, j), sv_canon(field, lhs),
                       sv_canon(field, rhs))


def _co_of_sv(coaction, space_sv):
    for j, cj in space_sv.items():
        for c, k, w in coaction.legs(j):
            yield c, k, cj * w


# ---------------------------------------------------------------------------
# examples

def example_bimodule(hopf, kind, v_dim=1):
    """The regular bimodule D, or the free one D (x) V (x) D.

    The free module carries outer multiplications; its coactions apply
    Delta to both outer slots and multiply the outer legs together, the
    middle slot staying inert.
    """
    dual = dual_hopf(hopf)
    n = hopf.dim
    field = hopf.field
    if kind == "regular":
        # p.m and m.q are the products p m and m q, read off D's table
        la = ActionData(field, n, n, "left", dual.algebra.mult)
        ra = ActionData(field, n, n, "right", op_algebra(dual.algebra).mult)
        lc_t = {i: [(j, k, c) for j, k, c in dual.coalgebra.delta(i)]
                for i in range(n)}
        rc_t = {i: [(k, j, c) for j, k, c in dual.coalgebra.delta(i)]
                for i in range(n)}
        lc = CoactionData(field, n, n, "left", lc_t)
        rc = CoactionData(field, n, n, "right", rc_t)
        return HopfBimoduleData(field, n, la, ra, lc, rc)
    if kind != "free":
        raise ValueError(f"unknown example bimodule {kind!r}")
    if v_dim < 1:
        raise ValueError("free bimodule needs v_dim >= 1")
    m_dim = n * v_dim * n

    def idx(a, x, b):
        return (a * v_dim + x) * n + b

    dmul = dual.algebra.mul_basis
    left_t, right_t, lc_t, rc_t = {}, {}, {}, {}
    for a in range(n):
        for x in range(v_dim):
            for b in range(n):
                j = idx(a, x, b)
                for p in range(n):
                    entries = {idx(s, x, b): c for s, c in dmul(p, a).items()}
                    if entries:
                        left_t[(p, j)] = entries
                    entries = {idx(a, x, s): c for s, c in dmul(b, p).items()}
                    if entries:
                        right_t[(p, j)] = entries
                lc_terms, rc_terms = {}, {}
                for a1, a2, ca in dual.coalgebra.delta(a):
                    for b1, b2, cb in dual.coalgebra.delta(b):
                        for s, cs in dmul(a1, b1).items():
                            key = (s, idx(a2, x, b2))
                            lc_terms[key] = lc_terms.get(key, 0) + ca * cb * cs
                        for s, cs in dmul(a2, b2).items():
                            key = (s, idx(a1, x, b1))
                            rc_terms[key] = rc_terms.get(key, 0) + ca * cb * cs
                lc_t[j] = [(c, k, w) for (c, k), v in lc_terms.items()
                           for w in (field.canon(v),) if w != field.zero]
                rc_t[j] = [(c, k, w) for (c, k), v in rc_terms.items()
                           for w in (field.canon(v),) if w != field.zero]
    la = ActionData(field, n, m_dim, "left", left_t)
    ra = ActionData(field, n, m_dim, "right", right_t)
    lc = CoactionData(field, m_dim, n, "left", lc_t)
    rc = CoactionData(field, m_dim, n, "right", rc_t)
    return HopfBimoduleData(field, m_dim, la, ra, lc, rc)


# ---------------------------------------------------------------------------
# derived module structures

def derived_action(module, hopf, which, setup=None):
    """The left action of X, Y, Z or one of the smash halves on the module.

    Each product is a twisted tensor product, so the action is the
    `composite_action` of three factor actions in the slot order of
    `LAYOUTS[which]`: the left action for p, the right action read as a
    left D^op-action for q, and `evaluation_action` for h (x) g (read at
    g n + h in X); `setup` is not read.  On a Hopf bimodule, which the CLI
    certifies first, the composite equals the paper's formulas:

      X: ((g (x) h) (x) (p (x) q)).m
           = sum m(-1)(g2) m(1)(h2) (h1->p<-g1).m(0).(h3->q<-g3)
      Y: (p # (h (x) g) # q).m
           = sum m(-1)(g1) m(1)(h1) p.m(0).(h2->q<-g2)
      Z: ((p (x) q) >< (h (x) g)).m = sum m(-1)(g) m(1)(h) p.m(0).q
      left smash  (p # (h (x) g)).m = sum m(-1)(g) m(1)(h) p.m(0)
      right smash ((h (x) g) # q).m = sum m(-1)(g1) m(1)(h1) m(0).(h2->q<-g2)
    """
    if which not in LAYOUTS:
        raise ValueError(f"unknown derived action {which!r}")
    n = hopf.dim
    kappa = evaluation_action(module.left_co, module.right_co, n)
    if which == "X":
        kappa = ActionData(module.field, n * n, module.space_dim, "left", {
            ((hg % n) * n + hg // n, j): sv
            for (hg, j), sv in kappa.tensor.items()})
    factors = {"p": module.left_act, "h": kappa,
               "q": ActionData(module.field, n, module.space_dim, "left",
                               module.right_act.tensor)}
    return composite_action([factors[s] for s in LAYOUTS[which]
                             if s in factors], module.space_dim)


def check_module_over_handle(handle, act, mode=None):
    """Unit and (xy).m = x.(y.m) for a left action over an AlgebraHandle."""
    if act.actor_dim != handle.dim:
        raise DimensionMismatchError("action actor does not match handle")
    field = handle.field
    one = field.one

    def exhaustive():
        return associativity_blocks(field, handle.dim, act.space_dim,
                                    handle.keyed_row,
                                    act.rows().__getitem__, "left",
                                    "module-assoc")

    def trial(rng, t):
        xs = random_dense_vector(field, rng, handle.dim)
        ys = random_dense_vector(field, rng, handle.dim)
        m = sv_from_list(field, random_dense_vector(field, rng, act.space_dim))
        xy = sv_from_list(field, handle.product_dense(xs, ys))
        yield (1, "module-assoc", ("trial", t), act.act_sv(xy, m),
               act.act_sv(sv_from_list(field, xs),
                          act.act_sv(sv_from_list(field, ys), m)))

    unit_law = ((1, "module-unit", (j,), act.act_sv(handle.unit, {j: one}),
                 {j: one}) for j in range(act.space_dim))
    return certify(mode, handle.dim, exhaustive, trial, prelude=unit_law,
                   cap=MORPHISM_DIM_CAP)


def verify_action_correspondence(module, hopf, setup=None, mode=None,
                                 trials=MORPHISM_TRIALS, seed=0):
    """act_X(x, m) = act_Y(phi x, m) = act_Z(beta x, m), act_Y(y, m) = act_Z(alpha y, m)."""
    if setup is None:
        setup = StandardTriple(hopf)
    act_x, act_y, act_z = (derived_action(module, hopf, w, setup)
                           for w in ("X", "Y", "Z"))
    phi, alpha, beta = (build_iso(kind, hopf, setup)
                        for kind in ("phi", "alpha", "beta"))
    rows = (("correspondence-X-Y", act_x, act_y, phi),
            ("correspondence-X-Z", act_x, act_z, beta),
            ("correspondence-Y-Z", act_y, act_z, alpha))
    return _certify_correspondence(rows, module.space_dim, mode,
                                   trials=trials, seed=seed)


def _certify_correspondence(rows, m_dim, mode, **policy):
    """act(x, m) = act2(F x, m) for each row (axiom, act, act2, F).

    Exhaustively over basis pairs (e_i, m_t), else on random x and m, as
    `certify` picks with `policy` (its trials and seed).  The first row
    counts each pair once and the others count 0; each distinct source
    action `act` is evaluated once per pair or trial.
    """
    field = rows[0][1].field
    n = rows[0][3].src_dim
    one = field.one

    def compare(witness, source, images, m):
        via = {}
        for r, ((axiom, act, act2, _), image) in enumerate(zip(rows, images)):
            lhs = via.get(id(act))
            if lhs is None:
                lhs = via[id(act)] = source(act)
            yield int(r == 0), axiom, witness, lhs, act2.act_sv(image, m)

    def exhaustive():
        for i in range(n):
            images = [F.col_sv(i) for *_, F in rows]
            for t in range(m_dim):
                yield from compare((i, t), lambda act: act.act_basis(i, t),
                                   images, {t: one})

    def trial(rng, t):
        x = random_dense_vector(field, rng, n)
        m = sv_from_list(field, random_dense_vector(field, rng, m_dim))
        x_sv = sv_from_list(field, x)
        images = [sv_from_list(field, F.apply_dense(x)) for *_, F in rows]
        yield from compare(("trial", t), lambda act: act.act_sv(x_sv, m),
                           images, m)

    return certify(mode, n, exhaustive, trial, cap=MORPHISM_DIM_CAP,
                   **policy)


# ---------------------------------------------------------------------------
# the (A, H, B)-module picture

def triple_from_bimodule(module, hopf, setup=None):
    """Left actions of (D, K, D^op) on the module: the two bimodule actions
    (the right one re-read as a left action of the opposite algebra, on
    the same tensor) and the coaction-evaluation action of K; `setup` is
    not read."""
    b_act = ActionData(module.field, hopf.dim, module.space_dim, "left",
                       module.right_act.tensor)
    h_act = bicomodule_to_module(module.left_co, module.right_co, hopf)
    return TripleModuleData(module.space_dim, module.left_act, h_act, b_act)


def c_action_from_bimodule(module):
    """(p (x) q).m = p.m.q: the left action of C = D (x) D^op on the module."""
    return composite_action((module.left_act, module.right_act),
                            module.space_dim)


def assemble_two_sided_action(triple, a_dim, h_dim, b_dim):
    """(a # h # b).m = a.(h.(b.m)) as an explicit action tensor; the dims
    must be the actor dims of the triple's three actions."""
    acts = (triple.a_act, triple.h_act, triple.b_act)
    _require_actor_dims(acts, (a_dim, h_dim, b_dim))
    return composite_action(acts, triple.space_dim)


def _require_actor_dims(acts, dims):
    """DimensionMismatchError unless `acts` act by `dims` on one space."""
    got = tuple(act.actor_dim for act in acts)
    if got != dims:
        raise DimensionMismatchError(f"the actor dims are {got}, not {dims}")
    if len({act.space_dim for act in acts}) != 1:
        raise DimensionMismatchError("the actions act on different spaces")


def triple_module_roundtrip(triple, a_alg, hopf_mid, b_alg, act_left_a,
                            act_right_b, mode=None, handle=None):
    """Full consistency suite for a candidate (A, H, B)-module.

    Checks the three compatibility conditions, their antipode-inverse
    equivalents, that the assembled action is a module over A # H # B,
    and that restricting along the three embeddings recovers the inputs.
    `handle` is A # H # B as `two_sided_crossed` builds it from these
    arguments, when the caller has one already; it is built otherwise.
    The conditions and restrictions are exhaustive; the module axiom
    runs in `mode`, and the report records that mode.  Unless the
    triple's actions act by (dim A, dim H, dim B) on one space,
    DimensionMismatchError is raised before anything is checked.
    """
    dims = (a_alg.dim, hopf_mid.dim, b_alg.dim)
    assembled = assemble_two_sided_action(triple, *dims)
    conditions = certify_exhaustive(_triple_condition_items(
        triple, hopf_mid, act_left_a, act_right_b))
    if not conditions.passed:
        return conditions
    if handle is None:
        handle = two_sided_crossed(a_alg, hopf_mid, b_alg, act_left_a,
                                   act_right_b, verify=False)
    report = check_module_over_handle(handle, assembled, mode)
    report.absorb(conditions)
    if report.passed:
        units = (a_alg.unit_sv(), hopf_mid.algebra.unit_sv(), b_alg.unit_sv())
        report.absorb(certify_exhaustive(
            _restriction_items(triple, assembled, units, dims)))
    return report


def _triple_condition_items(triple, hopf_mid, act_left_a, act_right_b):
    """Condition (i), that A and B commute, then the exchange relations
    of H # B on (b, h) and of A # H on (h, a), each through its smash R
    and, item beside item, its R^-1; the caller checked the actor dims:

      (ii)        b.(h.m) = sum h1.((b <- h2).m)
      (ii) S^-1   h.(b.m) = sum (b <- S^-1(h2)).(h1.m)
      (iii)       h.(a.m) = sum (h1 -> a).(h2.m)
      (iii) S^-1  a.(h.m) = sum h2.((S^-1(h1) -> a).m)
    """
    a_act, h_act, b_act = triple.a_act, triple.h_act, triple.b_act
    yield from commute_items(a_act, b_act, "condition-i")
    yield from exchange_items(
        b_act, h_act, "condition-ii", right_smash_twist(hopf_mid, act_right_b),
        ("condition-ii-inverse-form",
         right_smash_twist_inv(hopf_mid, act_right_b)))
    yield from exchange_items(
        h_act, a_act, "condition-iii", left_smash_twist(hopf_mid, act_left_a),
        ("condition-iii-inverse-form",
         left_smash_twist_inv(hopf_mid, act_left_a)))


def _restriction_items(triple, assembled, units, dims):
    """The assembled action restricted along A, H and B is the input."""
    field = triple.a_act.field
    one = field.one
    slots = (("restriction-A", triple.a_act), ("restriction-H", triple.h_act),
             ("restriction-B", triple.b_act))
    for j in range(triple.space_dim):
        m = {j: one}
        for slot, (axiom, act) in enumerate(slots):
            for x in range(dims[slot]):
                factors = list(units)
                factors[slot] = {x: one}
                yield (1, axiom, (x, j),
                       assembled.act_sv(sv_tensor(field, factors, dims), m),
                       act.act_basis(x, j))


def diagonal_module_condition(c_act, h_act, c_alg, hopf_mid, act_left_c,
                              act_right_c, mode=None, handle=None):
    """h.(c.m) = sum (h1.c.S^-1(h3)).(h2.m), the exchange relation of
    C >< H, and the assembled action (c >< h).m = c.(h.m) is a module
    over the diagonal crossed product.

    `handle` is C >< H as `diagonal_crossed` builds it from these
    arguments, when the caller has one already; it is built otherwise.
    The condition is exhaustive; the module axiom runs in `mode`, and
    the report records that mode.  Unless `c_act` and `h_act` act by
    (dim C, dim H) on one space, DimensionMismatchError is raised before
    anything is checked."""
    _require_actor_dims((c_act, h_act), (c_alg.dim, hopf_mid.dim))
    condition = certify_exhaustive(exchange_items(
        h_act, c_act, "diagonal-condition",
        diagonal_twist(hopf_mid, act_left_c, act_right_c)))
    if not condition.passed:
        return condition
    if handle is None:
        handle = diagonal_crossed(c_alg, hopf_mid, act_left_c, act_right_c,
                                  verify=False)
    assembled = composite_action((c_act, h_act), c_act.space_dim)
    return check_module_over_handle(handle, assembled, mode).absorb(condition)


def verify_f_correspondence(triple, module, hopf, setup=None, mode=None):
    """act_two_sided(u, m) = act_diagonal(f(u), m) on the canonical triple."""
    if setup is None:
        setup = StandardTriple(hopf)
    n = setup.n
    assembled = assemble_two_sided_action(triple, n, n * n, n)
    rows = (("f-correspondence", assembled,
             derived_action(module, hopf, "Z", setup),
             build_iso("f", hopf, setup)),)
    return _certify_correspondence(rows, module.space_dim, mode)
