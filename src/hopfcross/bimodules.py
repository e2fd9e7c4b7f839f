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
product algebras; the explicit action tensors are materialized by
`derived_action` and the equalities between them under the isomorphisms
are verified by `verify_action_correspondence`.
"""

from dataclasses import dataclass

from .actions import (ActionData, CoactionData, bicomodule_legs,
                      bicomodule_to_module, check_bicomodule_coherence,
                      check_coaction_axioms, check_module_axioms)
from .algebra import random_dense_vector
from .crossed import (LAYOUTS, StandardTriple, diagonal_crossed,
                      two_sided_crossed)
from .errors import DimensionMismatchError
from .isos import build_iso
from .linalg import sv_add_into, sv_canon, sv_from_list
from .report import CheckReport, MORPHISM_DIM_CAP, certify


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
    from .algebra import dual_hopf
    dual = dual_hopf(hopf)
    n = hopf.dim
    m_dim = module.space_dim
    field = module.field
    if module.left_act.actor_dim != n or module.right_act.actor_dim != n:
        raise DimensionMismatchError("actions must be by the dual of H")
    report = check_module_axioms(module.left_act, dual.algebra)
    if not report.passed:
        return report
    report.absorb(check_module_axioms(module.right_act, dual.algebra))
    if not report.passed:
        return report
    one = field.one
    la, ra = module.left_act, module.right_act
    for p in range(n):
        for q in range(n):
            for j in range(m_dim):
                lhs = ra.act_sv({q: one}, la.act_basis(p, j))
                rhs = la.act_sv({p: one}, ra.act_basis(q, j))
                report.checked += 1
                if lhs != rhs:
                    report.fail("bimodule-commute", (p, q, j), lhs, rhs)
                    return report
    for co in (module.left_co, module.right_co):
        report.absorb(check_coaction_axioms(co, dual.coalgebra))
        if not report.passed:
            return report
    report.absorb(check_bicomodule_coherence(module.left_co, module.right_co))
    if not report.passed:
        return report

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
                lhs, rhs = sv_canon(field, lhs), sv_canon(field, rhs)
                report.checked += 1
                if lhs != rhs:
                    report.fail(axiom, (p, j), lhs, rhs)
                    return report
    return report


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
    from .algebra import dual_hopf
    dual = dual_hopf(hopf)
    n = hopf.dim
    field = hopf.field
    if kind == "regular":
        left_t, right_t = {}, {}
        for (i, j), entries in dual.algebra.mult.items():
            left_t[(i, j)] = dict(entries)
            right_t[(j, i)] = dict(entries)   # m.q = product m q
        la = ActionData(field, n, n, "left", left_t)
        ra = ActionData(field, n, n, "right", right_t)
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

# which: (coproduct legs of kappa = h (x) g, p move, q move, leg evaluated
#         on the coaction legs); a move is None or (moves rule, leg).
DERIVED_SPECS = {
    "X": (3, ("L", 0), ("L", 2), 1),
    "Y": (2, None, ("L", 1), 0),
    "Z": (1, None, None, 0),
    "left_smash": (1, None, None, 0),
    "right_smash": (2, None, ("L", 1), 0),
}


def _legs_by_evaluation(module, n):
    """Per basis element: kappa = (right leg, left leg) -> [(mid, w)]."""
    table = []
    for j in range(module.space_dim):
        by_eval = {}
        for cl, k, cr, w in bicomodule_legs(module.left_co, module.right_co, j):
            by_eval.setdefault(cr * n + cl, []).append((k, w))
        table.append(by_eval)
    return table


def _unmoved(actor_sv, space_sv):
    return space_sv


def derived_action(module, hopf, which, setup=None):
    """The left action of X, Y, Z or one of the smash halves on the module.

    All five come from evaluating coaction legs against grouplike slots
    and sandwiching with arrow-twisted bimodule actions, one row of
    `DERIVED_SPECS` each:

      X: ((g (x) h) (x) (p (x) q)).m
           = sum m(-1)(g2) m(1)(h2) (h1->p<-g1).m(0).(h3->q<-g3)
      Y: (p # (h (x) g) # q).m
           = sum m(-1)(g1) m(1)(h1) p.m(0).(h2->q<-g2)
      Z: ((p (x) q) >< (h (x) g)).m = sum m(-1)(g) m(1)(h) p.m(0).q
      left smash  (p # (h (x) g)).m = sum m(-1)(g) m(1)(h) p.m(0)
      right smash ((h (x) g) # q).m = sum m(-1)(g1) m(1)(h1) m(0).(h2->q<-g2)
    """
    if which not in DERIVED_SPECS:
        raise ValueError(f"unknown derived action {which!r}")
    if setup is None:
        setup = StandardTriple(hopf)
    n = setup.n
    field = setup.field
    one = field.one
    layout = LAYOUTS[which]
    at = setup.strides(layout)
    act_p = module.left_act.act_sv if "p" in layout else _unmoved
    act_q = module.right_act.act_sv if "q" in layout else _unmoved
    legs = _legs_by_evaluation(module, n)
    m_dim = module.space_dim
    tensor = {}
    for p, kappa, q, terms in setup.slot_terms(DERIVED_SPECS[which], layout):
        h, g = divmod(kappa, n)
        actor = (h * at["h"] + g * at["g"] + p * at.get("p", 0)
                 + q * at.get("q", 0))
        for j in range(m_dim):
            acc = {}
            for c, pv, leg, qv in terms:
                for k, w in legs[j].get(leg, ()):
                    sv_add_into(acc, act_p(pv, act_q(qv, {k: one})), c * w)
            sv = sv_canon(field, acc)
            if sv:
                tensor[(actor, j)] = sv
    return ActionData(field, n ** len(layout), m_dim, "left", tensor)


def check_module_over_handle(handle, act, mode=None):
    """Unit and (xy).m = x.(y.m) for a left action over an AlgebraHandle."""
    if act.actor_dim != handle.dim:
        raise DimensionMismatchError("action actor does not match handle")
    field = handle.field
    one = field.one

    def exhaustive():
        for i in range(handle.dim):
            ei = {i: one}
            for j in range(handle.dim):
                prod = handle.basis_product(i, j)
                for t in range(act.space_dim):
                    yield (1, "module-assoc", (i, j, t),
                           act.act_sv(prod, {t: one}),
                           act.act_sv(ei, act.act_basis(j, t)))

    def trial(rng, t):
        x = sv_from_list(field, random_dense_vector(field, rng, handle.dim))
        y = sv_from_list(field, random_dense_vector(field, rng, handle.dim))
        m = sv_from_list(field, random_dense_vector(field, rng, act.space_dim))
        yield (1, "module-assoc", ("trial", t),
               act.act_sv(handle.product(x, y), m),
               act.act_sv(x, act.act_sv(y, m)))

    unit_law = ((1, "module-unit", (j,), act.act_sv(handle.unit, {j: one}),
                 {j: one}) for j in range(act.space_dim))
    return certify(mode, handle.dim, exhaustive, trial, prelude=unit_law,
                   cap=MORPHISM_DIM_CAP)


def verify_action_correspondence(module, hopf, setup=None, mode=None,
                                 trials=200, seed=0):
    """act_X(x, m) = act_Y(phi x, m) = act_Z(beta x, m), act_Y(y, m) = act_Z(alpha y, m)."""
    if setup is None:
        setup = StandardTriple(hopf)
    n4 = setup.n ** 4
    field = setup.field
    one = field.one
    act_x, act_y, act_z = (derived_action(module, hopf, w, setup)
                           for w in ("X", "Y", "Z"))
    phi, alpha, beta = (build_iso(kind, hopf, setup)
                        for kind in ("phi", "alpha", "beta"))

    def exhaustive():
        for i in range(n4):
            phi_i = phi.col_sv(i)
            beta_i = beta.col_sv(i)
            alpha_i = alpha.col_sv(i)
            for t in range(module.space_dim):
                m = {t: one}
                via_x = act_x.act_basis(i, t)
                yield (1, "correspondence-X-Y", (i, t), via_x,
                       act_y.act_sv(phi_i, m))
                yield (0, "correspondence-X-Z", (i, t), via_x,
                       act_z.act_sv(beta_i, m))
                yield (0, "correspondence-Y-Z", (i, t), act_y.act_basis(i, t),
                       act_z.act_sv(alpha_i, m))

    def trial(rng, t):
        x = random_dense_vector(field, rng, n4)
        m = sv_from_list(field, random_dense_vector(field, rng,
                                                    module.space_dim))
        x_sv = sv_from_list(field, x)
        via_x = act_x.act_sv(x_sv, m)
        witness = ("trial", t)
        yield (1, "correspondence-X-Y", witness, via_x,
               act_y.act_sv(sv_from_list(field, phi.apply_dense(x)), m))
        yield (0, "correspondence-X-Z", witness, via_x,
               act_z.act_sv(sv_from_list(field, beta.apply_dense(x)), m))
        yield (0, "correspondence-Y-Z", witness, act_y.act_sv(x_sv, m),
               act_z.act_sv(sv_from_list(field, alpha.apply_dense(x)), m))

    return certify(mode, n4, exhaustive, trial, cap=MORPHISM_DIM_CAP,
                   trials=trials, seed=seed)


# ---------------------------------------------------------------------------
# the (A, H, B)-module picture

def triple_from_bimodule(module, hopf, setup=None):
    """Left actions of (D, K, D^op) on the module: the two bimodule actions
    (the right one re-read as a left action of the opposite algebra) and
    the coaction-evaluation action of K."""
    if setup is None:
        setup = StandardTriple(hopf)
    b_tensor = {key: dict(entries)
                for key, entries in module.right_act.tensor.items()}
    b_act = ActionData(module.field, setup.n, module.space_dim, "left",
                       b_tensor)
    h_act = bicomodule_to_module(module.left_co, module.right_co, hopf)
    return TripleModuleData(module.space_dim, module.left_act, h_act, b_act)


def assemble_two_sided_action(triple, a_dim, h_dim, b_dim):
    """(a # h # b).m = a.(h.(b.m)) as an explicit action tensor."""
    field = triple.a_act.field
    one = field.one
    tensor = {}
    for a in range(a_dim):
        for h in range(h_dim):
            for b in range(b_dim):
                actor = (a * h_dim + h) * b_dim + b
                for j in range(triple.space_dim):
                    step = triple.b_act.act_basis(b, j)
                    step = triple.h_act.act_sv({h: one}, step)
                    step = triple.a_act.act_sv({a: one}, step)
                    if step:
                        tensor[(actor, j)] = step
    return ActionData(field, a_dim * h_dim * b_dim, triple.space_dim, "left",
                      tensor)


def triple_module_roundtrip(triple, a_alg, hopf_mid, b_alg, act_left_a,
                            act_right_b, mode=None):
    """Full consistency suite for a candidate (A, H, B)-module.

    Checks the three compatibility conditions, their antipode-inverse
    equivalents, that the assembled action is a module over A # H # B,
    and that restricting along the three embeddings recovers the inputs.
    """
    field = triple.a_act.field
    one = field.one
    report = CheckReport()
    m_dim = triple.space_dim
    da, dh, db = a_alg.dim, hopf_mid.dim, b_alg.dim
    a_act, h_act, b_act = triple.a_act, triple.h_act, triple.b_act

    for a in range(da):
        for b in range(db):
            for j in range(m_dim):
                lhs = b_act.act_sv({b: one}, a_act.act_basis(a, j))
                rhs = a_act.act_sv({a: one}, b_act.act_basis(b, j))
                report.checked += 1
                if lhs != rhs:
                    report.fail("condition-i", (a, b, j), lhs, rhs)
                    return report
    s_inv = hopf_mid.antipode_inv_col
    for b in range(db):
        for h in range(dh):
            dl = hopf_mid.coalgebra.delta(h)
            for j in range(m_dim):
                lhs = b_act.act_sv({b: one}, h_act.act_basis(h, j))
                acc = {}
                for h1, h2, c in dl:
                    moved = act_right_b.act_basis(h2, b)
                    inner = b_act.act_sv(moved, {j: one})
                    for k, ck in h_act.act_sv({h1: one}, inner).items():
                        acc[k] = acc.get(k, 0) + c * ck
                rhs = sv_canon(field, acc)
                report.checked += 1
                if lhs != rhs:
                    report.fail("condition-ii", (b, h, j), lhs, rhs)
                    return report
                # equivalent form: h.(b.m) = sum (b.S^-1(h2)).(h1.m)
                lhs = h_act.act_sv({h: one}, b_act.act_basis(b, j))
                acc = {}
                for h1, h2, c in dl:
                    moved = act_right_b.act_sv(s_inv(h2), {b: one})
                    for k, ck in b_act.act_sv(moved,
                                              h_act.act_basis(h1, j)).items():
                        acc[k] = acc.get(k, 0) + c * ck
                rhs = sv_canon(field, acc)
                report.checked += 1
                if lhs != rhs:
                    report.fail("condition-ii-inverse-form", (b, h, j), lhs, rhs)
                    return report
    for h in range(dh):
        dl = hopf_mid.coalgebra.delta(h)
        for a in range(da):
            for j in range(m_dim):
                lhs = h_act.act_sv({h: one}, a_act.act_basis(a, j))
                acc = {}
                for h1, h2, c in dl:
                    moved = act_left_a.act_basis(h1, a)
                    for k, ck in a_act.act_sv(moved,
                                              h_act.act_basis(h2, j)).items():
                        acc[k] = acc.get(k, 0) + c * ck
                rhs = sv_canon(field, acc)
                report.checked += 1
                if lhs != rhs:
                    report.fail("condition-iii", (h, a, j), lhs, rhs)
                    return report
                # equivalent form: a.(h.m) = sum h2.((S^-1(h1).a).m)
                lhs = a_act.act_sv({a: one}, h_act.act_basis(h, j))
                acc = {}
                for h1, h2, c in dl:
                    moved = act_left_a.act_sv(s_inv(h1), {a: one})
                    inner = a_act.act_sv(moved, {j: one})
                    for k, ck in h_act.act_sv({h2: one}, inner).items():
                        acc[k] = acc.get(k, 0) + c * ck
                rhs = sv_canon(field, acc)
                report.checked += 1
                if lhs != rhs:
                    report.fail("condition-iii-inverse-form", (h, a, j), lhs, rhs)
                    return report

    handle = two_sided_crossed(a_alg, hopf_mid, b_alg, act_left_a, act_right_b,
                               verify=False)
    assembled = assemble_two_sided_action(triple, da, dh, db)
    report.absorb(check_module_over_handle(handle, assembled, mode))
    if not report.passed:
        return report

    unit_a = a_alg.unit_sv()
    unit_h = hopf_mid.algebra.unit_sv()
    unit_b = b_alg.unit_sv()
    for j in range(m_dim):
        m = {j: one}
        for a in range(da):
            emb = _embed3({a: one}, unit_h, unit_b, dh, db)
            got = assembled.act_sv(emb, m)
            want = a_act.act_basis(a, j)
            report.checked += 1
            if got != want:
                report.fail("restriction-A", (a, j), got, want)
                return report
        for h in range(dh):
            emb = _embed3(unit_a, {h: one}, unit_b, dh, db)
            got = assembled.act_sv(emb, m)
            want = h_act.act_basis(h, j)
            report.checked += 1
            if got != want:
                report.fail("restriction-H", (h, j), got, want)
                return report
        for b in range(db):
            emb = _embed3(unit_a, unit_h, {b: one}, dh, db)
            got = assembled.act_sv(emb, m)
            want = b_act.act_basis(b, j)
            report.checked += 1
            if got != want:
                report.fail("restriction-B", (b, j), got, want)
                return report
    return report


def _embed3(a_sv, h_sv, b_sv, dh, db):
    out = {}
    for a, ca in a_sv.items():
        for h, ch in h_sv.items():
            for b, cb in b_sv.items():
                out[(a * dh + h) * db + b] = ca * ch * cb
    return out


def diagonal_module_condition(c_act, h_act, c_alg, hopf_mid, act_left_c,
                              act_right_c, mode=None):
    """h.(c.m) = sum (h1.c.S^-1(h3)).(h2.m), and the assembled action
    (c >< h).m = c.(h.m) is a module over the diagonal crossed product."""
    field = c_act.field
    one = field.one
    report = CheckReport()
    m_dim = c_act.space_dim
    dc, dh = c_alg.dim, hopf_mid.dim
    s_inv = hopf_mid.antipode_inv_col
    for h in range(dh):
        d2 = hopf_mid.coalgebra.delta2(h)
        for c in range(dc):
            for j in range(m_dim):
                lhs = h_act.act_sv({h: one}, c_act.act_basis(c, j))
                acc = {}
                for h1, h2, h3, w in d2:
                    moved = act_right_c.act_sv(s_inv(h3),
                                               act_left_c.act_basis(h1, c))
                    inner = h_act.act_basis(h2, j)
                    for k, ck in c_act.act_sv(moved, inner).items():
                        acc[k] = acc.get(k, 0) + w * ck
                rhs = sv_canon(field, acc)
                report.checked += 1
                if lhs != rhs:
                    report.fail("diagonal-condition", (h, c, j), lhs, rhs)
                    return report
    handle = diagonal_crossed(c_alg, hopf_mid, act_left_c, act_right_c,
                              verify=False)
    tensor = {}
    for c in range(dc):
        for h in range(dh):
            actor = c * dh + h
            for j in range(m_dim):
                sv = c_act.act_sv({c: one}, h_act.act_basis(h, j))
                if sv:
                    tensor[(actor, j)] = sv
    assembled = ActionData(field, dc * dh, m_dim, "left", tensor)
    report.absorb(check_module_over_handle(handle, assembled, mode))
    return report


def verify_f_correspondence(triple, module, hopf, setup=None, mode=None):
    """act_two_sided(u, m) = act_diagonal(f(u), m) on the canonical triple."""
    if setup is None:
        setup = StandardTriple(hopf)
    n = setup.n
    field = setup.field
    one = field.one
    f_map = build_iso("f", hopf, setup)
    assembled = assemble_two_sided_action(triple, n, n * n, n)
    z_act = derived_action(module, hopf, "Z", setup)
    n4 = n ** 4

    def exhaustive():
        for i in range(n4):
            fi = f_map.col_sv(i)
            for t in range(module.space_dim):
                yield (1, "f-correspondence", (i, t), assembled.act_basis(i, t),
                       z_act.act_sv(fi, {t: one}))

    def trial(rng, t):
        x = random_dense_vector(field, rng, n4)
        m = sv_from_list(field, random_dense_vector(field, rng,
                                                    module.space_dim))
        yield (1, "f-correspondence", ("trial", t),
               assembled.act_sv(sv_from_list(field, x), m),
               z_act.act_sv(sv_from_list(field, f_map.apply_dense(x)), m))

    return certify(mode, n4, exhaustive, trial, cap=MORPHISM_DIM_CAP)
