"""Module and comodule structures over structure-constant algebras.

Action tensors are sparse maps ``(i, j) -> {k: c}`` where i indexes the
acting algebra and j, k the space: for a left action
``e_i . m_j = sum_k c m_k``, for a right action ``m_j . e_i = sum_k c m_k``.
Right actions keep their own tensors; they are never re-encoded as left
actions over the opposite algebra, so the displayed formulas stay
literal and conversions are explicit.

Coaction tensors are ``j -> [(c, k, coeff), ...]``; for a left coaction
``m_j -> sum coeff e^c (x) m_k`` and for a right one
``m_j -> sum coeff m_k (x) e^c``.  Coactions by the dual algebra index
their coalgebra legs by the dual basis, so "evaluate the leg at a basis
element of H" is coefficient extraction.
"""

from dataclasses import dataclass, field as dc_field
from itertools import chain

from .algebra import (algebra_rows, associativity_blocks, block_item,
                      dual_hopf, grouped_rows, multiplicative_items,
                      tensor_algebra, tensor_hopf, tensor_rows, variant)
from .errors import DimensionMismatchError
from .linalg import LinearMap, sv_add_into, sv_canon, sv_tensor
from .report import certify_exhaustive


@dataclass
class ActionData:
    field: object
    actor_dim: int
    space_dim: int
    side: str           # "left" | "right"
    tensor: dict        # (actor i, src j) -> {dst k: c}
    # the memoised twisting maps of `crossed` that read this action
    twists: dict = dc_field(default_factory=dict, repr=False, compare=False)

    def __post_init__(self):
        if self.side not in ("left", "right"):
            raise ValueError(f"bad side {self.side!r}")
        for (i, j), entries in self.tensor.items():
            if not (0 <= i < self.actor_dim and 0 <= j < self.space_dim):
                raise IndexError(f"action key ({i}, {j}) out of range")
            for k in entries:
                if not 0 <= k < self.space_dim:
                    raise IndexError(f"action target {k} out of range")

    def act_basis(self, i, j):
        return self.tensor.get((i, j), {})

    def act_sv(self, actor_sv, space_sv):
        """The action of a sparse actor on a sparse space vector; reads
        the tensor entries by probing every pair of the two supports, or,
        when there are more such pairs than entries, walks the entries."""
        acc = {}
        tensor = self.tensor
        if len(actor_sv) * len(space_sv) > len(tensor):
            for (i, j), entries in tensor.items():
                a, b = actor_sv.get(i), space_sv.get(j)
                if a is not None and b is not None:
                    sv_add_into(acc, entries, a * b)
        else:
            for i, a in actor_sv.items():
                for j, b in space_sv.items():
                    entries = tensor.get((i, j))
                    if entries:
                        sv_add_into(acc, entries, a * b)
        return sv_canon(self.field, acc)

    def rows(self):
        """The tensor grouped by actor: row i is {j: {k: c}} over the
        nonzero actions of e_i on m_j (`algebra.grouped_rows`)."""
        return grouped_rows(self.tensor, self.actor_dim)


@dataclass
class CoactionData:
    field: object
    space_dim: int
    coalgebra_dim: int
    side: str           # "left" | "right"
    tensor: dict        # j -> [(coalgebra c, space k, coeff), ...]

    def __post_init__(self):
        if self.side not in ("left", "right"):
            raise ValueError(f"bad side {self.side!r}")
        for j, terms in self.tensor.items():
            if not 0 <= j < self.space_dim:
                raise IndexError(f"coaction key {j} out of range")
            for c, k, _ in terms:
                if not (0 <= c < self.coalgebra_dim and 0 <= k < self.space_dim):
                    raise IndexError(f"coaction leg ({c}, {k}) out of range")

    def legs(self, j):
        return self.tensor.get(j, [])


# ---------------------------------------------------------------------------
# axiom checks

def check_module_axioms(act, actor_alg):
    """Unit acts as identity; action associates with the actor's product."""
    return certify_exhaustive(module_items(act, actor_alg))


def module_items(act, actor_alg):
    """Items of `check_module_axioms`, for the checks that chain it: the
    unit law per basis element, then `associativity_blocks`."""
    if act.actor_dim != actor_alg.dim:
        raise DimensionMismatchError("actor dim does not match algebra dim")
    one = act.field.one
    unit = actor_alg.unit_sv()
    for j in range(act.space_dim):
        m = {j: one}
        yield 1, "module-unit", (j,), act.act_sv(unit, m), m
    yield from associativity_blocks(act.field, act.actor_dim, act.space_dim,
                                    algebra_rows(actor_alg).__getitem__,
                                    act.rows().__getitem__, act.side,
                                    f"module-assoc-{act.side}")


def commute_items(first, second, axiom):
    """Items (1, axiom, (x, y, j), y.(x.m_j), x.(y.m_j)) for every actor x
    of `first`, actor y of `second` and basis element m_j: the two
    actions on one space commute, the exchange relation of the flip."""
    for count, name, witness, lhs, rhs in exchange_items(
            first, second, axiom, _flip(first)):
        yield count, name, witness, rhs, lhs


def _flip(x_act):
    """The flip R(x (x) y) = y (x) x, flattened y dim X + x."""
    one, dx = x_act.field.one, x_act.actor_dim
    return lambda x, y: {y * dx + x: one}


def exchange_items(x_act, y_act, axiom, twist, inverse=None):
    """The exchange relation of two left actions on one space, the module
    condition of a twisted tensor product: items (1, axiom, (x, y, j),
    x.(y.m_j), sum c y'.(x'.m_j)) per actor x, actor y and basis m_j, in
    that order, for R(x (x) y) = sum c y' (x) x' flattened y' dim X + x'.
    `inverse` = (axiom, R^-1) follows each item with y.(x.m_j) =
    sum c x'.(y'.m_j), R^-1(y (x) x) = sum c x' (x) y' flattened
    x' dim Y + y'.  Each twist is evaluated once per pair (x, y).
    """
    field, one = x_act.field, x_act.field.one
    for x in range(x_act.actor_dim):
        for y in range(y_act.actor_dim):
            reads = [(axiom, x_act, y_act, x, y, twist(x, y))]
            if inverse is not None:
                reads.append((inverse[0], y_act, x_act, y, x,
                              inverse[1](y, x)))
            for j in range(x_act.space_dim):
                for name, u_act, v_act, u, v, r in reads:
                    acc = {}
                    for k, c in r.items():
                        v2, u2 = divmod(k, u_act.actor_dim)
                        if inner := u_act.act_basis(u2, j):
                            sv_add_into(acc, v_act.act_sv({v2: c}, inner), 1)
                    yield (1, name, (x, y, j),
                           u_act.act_sv({u: one}, v_act.act_basis(v, j)),
                           sv_canon(field, acc))


def check_module_algebra(side, hopf, alg, act):
    """Module axioms plus H-equivariance of the product and unit of `alg`.

    Left:  h.(ab) = sum (h1.a)(h2.b) and h.1 = eps(h) 1.
    Right: (ab).h = sum (a.h1)(b.h2) and 1.h = eps(h) 1.
    """
    return certify_exhaustive(module_algebra_items(side, hopf, alg, act))


def module_algebra_items(side, hopf, alg, act):
    """Items of `check_module_algebra`, for the checks that chain it.

    After the module items come, per actor h, its unit item and then
    h.(ab) = sum (h1.a)(h2.b) (read (ab).h = sum (a.h1)(b.h2) on the
    right) as one block per (h, a) in the manner of
    `associativity_blocks`: a `block_item` fill of both sides for every
    b at once, keyed by the flattened (b, s).  The product rows of `alg`
    and the action rows are read as lists of their terms, made once.  A
    passing block is one item of count dim A, witness (h, a) and empty
    sides; a block that differs gives its first failing (h, a, b), so
    the report is that of the per-triple stream.
    """
    if act.side != side:
        raise ValueError(f"action is {act.side}-sided, expected {side}")
    if act.space_dim != alg.dim:
        raise DimensionMismatchError("action space does not match algebra dim")
    yield from module_items(act, hopf.algebra)
    field = act.field
    one = field.one
    n = alg.dim
    unit_a = alg.unit_sv()
    counit = hopf.coalgebra.counit
    axiom = f"module-algebra-{side}"
    acts = act.rows()
    # prods[a][b] = [(s, c)] over e_a e_b = sum c e_s; outs[h][t] the
    # same terms of e_h acting on m_t; seqs[h] = [(b * n, v, c)] over
    # e_h acting on m_b = sum c m_v
    prods = [{b: list(prod.items()) for b, prod in row.items()}
             for row in algebra_rows(alg)]
    outs = [{t: list(out.items()) for t, out in row.items()} for row in acts]
    seqs = [[(b * n, v, c) for b, out in row.items() for v, c in out.items()]
            for row in acts]
    for h in range(hopf.dim):
        yield (0, "module-algebra-unit", (h,), act.act_sv({h: one}, unit_a),
               sv_canon(field, {k: counit[h] * c for k, c in unit_a.items()}))
        delta = hopf.coalgebra.delta(h)
        on_h = outs[h]
        for a in range(n):
            def fill(lhs, rhs, sign):
                for b, prod in prods[a].items():
                    at = b * n
                    for m, c in prod:
                        for s, c2 in on_h.get(m, ()):
                            key = at + s
                            lhs[key] = lhs.get(key, 0) + c * c2
                for h1, h2, c in delta:
                    for u, c1 in acts[h1].get(a, {}).items():
                        w = sign * c * c1
                        row_u = prods[u]
                        for at, v, c2 in seqs[h2]:
                            prod = row_u.get(v)
                            if prod:
                                w2 = w * c2
                                for s, c3 in prod:
                                    key = at + s
                                    rhs[key] = rhs.get(key, 0) + w2 * c3
            yield block_item(field, axiom, (h, a), n, n, fill)


def check_coaction_axioms(coact, coalgebra):
    """Coassociativity with Delta of the coacting coalgebra; counit law."""
    return certify_exhaustive(coaction_items(coact, coalgebra))


def coaction_items(coact, coalgebra):
    """Items of `check_coaction_axioms`, for the checks that chain it."""
    if coact.coalgebra_dim != coalgebra.dim:
        raise DimensionMismatchError("coaction coalgebra dim mismatch")
    field = coact.field
    for j in range(coact.space_dim):
        # both sides live in C (x) C (x) M (left) or M (x) C (x) C (right)
        lhs, rhs = {}, {}
        for c, k, w in coact.legs(j):
            for c1, c2, w2 in coalgebra.delta(c):
                lhs_key = (c1, c2, k)
                lhs[lhs_key] = lhs.get(lhs_key, 0) + w * w2
            inner = coact.legs(k)
            for c2, k2, w2 in inner:
                if coact.side == "left":
                    rhs_key = (c, c2, k2)
                else:
                    rhs_key = (c2, c, k2)
                rhs[rhs_key] = rhs.get(rhs_key, 0) + w * w2
        yield (0, f"coaction-coassoc-{coact.side}", (j,), sv_canon(field, lhs),
               sv_canon(field, rhs))
        counit_applied = {}
        for c, k, w in coact.legs(j):
            counit_applied[k] = counit_applied.get(k, 0) + w * coalgebra.counit[c]
        yield (1, f"coaction-counit-{coact.side}", (j,),
               sv_canon(field, counit_applied), {j: field.one})


def bicomodule_legs(left_co, right_co, j):
    """Two-sided coaction of basis m_j: [(left leg, middle, right leg, coeff)].

    Computed as (id (x) rho) lambda; the bicomodule coherence check
    guarantees this equals (lambda (x) id) rho.
    """
    out = {}
    for cl, k, w in left_co.legs(j):
        for cr, k2, w2 in right_co.legs(k):
            key = (cl, k2, cr)
            out[key] = out.get(key, 0) + w * w2
    field = left_co.field
    canon = field.canon
    return [(cl, k, cr, c) for (cl, k, cr), v in out.items()
            for c in (canon(v),) if c != field.zero]


def check_bicomodule_coherence(left_co, right_co):
    """(lambda (x) id) rho = (id (x) rho) lambda on every basis element."""
    return certify_exhaustive(coherence_items(left_co, right_co))


def coherence_items(left_co, right_co):
    """Items of `check_bicomodule_coherence`, for the checks that chain it."""
    field = left_co.field
    for j in range(left_co.space_dim):
        via_left = {(cl, k, cr): c
                    for cl, k, cr, c in bicomodule_legs(left_co, right_co, j)}
        via_right = {}
        for cr, k, w in right_co.legs(j):
            for cl, k2, w2 in left_co.legs(k):
                key = (cl, k2, cr)
                via_right[key] = via_right.get(key, 0) + w * w2
        yield (1, "bicomodule-coherence", (j,), via_left,
               sv_canon(field, via_right))


# ---------------------------------------------------------------------------
# the regular actions of H on H* and derived structures

def regular_actions(hopf):
    """The left and right regular actions of H on its dual.

    (h -> f)(h') = f(h'h) and (f <- h')(h) = f(h'h), expressed on the
    dual basis: e_u -> e^j = sum_t m[t,u][j] e^t and
    e^j <- e_v = sum_t m[v,t][j] e^t.
    """
    n = hopf.dim
    field = hopf.field
    left, right = {}, {}
    for (t, u), entries in hopf.algebra.mult.items():
        for j, c in entries.items():
            left.setdefault((u, j), {})[t] = c
    for (v, t), entries in hopf.algebra.mult.items():
        for j, c in entries.items():
            right.setdefault((v, j), {})[t] = c
    return (ActionData(field, n, n, "left", left),
            ActionData(field, n, n, "right", right))


def composite_action(acts, m_dim):
    """(x1 (x) ... (x) xk).m = x1.(...(xk.m)) as a left action tensor on the
    left-major flattened actor basis.

    The factors are folded in innermost first, so each partial image
    (x_l (x) ... (x) xk).m_j is computed once; like the tensor, the
    partial images are kept by (flattened suffix actor, j), nonzero only.
    """
    field = acts[0].field
    one = field.one
    tensor, dim = {(0, j): {j: one} for j in range(m_dim)}, 1
    for act in reversed(acts):
        folded = {}
        for x in range(act.actor_dim):
            ex = {x: one}
            for (r, j), sv in tensor.items():
                out = act.act_sv(ex, sv)
                if out:
                    folded[(x * dim + r, j)] = out
        tensor, dim = folded, dim * act.actor_dim
    return ActionData(field, dim, m_dim, "left", tensor)


def trivial_action(hopf, space_dim, side):
    """h . m = eps(h) m; the degenerate action that untwists every product."""
    field = hopf.field
    tensor = {}
    for i in range(hopf.dim):
        e = field.canon(hopf.coalgebra.counit[i])
        if e == field.zero:
            continue
        for j in range(space_dim):
            tensor[(i, j)] = {j: e}
    return ActionData(field, hopf.dim, space_dim, side, tensor)


def build_bimodule_algebra(a_alg, act_left, b_alg, act_right, hopf,
                           verify=True):
    """Tensor algebra A (x) B with H acting on the left through A only and
    on the right through B only; the two actions commute slot by slot.

    Raises UnverifiedActionError unless both inputs pass their
    module-algebra checks (skippable for pre-verified callers).
    """
    if verify:
        check_module_algebra("left", hopf, a_alg, act_left).require(
            "left factor is not a module algebra")
        check_module_algebra("right", hopf, b_alg, act_right).require(
            "right factor is not a module algebra")
    field = a_alg.field
    db = b_alg.dim
    c_alg = tensor_algebra(a_alg, b_alg)
    left_tensor, right_tensor = {}, {}
    for (i, a), entries in act_left.tensor.items():
        for b in range(db):
            left_tensor[(i, a * db + b)] = {k * db + b: c for k, c in entries.items()}
    for (i, b), entries in act_right.tensor.items():
        for a in range(a_alg.dim):
            right_tensor[(i, a * db + b)] = {a * db + k: c for k, c in entries.items()}
    act_l = ActionData(field, hopf.dim, c_alg.dim, "left", left_tensor)
    act_r = ActionData(field, hopf.dim, c_alg.dim, "right", right_tensor)
    return c_alg, act_l, act_r


def check_bimodule_algebra(hopf, alg, act_left, act_right):
    """Left and right module-algebra axioms plus h.(c.g) = (h.c).g."""
    return certify_exhaustive(chain(
        module_algebra_items("left", hopf, alg, act_left),
        module_algebra_items("right", hopf, alg, act_right),
        exchange_items(act_left, act_right, "bimodule-actions-commute",
                       _flip(act_left))))


def bicomodule_to_module(left_co, right_co, hopf):
    """Convert an H*-bicomodule into a left (H (x) H^op)-module.

    The coaction and coherence axioms are checked (raising
    UnverifiedActionError), then `evaluation_action` builds the action.
    """
    n = hopf.dim
    if left_co.coalgebra_dim != n or right_co.coalgebra_dim != n:
        raise DimensionMismatchError("coaction legs must be dual-basis indexed")
    dual_coa = dual_hopf(hopf).coalgebra
    for co in (left_co, right_co):
        check_coaction_axioms(co, dual_coa).require("coaction fails its axioms")
    check_bicomodule_coherence(left_co, right_co).require("not a bicomodule")
    return evaluation_action(left_co, right_co, n)


def evaluation_action(left_co, right_co, n):
    """(h (x) g) . m = sum m(-1)(g) m(1)(h) m(0) as a left action of
    K = H (x) H^op, dim H = n, with no check of the coactions: the first
    tensor slot of the actor evaluates the right coaction leg, the second
    the left one.  `bicomodule_to_module` certifies it, and
    `bimodules.derived_action` takes it as the K factor of every derived
    action."""
    tensor = {}
    for j in range(left_co.space_dim):
        for cl, k, cr, w in bicomodule_legs(left_co, right_co, j):
            tensor.setdefault((cr * n + cl, j), {})[k] = w
    return ActionData(left_co.field, n * n, left_co.space_dim, "left", tensor)


def comodule_algebra_map(hopf):
    """The coaction making H* a right comodule algebra over H* (x) H*^cop.

    p maps to sum p2 (x) (p3 (x) p1); returns the matrix of the map
    H* -> H* (x) (H* (x) H*^cop) on dual bases together with a report
    verifying that it is an algebra map and a coassociative, counital
    coaction.
    """
    dual = dual_hopf(hopf)
    n = hopf.dim
    field = hopf.field
    big = tensor_hopf(dual, variant(dual, "cop"))

    def rho_basis(t):
        out = {}
        for a, b, c, w in dual.coalgebra.delta2(t):
            key = b * n * n + c * n + a     # p2 (x) (p3 (x) p1)
            out[key] = out.get(key, 0) + w
        return sv_canon(field, out)

    cols = [rho_basis(t) for t in range(n)]
    lm = LinearMap.from_columns(field, n, n ** 3, cols)

    def items():
        # coassociativity and counit as a right comodule over `big`
        for t in range(n):
            lhs, rhs = {}, {}
            for key, w in cols[t].items():
                v, d = divmod(key, n * n)
                for key2, w2 in cols[v].items():
                    v2, d2 = divmod(key2, n * n)
                    k = (v2, d2, d)
                    lhs[k] = lhs.get(k, 0) + w * w2
                for d1, d2, w2 in big.coalgebra.delta(d):
                    k = (v, d1, d2)
                    rhs[k] = rhs.get(k, 0) + w * w2
            yield (0, "comodule-coassoc", (t,), sv_canon(field, lhs),
                   sv_canon(field, rhs))
            counit_applied = {}
            for key, w in cols[t].items():
                v, d = divmod(key, n * n)
                counit_applied[v] = (counit_applied.get(v, 0)
                                     + w * big.coalgebra.counit[d])
            yield (1, "comodule-counit", (t,),
                   sv_canon(field, counit_applied), {t: field.one})
        # an algebra map into H* (x) big, whose product is componentwise
        unit = dual.algebra.unit_sv()
        yield (0, "comodule-algebra-unit", (), lm.apply_sv(unit),
               sv_tensor(field, [unit, big.algebra.unit_sv()], [n, n * n]))
        row = algebra_rows(dual.algebra).__getitem__
        yield from multiplicative_items(
            field, "comodule-algebra-map", n, row, cols,
            tensor_rows(row, algebra_rows(big.algebra).__getitem__, n * n),
            n ** 3)

    return lm, certify_exhaustive(items())
