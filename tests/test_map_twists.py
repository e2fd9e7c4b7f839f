"""The eight maps and X's twist, read off the twisting-map constructors,
equal the slot rules they were once evaluated by.

The reference is that slot-rule evaluator, kept here.  A rule names how
many coproduct legs of kappa = h (x) g in K to take (K's `delta` or
`delta2`), which moves table moves p and q by which leg, and which leg
is kept in the K slot; `SlotRules.place` evaluates one rule into the
slot order of a target.  Every map must equal its rule entry for entry
and value type for value type, X's twist must equal the rule `X_TWIST`
at every basis pair, and the memoised inverse twists must return the
dicts the unmemoised ones did.
"""

import functools

import pytest

from hopfcross.catalog import catalog_named
from hopfcross.crossed import (LAYOUTS, StandardTriple, left_smash_twist_inv,
                               right_smash_twist_inv, x_twist)
from hopfcross.isos import ISO_KINDS, ISO_SPECS, build_iso
from hopfcross.linalg import add_tensor, sv_canon

ENTRIES = ("cyclic:2", "cyclic:3", "dual_cyclic:2", "dual_cyclic:3",
           "sweedler4", "taft:2:5")
NAMES = ("cyclic:2", "cyclic:3", "dual_cyclic:3", "sweedler4", "taft:2:5")

# X's R: (p (x) q) (x) (g (x) h) -> sum (g2 (x) h2) (x)
#        (S^-1(h1) -> p <- S(g1) (x) S(h3) -> q <- S^-1(g3))
X_TWIST = (3, ("L~", 0), ("R", 2), 1)

# kind: (coproduct legs of kappa = h (x) g, p move, q move, leg kept in
#        the K slot); a move is None or (moves rule, leg).
RULES = {
    # X -> Y: sum (h1 -> p <- g1) # (h2 (x) g2) # q
    "phi": (2, ("L", 0), None, 1),
    # Y -> X: sum (g2 (x) h2) (x) (S^-1(h1) -> p <- S(g1) (x) q)
    "phi_inv": (2, ("L~", 0), None, 1),
    # Y -> Z: sum (p (x) (h2 -> q <- g2)) >< (h1 (x) g1)
    "alpha": (2, None, ("L", 1), 0),
    # Z -> Y: sum p # (h1 (x) g1) # (S(h2) -> q <- S^-1(g2))
    "alpha_inv": (2, None, ("R", 1), 0),
    # X -> Z: sum (h1 -> p <- g1 (x) h3 -> q <- g3) >< (h2 (x) g2)
    "beta": (3, ("L", 0), ("L", 2), 1),
    # Z -> X: X's twist of (p (x) q) (x) kappa
    "beta_inv": X_TWIST,
    # Y -> Z: f(a # k # b) = sum (a (x) b.S_K^-1(k2)) >< k1
    "f": (2, None, ("R~", 1), 0),
    # Z -> Y: f^-1((a (x) b) >< k) = sum a # k1 # b.k2
    "f_inv": (2, None, ("R", 1), 0),
}


class SlotRules:
    """The slot-rule evaluator on one `StandardTriple`."""

    def __init__(self, setup):
        self.setup = setup
        self.tables = {}
        self.resolved = {}

    def moves(self, rule):
        """The table (kappa, x) -> sparse dual vector of one move rule.

        "L" is kappa -> x <- (the left K-action on D), "R" is
        S(h) -> x <- S^-1(g) (the right K-action on D^op), "L~" and "R~"
        apply S_K^-1 to kappa first, and None leaves x where it is.
        """
        table = self.tables.get(rule)
        if table is None:
            setup = self.setup
            n, one = setup.n, setup.field.one
            if rule is None:
                table = {(kappa, x): {x: one}
                         for kappa in range(n * n) for x in range(n)}
            elif rule.endswith("~"):
                act = (setup.act_on_dual if rule == "L~"
                       else setup.act_on_dual_op)
                table = setup._precomposed(act, setup.K.antipode_inv_col)
            else:
                act = (setup.act_on_dual if rule == "L"
                       else setup.act_on_dual_op)
                table = act.tensor
            self.tables[rule] = table
        return table

    def expand(self, rule, p, kappa, q):
        """One slot rule on basis p, kappa, q: [(coeff, p', K leg, q')],
        the terms where a move vanishes dropped."""
        resolved = self.resolved.get(rule)
        if resolved is None:
            legs, p_move, q_move, k_leg = rule
            p_rule, p_leg = p_move or (None, 0)
            q_rule, q_leg = q_move or (None, 0)
            coa, one = self.setup.K.coalgebra, self.setup.field.one
            coproduct = {1: lambda k: ((k, one),), 2: coa.delta,
                         3: coa.delta2}[legs]
            resolved = (coproduct, self.moves(p_rule), p_leg,
                        self.moves(q_rule), q_leg, k_leg)
            self.resolved[rule] = resolved
        coproduct, p_table, p_leg, q_table, q_leg, k_leg = resolved
        out = []
        for term in coproduct(kappa):
            pv = p_table.get((term[p_leg], p))
            if pv:
                qv = q_table.get((term[q_leg], q))
                if qv:
                    out.append((term[-1], pv, term[k_leg], qv))
        return out

    def place(self, rule, p, kappa, q, to):
        """`expand` scattered into one flat layout with slot strides `to`,
        not canonicalised, the K leg read as h n + g."""
        n = self.setup.n
        acc = {}
        for c, pv, leg, qv in self.expand(rule, p, kappa, q):
            h, g = divmod(leg, n)
            base = h * to["h"] + g * to["g"]
            for tp, cp in pv.items():
                for tq, cq in qv.items():
                    key = base + tp * to["p"] + tq * to["q"]
                    acc[key] = acc.get(key, 0) + c * cp * cq
        return acc

    def strides(self, layout):
        """Flat-index stride of each slot letter of a layout."""
        return {s: self.setup.n ** (len(layout) - 1 - t)
                for t, s in enumerate(layout)}


def reference_columns(kind, rules):
    """The columns of `kind`, each one `place` of its rule."""
    src, dst = ISO_SPECS[kind]
    n, field = rules.setup.n, rules.setup.field
    at, to = rules.strides(LAYOUTS[src]), rules.strides(LAYOUTS[dst])
    cols = [None] * n ** 4
    for kappa in range(n * n):
        h, g = divmod(kappa, n)
        for p in range(n):
            for q in range(n):
                i = p * at["p"] + q * at["q"] + h * at["h"] + g * at["g"]
                cols[i] = sv_canon(field, rules.place(RULES[kind], p, kappa,
                                                      q, to))
    return cols


def typed(sv):
    return sorted((k, c, type(c).__name__) for k, c in sv.items())


@functools.cache
def triple(name):
    hopf = catalog_named(name)
    setup = StandardTriple(hopf)
    return hopf, setup, SlotRules(setup)


def test_every_kind_has_a_rule():
    assert set(RULES) == set(ISO_KINDS)


@pytest.mark.parametrize("kind", ISO_KINDS)
@pytest.mark.parametrize("name", ENTRIES)
def test_map_equals_its_slot_rule(name, kind):
    hopf, setup, rules = triple(name)
    lm = build_iso(kind, hopf, setup)
    want = reference_columns(kind, rules)
    for j in range(lm.src_dim):
        assert typed(lm.col_sv(j)) == typed(want[j]), (kind, j)


@pytest.mark.parametrize("name", (*ENTRIES, "taft:3:7"))
def test_x_twist_equals_the_slot_rule(name):
    _, setup, rules = triple(name)
    n, field = setup.n, setup.field
    twist = x_twist(setup)
    to = rules.strides(LAYOUTS["X"])
    for c in range(n * n):
        p, q = divmod(c, n)
        for gh in range(n * n):
            g, h = divmod(gh, n)
            got = sv_canon(field, twist(c, gh))
            want = sv_canon(field, rules.place(X_TWIST, p, h * n + g, q, to))
            assert typed(got) == typed(want), (c, gh)


def unmemoised_twists(hopf, act):
    """The inverse twists as they were written before S^-1(h).e_x was
    memoised: (R^-1 of A # H, R^-1 of H # B)."""
    delta, s_inv = hopf.coalgebra.delta, hopf.antipode_inv_col
    one = act.field.one

    def tensor_sum(dim_y, terms):
        acc = {}
        for x, y in terms:
            add_tensor(acc, x, y, dim_y, 1)
        return acc

    def left(a, h):
        return tensor_sum(act.space_dim, (
            ({h2: c}, act.act_sv(s_inv(h1), {a: one}))
            for h1, h2, c in delta(h)))

    def right(h, b):
        return tensor_sum(hopf.dim, (
            (act.act_sv(s_inv(h2), {b: one}), {h1: c})
            for h1, h2, c in delta(h)))

    return left, right


@pytest.mark.parametrize("name", NAMES)
def test_memoised_inverse_twists_return_the_raw_dicts(name):
    _, setup, _ = triple(name)
    K, dk, dd = setup.K, setup.K.dim, setup.n
    left_ref, _ = unmemoised_twists(K, setup.act_on_dual)
    _, right_ref = unmemoised_twists(K, setup.act_on_dual_op)
    left = left_smash_twist_inv(K, setup.act_on_dual)
    right = right_smash_twist_inv(K, setup.act_on_dual_op)
    for _ in range(2):      # the second pass reads the memoised moves
        for a in range(dd):
            for h in range(dk):
                assert typed(left(a, h)) == typed(left_ref(a, h)), (a, h)
                assert typed(right(h, a)) == typed(right_ref(h, a)), (h, a)
