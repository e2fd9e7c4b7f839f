"""`bimodules.derived_action` is the composite of the module's three
factor actions, and it equals the paper's displayed formulas.

The reference below evaluates those formulas one (p, kappa, q, m_j) at a
time: it expands the coproduct of kappa = h (x) g in K by one slot rule
(`SlotRules.expand`, kept in test_map_twists), moves p and q by regular
arrows, evaluates the kept K leg on the coaction legs and sandwiches
m(0) between the moved p and q.  On every example Hopf bimodule the composite must give the
same tensor, key for key, with the same values and value types.
"""

import functools

import pytest

from hopfcross import bimodules
from hopfcross.actions import ActionData, evaluation_action
from hopfcross.bimodules import derived_action, example_bimodule
from hopfcross.catalog import catalog_named
from hopfcross.crossed import LAYOUTS, StandardTriple
from hopfcross.linalg import sv_add_into, sv_canon
from test_map_twists import SlotRules

SPECS = ("cyclic:2", "cyclic:3", "dual_cyclic:3", "sweedler4", "taft:2:5")
MODULES = (("regular", 1), ("free", 1), ("free", 2))
WHICH = ("X", "Y", "Z", "left_smash", "right_smash")

# which: (coproduct legs of kappa = h (x) g, p move, q move, leg evaluated
#         on the coaction legs); a move is None or (moves rule, leg).
DERIVED_SPECS = {
    "X": (3, ("L", 0), ("L", 2), 1),
    "Y": (2, None, ("L", 1), 0),
    "Z": (1, None, None, 0),
    "left_smash": (1, None, None, 0),
    "right_smash": (2, None, ("L", 1), 0),
}


def _unmoved(actor_sv, space_sv):
    return space_sv


def reference_derived_action(module, hopf, which, setup):
    """The displayed formula of `which`, one slot-rule expansion per
    (p, kappa, q) and one sum per m_j."""
    n = setup.n
    field = setup.field
    one = field.one
    layout = LAYOUTS[which]
    rules = SlotRules(setup)
    at = rules.strides(layout)
    act_p = module.left_act.act_sv if "p" in layout else _unmoved
    act_q = module.right_act.act_sv if "q" in layout else _unmoved
    legs = evaluation_action(module.left_co, module.right_co, n).act_basis
    rule = DERIVED_SPECS[which]
    tensor = {}
    for kappa in range(n * n):
        h, g = divmod(kappa, n)
        for p in range(n if "p" in layout else 1):
            for q in range(n if "q" in layout else 1):
                terms = rules.expand(rule, p, kappa, q)
                actor = (h * at["h"] + g * at["g"] + p * at.get("p", 0)
                         + q * at.get("q", 0))
                for j in range(module.space_dim):
                    acc = {}
                    for c, pv, leg, qv in terms:
                        for k, w in legs(leg, j).items():
                            sv_add_into(acc, act_p(pv, act_q(qv, {k: one})),
                                        c * w)
                    sv = sv_canon(field, acc)
                    if sv:
                        tensor[(actor, j)] = sv
    return ActionData(field, n ** len(layout), module.space_dim, "left",
                      tensor)


def entries(act):
    """The tensor as sorted (actor, j, k, value, value type) tuples."""
    return sorted((i, j, k, c, type(c).__name__)
                  for (i, j), sv in act.tensor.items() for k, c in sv.items())


@functools.cache
def catalog_triple(spec):
    hopf = catalog_named(spec)
    return hopf, StandardTriple(hopf)


@pytest.mark.parametrize("spec", SPECS)
@pytest.mark.parametrize("kind,v_dim", MODULES)
def test_composite_equals_the_displayed_formulas(spec, kind, v_dim):
    hopf, setup = catalog_triple(spec)
    module = example_bimodule(hopf, kind, v_dim)
    for which in WHICH:
        got = derived_action(module, hopf, which)
        want = reference_derived_action(module, hopf, which, setup)
        assert (got.actor_dim, got.space_dim, got.side) == (
            want.actor_dim, want.space_dim, want.side), which
        assert entries(got) == entries(want), which


def test_no_standard_triple_is_built(cyclic3, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("derived_action built a StandardTriple")

    monkeypatch.setattr(bimodules, "StandardTriple", refuse)
    module = example_bimodule(cyclic3, "free", 1)
    for which in WHICH:
        assert derived_action(module, cyclic3, which).tensor


def test_an_unknown_action_is_refused(cyclic2):
    with pytest.raises(ValueError, match="unknown derived action 'W'"):
        derived_action(example_bimodule(cyclic2, "regular"), cyclic2, "W")
