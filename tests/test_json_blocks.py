"""The action and coaction blocks of a JSON document are parsed by one
loop; each of its error messages is pinned word for word here, for
both kinds of block."""

import pytest

from hopfcross.bimodules import example_bimodule
from hopfcross.catalog import catalog_named
from hopfcross.errors import FormatError
from hopfcross.hopf_json import bimodule_blocks, hopf_to_json, read_document


def document(**blocks):
    """cyclic:2 with a 2-dim module block and the given blocks."""
    doc = hopf_to_json(catalog_named("cyclic:2"))
    doc["module"] = {"dim": 2}
    doc.update(blocks)
    return doc


def message(doc):
    with pytest.raises(FormatError) as caught:
        read_document(doc)
    return str(caught.value)


GOOD = {"side": "left", "by": "dual", "tensor": []}

MESSAGES = [
    ({"actions": {}}, "actions must be a list of blocks"),
    ({"coactions": "left"}, "coactions must be a list of blocks"),
    ({"actions": [3]}, "actions[] must be a JSON object"),
    ({"coactions": [[]]}, "coactions[] must be a JSON object"),
    ({"actions": [{**GOOD, "color": 1}]},
     "unknown keys in actions[]: ['color']"),
    ({"coactions": [{**GOOD, "a": 1, "b": 2}]},
     "unknown keys in coactions[]: ['a', 'b']"),
    ({"actions": [{**GOOD, "side": "up"}]},
     "action needs side left/right and by self/dual"),
    ({"actions": [{**GOOD, "by": "other"}]},
     "action needs side left/right and by self/dual"),
    ({"coactions": [{"by": "self"}]},
     "coaction needs side left/right and by self/dual"),
    ({"actions": [{**GOOD, "tensor": {}}]},
     "action tensor must be a list of [i, j, k, scalar]"),
    ({"coactions": [{**GOOD, "tensor": [[0, 2, 0, "1"]]}]},
     "index 2 out of range in coaction tensor"),
]


@pytest.mark.parametrize("blocks, text", MESSAGES)
def test_block_messages_are_pinned(blocks, text):
    assert message(document(**blocks)) == text


@pytest.mark.parametrize("key", ["actions", "coactions"])
def test_blocks_require_a_module_block(key):
    doc = document(**{key: [GOOD]})
    del doc["module"]
    assert message(doc) == f"{key} require a module block"


def test_actions_are_read_before_coactions():
    doc = document(actions=[{"side": "up"}], coactions={})
    assert message(doc) == "action needs side left/right and by self/dual"


@pytest.mark.parametrize("name", ["cyclic:3", "sweedler4"])
def test_bimodule_blocks_read_back(name):
    hopf = catalog_named(name)
    module = example_bimodule(hopf, "free", 1)
    doc = read_document({**hopf_to_json(hopf), **bimodule_blocks(module)})
    assert [(a.side, by) for a, by in doc.actions] == [("left", "dual"),
                                                      ("right", "dual")]
    assert [(c.side, by) for c, by in doc.coactions] == [("left", "dual"),
                                                        ("right", "dual")]
    back = doc.bimodule()
    for got, want in ((back.left_act, module.left_act),
                      (back.right_act, module.right_act)):
        assert got.tensor == want.tensor
    for got, want in ((back.left_co, module.left_co),
                      (back.right_co, module.right_co)):
        assert ({j: sorted(t) for j, t in got.tensor.items()}
                == {j: sorted(t) for j, t in want.tensor.items() if t})
