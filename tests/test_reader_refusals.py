"""Blocks the document reader refuses with exit 2, before `check` prints
anything.

A plain algebra document carries no coalgebra, so `check` can certify
only its actions by self: an action by dual or any coaction is refused.
Any document carries at most one block per side and `by`; with two, the
certificate `ParsedDocument.bimodule` assembles would read only one of
them, and the verdict would depend on the order of the blocks.
"""

import pytest

from hopfcross import cli
from hopfcross.bimodules import example_bimodule
from hopfcross.errors import FormatError
from hopfcross.hopf_json import (algebra_to_json, bimodule_blocks,
                                 hopf_to_json, read_document, save_document)


def run_check(path, capsys):
    code = cli.main(["check", str(path)])
    out, err = capsys.readouterr()
    return code, out, err


@pytest.mark.parametrize("key,by", [("actions", "dual"),
                                    ("coactions", "dual"),
                                    ("coactions", "self")])
def test_plain_algebra_carries_only_actions_by_self(cyclic3, tmp_path, capsys,
                                                     key, by):
    doc = algebra_to_json(cyclic3.algebra)
    doc["module"] = {"dim": 3}
    doc[key] = [{"side": "left", "by": by, "tensor": []}]
    path = tmp_path / "plain.json"
    save_document(path, doc)
    code, out, err = run_check(path, capsys)
    assert (code, out) == (2, "")
    assert err == f"error: {key[:-1]} by {by} needs a Hopf algebra document\n"


def test_plain_algebra_action_by_self_is_checked(cyclic3, tmp_path, capsys):
    doc = algebra_to_json(cyclic3.algebra)
    doc["module"] = {"dim": 3}
    doc["actions"] = [{"side": "left", "by": "self", "tensor": [
        [i, j, k, "1"] for (i, j), row in cyclic3.algebra.mult.items()
        for k in row]}]
    path = tmp_path / "plain.json"
    save_document(path, doc)
    code, out, err = run_check(path, capsys)
    assert (code, err) == (0, "")
    assert out.endswith("module dim: 3\naction[left,self]: pass (30 checks)\n")


def _with_trivial_left_action(hopf, first):
    """The regular bimodule blocks of `hopf` plus p.m = p(1) m, a second
    left action by dual, listed before or after the regular one."""
    blocks = bimodule_blocks(example_bimodule(hopf, "regular", 1))
    unit, n = hopf.algebra.unit, hopf.dim
    trivial = {"side": "left", "by": "dual",
               "tensor": [[i, j, j, hopf.field.fmt(unit[i])]
                          for i in range(n) if unit[i] for j in range(n)]}
    acts = blocks["actions"]
    blocks["actions"] = [trivial, *acts] if first else [*acts, trivial]
    return {**hopf_to_json(hopf), **blocks}


@pytest.mark.parametrize("first", [True, False])
def test_a_second_block_per_side_and_by_is_refused(cyclic3, tmp_path, capsys,
                                                   first):
    doc = _with_trivial_left_action(cyclic3, first)
    with pytest.raises(FormatError, match="duplicate left action by dual"):
        read_document(doc)
    path = tmp_path / "twice.json"
    save_document(path, doc)
    assert run_check(path, capsys) == (
        2, "", "error: duplicate left action by dual\n")


def test_a_second_coaction_per_side_is_refused(cyclic3):
    doc = {**hopf_to_json(cyclic3),
           **bimodule_blocks(example_bimodule(cyclic3, "regular", 1))}
    doc["coactions"].append(dict(doc["coactions"][-1]))
    with pytest.raises(FormatError, match="duplicate right coaction by dual"):
        read_document(doc)


def test_one_block_per_side_and_by_still_assembles(cyclic3):
    doc = _with_trivial_left_action(cyclic3, first=True)
    doc["actions"][0]["by"] = "self"
    parsed = read_document(doc)
    assert [(a.side, by) for a, by in parsed.actions] == [
        ("left", "self"), ("left", "dual"), ("right", "dual")]
    assert parsed.bimodule() is not None
