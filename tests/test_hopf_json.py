import json

import pytest

from hopfcross import cli
from hopfcross.bimodules import example_bimodule
from hopfcross.catalog import catalog_named
from hopfcross.crossed import StandardTriple, build_xyz, materialize
from hopfcross.errors import FormatError
from hopfcross.fields import PrimeField, QQ
from hopfcross.hopf_json import (algebra_to_json, bimodule_blocks, dump_json,
                                 field_to_json, hopf_to_json, parse_field,
                                 read_document)


def test_field_json_roundtrip():
    assert parse_field("Q") == QQ
    assert parse_field({"p": 7}) == PrimeField(7)
    assert field_to_json(QQ) == "Q"
    assert field_to_json(PrimeField(5)) == {"p": 5}
    with pytest.raises(FormatError):
        parse_field("R")
    with pytest.raises(FormatError):
        parse_field({"p": 6})


@pytest.mark.parametrize("name", ["cyclic:2", "cyclic:3", "dual_cyclic:2",
                                  "sweedler4", "taft:2:5"])
def test_hopf_roundtrip(name):
    hopf = catalog_named(name)
    doc = read_document(json.loads(dump_json(hopf_to_json(hopf))))
    assert doc.kind == "hopf"
    assert doc.hopf.algebra.mult == hopf.algebra.mult
    assert doc.hopf.algebra.unit == hopf.algebra.unit
    assert {i: sorted(t) for i, t in doc.hopf.coalgebra.comult.items()} == \
           {i: sorted(t) for i, t in hopf.coalgebra.comult.items()}
    assert doc.hopf.antipode == hopf.antipode


def test_algebra_roundtrip(cyclic2, setup_c2):
    alg = materialize(build_xyz(cyclic2, "Z", setup_c2), cap=16)
    doc = read_document(json.loads(dump_json(algebra_to_json(alg))))
    assert doc.kind == "algebra"
    assert doc.algebra.mult == alg.mult
    assert doc.hopf is None


def test_serialization_is_deterministic(sweedler):
    assert dump_json(hopf_to_json(sweedler)) == dump_json(hopf_to_json(sweedler))


def test_unknown_keys_rejected(cyclic2):
    doc = hopf_to_json(cyclic2)
    doc["extra"] = 1
    with pytest.raises(FormatError):
        read_document(doc)


def test_unknown_keys_in_blocks_rejected(cyclic2):
    doc = hopf_to_json(cyclic2)
    doc["module"] = {"dim": 2, "color": "red"}
    with pytest.raises(FormatError):
        read_document(doc)


def test_missing_required_key(cyclic2):
    doc = hopf_to_json(cyclic2)
    del doc["unit"]
    with pytest.raises(FormatError):
        read_document(doc)


def test_incomplete_hopf_structure(cyclic2):
    doc = hopf_to_json(cyclic2)
    del doc["antipode"]
    with pytest.raises(FormatError):
        read_document(doc)


def test_bad_scalars_and_indices(cyclic2):
    doc = hopf_to_json(cyclic2)
    doc["mult"][0][3] = "1.5"
    with pytest.raises(FormatError):
        read_document(doc)
    doc = hopf_to_json(cyclic2)
    doc["mult"][0][2] = 9
    with pytest.raises(FormatError):
        read_document(doc)
    doc = hopf_to_json(cyclic2)
    doc["mult"].append(doc["mult"][0])
    with pytest.raises(FormatError):
        read_document(doc)


def test_descriptor_rejected_as_structure():
    with pytest.raises(FormatError):
        read_document({"construction": "Z", "input_sha256": "ab", "dim": 16})


def test_bimodule_blocks_roundtrip(cyclic2):
    module = example_bimodule(cyclic2, "free", 2)
    doc = hopf_to_json(cyclic2)
    doc.update(bimodule_blocks(module))
    parsed = read_document(json.loads(dump_json(doc)))
    assert parsed.module_dim == module.space_dim
    rebuilt = parsed.bimodule()
    assert rebuilt is not None
    assert rebuilt.left_act.tensor == module.left_act.tensor
    assert rebuilt.right_act.tensor == module.right_act.tensor
    for j in range(module.space_dim):
        assert sorted(rebuilt.left_co.legs(j)) == sorted(module.left_co.legs(j))
        assert sorted(rebuilt.right_co.legs(j)) == sorted(module.right_co.legs(j))


def test_actions_require_module_block(cyclic2):
    doc = hopf_to_json(cyclic2)
    doc["actions"] = [{"side": "left", "by": "dual", "tensor": []}]
    with pytest.raises(FormatError):
        read_document(doc)


def test_prime_field_document(taft25):
    doc = read_document(json.loads(dump_json(hopf_to_json(taft25))))
    assert doc.field == PrimeField(5)
    assert doc.hopf.algebra.mult == taft25.algebra.mult



TABLE_PATHS = {"mult": ("mult",), "comult": ("comult",),
               "action": ("actions", 0, "tensor"),
               "coaction": ("coactions", 0, "tensor")}


def _document_with(hopf, table, corruption):
    doc = hopf_to_json(hopf)
    doc.update(bimodule_blocks(example_bimodule(hopf, "free", 1)))
    doc = json.loads(dump_json(doc))
    *path, key = TABLE_PATHS[table]
    owner = doc
    for step in path:
        owner = owner[step]
    entries = owner[key]
    if corruption == "not-a-list":
        owner[key] = 5
    elif corruption == "bool-index":
        entries[0][0] = bool(entries[0][0])
    elif corruption == "repeated-triple":
        entries.append(list(entries[0]))
    return doc


@pytest.mark.parametrize("table", sorted(TABLE_PATHS))
@pytest.mark.parametrize("corruption",
                         ["not-a-list", "bool-index", "repeated-triple"])
def test_every_table_is_read_alike(cyclic2, table, corruption):
    assert read_document(_document_with(cyclic2, table, None)).bimodule()
    with pytest.raises(FormatError, match=table):
        read_document(_document_with(cyclic2, table, corruption))


ONE_DIM = {"field": "Q", "dim": 1, "basis": ["1"], "mult": [[0, 0, 0, "1"]],
           "unit": ["1"]}


@pytest.mark.parametrize("doc,where", [
    ({**ONE_DIM, "dim": True}, "dim"),
    ({**ONE_DIM, "module": {"dim": True}}, "module.dim"),
    ({**ONE_DIM, "actions": 5, "module": {"dim": 1}}, "actions"),
    ({**ONE_DIM, "coactions": None, "module": {"dim": 1}}, "coactions"),
])
def test_boolean_dims_and_non_list_blocks_are_input_errors(doc, where,
                                                           tmp_path, capsys):
    assert read_document(ONE_DIM).kind == "algebra"
    with pytest.raises(FormatError, match=where):
        read_document(doc)
    path = tmp_path / "doc.json"
    path.write_text(dump_json(doc))
    assert cli.main(["check", str(path)]) == 2
    out, err = capsys.readouterr()
    assert out == "" and where in err
