"""Mutated input files and catalog specs never crash the CLI.

Each example mutates a catalog document (a key dropped, a value of the
wrong type, an index out of range, a wrong dim) or builds a catalog
spec from loose parts, and runs a CLI command on it in-process.
`cli.main` must return 0, 1 or 2 and raise nothing.
"""

import contextlib
import copy
import io
import json
import os
import tempfile

from hypothesis import given, settings, strategies as st

from hopfcross import cli
from hopfcross.bimodules import example_bimodule
from hopfcross.catalog import catalog_named
from hopfcross.hopf_json import bimodule_blocks, hopf_to_json

CYCLIC2 = catalog_named("cyclic:2")
DOCS = [hopf_to_json(CYCLIC2), {**hopf_to_json(CYCLIC2), "field": {"p": 3}},
        {**hopf_to_json(CYCLIC2),
         **bimodule_blocks(example_bimodule(CYCLIC2, "regular"))}]

COMMANDS = [["check", "{}"], ["check", "{}", "--mode", "random:1"],
            ["build", "--construction", "X", "--input", "{}",
             "--mode", "random:1"],
            ["iso", "--kind", "phi", "--input", "{}", "--mode", "random:1"],
            ["bimodule", "--input", "{}", "--module", "regular",
             "--mode", "random:1"],
            ["semisimple", "{}"]]

JUNK = st.one_of(st.none(), st.booleans(), st.integers(-2, 5),
                 st.sampled_from(["", "x", "1/0", "Q", "0", "1/2"]),
                 st.just([]), st.just({}), st.just({"p": 4}),
                 st.lists(st.integers(-1, 4), max_size=4))


@st.composite
def mutated_documents(draw):
    """A catalog document with one or two values dropped or replaced.

    Each mutation walks down from the root through dicts and lists to a
    random entry, then drops it or puts a junk value in its place.
    """
    doc = copy.deepcopy(draw(st.sampled_from(DOCS)))
    for _ in range(draw(st.integers(1, 2))):
        node = doc
        while True:
            keys = list(node) if isinstance(node, dict) else range(len(node))
            if not keys:
                break
            key = draw(st.sampled_from(list(keys)))
            child = node[key]
            if isinstance(child, (dict, list)) and child and draw(st.booleans()):
                node = child
                continue
            if draw(st.booleans()):
                del node[key]
            else:
                node[key] = copy.deepcopy(draw(JUNK))
            break
    return doc


def run_main(argv):
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        return cli.main(argv)


@settings(max_examples=400, deadline=None, derandomize=True)
@given(doc=mutated_documents(), command=st.sampled_from(COMMANDS))
def test_mutated_documents_exit_cleanly(doc, command):
    fd, path = tempfile.mkstemp(suffix=".json")
    try:
        with os.fdopen(fd, "w") as out:
            json.dump(doc, out)
        argv = [path if arg == "{}" else arg for arg in command]
        assert run_main(argv) in (0, 1, 2)
    finally:
        os.unlink(path)


SPEC_PARTS = st.one_of(st.integers(-2, 13).map(str),
                       st.sampled_from(["", "a", "1.5", "+3", " 2",
                                        "99999999999", "0x5"]))
SPECS = st.builds(lambda name, parts: ":".join([name, *parts]),
                  st.sampled_from(["cyclic", "dual_cyclic", "taft",
                                   "sweedler4", "sweedler", "", "nope"]),
                  st.lists(SPEC_PARTS, max_size=3))
FIELDS = st.one_of(st.none(), st.sampled_from(["Q", "5", "7", "4", "x",
                                                "0", "-5", "1"]))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(spec=SPECS, field=FIELDS)
def test_catalog_specs_exit_cleanly(spec, field):
    argv = ["describe", "--catalog", spec]
    if field is not None:
        argv += ["--field", field]
    assert run_main(argv) in (0, 1, 2)
