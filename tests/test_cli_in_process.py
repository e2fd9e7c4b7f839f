"""`cli.main` builds its parser once and reuses it, so commands run back
to back in one process print what each prints in a fresh one."""

import pytest

from hopfcross import cli
from hopfcross.bimodules import example_bimodule
from hopfcross.catalog import catalog_named
from hopfcross.hopf_json import bimodule_blocks, hopf_to_json, save_document
from test_cli import GOLDEN_STDOUT

CHECK_STDOUT = """\
kind: hopf
field: Q
dim: 2
hopf axioms: pass (18 checks)
module dim: 2
action[left,dual]: pass (10 checks)
action[right,dual]: pass (10 checks)
coaction[left,dual]: pass (2 checks)
coaction[right,dual]: pass (2 checks)
hopf bimodule axioms: pass (50 checks)
"""


@pytest.fixture(scope="module")
def cyclic2_files(tmp_path_factory):
    """cyclic:2 alone, and with the blocks of its regular bimodule."""
    hopf = catalog_named("cyclic:2")
    plain, blocks = (tmp_path_factory.mktemp("files") / name
                     for name in ("cyclic2.json", "bimodule.json"))
    save_document(plain, hopf_to_json(hopf))
    save_document(blocks, {**hopf_to_json(hopf),
                           **bimodule_blocks(example_bimodule(hopf,
                                                              "regular"))})
    return str(plain), str(blocks)


def test_the_parser_is_built_once():
    assert cli.make_parser() is cli.make_parser()


def test_commands_back_to_back_print_the_pinned_stdout(cyclic2_files, capsys):
    plain, blocks = cyclic2_files
    runs = [(["check", blocks], f"file: {blocks}\n{CHECK_STDOUT}"),
            *(([*args, "--input", plain], out)
              for args, out in GOLDEN_STDOUT.items())]
    for _ in range(2):
        for argv, expected in runs:
            assert cli.main(argv) == 0, argv
            out, err = capsys.readouterr()
            assert (out, err) == (expected, ""), argv
