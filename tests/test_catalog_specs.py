"""Catalog specs that cannot be built are rejected by the parser.

A spec with n < 1, or a taft spec whose n does not divide p - 1 (F_p
then has no primitive n-th root of unity), used to parse and then fail
in the builder with a message that named neither `--catalog` nor the
spec.  Both now end in `describe` with exit 2, empty stdout and a
message naming the spec.
"""

import pytest

from hopfcross import cli
from hopfcross.catalog import least_root_of_unity, parse_catalog_spec

BAD_SPECS = [
    ("cyclic:0", "cyclic needs n >= 1, got 0"),
    ("dual_cyclic:0", "dual_cyclic needs n >= 1, got 0"),
    ("taft:0:5", "taft needs n >= 1, got 0"),
    ("taft:3:5", "F_5 has no primitive root of unity of order 3 "
                 "(n must divide p - 1 = 4)"),
    ("taft:4:7", "F_7 has no primitive root of unity of order 4 "
                 "(n must divide p - 1 = 6)"),
]


@pytest.mark.parametrize("spec,message", BAD_SPECS)
def test_parser_rejects_specs_the_builder_cannot_build(spec, message):
    with pytest.raises(ValueError) as exc:
        parse_catalog_spec(spec)
    assert str(exc.value) == message


@pytest.mark.parametrize("spec,message", BAD_SPECS)
def test_describe_names_the_option_and_the_spec(spec, message, capsys):
    assert cli.main(["describe", "--catalog", spec]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"error: bad --catalog {spec!r}: {message}\n"


def test_root_of_unity_message_has_no_ordinal_suffix():
    with pytest.raises(ValueError, match="of order 3 ") as exc:
        least_root_of_unity(5, 3)
    assert "-th" not in str(exc.value)


@pytest.mark.parametrize("spec", ["cyclic:1", "dual_cyclic:1", "taft:1:2",
                                  "taft:2:3", "taft:6:7"])
def test_smallest_valid_specs_still_parse(spec, capsys):
    assert str(parse_catalog_spec(spec)) == spec
    assert cli.main(["describe", "--catalog", spec]) == 0
    assert "hopf axioms: pass" in capsys.readouterr().out
