"""`report.certify` is the one place that counts, compares and stops.

Every checker outside `report.py` yields (count, axiom, witness, lhs, rhs)
items and leaves counting and failing to the driver; only the
whole-matrix checks of `isos.py` record their verdicts by hand.
"""

from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "hopfcross"
OWN_LOOPS = {"report.py", "isos.py"}


def test_only_the_driver_counts_and_fails():
    found = [f"{path.name}:{number}: {line.strip()}"
             for path in sorted(SRC.glob("*.py"))
             if path.name not in OWN_LOOPS
             for number, line in enumerate(path.read_text().splitlines(), 1)
             if ".checked +=" in line or ".fail(" in line]
    assert found == []
