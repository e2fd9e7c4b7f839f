"""No module but `report.py` counts checked items or records a violation.

Every certificate, including the inverse and composition checks of
`isos`, yields (count, axiom, witness, lhs, rhs) items to
`report.certify`; no module keeps an exemption.
"""

from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "hopfcross"


def test_only_report_counts_and_fails():
    found = [f"{path.name}:{number}: {line.strip()}"
             for path in sorted(SRC.glob("*.py"))
             if path.name != "report.py"
             for number, line in enumerate(path.read_text().splitlines(), 1)
             if ".checked +=" in line or ".fail(" in line]
    assert found == []
