"""A report keeps the first violation it meets: `fail` after a failure,
and `absorb` of another report, change its count but not its witness."""

from hopfcross.report import CheckReport, Violation


def failed(axiom, checked=1):
    report = CheckReport(checked=checked)
    report.fail(axiom, (0,), 1, 2)
    return report


def test_fail_keeps_the_first_violation():
    report = failed("first")
    report.fail("second", (1,), 3, 4)
    assert not report.passed
    assert report.first() == Violation("first", (0,), 1, 2)


def test_absorb_keeps_the_earliest_violation_of_self():
    report = failed("self", checked=3).absorb(failed("other", checked=4))
    assert (report.passed, report.checked) == (False, 7)
    assert report.first().axiom == "self"


def test_absorb_takes_the_violation_of_other_when_self_passed():
    report = CheckReport(checked=3).absorb(failed("other", checked=4))
    assert (report.passed, report.checked) == (False, 7)
    assert report.first() == Violation("other", (0,), 1, 2)


def test_absorb_of_a_pass_keeps_the_violation_of_self():
    report = failed("self").absorb(CheckReport(checked=5))
    assert (report.passed, report.checked) == (False, 6)
    assert report.first().axiom == "self"


def test_absorb_of_passes_passes():
    report = CheckReport(checked=2).absorb(CheckReport(checked=5))
    assert (report.passed, report.checked, report.first()) == (True, 7, None)
