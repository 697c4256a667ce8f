import re
from pathlib import Path

from dunkl_pauli import verify
from dunkl_pauli.verify import SuiteResult

PINNED_REPORT = Path(__file__).parent / "data" / "verify_report.txt"


def _mask_timings(text):
    return re.sub(r"\(\d+\.\d s\)", "(x.x s)", text)


def test_passing_check_never_describes_itself():
    res = SuiteResult("probe")

    def describe():
        raise AssertionError("describe() called for a passing check")

    for _ in range(3):
        res.check(True, describe)
    assert (res.passed, res.failed, res.counterexamples) == (3, 0, [])


def test_failing_check_records_what_describe_returns_up_to_20():
    res = SuiteResult("probe")
    for k in range(25):
        res.check(False, lambda: f"failure {k}: {'x' * k}")
    assert res.failed == 25 and not res.ok
    assert res.counterexamples == [f"failure {k}: {'x' * k}" for k in range(20)]


def test_a_failing_suite_check_reports_its_description(monkeypatch):
    monkeypatch.setattr(verify, "eta", lambda eps1, eps2, params: 0.0)
    res = verify.run_spectrum_suite()
    assert res.failed == 500
    assert len(res.counterexamples) == 20
    assert res.counterexamples[0] == "Zeeman split != 2*eta at ell=1, sector=(1,1)"


def test_verify_report_matches_the_pinned_text(verify_run):
    """`verify --skip-oracle` prints the pinned report, timings aside; both
    stdout and the --out file."""
    pinned = PINNED_REPORT.read_text()
    assert _mask_timings(verify_run.out) == pinned
    assert _mask_timings(verify_run.report) == pinned
