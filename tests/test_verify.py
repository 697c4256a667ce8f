import re
from pathlib import Path

from dunkl_pauli import angular, verify
from dunkl_pauli.spectrum import SECTORS, lowest_ells
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


def test_angular_suite_builds_each_basis_and_image_once(monkeypatch):
    # one sector_basis and two apply_G calls per eigenpair case, for both
    # branches and the residual; three apply_G calls per random polynomial
    calls = {"sector_basis": 0, "apply_G": 0}

    def counting(name, fn):
        def counted(*args):
            calls[name] += 1
            return fn(*args)
        return counted

    monkeypatch.setattr(angular, "sector_basis",
                        counting("sector_basis", angular.sector_basis))
    apply_G = counting("apply_G", angular.apply_G)
    monkeypatch.setattr(angular, "apply_G", apply_G)
    monkeypatch.setattr(verify, "apply_G", apply_G)  # verify binds it by name
    n_funcs = 3
    res = verify.run_angular_suite(n_funcs=n_funcs)
    ells = [lowest_ells(e1 * e2, 5) for e1, e2 in SECTORS]
    assert all(ell > 0 for sector_ells in ells for ell in sector_ells)
    cases = len(verify.NU_GRID) * sum(map(len, ells))
    assert (res.passed, res.failed) == (2 * n_funcs + 3 * cases, 0)
    assert calls == {"sector_basis": cases, "apply_G": 3 * n_funcs + 2 * cases}


def test_verify_report_matches_the_pinned_text(verify_run):
    """`verify --skip-oracle` prints the pinned report, timings aside; both
    stdout and the --out file."""
    pinned = PINNED_REPORT.read_text()
    assert _mask_timings(verify_run.out) == pinned
    assert _mask_timings(verify_run.report) == pinned
