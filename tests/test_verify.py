import math
import re
from dataclasses import replace
from fractions import Fraction as F
from pathlib import Path

from dunkl_pauli import angular, verify
from dunkl_pauli.algebra import WignerParams
from dunkl_pauli.angular import TrigPoly
from dunkl_pauli.spectrum import lowest_ells
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
    # one sector_basis and two apply_G calls per (nu, parity, ell) case, for
    # both branches and the residual, checked for each sector of the parity;
    # three apply_G calls per random polynomial.  The spectrum suite computes
    # each case's exact radical identity once as well
    calls = {"sector_basis": 0, "apply_G": 0, "radical_identity_check": 0}

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
    monkeypatch.setattr(verify, "radical_identity_check", counting(
        "radical_identity_check", verify.radical_identity_check))
    n_funcs = 3
    res = verify.run_angular_suite(n_funcs=n_funcs)
    ells = [lowest_ells(epsilon, 5) for epsilon in (1, -1)]
    assert all(ell > 0 for parity_ells in ells for ell in parity_ells)
    cases = len(verify.NU_GRID) * sum(map(len, ells))
    assert cases == 250
    assert (res.passed, res.failed) == (2 * n_funcs + 6 * cases, 0)
    assert verify.run_spectrum_suite().ok
    assert calls == {"sector_basis": cases, "apply_G": 3 * n_funcs + 2 * cases,
                     "radical_identity_check": cases}


def test_the_residual_bound_fails_a_perturbed_weight(monkeypatch):
    # w2 off by 1e-9 relative in both branches, so they stay conjugate: only
    # that build's residual checks fail, one per sector of the even parity,
    # and each names its sector
    exact = verify.angular_eigenpairs
    params = WignerParams(F(1, 5), F(-2, 5))
    case = (F(3), 1, params)
    builds = []

    def perturbed(ell, epsilon, params):
        pairs = exact(ell, epsilon, params)
        if (ell, epsilon, params) != case:
            return pairs
        builds.append(case)
        return tuple(replace(p, weights=(p.weights[0], p.weights[1] * (1 + 1e-9)))
                     for p in pairs)

    monkeypatch.setattr(verify, "angular_eigenpairs", perturbed)
    res = verify.run_angular_suite(n_funcs=0)
    assert len(builds) == 1
    assert (res.passed, res.failed) == (1498, 2)
    lam = exact(*case)[0].lam
    for sector, message in zip(("(1,1)", "(-1,-1)"), res.counterexamples):
        head = (f"G Theta != -i lam Theta at ell=3, sector={sector}, "
                f"nu={params}: resid ")
        assert message.startswith(head)
        assert float(message[len(head):]) > 1e-11 * abs(lam)


def test_the_residual_bound_covers_the_exact_residual_at_sampled_angles():
    # on each of the suite's 250 builds the all-theta bound is at least
    # |G Theta + i lam Theta| of the float eigenpair, built exactly from
    # apply_G and evaluated exactly at the (cos, sin) doubles of the 36
    # angles the suite once sampled.  The float residual there can exceed
    # the bound by its own rounding (about 1e-17; the bound is 0 where the
    # float eigenpair is exact), so it is not the reference.
    angles = [tuple(map(F, (math.cos(t), math.sin(t))))
              for t in (0.1 + 0.17 * k for k in range(36))]
    cases = 0
    for nu in verify.NU_GRID:
        params = WignerParams(*nu)
        for epsilon in (1, -1):
            for ell in lowest_ells(epsilon, 5):
                pair = verify.angular_eigenpairs(ell, epsilon, params)[0]
                lam, bound = F(pair.lam), verify._residual_bound(pair)
                re, im = TrigPoly(), TrigPoly()
                for w, f in zip(pair.weights, pair.basis):
                    g, r, i = angular.apply_G(f, params), F(w.real), F(w.imag)
                    re, im = re + g * r - f * (lam * i), im + g * i + f * (lam * r)
                for c, s in angles:
                    x, y = (p.even.evaluate(c) + s * p.odd.evaluate(c) for p in (re, im))
                    assert x * x + y * y <= bound * bound, (ell, epsilon, params)
                cases += 1
    assert cases == 250


def test_verify_report_matches_the_pinned_text(verify_run):
    """`verify --skip-oracle` prints the pinned report, timings aside; both
    stdout and the --out file."""
    pinned = PINNED_REPORT.read_text()
    assert _mask_timings(verify_run.out) == pinned
    assert _mask_timings(verify_run.report) == pinned
