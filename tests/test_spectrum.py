from fractions import Fraction as F

import mpmath
import pytest
import scipy.special
from hypothesis import given, settings
from hypothesis import strategies as st

from dunkl_pauli.algebra import WignerParams
from dunkl_pauli.spectrum import (OscillatorScale, SectorState, energy,
                                  energy_over_omega_c, energy_sector_form,
                                  eta, hyp1f1, radical_identity_check, rho)

NU0 = WignerParams(0, 0)
NU44 = WignerParams(F(2, 5), F(2, 5))
NU4m4 = WignerParams(F(2, 5), F(-2, 5))
SECTORS = ((1, 1), (-1, -1), (1, -1), (-1, 1))

NU_GRID = [WignerParams(F(a, 5), F(b, 5))
           for a in (-2, -1, 0, 1, 2) for b in (-2, -1, 0, 1, 2)]


def sector_ells(epsilon, top):
    if epsilon == 1:
        return [F(k) for k in range(1, top + 1)]
    return [F(2 * k + 1, 2) for k in range(top)]


# ---------------------------------------------------------------- rho / eta

def test_rho_examples():
    assert rho(1, 1, 1, NU0) == 2.0
    assert rho(1, 1, 1, NU44) == pytest.approx(2.7416407864998735, rel=1e-15)
    # lam = 2 sqrt(0.09) = 0.6, sqrt(0.64 + 0.36) = 1, rho = 0.8
    assert rho(F(1, 2), -1, 1, NU4m4) == pytest.approx(0.8, rel=1e-14)


def test_eta_four_cases():
    assert eta(1, 1, NU44) == pytest.approx(0.9)
    assert eta(-1, -1, NU0) == 0.5
    assert eta(1, -1, NU4m4) == pytest.approx(0.9)
    assert eta(-1, 1, NU4m4) == pytest.approx(0.1)
    for s1, s2 in SECTORS:
        assert eta(s1, s2, NU0) == 0.5


def test_eta_validation():
    with pytest.raises(ValueError):
        eta(0, 1, NU0)


# ---------------------------------------------------------------- energies

def test_energy_examples():
    st1 = SectorState(1, 1, 0, 1, 1)
    assert energy_over_omega_c(st1, NU0) == 2.0
    assert energy_over_omega_c(st1, NU44) == pytest.approx(2.3416407864998736,
                                                           rel=1e-15)
    st2 = SectorState(-1, 1, 1, F(1, 2), -1)
    assert energy_over_omega_c(st2, NU0) == pytest.approx(3.0, rel=1e-15)


def test_energy_physical_units():
    scale = OscillatorScale(omega_c=2.5)
    st1 = SectorState(1, 1, 0, 1, 1)
    assert energy(st1, scale, NU0) == pytest.approx(5.0)


def test_sector_state_validation():
    with pytest.raises(ValueError):
        SectorState(1, 1, 0, F(1, 2), 1)  # half-odd ell in even sector
    with pytest.raises(ValueError):
        SectorState(1, -1, 0, 1, 1)  # integer ell in odd sector
    with pytest.raises(ValueError):
        SectorState(1, 1, -1, 1, 1)
    with pytest.raises(ValueError):
        SectorState(1, 1, 0, 1, 0)
    with pytest.raises(ValueError):
        OscillatorScale(omega_c=-1.0)


@pytest.mark.parametrize("labels, name", [
    ((True, 1, 1, 1, 1), "eps1"), ((1, True, 1, 1, 1), "eps2"),
    ((1, 1, True, 1, 1), "n"), ((1, 1, False, 1, 1), "n"),
    ((1, 1, 0, 1, True), "m_s"), ((1, 1, 0, 1, 1, True), "branch"),
    ((True, 1, True, 1, True, True), "eps1"),
])
def test_a_bool_label_is_refused_by_name(labels, name):
    # True == 1 and False == 0 pass every range check: the state
    # (True, 1, True, 1, True, True) used to have energy 3.0
    with pytest.raises(ValueError, match=f"^{name} must be an integer, not a bool$"):
        SectorState(*labels)


def test_sector_forms_match_compact_form():
    for params in NU_GRID:
        for eps1, eps2 in SECTORS:
            for ell in sector_ells(eps1 * eps2, 5):
                for n in range(4):
                    for m_s in (1, -1):
                        for branch in (1, -1):
                            state = SectorState(eps1, eps2, n, ell, m_s, branch)
                            compact = energy_over_omega_c(state, params)
                            literal = energy_sector_form(state, params)
                            assert literal == pytest.approx(compact, rel=1e-12)


def test_undeformed_reduction_and_ladder_spacing():
    # nu = 0: E/w = n + 1/2 + 2 ell - m_s/2, so spacing in n is exactly 1
    for ell in (1, 2, 3):
        for m_s in (1, -1):
            levels = [energy_over_omega_c(SectorState(1, 1, n, ell, m_s), NU0)
                      for n in range(4)]
            assert levels[0] == pytest.approx(0.5 + 2 * ell - 0.5 * m_s)
            for a, b in zip(levels, levels[1:]):
                assert b - a == pytest.approx(1.0, rel=1e-14)


def test_zeeman_split_is_two_eta():
    for params in (NU44, NU4m4):
        for eps1, eps2 in SECTORS:
            ell = F(1) if eps1 * eps2 == 1 else F(1, 2)
            e_dn = energy_over_omega_c(SectorState(eps1, eps2, 2, ell, -1), params)
            e_up = energy_over_omega_c(SectorState(eps1, eps2, 2, ell, 1), params)
            assert e_dn - e_up == pytest.approx(2 * eta(eps1, eps2, params),
                                                rel=1e-13)


def test_radical_identity_examples():
    # both sides D^2 + lam^2 and (2 ell + nu1 + nu2)^2, exact
    assert radical_identity_check(1, 1, NU44) == (F(196, 25), F(196, 25))
    assert radical_identity_check(F(1, 2), -1, NU4m4) == (1, 1)
    assert radical_identity_check(2, 1, NU0) == (16, 16)


def test_radical_identity_on_grid():
    for params in NU_GRID:
        for epsilon, ells in ((1, sector_ells(1, 5)), (-1, sector_ells(-1, 5))):
            for ell in ells:
                lhs, rhs = radical_identity_check(ell, epsilon, params)
                assert type(lhs) is type(rhs) is F and lhs == rhs


# ---------------------------------------------------------------- hyp1f1

def brute_force_series(a, b, x, n_terms):
    acc, term = F(1), F(1)
    for k in range(n_terms):
        term = term * (a + k) * x / ((b + k) * (k + 1))
        acc += term
    return acc


def test_hyp1f1_at_zero():
    for n in range(5):
        assert hyp1f1(-float(n), 1.9, 0.0) == 1.0


def test_hyp1f1_one_term():
    assert hyp1f1(-1.0, 3.0, 2.0) == pytest.approx(1 - 2 / 3, rel=1e-15)


def test_hyp1f1_terminating_example():
    # brute-force exact series: 1 - 3/2 + (1/3)(9/8) = -1/8
    exact = brute_force_series(F(-2), F(2), F(3, 2), 2)
    assert exact == F(-1, 8)
    assert hyp1f1(-2.0, 2.0, 1.5) == pytest.approx(float(exact), rel=1e-15)


def test_hyp1f1_terminating_is_polynomial():
    # all terms past k = n vanish identically in the exact series
    a, b, x = F(-3), F(5, 2), F(7, 3)
    assert brute_force_series(a, b, x, 3) == brute_force_series(a, b, x, 12)
    assert hyp1f1(-3.0, 2.5, 7 / 3) == pytest.approx(
        float(brute_force_series(a, b, x, 3)), rel=1e-14)


@given(st.integers(0, 12), st.floats(0.6, 8.0), st.floats(-6.0, 6.0))
@settings(max_examples=60)
def test_hyp1f1_matches_scipy(n, b, x):
    ours = hyp1f1(-float(n), b, x)
    ref = scipy.special.hyp1f1(-n, b, x)
    if ref != ref:  # scipy 1.17 gives NaN at some points, e.g. (-3, 5.6985, -6)
        ref = float(mpmath.hyp1f1(-n, b, x))
    assert ours == pytest.approx(ref, rel=1e-10, abs=1e-12)


def test_hyp1f1_matches_mpmath_where_it_oscillates():
    # M(-n, b, x) has its n zeros in 0 < x < 4n + 2b, where the power series
    # cancels (n = 40, b = 1.5, x = 60: 8.2e12 for -1.18e11).  On this fixed
    # grid the recurrence stays within 1e-11 of the 50-digit value, relative
    # to that value, even at the grid points closest to a zero.
    with mpmath.workdps(50):
        for b in (1.15, 1.5, 3.7):
            for n in range(61):
                for i in range(41):
                    x = (4 * n + 2 * b) * i / 40
                    ref = mpmath.hyp1f1(-n, b, x)
                    err = abs(mpmath.mpf(hyp1f1(-float(n), b, x)) - ref)
                    assert err <= 1e-11 * abs(ref), (n, b, x)


def test_hyp1f1_rejects_non_terminating_parameters():
    # only M(-n, b, x) with b > 0 is defined: a non-integer or positive a, or
    # b <= 0, raises
    for a, b in ((0.5, 1.5), (-2.5, 1.5), (1.0, 2.0), (3.0, 0.5),
                 (-2.0, 0.0), (-1.0, -2.0), (-2.0, -0.5)):
        with pytest.raises(ValueError):
            hyp1f1(a, b, 1.0)
