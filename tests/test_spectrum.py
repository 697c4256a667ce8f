import math
import random
from fractions import Fraction as F

import mpmath
import numpy as np
import pytest
import scipy.special
from hypothesis import given, settings
from hypothesis import strategies as st

from dunkl_pauli import spectrum
from dunkl_pauli.algebra import WignerParams
from dunkl_pauli.angular import lambda_value
from dunkl_pauli.spectrum import (OscillatorScale, SectorState, energy,
                                  energy_over_omega_c, energy_sector_form,
                                  eta, hyp1f1, radial_norm_constant,
                                  radial_wavefunction,
                                  radical_identity_check, rho)

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


# ---------------------------------------------------------------- wavefunction

def test_wavefunction_at_origin():
    # the ell = 0 mode with nu1 + nu2 >= 0 has Frobenius power exactly 0, so
    # its radial factor at r = 0 is 1: r^0 = 1 and M(-n, b, 0) = 1
    for nu in ((0, 0), (F(1, 10), F(1, 5)), (F(3, 10), 0), (F(7, 5), F(21, 50)),
               (F(11, 10), F(4, 25))):
        params = WignerParams(*nu)
        for eps in (1, -1):
            for n in range(3):
                state = SectorState(eps, eps, n, 0, 1)
                assert radial_wavefunction(state, params, 0.0) == 1.0, state


def test_wavefunction_decays():
    state = SectorState(1, 1, 1, 1, 1)
    assert abs(radial_wavefunction(state, NU44, 12.0)) < 1e-12
    with pytest.raises(ValueError):
        radial_wavefunction(state, NU44, -0.5)


def test_wavefunction_node_count():
    # n = 1 state has exactly one radial node in (0, inf)
    state = SectorState(1, -1, 1, F(1, 2), -1)
    grid = np.linspace(1e-3, 10.0, 4000)
    vals = [radial_wavefunction(state, NU4m4, r) for r in grid]
    signs = np.sign(vals)
    flips = int(np.sum(signs[1:] * signs[:-1] < 0))
    assert flips == 1


@pytest.mark.parametrize("eps1,eps2,ell,n,m_s,params", [
    (1, 1, F(1), 0, 1, NU44),
    (1, 1, F(2), 2, -1, NU0),
    (-1, -1, F(1), 1, 1, NU44),
    (1, -1, F(1, 2), 1, -1, NU4m4),
    (-1, 1, F(3, 2), 2, 1, WignerParams(F(-2, 5), F(2, 5))),
    # ell = 0 with nu1 + nu2 < 0: the Frobenius power kappa - (nu1 + nu2) is
    # not 2 ell here
    *[(eps, eps, F(0), n, m_s, WignerParams(F(-2, 5), F(-1, 5)))
      for eps in (1, -1) for n, m_s in ((0, 1), (1, -1), (2, 1))],
])
def test_wavefunction_solves_radial_ode(eps1, eps2, ell, n, m_s, params):
    # residual of the sector radial equation via high-order finite differences
    state = SectorState(eps1, eps2, n, ell, m_s)
    nu1, nu2 = params.as_floats()
    lam = lambda_value(state.ell, state.epsilon, state.branch, params)
    centrifugal = lam * lam - (4 * nu1 * nu2 if state.epsilon == -1 else 0.0)
    e_over_w = energy_over_omega_c(state, params)
    zeeman = m_s * (1 + nu1 * eps1 + nu2 * eps2)  # in units m = omega_c = 1

    def f(r):
        return radial_wavefunction(state, params, r)

    h = 1e-3
    worst = 0.0
    for r in np.linspace(0.1, 5.0, 60):
        stencil = [f(r + k * h) for k in (-2, -1, 0, 1, 2)]
        d1 = (stencil[0] - 8 * stencil[1] + 8 * stencil[3] - stencil[4]) / (12 * h)
        d2 = (-stencil[0] + 16 * stencil[1] - 30 * stencil[2]
              + 16 * stencil[3] - stencil[4]) / (12 * h * h)
        terms = [d2,
                 (1 + 2 * nu1 + 2 * nu2) / r * d1,
                 -0.25 * r * r * stencil[2],
                 -centrifugal / (r * r) * stencil[2],
                 -lam * stencil[2],
                 zeeman * stencil[2],
                 2 * e_over_w * stencil[2]]
        residual = abs(sum(terms))
        scale_ref = max(abs(t) for t in terms)
        if scale_ref > 1e-12:
            worst = max(worst, residual / scale_ref)
    assert worst <= 1e-6


def test_normalization_quadrature():
    # after scaling, the norm integral against r^(1+2nu1+2nu2) dr is 1,
    # checked by quadrature independently of the closed-form norm
    from scipy.integrate import quad
    cases = [((1, 1), F(1), NU44),
             ((1, 1), F(0), WignerParams(F(-2, 5), F(-1, 5))),
             ((1, -1), F(1, 2), NU4m4),
             ((-1, 1), F(3, 2), WignerParams(F(-2, 5), F(1, 5)))]
    for (eps1, eps2), ell, params in cases:
        weight = 1 + 2 * float(params.nu1 + params.nu2)
        for n in range(4):
            state = SectorState(eps1, eps2, n, ell, 1)
            c = radial_norm_constant(state, params)

            def integrand(r):
                v = c * radial_wavefunction(state, params, r)
                return v * v * r ** weight

            total, _ = quad(integrand, 0, 25, limit=300)
            assert total == pytest.approx(1.0, rel=1e-9), state


def test_wavefunction_terminates_when_computed_a_is_an_ulp_off():
    # the energy's hypergeometric a, computed in floats, is -2.2e-16 here
    # instead of -n = 0; the radial factor takes -n from the state, so it is
    # the n = 0 polynomial times the Gaussian
    state = SectorState(-1, 1, 0, F(1, 2), -1)
    params = WignerParams(F(-2, 5), F(-1, 5))
    radii = (1.0, 5.0, 10.0, 20.0, 40.0)
    vals = [radial_wavefunction(state, params, r) for r in radii]
    assert all(math.isfinite(v) and v > 0 for v in vals)
    assert vals[1:] == sorted(vals[1:], reverse=True)
    for r, v in zip(radii, vals):  # n = 0: exp(-r^2/4) r^(2 ell), ell = 1/2
        assert v == pytest.approx(math.exp(-0.25 * r * r) * r, rel=1e-13)
    c = radial_norm_constant(state, params)
    assert math.isfinite(c) and c > 0


def test_radial_parameters_are_the_rounded_exact_values():
    # p = K - (nu1 + nu2) and b = 1 + K with K = |2 ell + nu1 + nu2|, each the
    # correctly rounded double of its rational value
    rng = random.Random(14)
    nus = [(F(2, 5), F(-2, 5)), (F(-2, 5), F(2, 5)), (F(-2, 5), F(-1, 5)),
           (F(-1, 2) + F(1, 10**9), F(-1, 2) + F(1, 10**12))]
    for den in (7, 100, 10**6 + 3, 2**61 - 1):
        nus += [(F(rng.randrange(-den // 2 + 1, 3 * den), den),
                 F(rng.randrange(-den // 2 + 1, 3 * den), den)) for _ in range(6)]
    for nu in nus:
        params = WignerParams(*nu)
        for eps1, eps2 in SECTORS:
            first = F(0) if eps1 == eps2 else F(1, 2)
            ells = [first, first + 1, first + 2, first + rng.randrange(10**6)]
            for ell in ells:
                n = rng.randrange(4)
                state = SectorState(eps1, eps2, n, ell, 1)
                k = abs(2 * ell + params.nu1 + params.nu2)
                p, b = k - params.nu1 - params.nu2, 1 + k
                assert spectrum._radial_parameters(state, params) == (float(p), float(b)), \
                    (state, nu)
                if ell < 100:  # r^p overflows a float at r = 2 far beyond
                    assert radial_wavefunction(state, params, 2.0) == (
                        math.exp(-1.0) * 2.0 ** float(p) * hyp1f1(-n, float(b), 2.0))


def test_radial_factor_rejects_a_broken_radical_identity(monkeypatch):
    # D^2 + lam^2 = (2 ell + nu1 + nu2)^2 is checked exactly; a radicand one
    # unit off breaks it
    exact = spectrum.lambda_radicand
    monkeypatch.setattr(spectrum, "lambda_radicand",
                        lambda ell, eps, params: exact(ell, eps, params) + 1)
    with pytest.raises(ArithmeticError):
        radial_wavefunction(SectorState(1, 1, 1, 1, 1), NU44, 1.0)
    with pytest.raises(ArithmeticError):
        radial_norm_constant(SectorState(1, 1, 1, 1, 1), NU44)


def test_radial_values_near_kappa_rounding_match_mpmath():
    # at nu = (+-2/5, -+2/5), odd sectors, ell = 3/2, the float
    # sqrt(D^2 + lam^2) rounds 1 ulp away from K = 3; with the exact p = 3
    # and b = 4 every value is within 3 ulps of a 60-digit reference (the
    # slack is for libm exp and pow)
    with mpmath.workdps(60):
        for nu in ((F(2, 5), F(-2, 5)), (F(-2, 5), F(2, 5))):
            params = WignerParams(*nu)
            for eps1, eps2 in ((1, -1), (-1, 1)):
                for n in range(3):
                    state = SectorState(eps1, eps2, n, F(3, 2), 1)
                    for r in (0.3, 1.0, 2.5, 7.0):
                        x = mpmath.mpf(r)
                        want = (mpmath.exp(-x * x / 4) * x**3
                                * mpmath.hyp1f1(-n, 4, x * x / 2))
                        got = radial_wavefunction(state, params, r)
                        ulps = abs(mpmath.mpf(got) - want) / math.ulp(float(want))
                        assert ulps <= 3, (state, nu, r, float(ulps))
