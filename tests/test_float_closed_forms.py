"""The float closed forms (lam, eta, rho, energies, as_floats) are each
computed from integer numerators by one correctly rounded int/int division.
These tests compare them bit for bit with their exact Fraction definitions,
written out below, over a seeded sample that reaches the extremes: nu
denominators up to 10**6, nu just above -1/2, nu = 1e300 and 1e400, and ell
up to 10**6, in all four sectors on both branches.  Errors count as outcomes
too, so the ValueError and OverflowError cases must match as well."""

import math
import random
import struct
from fractions import Fraction as F

import pytest

from dunkl_pauli.algebra import WignerParams
from dunkl_pauli.angular import lambda_radicand, lambda_value
from dunkl_pauli.spectrum import (SECTORS, SectorState, energy_over_omega_c,
                                  energy_sector_form, eta, rho)

BIG = 10 ** 6


def ref_radicand(ell, epsilon, params):
    ell = F(ell)
    if epsilon == 1:
        return 4 * ell * (ell + params.nu1 + params.nu2)
    return 4 * (ell + params.nu1) * (ell + params.nu2)


def ref_lambda(ell, epsilon, branch, params):
    rad = ref_radicand(ell, epsilon, params)
    if rad < 0:
        raise ValueError(f"negative radicand {rad} for ell={ell}")
    return branch * math.sqrt(float(rad)) if rad else 0.0  # +0.0, never -0.0


def ref_eta(eps1, eps2, params):
    return float((1 + eps1 * params.nu1 + eps2 * params.nu2) / 2)


def ref_rho(ell, epsilon, branch, params):
    lam = ref_lambda(ell, epsilon, branch, params)
    d = float(params.nu1 + params.nu2 if epsilon == 1 else params.nu1 - params.nu2)
    return 0.5 * (lam + math.sqrt(d * d + lam * lam))


def ref_energy(state, params):
    return (state.n + 0.5 + ref_rho(state.ell, state.epsilon, state.branch, params)
            - state.m_s * ref_eta(state.eps1, state.eps2, params))


def ref_sector_form(state, params):
    nu1, nu2 = float(params.nu1), float(params.nu2)
    lam = ref_lambda(state.ell, state.epsilon, state.branch, params)
    ms = state.m_s
    common = state.n + (1.0 + lam + nu1 + nu2 + 2.0 * float(state.ell)) / 2.0
    key = (state.eps1, state.eps2)
    if key == (1, 1):
        return common - ms * (1.0 + nu1 + nu2) / 2.0
    if key == (-1, -1):
        return common - ms * (1.0 - nu1 - nu2) / 2.0
    if key == (1, -1):
        return common - ms * (1.0 + nu1 - nu2) / 2.0
    return common - ms * (1.0 + nu2 - nu1) / 2.0


def outcome(fn, *args):
    """The float's 8 bytes (so -0.0, inf and nan count), or the error."""
    try:
        value = fn(*args)
    except (ValueError, OverflowError) as exc:
        return type(exc).__name__, str(exc)
    if isinstance(value, tuple):
        return tuple(struct.pack("<d", v) for v in value)
    return struct.pack("<d", value)


def _nu_pool(rng):
    pool = [F(0), F(2, 5), F(-2, 5), F(2), F(1, 3), F(-1, 3),
            F(-1, 2) + F(1, BIG), F(-1, 2) + F(1, 2 ** 60), F(-499999, BIG),
            F(1e300), F(10) ** 400]
    for _ in range(30):
        den = rng.randint(1, BIG)
        pool.append(F(rng.randint(-((den - 1) // 2), 2 * den), den))
    return pool


def _ells(rng, epsilon):
    top = rng.choice((BIG, 10, 3))
    if epsilon == 1:
        return [F(rng.randint(0, top)), F(rng.choice((0, 1, BIG)))]
    return [F(2 * rng.randint(0, top) + 1, 2), F(2 * rng.choice((0, BIG)) + 1, 2)]


def _sample():
    rng = random.Random(20261018)
    pool = _nu_pool(rng)
    pairs = [(a, b) for a in pool[:11] for b in pool[:11]]
    pairs += [(rng.choice(pool), rng.choice(pool)) for _ in range(60)]
    return rng, [WignerParams(a, b) for a, b in pairs]


def test_float_closed_forms_are_bit_identical_to_their_fraction_definitions():
    rng, sample = _sample()
    seen = {"OverflowError": 0, "ok": 0}
    for params in sample:
        assert outcome(params.as_floats) == outcome(
            lambda: (float(params.nu1), float(params.nu2)))
        for eps1, eps2 in SECTORS:
            epsilon = eps1 * eps2
            assert outcome(eta, eps1, eps2, params) == outcome(ref_eta, eps1, eps2, params)
            for ell in _ells(rng, epsilon):
                assert lambda_radicand(ell, epsilon, params) == ref_radicand(ell, epsilon, params)
                for branch in (1, -1):
                    got = outcome(lambda_value, ell, epsilon, branch, params)
                    assert got == outcome(ref_lambda, ell, epsilon, branch, params)
                    assert outcome(rho, ell, epsilon, branch, params) == outcome(
                        ref_rho, ell, epsilon, branch, params)
                    state = SectorState(eps1, eps2, rng.randint(0, 5), ell,
                                        rng.choice((1, -1)), branch)
                    assert outcome(energy_over_omega_c, state, params) == outcome(
                        ref_energy, state, params)
                    assert outcome(energy_sector_form, state, params) == outcome(
                        ref_sector_form, state, params)
                    seen["ok" if isinstance(got, bytes) else got[0]] += 1
    # the sample reaches both the finite and the overflowing conversions
    assert seen["ok"] > 1000 and seen["OverflowError"] > 100


def test_conversions_that_overflow_still_raise():
    huge = WignerParams(F(10) ** 400, 0)
    for call in (huge.as_floats, lambda: eta(1, 1, huge),
                 lambda: lambda_value(1, 1, 1, huge), lambda: rho(F(1, 2), -1, -1, huge)):
        with pytest.raises(OverflowError, match="too large for a float"):
            call()


def _unchecked(nu1, nu2):
    """WignerParams holding nu <= -1/2, which its constructor refuses."""
    params = WignerParams(0, 0)
    object.__setattr__(params, "nu1", F(nu1))
    object.__setattr__(params, "nu2", F(nu2))
    return params


@pytest.mark.parametrize("ell,epsilon,params,message", [
    (1, 1, _unchecked(F(-9, 4), 0), "negative radicand -5 for ell=1"),
    (F(1, 2), -1, _unchecked(-1, 0), "negative radicand -1 for ell=1/2"),
])
def test_negative_radicand_message(ell, epsilon, params, message):
    for branch in (1, -1):
        with pytest.raises(ValueError) as exc:
            lambda_value(ell, epsilon, branch, params)
        assert str(exc.value) == message
        assert outcome(ref_lambda, ell, epsilon, branch, params) == ("ValueError", message)
