import math
import re
from dataclasses import fields
from fractions import Fraction as F

import pytest
import scipy.special
from hypothesis import given, settings
from hypothesis import strategies as st

from dunkl_pauli import angular
from dunkl_pauli.algebra import WignerParams, X1, X2, angular_momentum_action
from dunkl_pauli.angular import (Poly1, TrigPoly, angular_eigenpair,
                                 angular_eigenpairs, apply_B, apply_G, jacobi,
                                 lambda_radicand, lambda_value,
                                 restrict_to_circle, sector_basis)
from dunkl_pauli.spectrum import SECTORS, lowest_ells
from test_radial_oracle import WIDE_NUS

NU0 = WignerParams(0, 0)
NU44 = WignerParams(F(2, 5), F(2, 5))

coeffs = st.fractions(min_value=-10, max_value=10, max_denominator=30)
nus = st.fractions(min_value=F(-49, 100), max_value=2, max_denominator=100)
params_st = st.builds(WignerParams, nus, nus)
trig_polys = st.builds(
    TrigPoly,
    st.lists(coeffs, max_size=11).map(Poly1),
    st.lists(coeffs, max_size=10).map(Poly1))


# ---------------------------------------------------------------- Poly1

def test_poly1_basics():
    p = Poly1([1, 0, -2])
    assert p.degree() == 2
    assert p.evaluate(F(1, 2)) == F(1, 2)
    assert (p * p).evaluate(3) == p.evaluate(3) ** 2
    assert Poly1([0, 0]).is_zero() and Poly1().degree() == -1


def test_poly1_odd_shift_and_div():
    p = Poly1([5, 3, 0, 7])  # 5 + 3c + 7c^3
    assert p.odd_shift() == Poly1([3, 0, 7])
    assert Poly1([0, 1, 2]).div_c() == Poly1([1, 2])
    with pytest.raises(ArithmeticError):
        Poly1([1, 1]).div_c()


def test_poly1_compose_neg():
    p = Poly1([1, 2, 3, 4])
    assert p.compose_neg() == Poly1([1, -2, 3, -4])
    assert p.compose_neg().compose_neg() == p


# Poly1 against a plain {exponent: Fraction} reference, one operation at a
# time, with the canonical form checked on every result

coeff_lists = st.lists(coeffs, max_size=9)
wide_coeffs = st.fractions(min_value=-10**6, max_value=10**6, max_denominator=10**9)


def ref_of(values) -> dict:
    return {k: F(c) for k, c in enumerate(values) if c}


def checked(p: Poly1) -> dict:
    """p's coefficients as a reference dict, after asserting the canonical
    form: positive denominator coprime to the integer numerators, no
    trailing zero, denominator 1 for the zero polynomial."""
    nums, den = p._n, p._d
    assert type(den) is int and den > 0
    assert all(type(n) is int for n in nums)
    assert not nums or nums[-1] != 0
    assert math.gcd(den, *nums) == 1
    assert nums or den == 1
    assert all(type(c) is F for c in p.coeffs)
    return {k: c for k, c in enumerate(p.coeffs) if c}


def ref_add(a: dict, b: dict, sign=1) -> dict:
    out = dict(a)
    for k, c in b.items():
        out[k] = out.get(k, F(0)) + sign * c
    return {k: c for k, c in out.items() if c}


def ref_mul(a: dict, b: dict) -> dict:
    out = {}
    for i, x in a.items():
        for j, y in b.items():
            out[i + j] = out.get(i + j, F(0)) + x * y
    return {k: c for k, c in out.items() if c}


@given(coeff_lists, coeff_lists, coeffs)
def test_poly1_arithmetic_matches_reference(a, b, alpha):
    p, q, ra, rb = Poly1(a), Poly1(b), ref_of(a), ref_of(b)
    assert checked(p) == ra
    assert checked(p + q) == ref_add(ra, rb)
    assert checked(p - q) == ref_add(ra, rb, -1)
    assert checked(-p) == {k: -c for k, c in ra.items()}
    assert checked(p * q) == ref_mul(ra, rb)
    assert checked(alpha * p) == checked(p * alpha) == {
        k: alpha * c for k, c in ra.items() if alpha * c}
    assert checked(p * 3) == {k: 3 * c for k, c in ra.items()}
    assert checked(p + alpha) == ref_add(ra, {0: alpha} if alpha else {})
    assert checked(alpha - p) == ref_add({0: alpha} if alpha else {}, ra, -1)
    if alpha:
        assert checked(p / alpha) == {k: c / alpha for k, c in ra.items()}
    assert checked(p / -7) == {k: c / -7 for k, c in ra.items()}
    assert (p == q) == (ra == rb)
    assert p == Poly1(p.coeffs) and hash(p) == hash(Poly1(p.coeffs))


@given(coeff_lists, st.integers(0, 4))
def test_poly1_structural_operations_match_reference(a, k):
    p, ra = Poly1(a), ref_of(a)
    assert checked(p.derivative()) == {e - 1: e * c for e, c in ra.items() if e}
    assert checked(p.compose_neg()) == {e: (-c if e % 2 else c) for e, c in ra.items()}
    assert checked(p.odd_shift()) == {e - 1: c for e, c in ra.items() if e % 2}
    assert checked(p.shift_up(k)) == {e + k: c for e, c in ra.items()}
    if 0 in ra:
        with pytest.raises(ArithmeticError):
            p.div_c()
    else:
        assert checked(p.div_c()) == {e - 1: c for e, c in ra.items()}
    assert p.degree() == max(ra, default=-1)
    assert all(p[e] == ra.get(e, 0) and type(p[e]) is F for e in range(-1, len(a) + 2))


@given(coeff_lists, coeffs)
def test_poly1_exact_evaluation_matches_reference(a, v):
    p = Poly1(a)
    want = sum((c * v ** e for e, c in ref_of(a).items()), F(0))
    assert p.evaluate(v) == want and type(p.evaluate(v)) is F
    assert p.evaluate(int(v)) == sum((c * int(v) ** e for e, c in ref_of(a).items()), F(0))


@given(st.lists(wide_coeffs, max_size=12), st.lists(coeffs, max_size=4),
       st.floats(-3, 3, allow_nan=False))
def test_poly1_float_evaluation_bit_identical_to_fraction_horner(a, b, t):
    for p in (Poly1(a), Poly1(a) * Poly1(b), Poly1(a).derivative()):
        want = 0.0
        for c in reversed(p.coeffs):
            want = want * t + c  # float + Fraction rounds float(c) first
        got = p.evaluate(t)
        assert type(got) is float
        assert got == want or (math.isnan(got) and math.isnan(want))
        assert p.evaluate(t) == got  # again, from the cached coefficients


# ---------------------------------------------------------------- TrigPoly

def test_trig_poly_reflections():
    f = TrigPoly(Poly1([1, 2]), Poly1([3, 4]))
    r12 = f.reflect12()
    assert r12.even == Poly1([1, -2]) and r12.odd == Poly1([-3, 4])


@given(trig_polys, trig_polys)
@settings(max_examples=40)
def test_trig_poly_product_evaluates_pointwise(f, g):
    prod = f * g
    for theta in (0.3, 1.1, 2.5):
        assert prod.evaluate(theta) == pytest.approx(
            f.evaluate(theta) * g.evaluate(theta), rel=1e-9, abs=1e-9)


def test_trig_poly_derivative_matches_finite_difference():
    f = TrigPoly(Poly1([1, 0, -2]), Poly1([0, 3]))
    d = f.derivative()
    h = 1e-6
    for theta in (0.2, 0.9, 2.2):
        fd = (f.evaluate(theta + h) - f.evaluate(theta - h)) / (2 * h)
        assert d.evaluate(theta) == pytest.approx(fd, rel=1e-8, abs=1e-8)


# ---------------------------------------------------------------- jacobi

def test_jacobi_base_cases():
    assert jacobi(0, F(3, 2), F(-1, 4), F(7)) == 1
    alpha, beta, x = F(1, 3), F(1, 5), F(-2, 7)
    assert jacobi(1, alpha, beta, x) == (alpha + 1) + (alpha + beta + 2) * (x - 1) / 2


def test_jacobi_legendre_value():
    # independent oracle: Legendre P2(x) = (3x^2 - 1)/2 at x = 1/2
    x = F(1, 2)
    assert jacobi(2, F(0), F(0), x) == (3 * x ** 2 - 1) / 2 == F(-1, 8)


def test_jacobi_matches_scipy_on_floats():
    for n in range(8):
        for x in (-0.9, -0.3, 0.2, 0.8):
            ours = jacobi(n, 0.3, -0.2, x)
            ref = scipy.special.eval_jacobi(n, 0.3, -0.2, x)
            assert ours == pytest.approx(ref, rel=1e-12)


def test_jacobi_parameter_validation():
    with pytest.raises(ValueError):
        jacobi(-1, 0.0, 0.0, 0.5)
    with pytest.raises(ValueError):
        jacobi(2, -1.0, 0.0, 0.5)
    with pytest.raises(ValueError):
        jacobi(2, 0.0, -1.5, 0.5)


def test_jacobi_accepts_poly_argument():
    arg = Poly1([1, 0, -2])
    p = jacobi(3, F(1, 2), F(1, 2), arg)
    assert p.evaluate(F(1, 3)) == jacobi(3, F(1, 2), F(1, 2), arg.evaluate(F(1, 3)))


# ---------------------------------------------------------------- operators

def test_apply_G_annihilates_constants():
    assert apply_G(TrigPoly.one(), NU44).is_zero()


def test_apply_G_plain_derivative_at_nu_zero():
    # d/dtheta (sin cos) = cos 2 theta = 2c^2 - 1
    sc = TrigPoly.sin() * TrigPoly.cos()
    assert apply_G(sc, NU0) == TrigPoly(Poly1([-1, 0, 2]), Poly1())


def test_apply_G_on_cos_regression():
    # hand check: d(cos)/dtheta = -s and tan(1-R1)cos = 2s, so
    # G(cos) = -(1 + 2 nu1) sin; pinned against the G definition
    out = apply_G(TrigPoly.cos(), NU44)
    assert out == TrigPoly(Poly1(), Poly1([-(1 + 2 * F(2, 5))]))


def test_apply_G_on_sin():
    out = apply_G(TrigPoly.sin(), WignerParams(F(1, 5), F(2, 5)))
    assert out == TrigPoly(Poly1([0, 1 + 2 * F(2, 5)]), Poly1())


def test_apply_B_examples():
    assert apply_B(TrigPoly.one(), NU44).is_zero()
    assert apply_B(TrigPoly.sin(), NU0) == TrigPoly(Poly1(), Poly1([F(1, 2)]))


@given(trig_polys, params_st)
@settings(max_examples=60)
def test_operator_identity_exact(f, params):
    # G^2 f + 2 B f + 2 nu1 nu2 (f - R1R2 f) = 0 with zero residual
    lhs = (apply_G(apply_G(f, params), params) + 2 * apply_B(f, params)
           + 2 * params.nu1 * params.nu2 * (f - f.reflect12()))
    assert lhs.is_zero()


@given(trig_polys, params_st)
@settings(max_examples=60)
def test_G_commutes_with_parity(f, params):
    assert apply_G(f.reflect12(), params) == apply_G(f, params).reflect12()


def test_cartesian_polar_angular_momentum_agree():
    p = X1 * X1 * X2 + 3 * (X2 * X2 * X2) + X1
    for params in (NU0, WignerParams(F(2, 5), F(-1, 5))):
        lhs = restrict_to_circle(angular_momentum_action(p, params))
        rhs = apply_G(restrict_to_circle(p), params)
        assert lhs == rhs


# ---------------------------------------------------------------- eigenpairs

def test_lambda_value_examples():
    assert lambda_value(2, 1, 1, NU0) == 4.0
    got = lambda_value(F(3, 2), -1, -1, WignerParams(F(2, 5), F(-2, 5)))
    assert got == pytest.approx(-2.891366458960192, rel=1e-15)
    assert lambda_value(1, 1, 1, NU44) == pytest.approx(2 * math.sqrt(1.8), rel=1e-15)


def test_lambda_value_validation():
    with pytest.raises(ValueError):
        lambda_value(F(1, 2), 1, 1, NU0)  # half-odd ell in even sector
    with pytest.raises(ValueError):
        lambda_value(1, -1, 1, NU0)  # integer ell in odd sector
    with pytest.raises(ValueError):
        lambda_value(1, 1, 0, NU0)  # bad branch


def test_eigenpair_undeformed_even_sector():
    pair = angular_eigenpair(1, 1, 1, NU0)
    assert pair.lam == 2.0
    assert pair.epsilon == 1


def test_eigenpair_undeformed_odd_sector():
    pair = angular_eigenpair(F(1, 2), -1, 1, NU0)
    assert pair.lam == 1.0


def test_eigenpair_deformed_lambda_and_grid_residual():
    pair = angular_eigenpair(1, 1, 1, NU44)
    assert pair.lam == pytest.approx(2.6832815729997477, rel=1e-15)
    g_basis = [apply_G(f, NU44) for f in pair.basis]
    for k in range(25):
        theta = 0.1 + 0.25 * k
        lhs = sum(w * g.evaluate(theta) for w, g in zip(pair.weights, g_basis))
        rhs = -1j * pair.lam * pair.eigenfunction(theta)
        assert abs(lhs - rhs) <= 1e-12 * max(abs(pair.lam), 1.0)


def test_eigenpair_parity_is_exact():
    for eps, ell in ((1, 2), (1, 3), (-1, F(3, 2)), (-1, F(5, 2))):
        pair = angular_eigenpair(ell, eps, 1, WignerParams(F(1, 5), F(2, 5)))
        for f in pair.basis:
            r = f.reflect12()
            assert r.even == eps * f.even and r.odd == eps * f.odd


def test_eigenpair_lambda_squared_matches_closed_form():
    # nu at both ends of (-1/2, 2] too: the even/odd swap holds across it
    for nu1 in (F(-49, 100), F(-2, 5), F(0), F(1, 5), F(2)):
        for nu2 in (F(-49, 100), F(-1, 5), F(2, 5), F(2)):
            params = WignerParams(nu1, nu2)
            for eps, ells in ((1, (1, 3, 5)), (-1, (F(1, 2), F(9, 2)))):
                for ell in ells:
                    pair = angular_eigenpair(ell, eps, 1, params)
                    rad = float(lambda_radicand(ell, eps, params))
                    assert pair.lam ** 2 == pytest.approx(rad, rel=1e-12)


def test_branches_are_complex_conjugates():
    plus = angular_eigenpair(2, 1, 1, NU44)
    minus = angular_eigenpair(2, 1, -1, NU44)
    assert minus.lam == -plus.lam
    for a, b in zip(plus.weights, minus.weights):
        assert b == pytest.approx(a.conjugate(), rel=1e-14, abs=1e-14)


def _bits(z: complex):
    return z.real.hex(), z.imag.hex()


@pytest.mark.parametrize("nu", WIDE_NUS, ids=lambda nu: f"{nu[0]},{nu[1]}")
def test_one_branch_is_its_member_of_the_pair(nu):
    params = WignerParams(*nu)
    for sector in SECTORS:
        eps = sector[0] * sector[1]
        for ell in [F(0)] * (eps == 1) + lowest_ells(eps, 2):
            pairs = angular_eigenpairs(ell, eps, params)
            assert [p.branch for p in pairs] == [1, -1]
            for branch, member in zip((1, -1), pairs):
                single = angular_eigenpair(ell, eps, branch, params)
                for field in fields(single):
                    a, b = getattr(single, field.name), getattr(member, field.name)
                    if field.name == "lam":
                        assert _bits(a) == _bits(b)
                    elif field.name == "weights":
                        assert list(map(_bits, a)) == list(map(_bits, b))
                    else:
                        assert a == b, field.name
                if ell == 0:
                    assert member.restriction == (0, 0)
                    assert apply_G(member.basis[0], params).is_zero()
                else:
                    (f1, f2), (m12, m21) = member.basis, member.restriction
                    assert apply_G(f1, params) == m21 * f2
                    assert apply_G(f2, params) == m12 * f1
                    assert _bits(member.lam) == _bits(
                        lambda_value(ell, eps, branch, params))
                assert member.is_constant_mode == (ell == 0)


def test_bad_branch_raises_before_any_basis_is_built(monkeypatch):
    def no_basis(*args):
        raise AssertionError("basis built for a bad branch")

    monkeypatch.setattr(angular, "sector_basis", no_basis)
    for branch in (0, 2, -2):
        with pytest.raises(ValueError, match=f"branch must be \\+1 or -1, got {branch}"):
            angular_eigenpair(2, 1, branch, NU44)


def test_constant_mode_flagged():
    pair = angular_eigenpair(0, 1, 1, NU44)
    assert pair.is_constant_mode and pair.lam == 0.0
    assert pair.eigenfunction(0.7) == 1.0


def test_eigenpair_rejects_invalid_combinations():
    with pytest.raises(ValueError):
        angular_eigenpair(F(1, 2), 1, 1, NU0)
    with pytest.raises(ValueError):
        angular_eigenpair(1, -1, 1, NU0)
    with pytest.raises(ValueError):
        angular_eigenpair(1, 2, 1, NU0)
    with pytest.raises(ValueError):
        angular_eigenpair(0, -1, 1, NU0)  # no constant mode in odd sector


@pytest.mark.parametrize("epsilon", [0, (1, 1)], ids=["zero", "sector-tuple"])
def test_eigenpairs_take_a_parity_not_a_sector(epsilon):
    # a sector reaches G only through eps1*eps2, so the parity is the argument
    with pytest.raises(ValueError,
                       match=re.escape(f"sector parity must be +1 or -1, got {epsilon}")):
        angular_eigenpairs(1, epsilon, NU44)


@pytest.mark.parametrize("distort", [
    # f2 = s*B -> s*c^2*B: the span is no longer G-invariant
    lambda f1, f2: (f1, TrigPoly(f2.even, f2.odd.shift_up(2))),
    # f1 -> f1 + f2: the same span, but G no longer swaps an even-only f1
    # with an odd-only f2, which the off-diagonal restriction needs
    lambda f1, f2: (f1 + f2, f2),
], ids=["stretched", "mixed"])
def test_eigenpair_rejects_a_basis_G_does_not_swap(monkeypatch, distort):
    # both distortions keep the R1R2 parity of the basis
    def basis(ell, epsilon, params):
        return distort(*sector_basis(ell, epsilon, params))

    monkeypatch.setattr(angular, "sector_basis", basis)
    for ell, eps in ((2, 1), (F(3, 2), -1)):
        with pytest.raises(ValueError, match="candidate space"):
            angular_eigenpair(ell, eps, 1, NU44)
        with pytest.raises(ValueError, match="candidate space"):
            angular_eigenpairs(ell, eps, NU44)


def test_printed_jacobi_argument_breaks_parity():
    # with argument -2 cos(theta) the bare Jacobi function has no definite
    # R1R2 parity, unlike the -cos(2 theta) construction used here
    params = WignerParams(F(2, 5), F(1, 5))
    printed = TrigPoly(jacobi(2, params.nu1 + F(1, 2), params.nu2 + F(1, 2),
                              Poly1([0, -2])), Poly1())
    assert printed.reflect12() != printed
    f1, _ = sector_basis(2, 1, params)
    assert f1.reflect12() == f1
