import math
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dunkl_pauli.algebra import (ONE, X1, X2, BivarPoly, WignerParams,
                                 angular_momentum_action, commutator_xD,
                                 dunkl_derive, dunkl_laplacian,
                                 dunkl_laplacian_expanded, reflect)
from dunkl_pauli.angular import Poly1, TrigPoly

NU = WignerParams(F(2, 5), F(2, 5))

coeffs = st.fractions(min_value=-10, max_value=10, max_denominator=30)
exponents = st.tuples(st.integers(0, 8), st.integers(0, 8)).filter(
    lambda e: e[0] + e[1] <= 8)
coeff_dicts = st.dictionaries(exponents, coeffs, max_size=8)
polys = coeff_dicts.map(BivarPoly)
nus = st.fractions(min_value=F(-49, 100), max_value=2, max_denominator=100)
params_st = st.builds(WignerParams, nus, nus)


def test_wigner_params_rejects_out_of_range():
    with pytest.raises(ValueError):
        WignerParams(F(-1, 2), 0)
    with pytest.raises(ValueError):
        WignerParams(0, -1)
    WignerParams(F(-49, 100), 2)  # boundary-adjacent values are fine


def test_wigner_params_stores_exact_fractions():
    p = WignerParams(F(2, 5), F(-1, 5))
    assert p.nu1 == F(2, 5) and p.nu(2) == F(-1, 5)
    assert p.as_floats() == (0.4, -0.2)


def test_bivar_poly_canonical_form():
    p = BivarPoly({(1, 0): F(1), (0, 0): F(0)})
    assert (0, 0) not in p.coeffs
    assert BivarPoly({(2, 1): 0}).is_zero()
    with pytest.raises(ValueError):
        BivarPoly({(-1, 0): F(1)})


def test_bivar_poly_arithmetic_exact():
    p = X1 * X1 + 3 * X2
    q = p * p
    assert q == X1 * X1 * X1 * X1 + 6 * (X1 * X1 * X2) + 9 * (X2 * X2)
    assert p - p == BivarPoly.zero()


MIXED_OPERANDS = [
    # (operation, result or the exception it raises)
    (lambda: BivarPoly.constant(1) + 1, BivarPoly.constant(2)),
    (lambda: 1 + X1, X1 + ONE),
    (lambda: X1 - F(1, 2), X1 + BivarPoly.constant(F(-1, 2))),
    (lambda: F(1, 2) - X1, BivarPoly.constant(F(1, 2)) - X1),
    (lambda: X1 + 0, X1),
    (lambda: X1 + Poly1([1]), TypeError),
    (lambda: Poly1([1]) + X1, TypeError),
    (lambda: Poly1([1]) - ONE, TypeError),
    (lambda: X1 * Poly1([1]), TypeError),
    (lambda: Poly1([1]) * X1, TypeError),
    (lambda: X1 + 0.5, TypeError),
    (lambda: X1 - "1", TypeError),
    (lambda: TrigPoly.one() + 1, TypeError),
    (lambda: TrigPoly.one() - 1, TypeError),
    (lambda: TrigPoly.one() + Poly1([1]), TypeError),
    (lambda: 1 - TrigPoly.one(), TypeError),
    (lambda: Poly1([1]) == BivarPoly.constant(1), False),
    (lambda: BivarPoly.constant(1) == Poly1([1]), False),
    (lambda: Poly1() == BivarPoly.zero(), False),
    (lambda: Poly1([1]) == 1, False),
    (lambda: TrigPoly.one() * TrigPoly.one(), TypeError),
]


@pytest.mark.parametrize("operation, want", MIXED_OPERANDS,
                         ids=[str(k) for k in range(len(MIXED_OPERANDS))])
def test_arithmetic_takes_its_own_class_or_a_rational(operation, want):
    # another polynomial class or a non-Rational gives NotImplemented, so
    # Python raises TypeError instead of an AttributeError from inside
    if want is TypeError:
        with pytest.raises(TypeError):
            operation()
    else:
        got = operation()
        assert got == want and type(got) is type(want)


def test_reflect_examples():
    assert reflect(X1, 1) == -1 * X1
    even = X1 * X1 * X2
    assert reflect(even, 1) == even
    assert reflect(X1 + X2, 2) == X1 - X2


def test_dunkl_derive_examples():
    assert dunkl_derive(X1, 1, NU) == BivarPoly.constant(F(9, 5))  # 1 + 2 nu1
    assert dunkl_derive(X1 * X1, 1, NU) == 2 * X1
    assert dunkl_derive(X1 * X2, 1, NU) == F(9, 5) * X2


def test_dunkl_derive_reduces_degree_by_one():
    p = X1 * X1 * X1 * X2  # homogeneous of degree 4
    d = dunkl_derive(p, 1, NU)
    assert d == F(19, 5) * X1 * X1 * X2  # 3 + 2 nu1
    assert {i + j for i, j in d.coeffs} == {3}
    assert dunkl_derive(ONE, 1, NU).is_zero()


def test_commutator_examples():
    # off-diagonal pair annihilates everything
    assert commutator_xD(X1 * X2 + 5 * X1, 1, 2, NU).is_zero()
    # diagonal pair on x1: (1 + 2 nu1 R1) x1 = (1 - 2 nu1) x1
    assert commutator_xD(X1, 1, 1, NU) == (1 - 2 * NU.nu1) * X1
    # constants are R2-even
    assert commutator_xD(ONE, 2, 2, NU) == (1 + 2 * NU.nu2) * ONE


def test_laplacian_examples():
    assert dunkl_laplacian(X1 * X1, NU) == BivarPoly.constant(2 + 4 * NU.nu1)
    assert dunkl_laplacian(X1 * X2, NU).is_zero()
    # derived by composing dunkl_derive twice, term by term
    p = X1 * X1 + X2 * X2
    composed = (dunkl_derive(dunkl_derive(p, 1, NU), 1, NU)
                + dunkl_derive(dunkl_derive(p, 2, NU), 2, NU))
    assert composed == BivarPoly.constant(4 + 4 * NU.nu1 + 4 * NU.nu2)
    assert dunkl_laplacian(p, NU) == composed
    assert dunkl_laplacian_expanded(p, NU) == composed


def test_axis_validation():
    with pytest.raises(ValueError):
        reflect(X1, 3)
    with pytest.raises(ValueError):
        dunkl_derive(X1, 0, NU)


@given(polys, params_st)
def test_reflect_is_involution(p, params):
    for axis in (1, 2):
        assert reflect(reflect(p, axis), axis) == p


@given(polys, params_st)
def test_deformed_heisenberg_relation(p, params):
    nus = {1: params.nu1, 2: params.nu2}
    for i in (1, 2):
        for j in (1, 2):
            got = commutator_xD(p, i, j, params)
            if i == j:
                assert got == p + 2 * nus[j] * reflect(p, j)
            else:
                assert got.is_zero()


@given(polys, params_st)
def test_dunkl_derivatives_commute(p, params):
    d12 = dunkl_derive(dunkl_derive(p, 2, params), 1, params)
    d21 = dunkl_derive(dunkl_derive(p, 1, params), 2, params)
    assert d12 == d21


@given(polys, params_st)
def test_reflection_coordinate_relation(p, params):
    # R_j x_i = -delta_ij x_i R_j as an identity on polynomials
    for j in (1, 2):
        for i, xi in ((1, X1), (2, X2)):
            sign = -1 if i == j else 1
            assert reflect(xi * p, j) == sign * (xi * reflect(p, j))


@given(polys, polys, coeffs, params_st)
def test_dunkl_derive_is_linear(p, q, alpha, params):
    for j in (1, 2):
        lhs = dunkl_derive(alpha * p + q, j, params)
        assert lhs == alpha * dunkl_derive(p, j, params) + dunkl_derive(q, j, params)


@given(polys, params_st)
@settings(max_examples=60)
def test_laplacian_composition_matches_expansion(p, params):
    assert dunkl_laplacian(p, params) == dunkl_laplacian_expanded(p, params)


def test_angular_momentum_action_printed_variant_differs():
    p = X1 * X1 * X2 + 3 * X2
    good = angular_momentum_action(p, NU)
    bad = angular_momentum_action(p, NU, as_printed=True)
    assert good != bad


# BivarPoly against a plain {(i, j): Fraction} reference, one operation at a
# time, with the canonical form checked on every result

def ref_of(coeffs: dict) -> dict:
    return {m: F(c) for m, c in coeffs.items() if c}


def checked(p: BivarPoly) -> dict:
    """p's coefficients as a reference dict, after asserting the canonical
    form: positive denominator coprime to the integer numerators, no stored
    zero, denominator 1 for the zero polynomial."""
    nums, den = p._n, p._d
    assert type(den) is int and den > 0
    assert all(type(n) is int and n != 0 for n in nums.values())
    assert math.gcd(den, *nums.values()) == 1
    assert nums or den == 1
    got = p.coeffs
    assert all(type(c) is F and c != 0 for c in got.values())
    return got


def ref_linear(terms) -> dict:
    out = {}
    for scale, ref in terms:
        for m, c in ref.items():
            out[m] = out.get(m, F(0)) + scale * c
    return {m: c for m, c in out.items() if c}


def ref_mul(a: dict, b: dict) -> dict:
    out = {}
    for (i1, j1), x in a.items():
        for (i2, j2), y in b.items():
            m = (i1 + i2, j1 + j2)
            out[m] = out.get(m, F(0)) + x * y
    return {m: c for m, c in out.items() if c}


def ref_lower(ref: dict, axis: int, factor, step: int = 1) -> dict:
    """sum factor(e) c x^m / x_axis^step over monomials, e the x_axis power."""
    out = {}
    for (i, j), c in ref.items():
        e = i if axis == 1 else j
        f = factor(e)
        if f:
            m = (i - step, j) if axis == 1 else (i, j - step)
            out[m] = out.get(m, F(0)) + f * c
    return {m: c for m, c in out.items() if c}


@given(polys)
def test_nu_zero_reduces_to_plain_derivative(p):
    plain = WignerParams(0, 0)
    for axis in (1, 2):
        assert checked(dunkl_derive(p, axis, plain)) == ref_lower(
            ref_of(p.coeffs), axis, lambda e: e)


@given(coeff_dicts, coeff_dicts, coeffs)
def test_bivar_poly_arithmetic_matches_reference(a, b, alpha):
    p, q, ra, rb = BivarPoly(a), BivarPoly(b), ref_of(a), ref_of(b)
    assert checked(p) == ra
    assert checked(p + q) == ref_linear([(1, ra), (1, rb)])
    assert checked(p - q) == ref_linear([(1, ra), (-1, rb)])
    assert checked(-p) == ref_linear([(-1, ra)])
    assert checked(p * q) == ref_mul(ra, rb)
    assert checked(alpha * p) == checked(p * alpha) == ref_linear([(alpha, ra)])
    assert checked(p * -6) == ref_linear([(-6, ra)])
    assert (p == q) == (ra == rb)
    assert p == BivarPoly(p.coeffs) and hash(p) == hash(BivarPoly(p.coeffs))


@given(coeff_dicts, params_st)
def test_bivar_operators_match_reference(a, params):
    p, ra = BivarPoly(a), ref_of(a)
    for axis in (1, 2):
        nu = params.nu(axis)
        k = axis - 1
        assert checked(reflect(p, axis)) == {
            m: (-c if m[k] % 2 else c) for m, c in ra.items()}
        assert checked(dunkl_derive(p, axis, params)) == ref_lower(
            ra, axis, lambda e: e + 2 * nu if e % 2 else e)
    expanded = ref_linear([
        (1, ref_lower(ra, axis, lambda e, nu=params.nu(axis):
                      e * (e - 1) + 2 * nu * (e - e % 2), step=2))
        for axis in (1, 2)])
    assert checked(dunkl_laplacian_expanded(p, params)) == expanded
