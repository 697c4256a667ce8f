"""Angular problem: exact trigonometric polynomials, Jacobi polynomials, the
angular operators, and the per-parity eigenpairs.

An angular function is represented as f(theta) = A(c) + s*B(c) with c = cos
theta, s = sin theta and A, B exact univariate polynomials; sin^2 is always
reduced via s^2 = 1 - c^2, which makes the form unique.  The first-order
angular operator G (the angular momentum operator is i*G) and the
second-order operator act exactly on this representation: every singular
multiplier (tan, cot, 1/cos^2, 1/sin^2) pairs with a reflection difference
that supplies the compensating factor, so all divisions are exact polynomial
divisions.

A Poly1 is a polynomial in c on algebra's exact kernel (_Poly), so equality
is exact rational equality and the operator identities hold with zero
tolerance.

Eigenfunctions for the eigenvalue lam of i*G are built per parity eps of
R1R2 (G commutes with R1R2, not with R1 or R2) from a two-dimensional
candidate space spanned by f1 = A(c), which has only an even part, and
f2 = s*B(c), which has only an odd part (Jacobi polynomials in -cos 2*theta
with parity-specific prefactors).  G maps each of them onto a multiple of
the other, so its restriction is [[0, m12], [m21, 0]] with two exact
rational ratios; lam^2 = -m12*m21 and the complex mixing weights follow.
None of this depends on the sign of lam, so both branches come from one
exact restriction: one basis build and one G image per basis function.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction
from numbers import Rational

from .algebra import BivarPoly, WignerParams, _Poly, _Record


class Poly1(_Poly):
    """Exact univariate polynomial in ascending powers of c: the _Poly
    canonical form keyed by the exponent k.  Its coefficients are handed
    out densely."""

    __slots__ = ()
    _ONE = 0
    _add_exp = operator.add

    def __init__(self, coeffs=()):
        self._set_fractions({k: v if type(v) is Fraction else Fraction(v)
                             for k, v in enumerate(coeffs)})

    @classmethod
    def one(cls) -> "Poly1":
        return cls._raw({0: 1}, 1)

    @classmethod
    def x(cls) -> "Poly1":
        return cls._raw({1: 1}, 1)

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        n, d = self._n, self._d
        return tuple([Fraction(n.get(k, 0), d) for k in range(self.degree() + 1)])

    def degree(self) -> int:
        """Degree, with the convention degree(0) = -1."""
        return max(self._n, default=-1)

    def __getitem__(self, k: int) -> Fraction:
        return Fraction(self._n.get(k, 0), self._d)

    def __truediv__(self, scalar):
        q = scalar if type(scalar) is int else Fraction(scalar)
        num, den = q.numerator, q.denominator
        if num == 0:
            raise ZeroDivisionError("Poly1 division by zero")
        if num < 0:
            num, den = -num, -den
        return Poly1._make({k: n * den for k, n in self._n.items()}, self._d * num)

    def derivative(self) -> "Poly1":
        return Poly1._make({k - 1: k * n for k, n in self._n.items() if k}, self._d)

    def compose_neg(self) -> "Poly1":
        """Substitute c -> -c (sign flip on odd coefficients)."""
        return Poly1._raw({k: -n if k % 2 else n for k, n in self._n.items()},
                          self._d)

    def odd_shift(self) -> "Poly1":
        """(P(c) - P(-c)) / (2c): odd coefficients shifted down one power."""
        return Poly1._make({k - 1: n for k, n in self._n.items() if k % 2}, self._d)

    def div_c(self) -> "Poly1":
        """Exact division by c; raises if the constant term is nonzero."""
        if 0 in self._n:
            raise ArithmeticError("polynomial not divisible by c")
        return Poly1._raw({k - 1: n for k, n in self._n.items()}, self._d)

    def shift_up(self, k: int = 1) -> "Poly1":
        """Multiply by c^k."""
        return Poly1._raw({e + k: n for e, n in self._n.items()}, self._d)

    def __repr__(self):
        return f"Poly1({list(self.coeffs)!r})"


def _times_s2(p: Poly1) -> Poly1:
    """Multiply by s^2 = 1 - c^2."""
    return p - p.shift_up(2)


class TrigPoly(_Record):
    """f(theta) = even(cos theta) + sin theta * odd(cos theta), exact."""

    __slots__ = ("even", "odd")

    def __init__(self, even: Poly1 = Poly1(), odd: Poly1 = Poly1()):
        self._set(even, odd)

    @classmethod
    def one(cls) -> "TrigPoly":
        return cls(Poly1.one(), Poly1())

    def is_zero(self) -> bool:
        return self.even.is_zero() and self.odd.is_zero()

    def __add__(self, other: "TrigPoly") -> "TrigPoly":
        if other.__class__ is not TrigPoly:
            return NotImplemented
        return TrigPoly(self.even + other.even, self.odd + other.odd)

    def __sub__(self, other: "TrigPoly") -> "TrigPoly":
        if other.__class__ is not TrigPoly:
            return NotImplemented
        return TrigPoly(self.even - other.even, self.odd - other.odd)

    def __neg__(self) -> "TrigPoly":
        return TrigPoly(-self.even, -self.odd)

    def __mul__(self, other):
        if isinstance(other, Rational):
            return TrigPoly(self.even * other, self.odd * other)
        return NotImplemented

    __rmul__ = __mul__

    def reflect12(self) -> "TrigPoly":
        """theta -> theta + pi: both coordinates negated."""
        return TrigPoly(self.even.compose_neg(), -self.odd.compose_neg())

    def derivative(self) -> "TrigPoly":
        a, b = self.even, self.odd
        return TrigPoly(b.shift_up() - _times_s2(b.derivative()), -a.derivative())

    def norm1(self) -> Fraction:
        """Sum of |coefficients| of both parts: a bound on |f| at every theta."""
        return sum(Fraction(sum(map(abs, p._n.values())), p._d)
                   for p in (self.even, self.odd))

    def __repr__(self):
        return f"TrigPoly(even={list(self.even.coeffs)}, odd={list(self.odd.coeffs)})"


def jacobi(n: int, alpha, beta, x):
    """Jacobi polynomial P_n^(alpha,beta)(x) by the three-term recurrence.

    Duck-typed in x: exact for Fraction inputs, float for float inputs, and a
    Poly1 argument yields the polynomial composed with x.  With alpha = A/D
    and beta = B/D over one common denominator D, the recurrence
    coefficients are taken times D^3, which makes them integers and leaves
    the recurrence unchanged.
    """
    if not isinstance(n, int) or n < 0:
        raise ValueError(f"degree must be a nonnegative integer, got {n!r}")
    if not (alpha > -1 and beta > -1):
        raise ValueError(f"Jacobi parameters must exceed -1, got ({alpha}, {beta})")
    alpha, beta = Fraction(alpha), Fraction(beta)
    den = math.lcm(alpha.denominator, beta.denominator)
    a_num = alpha.numerator * (den // alpha.denominator)
    b_num = beta.numerator * (den // beta.denominator)
    ab = a_num + b_num
    one = x * 0 + 1
    p_prev = one
    if n == 0:
        return p_prev
    # (alpha + 1) + (alpha + beta + 2) (x - 1) / 2, over 2D
    p_curr = (2 * (a_num + den) + (ab + 2 * den) * (x - 1)) / (2 * den)
    for k in range(2, n + 1):
        kd = k * den
        t = 2 * kd + ab  # (2k + alpha + beta) D
        a = 2 * kd * (kd + ab) * (t - 2 * den)
        b1 = (t - den) * t * (t - 2 * den)
        b0 = (t - den) * (a_num * a_num - b_num * b_num)
        c2 = 2 * (kd + a_num - den) * (kd + b_num - den) * t
        p_next = (b1 * (x * p_curr) + b0 * p_curr - c2 * p_prev) / a
        p_curr, p_prev = p_next, p_curr
    return p_curr


def apply_G(f: TrigPoly, params: WignerParams) -> TrigPoly:
    """First-order angular operator G (the angular momentum operator is i*G),

        G = d/dtheta + nu2 cot(theta)(1 - R2) - nu1 tan(theta)(1 - R1).

    In (A, B) coordinates: (1-R2)f = 2sB so the cot term adds 2*nu2*c*B to the
    even part; (1-R1)f = 2c*odd_shift(A) + 2sc*odd_shift(B) so the tan term
    lands back in the representation with no leftover singularity.
    """
    two_nu1, two_nu2 = 2 * params.nu1, 2 * params.nu2
    a, b = f.even, f.odd
    d = f.derivative()
    even = d.even + two_nu2 * b.shift_up() - two_nu1 * _times_s2(b.odd_shift())
    odd = d.odd - two_nu1 * a.odd_shift()
    return TrigPoly(even, odd)


def apply_B(f: TrigPoly, params: WignerParams) -> TrigPoly:
    """Second-order angular operator,

        -1/2 d^2/dtheta^2 + (nu1 tan - nu2 cot) d/dtheta
        + nu1/(2cos^2)(1 - R1) + nu2/(2sin^2)(1 - R2),

    applied exactly.  The nu1 and nu2 groups each close on the representation;
    the remaining division by c is exact (checked, raises otherwise).
    """
    nu1, nu2 = params.nu1, params.nu2
    a, b = f.even, f.odd
    out = Fraction(-1, 2) * f.derivative().derivative()
    if nu2 != 0:
        t2 = TrigPoly(a.derivative().shift_up(), b + b.derivative().shift_up())
        out = out + nu2 * t2
    if nu1 != 0:
        t1 = TrigPoly((a.odd_shift() - _times_s2(a.derivative())).div_c(),
                      b + (b.odd_shift() - _times_s2(b.derivative())).div_c())
        out = out + nu1 * t1
    return out


def restrict_to_circle(p: BivarPoly) -> TrigPoly:
    """Restrict a Cartesian polynomial to the unit circle (r = 1)."""
    even = Poly1()
    odd = Poly1()
    for (i, j), coeff in p.coeffs.items():
        term = Poly1((coeff,)).shift_up(i)
        for _ in range(j // 2):
            term = _times_s2(term)
        if j % 2:
            odd = odd + term
        else:
            even = even + term
    return TrigPoly(even, odd)


def check_ell(ell: Fraction, epsilon: int) -> None:
    """ValueError unless ell suits parity epsilon: integer >= 0 (+1), half-odd (-1)."""
    num, den = ell.numerator, ell.denominator
    if epsilon == 1:
        if den != 1 or num < 0:
            raise ValueError(
                f"even sector requires a nonnegative integer ell, got {ell}")
    elif epsilon == -1:
        # half-odd: lowest terms odd/2
        if den != 2 or num < 0:
            raise ValueError(
                f"odd sector requires half-odd positive ell, got {ell}")
    else:
        raise ValueError(f"sector parity must be +1 or -1, got {epsilon}")


def _radicand_terms(ell, epsilon: int, params: WignerParams) -> tuple[int, int]:
    """lam^2 as integers (numerator, denominator > 0), not reduced."""
    if not isinstance(ell, Fraction):
        ell = Fraction(ell)
    check_ell(ell, epsilon)
    p, q = ell.numerator, ell.denominator
    (a, b), (c, d) = params.nu1.as_integer_ratio(), params.nu2.as_integer_ratio()
    if epsilon == 1:
        return 4 * p * (p * b * d + a * q * d + c * q * b), q * q * b * d
    return 4 * (p * b + a * q) * (p * d + c * q), q * q * b * d


def lambda_radicand(ell, epsilon: int, params: WignerParams) -> Fraction:
    """Exact lam^2: 4*ell*(ell+nu1+nu2) in the even sector,
    4*(ell+nu1)*(ell+nu2) in the odd sector."""
    return Fraction(*_radicand_terms(ell, epsilon, params))


def lambda_value(ell, epsilon: int, branch: int, params: WignerParams) -> float:
    """Signed closed-form angular eigenvalue lam for the requested branch; lam^2
    is one correctly rounded int/int division, equal to float(lambda_radicand)."""
    if branch not in (1, -1):
        raise ValueError(f"branch must be +1 or -1, got {branch}")
    num, den = _radicand_terms(ell, epsilon, params)
    if num < 0:
        raise ValueError(f"negative radicand {Fraction(num, den)} for ell={ell}")
    return branch * math.sqrt(num / den) if num else 0.0  # never -0.0


def _ratio(p: Poly1, q: Poly1) -> Fraction:
    """The exact m with p = m*q; raises if p is not a multiple of q."""
    d = q.degree()
    m = p[d] / q[d]
    if p != q * m:
        raise ValueError("function does not lie in the candidate space")
    return m


def sector_basis(ell, epsilon: int, params: WignerParams):
    """The two real candidate functions spanning the G-invariant space.

    Even parity (epsilon = +1): a purely even Jacobi polynomial in
    -cos 2*theta and a sin*cos-prefactored one of one lower degree.  Odd
    parity: cos- and sin-prefactored Jacobi polynomials of degree ell - 1/2.
    The first Jacobi parameter pair is (nu1 - 1/2, nu2 - 1/2), as dictated by
    the orthogonality weight |cos|^(2 nu1) |sin|^(2 nu2) d theta; prefactors
    shift each parameter up by one.
    """
    ell = Fraction(ell)
    nu1, nu2 = params.nu1, params.nu2
    arg = Poly1((1, 0, -2))  # -cos 2*theta = 1 - 2 c^2
    if epsilon == 1:
        if ell < 1:
            raise ValueError("even-parity basis requires ell >= 1")
        f1 = TrigPoly(jacobi(int(ell), nu1 - Fraction(1, 2), nu2 - Fraction(1, 2), arg),
                      Poly1())
        f2 = TrigPoly(Poly1(),
                      Poly1.x() * jacobi(int(ell) - 1, nu1 + Fraction(1, 2),
                                         nu2 + Fraction(1, 2), arg))
    else:
        d = int(ell - Fraction(1, 2))
        f1 = TrigPoly(Poly1.x() * jacobi(d, nu1 + Fraction(1, 2),
                                         nu2 - Fraction(1, 2), arg),
                      Poly1())
        f2 = TrigPoly(Poly1(),
                      jacobi(d, nu1 - Fraction(1, 2), nu2 + Fraction(1, 2), arg))
    return f1, f2


class AngularEigenpair(_Record):
    """One eigenpair of the angular momentum operator in one parity.

    The eigenfunction is weights[0]*basis[0] + weights[1]*basis[1] with exact
    rational basis functions and complex mixing weights; it satisfies
    G(Theta) = -i*lam*Theta and R1R2(Theta) = epsilon*Theta.  restriction
    holds the exact ratios (m12, m21) that the construction checked:
    G(basis[0]) = m21*basis[1] and G(basis[1]) = m12*basis[0].
    """

    __slots__ = ("epsilon", "ell", "branch", "lam", "basis", "restriction",
                 "weights", "params", "is_constant_mode")

    def __init__(self, epsilon: int, ell: Fraction, branch: int, lam: float,
                 basis: tuple[TrigPoly, ...], restriction: tuple[Fraction, Fraction],
                 weights: tuple[complex, ...], params: WignerParams,
                 is_constant_mode: bool = False):
        self._set(epsilon, ell, branch, lam, basis, restriction, weights, params,
                  is_constant_mode)


def angular_eigenpairs(ell, epsilon: int, params: WignerParams
                       ) -> tuple[AngularEigenpair, AngularEigenpair]:
    """Construct and verify both branches (+1, -1) of the angular eigenpair
    for ell in the parity epsilon from one exact restriction.

    G maps f1 onto m21*f2 and f2 onto m12*f1, with no component along the
    function it started from, so the restriction of G to the candidate space
    is [[0, m12], [m21, 0]] and lam^2 = -m12*m21.  Both ratios are exact and
    checked, so a basis that G does not swap raises, and lam^2 is checked
    against the closed form exactly.  None of this depends on the branch, so
    it is done once; |lam| is sqrt(num/den) of the checked radicand, the
    same double as lambda_value.  Each branch then takes lam's sign
    and the mixing weights (1, -i*lam/m12), checked against the restriction
    to 1e-12, so the two branches are complex conjugates of each other.
    The ell = 0 constant mode (lam = 0, restriction (0, 0)) is returned with
    is_constant_mode set so enumerations can exclude it.
    """
    ell = Fraction(ell)
    check_ell(ell, epsilon)

    if epsilon == 1 and ell == 0:
        return tuple([AngularEigenpair(epsilon, ell, branch, 0.0, (TrigPoly.one(),),
                                       (Fraction(0), Fraction(0)), (1 + 0j,),
                                       params, is_constant_mode=True)
                      for branch in (1, -1)])

    f1, f2 = sector_basis(ell, epsilon, params)
    for f in (f1, f2):
        r = f.reflect12()
        if not (r.even == epsilon * f.even and r.odd == epsilon * f.odd):
            raise ValueError("basis function has wrong R1R2 parity")

    g1, g2 = apply_G(f1, params), apply_G(f2, params)
    if not (g1.even.is_zero() and g2.odd.is_zero()):
        raise ValueError("function does not lie in the candidate space")
    m21, m12 = _ratio(g1.odd, f2.odd), _ratio(g2.even, f1.even)
    det = -m12 * m21
    if det <= 0:
        raise ValueError(
            f"degenerate restriction (det={det}) "
            f"for ell={ell}, epsilon={epsilon}")
    num, den = _radicand_terms(ell, epsilon, params)
    if det.numerator * den != num * det.denominator:
        raise ValueError("restriction determinant disagrees with closed form")

    lam_abs = math.sqrt(num / den)
    scale = float(m12)
    pairs = []
    for branch in (1, -1):
        lam = branch * lam_abs
        # the eigenvector (m12, -i*lam) scaled by its first component: its
        # first row holds by construction, the second checks m21*w1 = -i*lam*w2
        mu = complex(0.0, -lam)
        w1, w2 = complex(scale) / scale, mu / scale
        if abs(float(m21) * w1 - mu * w2) > 1e-12 * max(abs(lam), 1.0):
            raise AssertionError("eigenvector verification failed")
        pairs.append(AngularEigenpair(epsilon, ell, branch, lam, (f1, f2),
                                      (m12, m21), (w1, w2), params))
    return tuple(pairs)


def angular_eigenpair(ell, epsilon: int, branch: int,
                      params: WignerParams) -> AngularEigenpair:
    """The branch +1 or -1 member of angular_eigenpairs(ell, epsilon, params),
    which builds both branches from one exact restriction."""
    if branch not in (1, -1):
        raise ValueError(f"branch must be +1 or -1, got {branch}")
    plus, minus = angular_eigenpairs(ell, epsilon, params)
    return plus if branch == 1 else minus
