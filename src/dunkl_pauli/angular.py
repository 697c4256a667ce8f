"""Angular sector: exact trigonometric polynomials, Jacobi polynomials, the
angular operators, and the per-parity-sector eigenpairs.

An angular function is represented as f(theta) = A(c) + s*B(c) with c = cos
theta, s = sin theta and A, B exact univariate polynomials; sin^2 is always
reduced via s^2 = 1 - c^2, which makes the form unique.  The first-order
angular operator G (the angular momentum operator is i*G) and the
second-order operator act exactly on this representation: every singular
multiplier (tan, cot, 1/cos^2, 1/sin^2) pairs with a reflection difference
that supplies the compensating factor, so all divisions are exact polynomial
divisions.

Eigenfunctions for the eigenvalue lam of i*G are built per sector from a
two-dimensional candidate space spanned by one purely-even and one purely-odd
real function (Jacobi polynomials in -cos 2*theta with sector-specific
prefactors).  G maps that space to itself; the exact 2x2 restriction matrix
then yields lam^2 as an exact rational and the complex mixing weights.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from numbers import Rational

from .algebra import BivarPoly, WignerParams


class Poly1:
    """Dense exact univariate polynomial (coefficient list, ascending powers)."""

    __slots__ = ("_c",)

    def __init__(self, coeffs=()):
        c = [v if type(v) is Fraction else Fraction(v) for v in coeffs]
        while c and c[-1] == 0:
            c.pop()
        self._c = tuple(c)

    @classmethod
    def one(cls) -> "Poly1":
        return cls((1,))

    @classmethod
    def x(cls) -> "Poly1":
        return cls((0, 1))

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        return self._c

    def is_zero(self) -> bool:
        return not self._c

    def degree(self) -> int:
        """Degree, with the convention degree(0) = -1."""
        return len(self._c) - 1

    def __getitem__(self, k: int) -> Fraction:
        return self._c[k] if 0 <= k < len(self._c) else Fraction(0)

    def __add__(self, other):
        if isinstance(other, Rational):
            other = Poly1((other,))
        if not isinstance(other, Poly1):
            return NotImplemented
        n = max(len(self._c), len(other._c))
        return Poly1([self[k] + other[k] for k in range(n)])

    __radd__ = __add__

    def __neg__(self) -> "Poly1":
        return Poly1([-v for v in self._c])

    def __sub__(self, other):
        if isinstance(other, Rational):
            other = Poly1((other,))
        if not isinstance(other, Poly1):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, Rational):
            return Poly1([Fraction(other) * v for v in self._c])
        if not isinstance(other, Poly1):
            return NotImplemented
        if self.is_zero() or other.is_zero():
            return Poly1()
        out = [Fraction(0)] * (len(self._c) + len(other._c) - 1)
        for i, a in enumerate(self._c):
            for j, b in enumerate(other._c):
                out[i + j] += a * b
        return Poly1(out)

    __rmul__ = __mul__

    def __truediv__(self, scalar):
        return self * (Fraction(1) / Fraction(scalar))

    def derivative(self) -> "Poly1":
        return Poly1([k * self._c[k] for k in range(1, len(self._c))])

    def compose_neg(self) -> "Poly1":
        """Substitute c -> -c (sign flip on odd coefficients)."""
        return Poly1([(-v if k % 2 else v) for k, v in enumerate(self._c)])

    def odd_shift(self) -> "Poly1":
        """(P(c) - P(-c)) / (2c): odd coefficients shifted down one power."""
        out = [Fraction(0)] * max(len(self._c) - 1, 0)
        for k in range(1, len(self._c), 2):
            out[k - 1] = self._c[k]
        return Poly1(out)

    def div_c(self) -> "Poly1":
        """Exact division by c; raises if the constant term is nonzero."""
        if self._c and self._c[0] != 0:
            raise ArithmeticError("polynomial not divisible by c")
        return Poly1(self._c[1:])

    def shift_up(self, k: int = 1) -> "Poly1":
        """Multiply by c^k."""
        if self.is_zero():
            return self
        return Poly1((Fraction(0),) * k + self._c)

    def evaluate(self, v):
        acc = 0 * v
        for c in reversed(self._c):
            acc = acc * v + c
        return acc

    def __eq__(self, other):
        if not isinstance(other, Poly1):
            return NotImplemented
        return self._c == other._c

    def __hash__(self):
        return hash(self._c)

    def __repr__(self):
        return f"Poly1({list(self._c)!r})"


@dataclass(frozen=True)
class TrigPoly:
    """f(theta) = even(cos theta) + sin theta * odd(cos theta), exact."""

    even: Poly1 = Poly1()
    odd: Poly1 = Poly1()

    @classmethod
    def one(cls) -> "TrigPoly":
        return cls(Poly1.one(), Poly1())

    @classmethod
    def cos(cls) -> "TrigPoly":
        return cls(Poly1.x(), Poly1())

    @classmethod
    def sin(cls) -> "TrigPoly":
        return cls(Poly1(), Poly1.one())

    def is_zero(self) -> bool:
        return self.even.is_zero() and self.odd.is_zero()

    def __add__(self, other: "TrigPoly") -> "TrigPoly":
        return TrigPoly(self.even + other.even, self.odd + other.odd)

    def __sub__(self, other: "TrigPoly") -> "TrigPoly":
        return TrigPoly(self.even - other.even, self.odd - other.odd)

    def __neg__(self) -> "TrigPoly":
        return TrigPoly(-self.even, -self.odd)

    def __mul__(self, other):
        if isinstance(other, Rational):
            return TrigPoly(self.even * other, self.odd * other)
        if not isinstance(other, TrigPoly):
            return NotImplemented
        # s^2 reduces to 1 - c^2
        s2 = Poly1((1, 0, -1))
        return TrigPoly(self.even * other.even + s2 * (self.odd * other.odd),
                        self.even * other.odd + other.even * self.odd)

    __rmul__ = __mul__

    def reflect1(self) -> "TrigPoly":
        """theta -> pi - theta, i.e. c -> -c with s fixed."""
        return TrigPoly(self.even.compose_neg(), self.odd.compose_neg())

    def reflect2(self) -> "TrigPoly":
        """theta -> -theta, i.e. s -> -s with c fixed."""
        return TrigPoly(self.even, -self.odd)

    def reflect12(self) -> "TrigPoly":
        """theta -> theta + pi: both coordinates negated."""
        return TrigPoly(self.even.compose_neg(), -self.odd.compose_neg())

    def derivative(self) -> "TrigPoly":
        a, b = self.even, self.odd
        return TrigPoly(Poly1.x() * b - Poly1((1, 0, -1)) * b.derivative(),
                        -a.derivative())

    def evaluate(self, theta: float):
        c = math.cos(theta)
        return self.even.evaluate(c) + math.sin(theta) * self.odd.evaluate(c)

    def __repr__(self):
        return f"TrigPoly(even={list(self.even.coeffs)}, odd={list(self.odd.coeffs)})"


def jacobi(n: int, alpha, beta, x):
    """Jacobi polynomial P_n^(alpha,beta)(x) by the three-term recurrence.

    Duck-typed in x: exact for Fraction inputs, float for float inputs, and a
    Poly1 argument yields the polynomial composed with x.
    """
    if not isinstance(n, int) or n < 0:
        raise ValueError(f"degree must be a nonnegative integer, got {n!r}")
    if not (alpha > -1 and beta > -1):
        raise ValueError(f"Jacobi parameters must exceed -1, got ({alpha}, {beta})")
    one = x * 0 + 1
    p_prev = one
    if n == 0:
        return p_prev
    p_curr = (alpha + 1) + (alpha + beta + 2) * (x - 1) * Fraction(1, 2)
    for k in range(2, n + 1):
        ab = alpha + beta
        a = 2 * k * (k + ab) * (2 * k + ab - 2)
        b1 = (2 * k + ab - 1) * (2 * k + ab) * (2 * k + ab - 2)
        b0 = (2 * k + ab - 1) * (alpha * alpha - beta * beta)
        c2 = 2 * (k + alpha - 1) * (k + beta - 1) * (2 * k + ab)
        p_next = (b1 * (x * p_curr) + b0 * p_curr - c2 * p_prev) * (1 / Fraction(a))
        p_curr, p_prev = p_next, p_curr
    return p_curr


def apply_G(f: TrigPoly, params: WignerParams) -> TrigPoly:
    """First-order angular operator G (the angular momentum operator is i*G),

        G = d/dtheta + nu2 cot(theta)(1 - R2) - nu1 tan(theta)(1 - R1).

    In (A, B) coordinates: (1-R2)f = 2sB so the cot term adds 2*nu2*c*B to the
    even part; (1-R1)f = 2c*odd_shift(A) + 2sc*odd_shift(B) so the tan term
    lands back in the representation with no leftover singularity.
    """
    nu1, nu2 = params.nu1, params.nu2
    a, b = f.even, f.odd
    s2 = Poly1((1, 0, -1))
    d = f.derivative()
    even = d.even + 2 * nu2 * (Poly1.x() * b) - 2 * nu1 * (s2 * b.odd_shift())
    odd = d.odd - 2 * nu1 * a.odd_shift()
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
    s2 = Poly1((1, 0, -1))
    out = Fraction(-1, 2) * f.derivative().derivative()
    if nu2 != 0:
        t2 = TrigPoly(Poly1.x() * a.derivative(),
                      b + Poly1.x() * b.derivative())
        out = out + nu2 * t2
    if nu1 != 0:
        t1 = TrigPoly((a.odd_shift() - s2 * a.derivative()).div_c(),
                      b + (b.odd_shift() - s2 * b.derivative()).div_c())
        out = out + nu1 * t1
    return out


def restrict_to_circle(p: BivarPoly) -> TrigPoly:
    """Restrict a Cartesian polynomial to the unit circle (r = 1)."""
    even = Poly1()
    odd = Poly1()
    s2 = Poly1((1, 0, -1))
    for (i, j), coeff in p.coeffs.items():
        term = Poly1((coeff,)).shift_up(i)
        for _ in range(j // 2):
            term = term * s2
        if j % 2:
            odd = odd + term
        else:
            even = even + term
    return TrigPoly(even, odd)


def _validate_sector_ell(ell: Fraction, epsilon: int, allow_zero: bool) -> None:
    if epsilon == 1:
        if ell.denominator != 1 or ell < 0 or (ell == 0 and not allow_zero):
            raise ValueError(
                f"even sector requires a positive integer ell, got {ell}")
    elif epsilon == -1:
        if (2 * ell).denominator != 1 or (2 * ell) % 2 != 1 or ell < 0:
            raise ValueError(
                f"odd sector requires half-odd positive ell, got {ell}")
    else:
        raise ValueError(f"sector parity must be +1 or -1, got {epsilon}")


def lambda_radicand(ell, epsilon: int, params: WignerParams) -> Fraction:
    """Exact lam^2: 4*ell*(ell+nu1+nu2) in the even sector,
    4*(ell+nu1)*(ell+nu2) in the odd sector."""
    ell = Fraction(ell)
    _validate_sector_ell(ell, epsilon, allow_zero=True)
    if epsilon == 1:
        return 4 * ell * (ell + params.nu1 + params.nu2)
    return 4 * (ell + params.nu1) * (ell + params.nu2)


def lambda_value(ell, epsilon: int, branch: int, params: WignerParams) -> float:
    """Signed closed-form angular eigenvalue lam for the requested branch."""
    if branch not in (1, -1):
        raise ValueError(f"branch must be +1 or -1, got {branch}")
    rad = lambda_radicand(ell, epsilon, params)
    if rad < 0:
        raise ValueError(f"negative radicand {rad} for ell={ell}")
    return branch * math.sqrt(float(rad))


def _sqrt_exact(q: Fraction):
    """Exact rational square root, or None if q is not a perfect square."""
    if q < 0:
        return None
    rn = math.isqrt(q.numerator)
    rd = math.isqrt(q.denominator)
    if rn * rn == q.numerator and rd * rd == q.denominator:
        return Fraction(rn, rd)
    return None


def _expand_in_basis(g: TrigPoly, f1: TrigPoly, f2: TrigPoly):
    """Exact coefficients (m1, m2) with g = m1*f1 + m2*f2, or raise."""
    keys = set()
    for f in (g, f1, f2):
        keys |= {("e", k) for k in range(len(f.even.coeffs))}
        keys |= {("o", k) for k in range(len(f.odd.coeffs))}

    def coord(f, key):
        part, k = key
        return (f.even if part == "e" else f.odd)[k]

    rows = [(coord(f1, k), coord(f2, k), coord(g, k)) for k in sorted(keys)]
    pivot1 = next((r for r in rows if r[0] != 0), None)
    if pivot1 is None:
        raise ValueError("first basis function vanishes")
    a1, a2, b = pivot1
    # eliminate m1 and solve for m2 from any remaining independent row
    m2 = Fraction(0)
    for r in rows:
        ca = r[1] - r[0] * a2 / a1
        if ca != 0:
            m2 = (r[2] - r[0] * b / a1) / ca
            break
    m1 = (b - a2 * m2) / a1
    check = m1 * f1 + m2 * f2
    if not (check.even == g.even and check.odd == g.odd):
        raise ValueError("function does not lie in the candidate space")
    return m1, m2


def sector_basis(ell, eps1: int, eps2: int, params: WignerParams):
    """The two real candidate functions spanning the G-invariant space.

    Even sector (eps1*eps2 = +1): a purely even Jacobi polynomial in
    -cos 2*theta and a sin*cos-prefactored one of one lower degree.  Odd
    sector: cos- and sin-prefactored Jacobi polynomials of degree ell - 1/2.
    The first Jacobi parameter pair is (nu1 - 1/2, nu2 - 1/2), as dictated by
    the orthogonality weight |cos|^(2 nu1) |sin|^(2 nu2) d theta; prefactors
    shift each parameter up by one.
    """
    ell = Fraction(ell)
    nu1, nu2 = params.nu1, params.nu2
    arg = Poly1((1, 0, -2))  # -cos 2*theta = 1 - 2 c^2
    if eps1 * eps2 == 1:
        if ell < 1:
            raise ValueError("even-sector basis requires ell >= 1")
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


@dataclass(frozen=True)
class AngularEigenpair:
    """One eigenpair of the angular momentum operator in a parity sector.

    The eigenfunction is weights[0]*basis[0] + weights[1]*basis[1] with exact
    rational basis functions and complex mixing weights; it satisfies
    G(Theta) = -i*lam*Theta and R1R2(Theta) = epsilon*Theta.
    """

    eps1: int
    eps2: int
    ell: Fraction
    branch: int
    lam: float
    lam_exact: Fraction | None
    basis: tuple[TrigPoly, ...]
    weights: tuple[complex, ...]
    g_matrix: tuple[tuple[Fraction, ...], ...]
    params: WignerParams
    is_constant_mode: bool = False

    @property
    def epsilon(self) -> int:
        return self.eps1 * self.eps2

    def eigenfunction(self, theta: float) -> complex:
        return sum(w * f.evaluate(theta) for w, f in zip(self.weights, self.basis))

    def eigenfunction_coeffs(self):
        """Complex coefficient lists (even, odd) of the eigenfunction."""
        ne = max(len(f.even.coeffs) for f in self.basis)
        no = max(len(f.odd.coeffs) for f in self.basis)
        even = [sum(w * complex(float(f.even[k])) for w, f in
                    zip(self.weights, self.basis)) for k in range(ne)]
        odd = [sum(w * complex(float(f.odd[k])) for w, f in
                   zip(self.weights, self.basis)) for k in range(no)]
        return even, odd


def _float_eigvec(m, lam: float):
    """Float eigenvector of the 2x2 m for eigenvalue -i*lam, verified to
    1e-12 relative; first nonzero component normalized to 1."""
    (m11, m12), (m21, m22) = [[float(v) for v in row] for row in m]
    mu = complex(0.0, -lam)
    if m12 != 0:
        w1, w2 = complex(m12), mu - m11
    elif m21 != 0:
        w1, w2 = mu - m22, complex(m21)
    else:
        raise ValueError("degenerate 2x2 system")
    piv = w1 if w1 != 0 else w2
    w1, w2 = w1 / piv, w2 / piv
    r1 = m11 * w1 + m12 * w2 - mu * w1
    r2 = m21 * w1 + m22 * w2 - mu * w2
    scale = max(abs(lam), 1.0)
    if max(abs(r1), abs(r2)) > 1e-12 * scale:
        raise AssertionError("eigenvector verification failed")
    return w1, w2


def angular_eigenpair(ell, sector: tuple[int, int], branch: int,
                      params: WignerParams) -> AngularEigenpair:
    """Construct and verify the angular eigenpair for (ell, sector, branch).

    The exact 2x2 restriction of G to the candidate space has trace zero and
    determinant lam^2; both facts are asserted, and lam^2 is checked against
    the closed form exactly.  The mixing weights normalize the first nonzero
    component to 1, so the +/- branches are complex conjugates of each other.
    The ell = 0 constant mode (lam = 0) is returned with is_constant_mode set
    so enumerations can exclude it.
    """
    eps1, eps2 = sector
    if eps1 not in (1, -1) or eps2 not in (1, -1):
        raise ValueError(f"sector labels must be +/-1, got {sector}")
    if branch not in (1, -1):
        raise ValueError(f"branch must be +1 or -1, got {branch}")
    epsilon = eps1 * eps2
    ell = Fraction(ell)
    _validate_sector_ell(ell, epsilon, allow_zero=True)

    if epsilon == 1 and ell == 0:
        return AngularEigenpair(eps1, eps2, ell, branch, 0.0, Fraction(0),
                                (TrigPoly.one(),), (1 + 0j,),
                                ((Fraction(0),),), params,
                                is_constant_mode=True)

    f1, f2 = sector_basis(ell, eps1, eps2, params)
    for f in (f1, f2):
        r = f.reflect12()
        if not (r.even == epsilon * f.even and r.odd == epsilon * f.odd):
            raise ValueError("basis function has wrong R1R2 parity")

    m11, m21 = _expand_in_basis(apply_G(f1, params), f1, f2)
    m12, m22 = _expand_in_basis(apply_G(f2, params), f1, f2)
    trace = m11 + m22
    det = m11 * m22 - m12 * m21
    if trace != 0 or det <= 0:
        raise ValueError(
            f"degenerate restriction (trace={trace}, det={det}) "
            f"for ell={ell}, sector=({eps1},{eps2})")
    if det != lambda_radicand(ell, epsilon, params):
        raise ValueError("restriction determinant disagrees with closed form")

    m = ((m11, m12), (m21, m22))
    lam_exact_abs = _sqrt_exact(det)
    if lam_exact_abs is not None:
        lam_exact = branch * lam_exact_abs
        lam = float(lam_exact)
    else:
        lam_exact = None
        lam = branch * math.sqrt(float(det))
    return AngularEigenpair(eps1, eps2, ell, branch, lam, lam_exact,
                            (f1, f2), _float_eigvec(m, lam), m, params)
