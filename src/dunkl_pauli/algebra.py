"""Exact Cartesian building blocks: Wigner parameters, sparse rational
bivariate polynomials, reflections and Dunkl derivatives.

Everything in this module is computed exactly over the rationals, so operator
identities can be asserted with zero tolerance.  A polynomial represents
sum c_ij * x1^i * x2^j as a sparse map from exponent pairs (i, j) to integer
numerators over one common positive denominator, reduced so that the
numerators and the denominator are coprime (the content/primitive-part form of
Geddes, Czapor & Labahn, Algorithms for Computer Algebra, 1992).  Zero
coefficients are never stored, so equality of the stored integers is equality
of the polynomials.  Arithmetic works on the integers and reduces once per
result; coefficients are handed out as fractions.Fraction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from numbers import Rational


@dataclass(frozen=True)
class WignerParams:
    """Deformation pair (nu1, nu2), each constrained to nu > -1/2.

    Values are stored as exact Fractions; floats are converted to their exact
    binary value, so pass Fraction("2/5") (not 0.4) when exact decimal
    rationals matter.
    """

    nu1: Fraction
    nu2: Fraction

    def __post_init__(self):
        object.__setattr__(self, "nu1", Fraction(self.nu1))
        object.__setattr__(self, "nu2", Fraction(self.nu2))
        if self.nu1 <= Fraction(-1, 2) or self.nu2 <= Fraction(-1, 2):
            raise ValueError(
                f"Wigner parameters must be > -1/2, got ({self.nu1}, {self.nu2})"
            )

    def nu(self, axis: int) -> Fraction:
        _check_axis(axis)
        return self.nu1 if axis == 1 else self.nu2

    def as_floats(self) -> tuple[float, float]:
        """Each nu as one correctly rounded int/int division, = float(nu)."""
        return (self.nu1.numerator / self.nu1.denominator,
                self.nu2.numerator / self.nu2.denominator)


def _check_axis(axis: int) -> None:
    if axis not in (1, 2):
        raise ValueError(f"axis must be 1 or 2, got {axis}")


class BivarPoly:
    """Sparse exact polynomial in two variables with rational coefficients.

    Stored as integer numerators over one common positive denominator, in
    canonical form: no zero numerator is stored, the numerators and the
    denominator are coprime, and the zero polynomial has denominator 1.
    """

    __slots__ = ("_n", "_d")

    def __init__(self, coeffs: dict | None = None):
        fracs: dict[tuple[int, int], Fraction] = {}
        for (i, j), c in (coeffs or {}).items():
            if i < 0 or j < 0:
                raise ValueError(f"negative exponent in monomial ({i}, {j})")
            fracs[(int(i), int(j))] = Fraction(c)
        den = math.lcm(*[c.denominator for c in fracs.values()])
        self._n, self._d = _canonical(
            {m: c.numerator * (den // c.denominator) for m, c in fracs.items()},
            den)

    @classmethod
    def _raw(cls, nums: dict[tuple[int, int], int], den: int) -> "BivarPoly":
        """Wrap numerators already in canonical form."""
        p = object.__new__(cls)
        p._n, p._d = nums, den
        return p

    @classmethod
    def _make(cls, nums: dict[tuple[int, int], int], den: int) -> "BivarPoly":
        """Canonicalise integer numerators over a positive denominator."""
        return cls._raw(*_canonical(nums, den))

    @classmethod
    def zero(cls) -> "BivarPoly":
        return cls({})

    @classmethod
    def constant(cls, c) -> "BivarPoly":
        return cls({(0, 0): Fraction(c)})

    @classmethod
    def monomial(cls, i: int, j: int, c=1) -> "BivarPoly":
        return cls({(i, j): Fraction(c)})

    @property
    def coeffs(self) -> dict[tuple[int, int], Fraction]:
        d = self._d
        return {m: Fraction(n, d) for m, n in self._n.items()}

    def is_zero(self) -> bool:
        return not self._n

    def total_degree(self) -> int:
        """Total degree; 0 for the zero polynomial."""
        return max((i + j for i, j in self._n), default=0)

    def evaluate(self, x1, x2):
        return sum((c * x1**i * x2**j for (i, j), c in self.coeffs.items()),
                   start=Fraction(0) * x1)

    def _combine(self, other: "BivarPoly", sign: int) -> "BivarPoly":
        """self + sign*other over the least common denominator."""
        d1, d2 = self._d, other._d
        g = math.gcd(d1, d2)
        a, b = d2 // g, sign * (d1 // g)
        out = {m: n * a for m, n in self._n.items()} if a != 1 else dict(self._n)
        for m, n in other._n.items():
            out[m] = out.get(m, 0) + n * b
        return BivarPoly._make(out, d1 * a)

    def __add__(self, other: "BivarPoly") -> "BivarPoly":
        return self._combine(other, 1)

    def __sub__(self, other: "BivarPoly") -> "BivarPoly":
        return self._combine(other, -1)

    def __neg__(self) -> "BivarPoly":
        return BivarPoly._raw({m: -n for m, n in self._n.items()}, self._d)

    def __mul__(self, other):
        if isinstance(other, BivarPoly):
            out: dict[tuple[int, int], int] = {}
            for (i1, j1), n1 in self._n.items():
                for (i2, j2), n2 in other._n.items():
                    mono = (i1 + i2, j1 + j2)
                    out[mono] = out.get(mono, 0) + n1 * n2
            return BivarPoly._make(out, self._d * other._d)
        if type(other) is int or type(other) is Fraction or isinstance(other, Rational):
            num, den = other.numerator, other.denominator
            return BivarPoly._make({m: n * num for m, n in self._n.items()},
                                   self._d * den)
        return NotImplemented

    __rmul__ = __mul__

    def __eq__(self, other) -> bool:
        if not isinstance(other, BivarPoly):
            return NotImplemented
        return self._d == other._d and self._n == other._n

    def __hash__(self):
        return hash((frozenset(self._n.items()), self._d))

    def __repr__(self) -> str:
        if not self._n:
            return "BivarPoly(0)"
        coeffs = self.coeffs
        terms = []
        for (i, j) in sorted(coeffs, key=lambda m: (m[0] + m[1], m)):
            body = "".join(f"*x{k}^{e}" for k, e in ((1, i), (2, j)) if e)
            terms.append(f"{coeffs[(i, j)]}{body}")
        return "BivarPoly(" + " + ".join(terms) + ")"


def _canonical(nums: dict[tuple[int, int], int], den: int):
    """Drop zero numerators and divide out their gcd with the denominator."""
    nums = {m: n for m, n in nums.items() if n}
    if not nums:
        return nums, 1
    g = math.gcd(den, *nums.values())
    if g != 1:
        nums = {m: n // g for m, n in nums.items()}
        den //= g
    return nums, den


X1 = BivarPoly.monomial(1, 0)
X2 = BivarPoly.monomial(0, 1)
ONE = BivarPoly.constant(1)


def reflect(p: BivarPoly, axis: int) -> BivarPoly:
    """Reflection R_axis: negate the given coordinate (sign flip on odd powers)."""
    _check_axis(axis)
    k = 0 if axis == 1 else 1
    return BivarPoly._raw({m: (-n if m[k] % 2 else n) for m, n in p._n.items()},
                          p._d)


def _lower(p: BivarPoly, axis: int, factor) -> dict[tuple[int, int], int]:
    """sum_m factor(e) * c_m * x^m / x_axis over the monomials with e > 0,
    where e is the exponent of x_axis and factor(e) is an integer."""
    out: dict[tuple[int, int], int] = {}
    for (i, j), n in p._n.items():
        e = i if axis == 1 else j
        if e:
            out[(i - 1, j) if axis == 1 else (i, j - 1)] = n * factor(e)
    return out


def partial_derive(p: BivarPoly, axis: int) -> BivarPoly:
    """Plain partial derivative with respect to x_axis."""
    _check_axis(axis)
    return BivarPoly._make(_lower(p, axis, lambda e: e), p._d)


def dunkl_derive(p: BivarPoly, axis: int, params: WignerParams) -> BivarPoly:
    """Dunkl derivative D_j = d/dx_j + (nu_j/x_j)(1 - R_j).

    On a monomial x_j^e the reflection-difference term contributes
    2*nu_j*x_j^(e-1) for odd e and nothing for even e, so the division by x_j
    is an exact exponent decrement and the result is always a polynomial.
    With nu_j = a/b the factor e + 2*nu_j (odd e) or e is taken times b, and
    the result's denominator gains the factor b.
    """
    _check_axis(axis)
    nu = params.nu(axis)
    a, b = nu.numerator, nu.denominator
    return BivarPoly._make(
        _lower(p, axis, lambda e: e * b + 2 * a if e % 2 else e * b), p._d * b)


def commutator_xD(p: BivarPoly, i: int, j: int, params: WignerParams) -> BivarPoly:
    """Coordinate/Dunkl-derivative commutator applied to p, taken in the
    operator order D_j(x_i p) - x_i(D_j p) that satisfies the deformed
    Heisenberg relation: the result equals delta_ij*(p + 2*nu_j*R_j p).
    """
    _check_axis(i)
    _check_axis(j)
    xi = X1 if i == 1 else X2
    return dunkl_derive(xi * p, j, params) - xi * dunkl_derive(p, j, params)


def dunkl_laplacian(p: BivarPoly, params: WignerParams) -> BivarPoly:
    """Dunkl Laplacian as the composition D1(D1 p) + D2(D2 p)."""
    return (dunkl_derive(dunkl_derive(p, 1, params), 1, params)
            + dunkl_derive(dunkl_derive(p, 2, params), 2, params))


def dunkl_laplacian_expanded(p: BivarPoly, params: WignerParams) -> BivarPoly:
    """Dunkl Laplacian from its expanded display,

        d^2/dx1^2 + d^2/dx2^2 + (2 nu1/x1) d/dx1 + (2 nu2/x2) d/dx2
        - (nu1/x1^2)(1 - R1) - (nu2/x2^2)(1 - R2).

    The 1/x_j pieces are singular individually but their sum acts on a
    monomial x_j^e as 2*nu_j*(e - (e odd)) * x_j^(e-2), which never produces a
    negative exponent; the combined rule is applied per monomial.
    """
    (a1, b1), (a2, b2) = [(nu.numerator, nu.denominator)
                          for nu in (params.nu1, params.nu2)]
    den = math.lcm(b1, b2)
    scaled = ((1, 2 * a1 * (den // b1)), (2, 2 * a2 * (den // b2)))
    out: dict[tuple[int, int], int] = {}
    for (i, j), n in p._n.items():
        for (axis, two_nu), e in zip(scaled, (i, j)):
            factor = e * (e - 1) * den + two_nu * (e - (e % 2))
            if factor == 0:
                continue
            if e < 2:
                raise ArithmeticError(
                    f"nonzero singular remainder on monomial ({i},{j})")
            mono = (i - 2, j) if axis == 1 else (i, j - 2)
            out[mono] = out.get(mono, 0) + n * factor
    return BivarPoly._make(out, p._d * den)


def angular_momentum_action(p: BivarPoly, params: WignerParams,
                            as_printed: bool = False) -> BivarPoly:
    """Cartesian angular combination (x1 D2 - x2 D1) applied to p.

    With as_printed=True evaluates the variant (x1 D2 - x2 D2) instead, whose
    second index is a known misprint in the published Hamiltonian; the verify
    report uses the mismatch against the polar operator as machine evidence.
    """
    d2 = dunkl_derive(p, 2, params)
    second = d2 if as_printed else dunkl_derive(p, 1, params)
    return X1 * d2 - X2 * second
