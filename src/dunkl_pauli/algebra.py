"""Exact Cartesian building blocks: Wigner parameters, the exact polynomial
kernel, bivariate polynomials, reflections and Dunkl derivatives.

Everything in this module is computed exactly over the rationals, so operator
identities can be asserted with zero tolerance.  One kernel, _Poly, holds both
BivarPoly (sum c_ij * x1^i * x2^j, keyed by (i, j)) and angular.Poly1 (keyed
by the power k): a sparse map from exponents to integer numerators over one
common positive denominator, reduced so that the numerators and the
denominator are coprime (the content/primitive-part form of Geddes, Czapor &
Labahn, Algorithms for Computer Algebra, 1992).  Zero coefficients are never
stored, so equality of the stored integers is equality of the polynomials.
Arithmetic works on the integers and reduces once per result; coefficients
are handed out as fractions.Fraction.
"""

from __future__ import annotations

import math
from fractions import Fraction
from numbers import Rational


class _Record:
    """An immutable record whose fields are its ``__slots__``: it compares and
    hashes as their tuple, against its own class only, prints as
    ``Name(field=value, ...)`` and pickles by its fields.  ``__init__`` sets
    them, after its checks, by one ``_set`` call in slot order."""

    __slots__ = ()

    def _set(self, *values, _setattr=object.__setattr__) -> None:
        for name, value in zip(self.__slots__, values):
            _setattr(self, name, value)

    def _fields(self) -> tuple:
        return tuple([getattr(self, name) for name in self.__slots__])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self):
        return hash(self._fields())

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value=None):
        raise AttributeError(f"{type(self).__name__}.{name} is read-only")

    __delattr__ = __setattr__

    def __reduce__(self):
        return type(self), self._fields()


class WignerParams(_Record):
    """Deformation pair (nu1, nu2), each constrained to nu > -1/2.

    Values are stored as exact Fractions; floats are converted to their exact
    binary value, so pass Fraction("2/5") (not 0.4) when exact decimal
    rationals matter.
    """

    __slots__ = ("nu1", "nu2")

    def __init__(self, nu1, nu2):
        nu1, nu2 = Fraction(nu1), Fraction(nu2)
        if nu1 <= Fraction(-1, 2) or nu2 <= Fraction(-1, 2):
            raise ValueError(f"Wigner parameters must be > -1/2, got ({nu1}, {nu2})")
        self._set(nu1, nu2)

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


class _Poly:
    """The exact polynomial kernel (module doc): _n maps exponents to nonzero
    integer numerators over the positive denominator _d, coprime to them; the
    zero polynomial has denominator 1.  A subclass supplies only the exponent
    of its constant term, _ONE, and of a product of monomials, _add_exp.  An
    operand of another class, or for + - * a non-Rational, gives
    NotImplemented."""

    __slots__ = ("_n", "_d")

    def _set_fractions(self, fracs: dict) -> None:
        """Set the canonical form of {exponent: Fraction}."""
        den = math.lcm(*[c.denominator for c in fracs.values()])
        self._n, self._d = self._canonical(
            {m: c.numerator * (den // c.denominator) for m, c in fracs.items()},
            den)

    @staticmethod
    def _canonical(nums: dict, den: int):
        """Drop zero numerators and divide out their gcd with the denominator."""
        if not all(nums.values()):
            nums = {m: n for m, n in nums.items() if n}
        if not nums:
            return nums, 1
        g = math.gcd(den, *nums.values())
        if g != 1:
            nums = {m: n // g for m, n in nums.items()}
            den //= g
        return nums, den

    @classmethod
    def _raw(cls, nums: dict, den: int):
        """Wrap numerators already in canonical form."""
        p = object.__new__(cls)
        p._n, p._d = nums, den
        return p

    @classmethod
    def _make(cls, nums: dict, den: int):
        """Canonicalise integer numerators over a positive denominator."""
        p = object.__new__(cls)
        p._n, p._d = cls._canonical(nums, den)
        return p

    @property
    def coeffs(self) -> dict:
        d = self._d
        return {m: Fraction(n, d) for m, n in self._n.items()}

    def is_zero(self) -> bool:
        return not self._n

    def _combine(self, other, sign: int):
        """self + sign*other over the least common denominator; a Rational
        other is the constant term."""
        if other.__class__ is not self.__class__:
            if not isinstance(other, Rational):
                return NotImplemented
            other = self._make({self._ONE: other.numerator}, other.denominator)
        d1, d2 = self._d, other._d
        g = math.gcd(d1, d2)
        a, b = d2 // g, sign * (d1 // g)
        out = {m: n * a for m, n in self._n.items()} if a != 1 else dict(self._n)
        for m, n in other._n.items():
            out[m] = out.get(m, 0) + n * b
        return self._make(out, d1 * a)

    def __add__(self, other):
        return self._combine(other, 1)

    __radd__ = __add__

    def __sub__(self, other):
        return self._combine(other, -1)

    def __rsub__(self, other):
        return (-self)._combine(other, 1)

    def __neg__(self):
        return self._raw({m: -n for m, n in self._n.items()}, self._d)

    def __mul__(self, other):
        if other.__class__ is self.__class__:
            add, out = self._add_exp, {}
            get, items = out.get, other._n.items()
            for m1, n1 in self._n.items():
                for m2, n2 in items:
                    m = add(m1, m2)
                    out[m] = get(m, 0) + n1 * n2
            return self._make(out, self._d * other._d)
        if type(other) is int or type(other) is Fraction or isinstance(other, Rational):
            num = other.numerator
            return self._make({m: n * num for m, n in self._n.items()},
                              self._d * other.denominator)
        return NotImplemented

    __rmul__ = __mul__

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._d == other._d and self._n == other._n

    def __hash__(self):
        return hash((frozenset(self._n.items()), self._d))


class BivarPoly(_Poly):
    """Sparse exact polynomial in two variables with rational coefficients,
    keyed by exponent pairs (i, j) (the _Poly canonical form)."""

    __slots__ = ()
    _ONE = (0, 0)

    @staticmethod
    def _add_exp(m1: tuple[int, int], m2: tuple[int, int]) -> tuple[int, int]:
        return (m1[0] + m2[0], m1[1] + m2[1])

    def __init__(self, coeffs: dict | None = None):
        fracs: dict[tuple[int, int], Fraction] = {}
        for (i, j), c in (coeffs or {}).items():
            if i < 0 or j < 0:
                raise ValueError(f"negative exponent in monomial ({i}, {j})")
            fracs[(int(i), int(j))] = Fraction(c)
        self._set_fractions(fracs)

    @classmethod
    def zero(cls) -> "BivarPoly":
        return cls({})

    @classmethod
    def constant(cls, c) -> "BivarPoly":
        return cls({(0, 0): Fraction(c)})

    @classmethod
    def monomial(cls, i: int, j: int, c=1) -> "BivarPoly":
        return cls({(i, j): Fraction(c)})

    def __repr__(self) -> str:
        if not self._n:
            return "BivarPoly(0)"
        coeffs = self.coeffs
        terms = []
        for (i, j) in sorted(coeffs, key=lambda m: (m[0] + m[1], m)):
            body = "".join(f"*x{k}^{e}" for k, e in ((1, i), (2, j)) if e)
            terms.append(f"{coeffs[(i, j)]}{body}")
        return "BivarPoly(" + " + ".join(terms) + ")"


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
