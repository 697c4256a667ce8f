"""Closed-form level structure of the deformed Landau problem.

Energies split over four parity sectors labeled (eps1, eps2).  Every sector
energy has the compact form

    E = omega_c*(n + 1/2) + omega_c*rho - omega_c*m_s*eta,

where rho carries the orbital/deformation shift (through the signed angular
eigenvalue lam) and eta the sector-dependent Zeeman weight.  The literal
per-sector transcriptions are kept alongside as `energy_sector_form` so the
equivalence can be tested rather than assumed; the bridge between the two is
the exact radical identity sqrt((nu1 +/- nu2)^2 + lam^2) = 2*ell + nu1 + nu2
(positive branch).
"""

from __future__ import annotations

import math
from fractions import Fraction

from .algebra import WignerParams, _Record
from .angular import _validate_sector_ell, lambda_radicand, lambda_value


class OscillatorScale(_Record):
    """The cyclotron frequency omega_c, the energy unit of `energy`.

    hbar = 1 and g_s = 2 throughout: the closed-form spectra hold only at
    g_s = 2, where the Zeeman coupling B*mu_B*g_s equals omega_c.
    """

    __slots__ = ("omega_c",)

    def __init__(self, omega_c: float = 1.0):
        if omega_c <= 0:
            raise ValueError("omega_c must be positive")
        object.__setattr__(self, "omega_c", omega_c)


class SectorState(_Record):
    """Quantum numbers of one level: parity sector, radial n, angular ell,
    spin projection label m_s, and the sign branch of lam; not bools."""

    __slots__ = ("eps1", "eps2", "n", "ell", "m_s", "branch")

    def __init__(self, eps1: int, eps2: int, n: int, ell: Fraction, m_s: int,
                 branch: int = 1):
        kinds = type(eps1), type(eps2), type(n), type(m_s), type(branch)
        if bool in kinds:
            name = ("eps1", "eps2", "n", "m_s", "branch")[kinds.index(bool)]
            raise ValueError(f"{name} must be an integer, not a bool")
        if eps1 not in (1, -1) or eps2 not in (1, -1):
            raise ValueError(f"sector labels must be +/-1, got ({eps1}, {eps2})")
        if m_s not in (1, -1):
            raise ValueError(f"m_s must be +1 or -1, got {m_s}")
        if branch not in (1, -1):
            raise ValueError(f"branch must be +1 or -1, got {branch}")
        if not isinstance(n, int) or n < 0:
            raise ValueError(f"n must be a nonnegative integer, got {n}")
        ell = ell if isinstance(ell, Fraction) else Fraction(ell)
        _validate_sector_ell(ell, eps1 * eps2)
        object.__setattr__(self, "eps1", eps1)
        object.__setattr__(self, "eps2", eps2)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "ell", ell)
        object.__setattr__(self, "m_s", m_s)
        object.__setattr__(self, "branch", branch)

    @property
    def epsilon(self) -> int:
        return self.eps1 * self.eps2


# the four parity sectors (eps1, eps2), in the order every table lists them
SECTORS = ((1, 1), (-1, -1), (1, -1), (-1, 1))


def lowest_ells(epsilon: int, count: int) -> list[Fraction]:
    """The ``count`` smallest published ells of a sector of parity epsilon:
    1, 2, 3, ... (even) or 1/2, 3/2, 5/2, ... (odd).  The ell = 0 constant
    mode is left out."""
    first = Fraction(1) if epsilon == 1 else Fraction(1, 2)
    return [first + k for k in range(count)]


def _kappa(lam: float, epsilon: int, params: WignerParams) -> float:
    """sqrt(D^2 + lam^2) with D = nu1 + nu2 in the even sector and nu1 - nu2
    in the odd one.

    D is one correctly rounded int/int division, equal to float(nu1 +/- nu2),
    so deformations with nu1 = -nu2 reproduce the undeformed value exactly.
    """
    (a, b), (c, e) = params.nu1.as_integer_ratio(), params.nu2.as_integer_ratio()
    d = (a * e + c * b if epsilon == 1 else a * e - c * b) / (b * e)
    return math.sqrt(d * d + lam * lam)


def rho(ell, epsilon: int, branch: int, params: WignerParams) -> float:
    """Orbital/deformation shift rho_ell^eps = (lam + sqrt(D^2 + lam^2))/2
    (see _kappa for D)."""
    lam = lambda_value(ell, epsilon, branch, params)
    return 0.5 * (lam + _kappa(lam, epsilon, params))


def eta(eps1: int, eps2: int, params: WignerParams) -> float:
    """Sector Zeeman weight (1 + eps1*nu1 + eps2*nu2)/2 as one correctly rounded
    int/int division, = float(Fraction): 1/2 on the nose when eps1*nu1 = -eps2*nu2."""
    if eps1 not in (1, -1) or eps2 not in (1, -1):
        raise ValueError(f"sector labels must be +/-1, got ({eps1}, {eps2})")
    (a, b), (c, d) = params.nu1.as_integer_ratio(), params.nu2.as_integer_ratio()
    return (b * d + eps1 * a * d + eps2 * c * b) / (2 * b * d)


def energy_over_omega_c(state: SectorState, params: WignerParams) -> float:
    """Dimensionless level energy E/omega_c in the compact (rho, eta) form."""
    return (state.n + 0.5
            + rho(state.ell, state.epsilon, state.branch, params)
            - state.m_s * eta(state.eps1, state.eps2, params))


def energy(state: SectorState, scale: OscillatorScale, params: WignerParams) -> float:
    """Level energy in physical units (hbar = 1)."""
    return scale.omega_c * energy_over_omega_c(state, params)


def energy_sector_form(state: SectorState, params: WignerParams) -> float:
    """E/omega_c from the literal per-sector closed forms.

    Kept as an independent transcription (not routed through rho/eta) so the
    compact form can be cross-checked against it.
    """
    nu1, nu2 = params.as_floats()
    lam = lambda_value(state.ell, state.epsilon, state.branch, params)
    ell = float(state.ell)
    ms = state.m_s
    common = state.n + (1.0 + lam + nu1 + nu2 + 2.0 * ell) / 2.0
    key = (state.eps1, state.eps2)
    if key == (1, 1):
        return common - ms * (1.0 + nu1 + nu2) / 2.0
    if key == (-1, -1):
        return common - ms * (1.0 - nu1 - nu2) / 2.0
    if key == (1, -1):
        return common - ms * (1.0 + nu1 - nu2) / 2.0
    return common - ms * (1.0 + nu2 - nu1) / 2.0


def radical_identity_check(ell, epsilon: int, params: WignerParams):
    """Both sides of D^2 + lam^2 = (2*ell + nu1 + nu2)^2 as exact rationals
    (D as in _kappa, lam^2 the exact lambda_radicand).

    The identity is what collapses the per-sector energies into the compact
    (rho, eta) form; callers assert the two returned values are equal.
    """
    nu1, nu2 = params.nu1, params.nu2
    d = nu1 + nu2 if epsilon == 1 else nu1 - nu2
    return (d * d + lambda_radicand(ell, epsilon, params),
            (2 * Fraction(ell) + nu1 + nu2) ** 2)


def hyp1f1(a: float, b: float, x: float) -> float:
    """Kummer's M(-n, b, x) = sum_k (-n)_k / (b)_k x^k / k!, a degree-n
    polynomial.  Only this terminating case is evaluated: ValueError unless
    a = -n is a nonpositive integer and b > 0.

    M_k = M(-k, b, x) follows the contiguous recurrence (DLMF 13.3.1)
    (b + k) M_{k+1} = (2k + b - x) M_k - k M_{k-1}, M_0 = 1, M_1 = 1 - x/b,
    run on the differences d_k = M_k - M_{k-1}, so M(-n, b, 0) is exactly 1.
    Unlike the power series it does not cancel where M oscillates
    (0 < x < 4n + 2b).
    """
    if not (a <= 0 and float(a).is_integer() and b > 0):
        raise ValueError(
            f"M(a, b, x) needs a nonpositive integer a and b > 0, got a={a}, b={b}")
    m, d = 1.0, 0.0
    for k in range(int(-a)):
        d = (k * d - x * m) / (b + k)
        m += d
    return m
