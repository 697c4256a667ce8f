"""Independent finite-difference eigenvalue solver for the radial problem.

The radial equation carries a first-derivative term (1+2nu1+2nu2)/r d/dr from
the deformed measure.  Substituting F(r) = r^(-(1+2nu1+2nu2)/2) u(r) removes
it exactly (Liouville transformation), leaving the plain Schroedinger form

    u'' + [2E - V(r)] u = 0,
    V(r) = r^2/4 + K/r^2 + lam,
    K    = centrifugal + (p^2 - 2p)/4,   p = 1 + 2nu1 + 2nu2,

in units m = omega_c = 1 (hbar = 1; g_s = 2, so B mu_B g_s = omega_c): E is
E/omega_c and r is in units 1/sqrt(m omega_c).  The centrifugal term is lam^2
in the even parity and lam^2 - 4 nu1 nu2 in the odd one.  Near r = 0 the
solutions go like r^(1/2 +/- kappa), kappa = sqrt(K + 1/4).  For kappa < 1
both are square integrable, so a Dirichlet wall near the origin would pick the
regular one only up to O(r_min^(2 kappa)).  There is no wall at the origin
here.  The grid is uniform in t = ln r, and u = e^(t/2) w turns the equation
into

    -w'' + kappa^2 w + r^2 (V - K/r^2) w = 2E r^2 w.

The node below the first is a Frobenius ghost, w_0 = w_1 exp(-kappa h), which
imposes the regular power r^(1/2 + kappa); kappa is taken from K, not from the
closed forms.  Scaling by B^(-1/2), B = diag(r^2), gives a symmetric
tridiagonal matrix whose lowest eigenvalues are 2E for n = 0, 1, 2, ... with
an O(h^2) error, which Richardson extrapolation between the steps h and h/2
removes.  Nothing here reuses the closed-form energy algebra, so agreement
with it is a genuine cross-check.

The operator is that of one parity eps: J commutes with R1R2 but not with
R1 or R2.  A sector and spin add the Zeeman term -m_s (1 + nu1 eps1 + nu2
eps2) to V, a constant that shifts each level by half of it: validate_sectors
solves once per (eps, ell) and adds the shift per (sector, spin) row, so the
oracle checks the closed-form rho; eta enters both sides as one constant.

The fine solve bisects (vl, vu] built from what the oracle already has.  vl
is the potential's floor lam less a margin of 1: the matrix less
diag(v_rest) is D^-1 (L/h^2 + kappa^2) D^-1, D = diag(r), and L (L_00 = 2 -
exp(-kappa h) >= 1) is positive definite; the margin dwarfs the eps*||A|| ~
2e-4 that rounding of the entries can move a level.  vu is the coarse top
level plus half its spacing.  Without it LAPACK first searches the
Gershgorin interval, about +/-1e12 wide on this matrix graded as 1/r^2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from numbers import Integral

import numpy as np
from scipy.linalg import eigh_tridiagonal

from .algebra import WignerParams
from .angular import lambda_value
from .spectrum import OscillatorScale, SectorState, energy_over_omega_c


@dataclass(frozen=True)
class RadialProblem:
    """The radial operator of parity epsilon, without the Zeeman term."""

    lam: float
    epsilon: int
    params: WignerParams

    @property
    def centrifugal_coefficient(self) -> float:
        """Coefficient of 1/r^2 before the measure transformation:
        lam^2, minus 4*nu1*nu2 in the odd parity where (1 - R1R2) acts as 2."""
        nu1, nu2 = self.params.as_floats()
        c = self.lam * self.lam
        if self.epsilon == -1:
            c -= 4.0 * nu1 * nu2
        return c


# The grid: GRID_POINTS nodes uniform in t = ln r, strictly between R_MIN and
# R_MAX natural lengths sqrt(2).  Below R_MIN the regular solution is a
# pure power to ~R_MIN^2; beyond R_MAX it is below exp(-50).
GRID_POINTS = 1200
R_MIN = math.exp(-9.0)
R_MAX = 10.0


def build_tridiagonal(problem: RadialProblem, n: int):
    """Symmetric tridiagonal discretization of -u'' + V u on n log-grid
    nodes between R_MIN and R_MAX, returned as (diagonal, off-diagonal)
    arrays; eigenvalues approximate 2E with an O(h^2) error."""
    nu1, nu2 = problem.params.as_floats()
    p = 1.0 + 2.0 * nu1 + 2.0 * nu2
    k_coeff = problem.centrifugal_coefficient + (p * p - 2.0 * p) / 4.0
    kappa = math.sqrt(k_coeff + 0.25)
    natural = math.sqrt(2.0)
    t_lo, t_hi = math.log(R_MIN * natural), math.log(R_MAX * natural)
    h = (t_hi - t_lo) / (n + 1)
    r = np.exp(t_lo + h * np.arange(1, n + 1))
    v_rest = 0.25 * r ** 2 + problem.lam
    a = np.full(n, 2.0 / h ** 2 + kappa ** 2)
    a[0] -= math.exp(-kappa * h) / h ** 2  # ghost node w_0 = w_1 exp(-kappa h)
    return a / r ** 2 + v_rest, -1.0 / (h ** 2 * r[:-1] * r[1:])


def lowest_eigenvalues(matrix, k: int, bracket=None):
    """k smallest eigenvalues of the symmetric tridiagonal (diag, off) pair,
    ascending, via LAPACK bisection on Sturm sequences to absolute 1e-13.
    The default tolerance, eps*||A||, is about 1e-4 on the log-grid matrix,
    whose norm is set by the nodes nearest the origin: larger than the
    discretization error that oracle_energies extrapolates away.  A bracket
    (vl, vu] with vl below the spectrum is bisected for its first k levels;
    if it holds fewer, or k = 1, the full range is searched instead."""
    if k > 10:
        raise ValueError(f"at most 10 eigenvalues supported, got k={k}")
    diag, off = (np.asarray(a, dtype=float) for a in matrix)
    bisect = dict(eigvals_only=True, lapack_driver="stebz", tol=1e-13)
    if bracket is not None and k > 1:
        vals = eigh_tridiagonal(diag, off, select="v", select_range=bracket,
                                **bisect)
        if len(vals) >= k:
            return vals[:k]
    return eigh_tridiagonal(diag, off, select="i", select_range=(0, k - 1),
                            **bisect)


def oracle_energies(problem: RadialProblem, n_max: int):
    """Oracle E/omega_c for n = 0..n_max: Richardson extrapolation of the
    solves at GRID_POINTS and 2*GRID_POINTS + 1 nodes (step h and h/2); the
    coarse levels bracket the fine ones (module doc); 0 <= n_max <= 9."""
    if not (isinstance(n_max, Integral) and 0 <= n_max <= 9):
        raise ValueError(f"n_max must be an integer from 0 to 9, got {n_max!r}")
    coarse = lowest_eigenvalues(build_tridiagonal(problem, GRID_POINTS), n_max + 1)
    bracket = None if n_max == 0 else (
        problem.lam - 1.0, coarse[-1] + (coarse[-1] - coarse[-2]) / 2.0)
    fine = lowest_eigenvalues(build_tridiagonal(problem, 2 * GRID_POINTS + 1),
                              n_max + 1, bracket)
    return (4.0 * fine - coarse) / 3.0 / 2.0  # extrapolated 2E, halved


@dataclass(frozen=True)
class ComparisonRow:
    eps1: int
    eps2: int
    ell: Fraction
    n: int
    m_s: int
    oracle: float
    closed_form: float

    @property
    def deviation(self) -> float:
        return abs(self.oracle - self.closed_form)


@dataclass
class SectorReport:
    """Oracle-vs-closed-form comparison for one sector and parameter set."""

    eps1: int
    eps2: int
    params: WignerParams
    tolerance: float
    rows: list = field(default_factory=list)

    @property
    def worst(self) -> float:
        return max((r.deviation for r in self.rows), default=0.0)

    @property
    def passed(self) -> bool:
        return self.worst <= self.tolerance


# E/omega_c tolerance: about twice the oracle's worst miss over nu in (-1/2, 2]
ORACLE_TOLERANCE = 1e-7


def validate_sectors(sectors, params: WignerParams, ell_list, n_max: int,
                     tolerance: float = ORACLE_TOLERANCE) -> list[SectorReport]:
    """One report per sector: oracle eigenvalues (oracle_energies) against
    the closed forms for every ell in ell_list, n <= n_max and both spins,
    from one solve per (eps, ell), shifted per row (module doc), on the
    positive lam branch.  A mismatch above tolerance is reported, not raised."""
    reports = [SectorReport(eps1, eps2, params, tolerance)
               for eps1, eps2 in sectors]
    nu1, nu2 = params.as_floats()
    for ell in map(Fraction, ell_list):
        levels = {epsilon: oracle_energies(RadialProblem(
            lambda_value(ell, epsilon, 1, params), epsilon, params), n_max)
            for epsilon in dict.fromkeys(r.eps1 * r.eps2 for r in reports)}
        for report in reports:
            eps1, eps2 = report.eps1, report.eps2
            for m_s in (1, -1):
                oracle = (levels[eps1 * eps2]
                          - m_s * (1.0 + nu1 * eps1 + nu2 * eps2) / 2.0)
                for n in range(n_max + 1):
                    closed = energy_over_omega_c(
                        SectorState(eps1, eps2, n, ell, m_s), params)
                    report.rows.append(ComparisonRow(
                        eps1, eps2, ell, n, m_s, float(oracle[n]), closed))
    return reports


def validate_sector(sector: tuple[int, int], params: WignerParams,
                    scale: OscillatorScale, ell_list, n_max: int,
                    config: None = None,
                    tolerance: float = ORACLE_TOLERANCE) -> SectorReport:
    """validate_sectors for one sector.  The rows are E/omega_c, which does
    not depend on scale; that slot and config, the retired grid setting, are
    kept so positional callers still work."""
    if config is not None:
        raise TypeError("validate_sector takes no grid config; pass None")
    [report] = validate_sectors([sector], params, ell_list, n_max, tolerance)
    return report
