"""Independent finite-difference eigenvalue solver for the radial problem.

The radial equation carries a first-derivative term (1+2nu1+2nu2)/r d/dr from
the deformed measure.  Substituting F(r) = r^(-(1+2nu1+2nu2)/2) u(r) removes
it exactly (Liouville transformation), leaving the plain Schroedinger form

    u'' + [2mE - V(r)] u = 0,
    V(r) = (m w)^2 r^2/4 + K/r^2 + m w lam - m B mu_B g_s m_s (1 + nu1 eps1 + nu2 eps2),
    K    = centrifugal + (p^2 - 2p)/4,   p = 1 + 2nu1 + 2nu2,

with centrifugal = lam^2 in the even sector and lam^2 - 4 nu1 nu2 in the odd
one.  Central differences on a uniform grid with Dirichlet walls at
r_max/n_points and r_max then give a symmetric tridiagonal matrix whose
lowest eigenvalues are 2mE for n = 0, 1, 2, ...  Nothing here reuses the
closed-form energy algebra, so agreement with it is a genuine cross-check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np
from scipy.linalg import eigh_tridiagonal

from .algebra import WignerParams
from .angular import lambda_value
from .spectrum import OscillatorScale, SectorState, energy_over_omega_c


@dataclass(frozen=True)
class RadialProblem:
    """One radial eigenproblem: sector, angular eigenvalue, spin, scales."""

    lam: float
    ell: Fraction
    eps1: int
    eps2: int
    m_s: int
    params: WignerParams
    scale: OscillatorScale

    @classmethod
    def from_state(cls, state: SectorState, params: WignerParams,
                   scale: OscillatorScale) -> "RadialProblem":
        lam = lambda_value(state.ell, state.epsilon, state.branch, params)
        return cls(lam, state.ell, state.eps1, state.eps2, state.m_s,
                   params, scale)

    @property
    def centrifugal_coefficient(self) -> float:
        """Coefficient of 1/r^2 before the measure transformation:
        lam^2, minus 4*nu1*nu2 in the odd sector where (1 - R1R2) acts as 2."""
        nu1, nu2 = self.params.as_floats()
        c = self.lam * self.lam
        if self.eps1 * self.eps2 == -1:
            c -= 4.0 * nu1 * nu2
        return c


@dataclass(frozen=True)
class DiscretizationConfig:
    """Uniform grid with Dirichlet walls; lengths in units of (m w/2)^(-1/2)."""

    n_points: int = 8000
    r_max: float = 10.0

    def __post_init__(self):
        if self.n_points < 500:
            raise ValueError(f"n_points must be >= 500, got {self.n_points}")
        if self.r_max < 8.0:
            raise ValueError(f"r_max must be >= 8 natural lengths, got {self.r_max}")


def _grid(problem: RadialProblem, config: DiscretizationConfig):
    natural = math.sqrt(2.0 / (problem.scale.mass * problem.scale.omega_c))
    r_hi = config.r_max * natural
    r_lo = r_hi / config.n_points
    h = (r_hi - r_lo) / (config.n_points + 1)
    nodes = r_lo + h * np.arange(1, config.n_points + 1)
    return nodes, h


def build_tridiagonal(problem: RadialProblem, config: DiscretizationConfig):
    """Symmetric tridiagonal discretization of -u'' + V u, returned as
    (diagonal, off-diagonal) arrays; eigenvalues approximate 2mE."""
    if config.n_points / config.r_max < 50:
        raise ValueError("config too coarse: fewer than 50 points per natural length")
    nu1, nu2 = problem.params.as_floats()
    m, w = problem.scale.mass, problem.scale.omega_c
    p = 1.0 + 2.0 * nu1 + 2.0 * nu2
    k_coeff = problem.centrifugal_coefficient + (p * p - 2.0 * p) / 4.0
    zeeman = (problem.scale.zeeman_prefactor * problem.m_s
              * (1.0 + nu1 * problem.eps1 + nu2 * problem.eps2))
    nodes, h = _grid(problem, config)
    v = (0.25 * (m * w) ** 2 * nodes ** 2 + k_coeff / nodes ** 2
         + m * w * problem.lam - zeeman)
    diag = 2.0 / h ** 2 + v
    off = np.full(config.n_points - 1, -1.0 / h ** 2)
    return diag, off


def lowest_eigenvalues(matrix, k: int):
    """k smallest eigenvalues of the symmetric tridiagonal (diag, off) pair,
    ascending, via LAPACK bisection on Sturm sequences."""
    if k > 10:
        raise ValueError(f"at most 10 eigenvalues supported, got k={k}")
    diag, off = matrix
    diag = np.asarray(diag, dtype=float)
    off = np.asarray(off, dtype=float)
    if len(diag) == 1:
        return np.array([diag[0]])[:k]
    vals = eigh_tridiagonal(diag, off, eigvals_only=True,
                            select="i", select_range=(0, k - 1))
    return vals


def oracle_energies(problem: RadialProblem, config: DiscretizationConfig,
                    n_max: int):
    """Oracle E/omega_c for n = 0..n_max."""
    diag, off = build_tridiagonal(problem, config)
    mu = lowest_eigenvalues((diag, off), n_max + 1)
    return mu / (2.0 * problem.scale.mass * problem.scale.omega_c)


@dataclass(frozen=True)
class ComparisonRow:
    eps1: int
    eps2: int
    ell: Fraction
    n: int
    m_s: int
    oracle: float
    closed_form: float | None

    @property
    def deviation(self) -> float | None:
        if self.closed_form is None:
            return None
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
        devs = [r.deviation for r in self.rows if r.deviation is not None]
        return max(devs) if devs else 0.0

    @property
    def passed(self) -> bool:
        return self.worst <= self.tolerance

    def to_csv(self) -> str:
        lines = ["eps1,eps2,nu1,nu2,ell,n,m_s,oracle_over_omega_c,"
                 "closed_over_omega_c,abs_deviation"]
        nu1, nu2 = self.params.as_floats()
        for r in self.rows:
            closed = "" if r.closed_form is None else f"{r.closed_form:.17g}"
            dev = "" if r.deviation is None else f"{r.deviation:.17g}"
            lines.append(f"{r.eps1},{r.eps2},{nu1:.17g},{nu2:.17g},"
                         f"{float(r.ell):.17g},{r.n},{r.m_s},"
                         f"{r.oracle:.17g},{closed},{dev}")
        return "\n".join(lines) + "\n"


def validate_sector(sector: tuple[int, int], params: WignerParams,
                    scale: OscillatorScale, ell_list, n_max: int,
                    config: DiscretizationConfig | None = None,
                    tolerance: float = 1e-5) -> SectorReport:
    """Compare oracle eigenvalues with the closed forms over a state grid.

    Uses the positive lam branch.  A mismatch above tolerance is reported in
    the returned object, never raised.  With g_s != 2 the closed forms do not
    apply and only oracle values are tabulated.
    """
    eps1, eps2 = sector
    config = config or DiscretizationConfig()
    compare = scale.g_s == 2.0
    report = SectorReport(eps1, eps2, params, tolerance)
    for ell in ell_list:
        ell = Fraction(ell)
        for m_s in (1, -1):
            state0 = SectorState(eps1, eps2, 0, ell, m_s)
            problem = RadialProblem.from_state(state0, params, scale)
            oracle = oracle_energies(problem, config, n_max)
            for n in range(n_max + 1):
                closed = None
                if compare:
                    state = SectorState(eps1, eps2, n, ell, m_s)
                    closed = energy_over_omega_c(state, params)
                report.rows.append(ComparisonRow(eps1, eps2, ell, n, m_s,
                                                 float(oracle[n]), closed))
    return report
