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
regular one only up to O(r_min^(2 kappa)); there is none here.  The grid is
uniform in t = ln r, and u = e^(t/2) w turns the equation into

    -w'' + kappa^2 w + r^2 (V - K/r^2) w = 2E r^2 w.

The node below the first is a Frobenius ghost, w_0 = w_1 exp(-kappa h), which
imposes the regular power r^(1/2 + kappa); kappa is taken from K, not from the
closed forms.  The regular solution is u = N r^(1/2 + kappa) (1 + c1 r^2 + ...),
c1 = (lam - 2E)/(4 kappa + 4), so a ghost at r_c misses u'/u by 2 c1 r_c and
moves 2E by u(r_c)^2 times that: 2 |c1| N^2 r_c^(2 kappa + 2) (int u^2 dr = 1),
with 2 |c1| N^2 = (2n + kappa + 1) Gamma(n + kappa + 1)/(2^(kappa + 1) n!
Gamma(kappa + 1) Gamma(kappa + 2)) <= 27 for n <= 9.  So each grid starts above
its last node with r^(2 kappa + 2) <= CUT_EPS, its ghost, and 2E moves by less
than the 1e-13 bisection tolerance; kappa < 0.93 keeps every node.  Scaling by
B^(-1/2), B = diag(r^2), gives a symmetric tridiagonal matrix whose lowest
eigenvalues are 2E for n = 0, 1, 2, ... with an O(h^2) error; Romberg
extrapolation over the steps h, h/2 and h/4 (at most 300, 601 and 1203 nodes)
removes the h^2 and h^4 terms.  Nothing here reuses the closed-form energy
algebra, so agreement with it is a genuine cross-check.

The operator is that of one parity eps: J commutes with R1R2 but not with
R1 or R2.  A sector and spin add the Zeeman term -m_s (1 + nu1 eps1 + nu2
eps2) to V, a constant that shifts each level by half of it: validate_sectors
solves once per (eps, ell) and adds the shift per (sector, spin) row, so the
oracle checks the closed-form rho; eta enters both sides as one constant.
Consecutive calls for one parity's two sectors share it (a one-entry memo).

Each grid after the first bisects (vl, vu] built from the grid before it.
vl is the potential's floor lam less a margin of 1: the matrix less
diag(v_rest) is D^-1 (L/h^2 + kappa^2) D^-1, D = diag(r), and L (L_00 = 2 -
exp(-kappa h) >= 1) is positive definite; the margin dwarfs the eps*||A|| ~
2e-4 that rounding of the entries can move a level.  vu, the previous grid's
top level plus half its spacing, spares LAPACK the Gershgorin interval,
about +/-1e12 wide on this matrix graded as 1/r^2.  The finest grid bisects
level j alone in (p_j - w_j, p_j + w_j]: p_j = mu_j(h/2) + d_j/4, d_j =
mu_j(h/2) - mu_j(h), is Richardson's guess; w_j = 0.01 |d_j| + 1e-12 is ten
times its worst miss, 9.8e-4 |d_j| over the scan benchmark's 288 operators.
The guess stands if the brackets are disjoint and above vl, and Sturm counts
find one level in each and k in (vl, p_{k-1} + w_{k-1}]: then bracket j holds
level j.  Else (vl, vu] is bisected, so a bad guess costs time, not a level,
and nothing assumes an h^2 fall of the error, which limit-circle rows lack.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction
from numbers import Integral

import numpy as np
from numpy.linalg import LinAlgError
from scipy.linalg.lapack import dstebz

from .algebra import WignerParams, _Record
from .angular import lambda_value
from .spectrum import SECTORS, OscillatorScale, SectorState, energy_over_omega_c


class RadialProblem(_Record):
    """The radial operator of parity epsilon, without the Zeeman term."""

    __slots__ = ("lam", "epsilon", "params")

    def __init__(self, lam: float, epsilon: int, params: WignerParams):
        self._set(lam, epsilon, params)

    @property
    def centrifugal_coefficient(self) -> float:
        """Coefficient of 1/r^2 before the measure transformation:
        lam^2, minus 4*nu1*nu2 in the odd parity where (1 - R1R2) acts as 2."""
        nu1, nu2 = self.params.as_floats()
        odd = 4.0 * nu1 * nu2 if self.epsilon == -1 else 0.0
        return self.lam * self.lam - odd


# The coarsest grid: GRID_POINTS nodes uniform in t = ln r, strictly between
# R_MIN and R_MAX natural lengths sqrt(2), above the kappa cut.  Below R_MIN
# the regular solution is a pure power to ~R_MIN^2, beyond R_MAX below e^-50.
GRID_POINTS = 300
R_MIN = math.exp(-9.0)
R_MAX = 10.0
CUT_EPS = 3e-15  # a ghost where r^(2 kappa + 2) <= CUT_EPS moves 2E < 1e-13


def build_tridiagonal(problem: RadialProblem, n: int):
    """Symmetric tridiagonal discretization of -u'' + V u on the n-node log
    grid from R_MIN to R_MAX, cut at kappa (module doc), as (diagonal,
    off-diagonal) arrays; eigenvalues approximate 2E with an O(h^2) error."""
    nu1, nu2 = problem.params.as_floats()
    p = 1.0 + 2.0 * nu1 + 2.0 * nu2
    k_coeff = problem.centrifugal_coefficient + (p * p - 2.0 * p) / 4.0
    kappa = math.sqrt(k_coeff + 0.25)
    t_lo, t_hi = (math.log(end * math.sqrt(2.0)) for end in (R_MIN, R_MAX))
    h = (t_hi - t_lo) / (n + 1)
    cut = max(0, math.floor((math.log(CUT_EPS) / (2 * kappa + 2) - t_lo) / h))
    r = np.exp(t_lo + h * np.arange(cut + 1, n + 1))
    v_rest = 0.25 * r ** 2 + problem.lam
    a = np.full(n - cut, 2.0 / h ** 2 + kappa ** 2)
    a[0] -= math.exp(-kappa * h) / h ** 2  # ghost node w_0 = w_1 exp(-kappa h)
    return a / r ** 2 + v_rest, -1.0 / (h ** 2 * r[:-1] * r[1:])


def _check_integer(name: str, v, lo: int, hi: int) -> None:
    if isinstance(v, bool) or not (isinstance(v, Integral) and lo <= v <= hi):
        raise ValueError(f"{name} must be an integer from {lo} to {hi}, got {v!r}")


def lowest_eigenvalues(matrix, k: int, bracket=None, predicted=None):
    """k smallest eigenvalues of the symmetric tridiagonal (diag, off) pair,
    ascending, by LAPACK dstebz bisection to 1e-13, not eps*||A|| (~1e-4).
    Non-finite entries raise ValueError before LAPACK runs, a nonzero info
    LinAlgError.  Predicted (centres, half-widths) give one level each if the
    count proof (module doc) holds above vl of the bracket (vl, vu]; else its
    first k levels if k > 1 and it holds k; else the full range's.  A bracket
    without vl < vu (a NaN end too), predicted without a bracket and a
    half-width <= 0 raise ValueError; a NaN or infinite one falls back."""
    diag, off = (np.asarray(a, dtype=float) for a in matrix)
    _check_integer("k", k, 1, min(10, len(diag)))
    if not (np.isfinite(diag).all() and np.isfinite(off).all()):
        raise ValueError("the matrix entries must be finite")
    if bracket is not None and not bracket[0] < bracket[1]:
        raise ValueError(f"bracket must have vl < vu, got ({bracket[0]}, {bracket[1]})")
    if predicted is not None and (bracket is None or any(predicted[1] <= 0)):
        raise ValueError("predicted needs a bracket and half-widths > 0, got "
                         f"bracket={bracket}, half-widths={predicted[1]}")
    e = off if len(diag) > 1 else np.zeros(1)  # dstebz takes one e at n = 1

    def stebz(select, vl=0.0, vu=0.0, tol=1e-13):  # 1: (vl, vu]; 2: 1..k
        m, w, _, _, info = dstebz(diag, e, select, vl, vu, 1, k, tol, "E")
        if info:
            raise LinAlgError(f"LAPACK dstebz failed with info = {info}")
        return w[:m].copy()  # frees dstebz's n-entry output at once
    if predicted is not None:
        lo, hi = predicted[0] - predicted[1], predicted[0] + predicted[1]
        if (len(lo) == k and lo[0] >= bracket[0] and all(lo[1:] >= hi[:-1])
                and len(stebz(1, bracket[0], hi[-1], math.inf)) == k):
            vals = [stebz(1, a, b) for a, b in zip(lo, hi)]
            if all(len(v) == 1 for v in vals):
                return np.concatenate(vals)
    if bracket is not None and k > 1 and len(vals := stebz(1, *bracket)) >= k:
        return vals[:k]
    return stebz(2)


def oracle_energies(problem: RadialProblem, n_max: int):
    """Oracle E/omega_c, n = 0..n_max <= 9: half of (16 R(h/2, h/4) -
    R(h, h/2))/15, R(a, b) = (4 mu_b - mu_a)/3, from the 2E levels mu at
    GRID_POINTS, 2*GRID_POINTS + 1 and 4*GRID_POINTS + 3 nodes; the grids
    before each solve bracket its levels (module doc)."""
    _check_integer("n_max", n_max, 0, 9)
    mus, n, bracket, predicted = [], GRID_POINTS, None, None
    for _ in range(3):
        mus.append(mu := lowest_eigenvalues(build_tridiagonal(problem, n),
                                            n_max + 1, bracket, predicted))
        if len(mus) == 2:  # Richardson's guess at the finest grid's levels
            predicted = mu + (d := mu - mus[0]) / 4.0, 0.01 * abs(d) + 1e-12
        n, bracket = 2 * n + 1, (problem.lam - 1.0, mu[-1] + (
            mu[-1] - mu[-2]) / 2.0 if n_max else math.inf)
    r_h, r_half = ((4.0 * b - a) / 3.0 for a, b in zip(mus, mus[1:]))
    return (16.0 * r_half - r_h) / 15.0 / 2.0  # extrapolated 2E, halved


class ComparisonRow(_Record):
    __slots__ = ("eps1", "eps2", "ell", "n", "m_s", "oracle", "closed_form")

    def __init__(self, eps1: int, eps2: int, ell: Fraction, n: int, m_s: int,
                 oracle: float, closed_form: float):
        self._set(eps1, eps2, ell, n, m_s, oracle, closed_form)

    @property
    def deviation(self) -> float:
        return abs(self.oracle - self.closed_form)


class SectorReport:
    """Oracle-vs-closed-form comparison for one sector and parameter set."""

    def __init__(self, eps1: int, eps2: int, params: WignerParams):
        self.eps1, self.eps2, self.params = eps1, eps2, params
        self.rows: list[ComparisonRow] = []


# E/omega_c tolerance; the oracle's worst miss over nu in (-1/2, 2] is 2.7e-8
ORACLE_TOLERANCE = 1e-7


@functools.lru_cache(maxsize=1)
def _parity_levels(params: WignerParams, epsilon: int, ells, n_max: int):
    """oracle_energies of parity epsilon at each ell, as tuples; the memo
    holds the last call only (module doc)."""
    return tuple(tuple(oracle_energies(RadialProblem(lambda_value(
        ell, epsilon, 1, params), epsilon, params), n_max).tolist())
        for ell in ells)


def validate_sectors(sectors, params: WignerParams, ell_list, n_max: int
                     ) -> list[SectorReport]:
    """One report per sector: oracle eigenvalues (oracle_energies) against
    the closed forms for every ell in ell_list, n <= n_max and both spins,
    from one solve per (eps, ell), shifted per row (module doc), on the
    positive lam branch, after checking n_max, every label and that ell_list
    is not empty.  A call that follows one for the same parity, params,
    ells and n_max reuses its solves (a one-entry memo).  The rows are
    reported, not judged: the caller compares each row's deviation with
    its own bound (verify: ORACLE_TOLERANCE)."""
    _check_integer("n_max", n_max, 0, 9)
    sectors = [tuple(sector) for sector in sectors]
    if bad := [sector for sector in sectors if sector not in SECTORS]:
        raise ValueError(f"sector labels must be +/-1, got {bad[0]}")
    if not (ells := tuple(Fraction(ell) for ell in ell_list)):
        raise ValueError("ell_list must hold at least one ell")
    reports = [SectorReport(*sector, params) for sector in sectors]
    nu1, nu2 = params.as_floats()
    levels = {epsilon: _parity_levels(params, epsilon, ells, n_max)
              for epsilon in dict.fromkeys(r.eps1 * r.eps2 for r in reports)}
    for i, ell in enumerate(ells):
        for report in reports:
            eps1, eps2 = report.eps1, report.eps2
            for m_s in (1, -1):
                shift = m_s * (1.0 + nu1 * eps1 + nu2 * eps2) / 2.0
                for n, level in enumerate(levels[eps1 * eps2][i]):
                    closed = energy_over_omega_c(
                        SectorState(eps1, eps2, n, ell, m_s), params)
                    report.rows.append(ComparisonRow(
                        eps1, eps2, ell, n, m_s, level - shift, closed))
    return reports


def validate_sector(sector: tuple[int, int], params: WignerParams,
                    scale: OscillatorScale, ell_list, n_max: int,
                    config: None = None,
                    tolerance: float = ORACLE_TOLERANCE) -> SectorReport:
    """validate_sectors for one sector: calls for both sectors of a parity in
    turn share a solve (one-entry memo).  scale, config and tolerance are
    unread slots for positional callers: rows are E/omega_c, free of scale,
    config is the retired grid setting (None only), and no verdict is kept."""
    if config is not None:
        raise TypeError("validate_sector takes no grid config; pass None")
    [report] = validate_sectors([sector], params, ell_list, n_max)
    return report
