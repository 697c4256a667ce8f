import math
import random
import re
from fractions import Fraction as F

import numpy as np
import pytest

from dunkl_pauli import radial_oracle
from dunkl_pauli.algebra import WignerParams
from dunkl_pauli.angular import lambda_value
from dunkl_pauli.radial_oracle import (GRID_POINTS, ComparisonRow,
                                       RadialProblem, build_tridiagonal,
                                       lowest_eigenvalues, oracle_energies,
                                       validate_sector, validate_sectors)
from dunkl_pauli.spectrum import (SECTORS, OscillatorScale, SectorState,
                                  energy_over_omega_c, lowest_ells)

SCALE = OscillatorScale()
NU0 = WignerParams(0, 0)
NU44 = WignerParams(F(2, 5), F(2, 5))


def _problem(ell, epsilon, params):
    """The radial operator of parity epsilon at ell, positive lam branch."""
    return RadialProblem(lambda_value(ell, epsilon, 1, params), epsilon, params)


def _zeeman(state, params):
    """The Zeeman term m_s (1 + nu1 eps1 + nu2 eps2) of a state's sector and
    spin, which shifts the operator's 2E by minus itself."""
    nu1, nu2 = params.as_floats()
    return state.m_s * (1.0 + nu1 * state.eps1 + nu2 * state.eps2)


def _zeeman_solve(state, params, n_max):
    """E/omega_c of one sector and spin, from a full-range solve of the
    matrices with that Zeeman term on their diagonal: independent of the
    per-parity solve and per-row shift of validate_sectors."""
    zeeman = _zeeman(state, params)
    coarse, fine = (
        lowest_eigenvalues((diag - zeeman, off), n_max + 1)
        for diag, off in (build_tridiagonal(_problem(state.ell, state.epsilon, params), n)
                          for n in (GRID_POINTS, 2 * GRID_POINTS + 1)))
    return (4.0 * fine - coarse) / 3.0 / 2.0


def test_lowest_eigenvalues_trivial_diagonal():
    vals = lowest_eigenvalues((np.array([2.0, 3.0]), np.array([0.0])), 2)
    assert vals == pytest.approx([2.0, 3.0])


def test_lowest_eigenvalues_rejects_large_k():
    with pytest.raises(ValueError):
        lowest_eigenvalues((np.ones(20), np.zeros(19)), 11)


def test_dirichlet_laplacian_ground_mode():
    # -u'' on (0, pi) with u(0) = u(pi) = 0 has lowest eigenvalue 1 (sin x)
    n = 2000
    h = math.pi / (n + 1)
    diag = np.full(n, 2.0 / h ** 2)
    off = np.full(n - 1, -1.0 / h ** 2)
    vals = lowest_eigenvalues((diag, off), 3)
    assert vals[0] == pytest.approx(1.0, abs=1e-5)
    assert vals[1] == pytest.approx(4.0, abs=1e-4)


def test_full_line_oscillator_ground_state():
    # -u'' + x^2 u on [-L, L]: Hermite ladder 1, 3, 5, ...
    n, length = 8000, 12.0
    h = 2 * length / (n + 1)
    x = -length + h * np.arange(1, n + 1)
    diag = 2.0 / h ** 2 + x ** 2
    off = np.full(n - 1, -1.0 / h ** 2)
    vals = lowest_eigenvalues((diag, off), 2)
    assert vals[0] == pytest.approx(1.0, abs=1e-5)
    assert vals[1] == pytest.approx(3.0, abs=1e-5)


def test_centrifugal_coefficient_by_sector():
    # even sector: lam^2; odd sector: lam^2 - 4 nu1 nu2
    even = _problem(1, 1, NU44)
    assert even.centrifugal_coefficient == pytest.approx(even.lam ** 2)
    odd = _problem(F(1, 2), -1, NU44)
    assert odd.centrifugal_coefficient == pytest.approx(odd.lam ** 2 - 4 * 0.16)


def test_matrix_is_symmetric_tridiagonal():
    problem = _problem(1, 1, NU44)
    diag, off = build_tridiagonal(problem, 600)
    assert diag.shape == (600,) and off.shape == (599,)
    dense = np.diag(diag) + np.diag(off, 1) + np.diag(off, -1)
    assert np.max(np.abs(dense - dense.T)) == 0.0


def test_undeformed_sector_matches_textbook_ladder():
    # nu = 0, sector (+,+) is the textbook 2D oscillator with angular momentum
    # 2*ell plus the Zeeman shift; compared against the closed form at nu = 0
    state = SectorState(1, 1, 0, 1, 1)
    es = oracle_energies(_problem(1, 1, NU0), 2) - _zeeman(state, NU0) / 2.0
    for n, e in enumerate(es):
        closed = energy_over_omega_c(SectorState(1, 1, n, 1, 1), NU0)
        assert e == pytest.approx(closed, abs=1e-7)


def test_eigenvalues_increase_with_n():
    es = oracle_energies(_problem(F(1, 2), -1, NU44), 4)
    assert all(b > a for a, b in zip(es, es[1:]))


def test_second_order_richardson_convergence():
    # the raw log grid is second order: halving h (n -> 2n + 1 nodes, same
    # ends) quarters the error, and the extrapolation beats both solves
    state = SectorState(1, -1, 0, F(1, 2), 1)
    problem = _problem(F(1, 2), -1, NU44)
    # 2E of the operator, which leaves the Zeeman term out (m = omega_c = 1)
    exact = 2.0 * energy_over_omega_c(state, NU44) + _zeeman(state, NU44)
    sizes = (GRID_POINTS, 2 * GRID_POINTS + 1, 4 * GRID_POINTS + 3)
    raw = [lowest_eigenvalues(build_tridiagonal(problem, n), 1)[0]
           for n in sizes]
    errors = [abs(mu - exact) for mu in raw]
    assert errors[0] / errors[1] == pytest.approx(4.0, rel=0.01)
    assert errors[1] / errors[2] == pytest.approx(4.0, rel=0.01)
    extrapolated = oracle_energies(problem, 0)[0] * 2.0
    assert abs(extrapolated - exact) < min(errors)


# seeded nu over the whole valid range (-1/2, 2], plus its corners and the
# odd-sector ell = 1/2 state nearest the limit-circle case (kappa = 0.15)
WIDE_NUS = ([(F(-49, 100), F(-49, 100)), (F(-9, 20), F(-2, 5)), (F(2), F(2)),
             (F(-49, 100), F(2))]
            + [(F(rng.randint(-49, 200), 100), F(rng.randint(-49, 200), 100))
               for rng in [random.Random(20240501)] for _ in range(12)])


@pytest.mark.parametrize("nu", WIDE_NUS, ids=lambda nu: f"{nu[0]},{nu[1]}")
def test_oracle_matches_closed_form_over_the_whole_nu_range(nu):
    params = WignerParams(*nu)
    for sector in SECTORS:
        ells = lowest_ells(sector[0] * sector[1], 2)
        report = validate_sector(sector, params, SCALE, ells, 2)
        assert len(report.rows) == 12
        assert report.worst <= 1e-7, (sector, report.worst)


def test_validate_sector_solves_once_per_ell(monkeypatch):
    # one solve per ell serves both spins: its two grid sizes (N and 2N + 1
    # nodes) are the only eigen-solves
    calls = []

    def counting(matrix, k, bracket=None):
        calls.append(k)
        return lowest_eigenvalues(matrix, k, bracket)

    monkeypatch.setattr(radial_oracle, "lowest_eigenvalues", counting)
    ells = lowest_ells(1, 3)
    report = validate_sector((1, 1), NU44, SCALE, ells, 2)
    assert len(report.rows) == 2 * 3 * len(ells)
    assert calls == [3] * (2 * len(ells))


@pytest.mark.parametrize("nu", WIDE_NUS, ids=lambda nu: f"{nu[0]},{nu[1]}")
def test_spin_down_rows_match_an_independent_solve(nu):
    # the m_s = -1 rows are the shifted m_s = +1 solve; a solve of the matrix
    # with the m_s = -1 Zeeman term on its diagonal must give the same levels
    params = WignerParams(*nu)
    for sector in SECTORS:
        ells = lowest_ells(sector[0] * sector[1], 2)
        report = validate_sector(sector, params, SCALE, ells, 2)
        for ell in ells:
            direct = _zeeman_solve(SectorState(*sector, 0, ell, -1), params, 2)
            shifted = [r.oracle for r in report.rows
                       if r.ell == ell and r.m_s == -1]
            assert shifted == pytest.approx(list(direct), abs=1e-11, rel=0)


@pytest.fixture
def solves(monkeypatch):
    """(k, bracket) of every lowest_eigenvalues call the oracle makes."""
    calls = []

    def recording(matrix, k, bracket=None):
        calls.append((k, bracket))
        return lowest_eigenvalues(matrix, k, bracket)

    monkeypatch.setattr(radial_oracle, "lowest_eigenvalues", recording)
    return calls


def _partner(sector):
    """The other sector of the same parity: ++ <-> --, +- <-> -+."""
    return (-sector[0], -sector[1])


@pytest.mark.parametrize("nu", WIDE_NUS, ids=lambda nu: f"{nu[0]},{nu[1]}")
def test_partner_sector_rows_match_an_independent_solve(nu):
    # validate_sectors solves a parity's operator once and shifts its levels
    # to both sectors; a solve of each sector's own matrix, with its Zeeman
    # term on the diagonal, must give the same levels
    params = WignerParams(*nu)
    for sector in ((1, 1), (1, -1)):
        ells = lowest_ells(sector[0] * sector[1], 2)
        first, second = validate_sectors([sector, _partner(sector)], params,
                                         ells, 2)
        assert (second.eps1, second.eps2) == _partner(sector)
        assert len(first.rows) == len(second.rows) == 12
        for report in (first, second):
            for ell in ells:
                for m_s in (1, -1):
                    state = SectorState(report.eps1, report.eps2, 0, ell, m_s)
                    direct = _zeeman_solve(state, params, 2)
                    shifted = [r.oracle for r in report.rows
                               if r.ell == ell and r.m_s == m_s]
                    assert shifted == pytest.approx(list(direct), abs=1e-11, rel=0)


def test_validate_sectors_solves_a_parity_once_per_ell(solves):
    # both even sectors, both spins: one operator per ell, two grid sizes
    ells = lowest_ells(1, 3)
    reports = validate_sectors([(1, 1), (-1, -1)], NU44, ells, 2)
    assert [(r.eps1, r.eps2) for r in reports] == [(1, 1), (-1, -1)]
    assert [len(r.rows) for r in reports] == [2 * 3 * len(ells)] * 2
    assert [k for k, _ in solves] == [3] * (2 * len(ells))


def test_run_oracle_suite_solves_each_radial_operator_once(solves):
    # 4 nu pairs x 2 parities x 2 ells = 16 operators, two grid sizes each
    from dunkl_pauli.verify import run_oracle_suite
    result = run_oracle_suite()
    assert (result.passed, result.failed) == (192, 0)
    assert len(solves) == 32


def _fine_with_bracket(problem, n_max):
    """The fine matrix of oracle_energies and the bracket it bisects."""
    coarse = lowest_eigenvalues(build_tridiagonal(problem, GRID_POINTS), n_max + 1)
    bracket = (problem.lam - 1.0,
               coarse[-1] + (coarse[-1] - coarse[-2]) / 2.0)
    return build_tridiagonal(problem, 2 * GRID_POINTS + 1), bracket


@pytest.mark.parametrize("nu", WIDE_NUS, ids=lambda nu: f"{nu[0]},{nu[1]}")
def test_a_bracketed_solve_equals_the_full_range_solve(nu):
    params = WignerParams(*nu)
    for epsilon in (1, -1):
        for ell in lowest_ells(epsilon, 2):
            fine, bracket = _fine_with_bracket(_problem(ell, epsilon, params), 2)
            full = lowest_eigenvalues(fine, 3)
            # the floor is below the spectrum, and vu leaves the 4th level out
            assert bracket[0] < full[0]
            assert lowest_eigenvalues(fine, 4)[3] > bracket[1]
            assert list(lowest_eigenvalues(fine, 3, bracket)) == pytest.approx(
                list(full), abs=2e-13, rel=0)


def test_a_bracket_short_of_k_levels_or_k_1_gives_the_full_range_result():
    fine, (vl, _) = _fine_with_bracket(_problem(1, 1, NU44), 2)
    full = lowest_eigenvalues(fine, 3)
    # vu between levels 1 and 2: the bracket holds two of the three levels
    short = (vl, (full[1] + full[2]) / 2.0)
    assert list(lowest_eigenvalues(fine, 3, short)) == list(full)
    # and a bracket with no level in it at all
    assert list(lowest_eigenvalues(fine, 3, (vl - 2.0, vl))) == list(full)
    # k = 1 ignores the bracket, even one that leaves level 0 out
    above_ground = (full[0] + 1e-6, full[2])
    assert list(lowest_eigenvalues(fine, 1, above_ground)) == list(
        lowest_eigenvalues(fine, 1))


def test_oracle_energies_bisects_the_fine_grid_in_a_bracket(solves):
    # the coarse solve and an n_max = 0 solve search the full range; the
    # fine solve of n_max >= 1 gets the bracket of _fine_with_bracket
    problem = _problem(F(1, 2), -1, NU44)
    oracle_energies(problem, 0)
    oracle_energies(problem, 2)
    assert [bracket for _, bracket in solves[:3]] == [None, None, None]
    assert solves[3][1] == _fine_with_bracket(problem, 2)[1]


@pytest.mark.parametrize("n_max", [-1, 1.5, 10])
def test_a_bad_n_max_is_refused_by_name_before_any_solve(solves, n_max):
    message = f"n_max must be an integer from 0 to 9, got {n_max}"
    with pytest.raises(ValueError, match=re.escape(message)):
        validate_sector((1, 1), NU44, SCALE, [1], n_max)
    with pytest.raises(ValueError, match=re.escape(message)):
        oracle_energies(_problem(1, 1, NU44), n_max)
    assert solves == []


def test_validate_sector_rows_do_not_depend_on_the_scale():
    # the rows are E/omega_c: the scale slot only keeps positional callers
    for sector in SECTORS:
        ells = lowest_ells(sector[0] * sector[1], 2)
        rows = validate_sector(sector, NU44, SCALE, ells, 2).rows
        assert validate_sector(sector, NU44, OscillatorScale(omega_c=2.5),
                               ells, 2).rows == rows
        assert all(type(row.closed_form) is float for row in rows)


def test_validate_sector_report():
    report = validate_sector((1, 1), NU44, SCALE, [1], 1)
    assert report.passed and len(report.rows) == 4  # 1 ell x 2 m_s x n in {0,1}
    assert report.worst <= 1e-7


def test_validate_sector_reports_mismatch_without_raising():
    # absurd tolerance: must flag failure but not raise
    report = validate_sector((1, 1), NU44, SCALE, [1], 0, tolerance=1e-14)
    assert not report.passed
    assert report.worst > 1e-14


def test_validate_sector_rejects_a_grid_config():
    with pytest.raises(TypeError):
        validate_sector((1, 1), NU0, SCALE, [1], 0, object())


def test_comparison_row_deviation():
    row = ComparisonRow(1, 1, F(1), 0, 1, 2.0000001, 2.0)
    assert row.deviation == pytest.approx(1e-7)


def test_liouville_transform_constant_symbolically():
    # F(r) = r^(-p/2) u(r) turns F'' + (p/r) F' into r^(-p/2) [u'' - ((p^2-2p)/4)/r^2 u]
    import sympy as sp

    r = sp.symbols("r", positive=True)
    p = sp.symbols("p", real=True)
    u = sp.Function("u")
    big_f = r ** (-p / 2) * u(r)
    expr = sp.diff(big_f, r, 2) + (p / r) * sp.diff(big_f, r)
    reduced = sp.simplify(expr / r ** (-p / 2))
    expected = sp.diff(u(r), r, 2) - ((p ** 2 - 2 * p) / 4) / r ** 2 * u(r)
    assert sp.simplify(reduced - expected) == 0
