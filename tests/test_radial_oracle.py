import math
import random
import re
from fractions import Fraction as F

import numpy as np
import pytest
from scipy.linalg import eigh_tridiagonal

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


# the node counts of the steps h, h/2 and h/4 between the same ends, before
# build_tridiagonal drops the nodes below the kappa cut
GRIDS = (GRID_POINTS, 2 * GRID_POINTS + 1, 4 * GRID_POINTS + 3)


def _zeeman_solve(state, params, n_max):
    """E/omega_c of one sector and spin, from full-range solves of the three
    matrices with that Zeeman term on their diagonal: independent of the
    per-parity solve and per-row shift of validate_sectors."""
    zeeman = _zeeman(state, params)
    coarse, mid, fine = (
        lowest_eigenvalues((diag - zeeman, off), n_max + 1)
        for diag, off in (build_tridiagonal(_problem(state.ell, state.epsilon, params), n)
                          for n in GRIDS))
    r_h, r_half = (4.0 * mid - coarse) / 3.0, (4.0 * fine - mid) / 3.0
    return (16.0 * r_half - r_h) / 15.0 / 2.0


def test_lowest_eigenvalues_trivial_diagonal():
    vals = lowest_eigenvalues((np.array([2.0, 3.0]), np.array([0.0])), 2)
    assert vals == pytest.approx([2.0, 3.0])
    # a 1 x 1 matrix has its one entry as its level; k may not exceed n
    assert list(lowest_eigenvalues((np.array([2.0]), np.array([])), 1)) == [2.0]
    message = "k must be an integer from 1 to 2, got 3"
    with pytest.raises(ValueError, match=re.escape(message)):
        lowest_eigenvalues((np.array([2.0, 3.0]), np.array([0.0])), 3)


@pytest.mark.parametrize("k", [0, -1, 1.5, 11, True])
def test_lowest_eigenvalues_rejects_large_k(k):
    message = f"k must be an integer from 1 to 10, got {k}"
    with pytest.raises(ValueError, match=re.escape(message)):
        lowest_eigenvalues((np.ones(20), np.zeros(19)), k)


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


def _uncut(problem, n):
    """build_tridiagonal without the kappa cut: all n nodes of the log grid,
    the ghost at R_MIN."""
    nu1, nu2 = problem.params.as_floats()
    p = 1.0 + 2.0 * nu1 + 2.0 * nu2
    k_coeff = problem.centrifugal_coefficient + (p * p - 2.0 * p) / 4.0
    kappa = math.sqrt(k_coeff + 0.25)
    t_lo, t_hi = (math.log(end * math.sqrt(2.0))
                  for end in (radial_oracle.R_MIN, radial_oracle.R_MAX))
    h = (t_hi - t_lo) / (n + 1)
    r = np.exp(t_lo + h * np.arange(1, n + 1))
    v_rest = 0.25 * r ** 2 + problem.lam
    a = np.full(n, 2.0 / h ** 2 + kappa ** 2)
    a[0] -= math.exp(-kappa * h) / h ** 2
    return a / r ** 2 + v_rest, -1.0 / (h ** 2 * r[:-1] * r[1:])


def test_matrix_is_symmetric_tridiagonal():
    # kappa = 0.02 (odd, ell = 1/2, nu = -49/100 twice) keeps all 600 nodes,
    # bit for bit; kappa = 2.8 (even, ell = 1, nu = 2/5 twice) keeps only the
    # top of the same grid, at the same h, with the ghost below its first node
    near_limit_circle = _problem(F(1, 2), -1, WignerParams(F(-49, 100), F(-49, 100)))
    diag, off = build_tridiagonal(near_limit_circle, 600)
    assert diag.shape == (600,) and off.shape == (599,)
    for got, full in zip((diag, off), _uncut(near_limit_circle, 600)):
        assert np.array_equal(got, full)
    problem = _problem(1, 1, NU44)
    diag, off = build_tridiagonal(problem, 600)
    full_diag, full_off = _uncut(problem, 600)
    assert 0 < len(diag) < 600 and off.shape == (len(diag) - 1,)
    assert np.array_equal(off, full_off[-len(off):])
    assert np.array_equal(diag[1:], full_diag[-len(off):])
    assert diag[0] != full_diag[-len(diag)]
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
    # the raw log grid is second order: halving h (n -> 2n + 1 nodes of the
    # full grid) quarters the error, and the extrapolation beats both solves
    state = SectorState(1, -1, 0, F(1, 2), 1)
    problem = _problem(F(1, 2), -1, NU44)
    # 2E of the operator, which leaves the Zeeman term out (m = omega_c = 1)
    exact = 2.0 * energy_over_omega_c(state, NU44) + _zeeman(state, NU44)
    raw = [lowest_eigenvalues(build_tridiagonal(problem, n), 1)[0]
           for n in GRIDS]
    errors = [abs(mu - exact) for mu in raw]
    assert errors[0] / errors[1] == pytest.approx(4.0, rel=0.01)
    assert errors[1] / errors[2] == pytest.approx(4.0, rel=0.01)
    extrapolated = oracle_energies(problem, 0)[0] * 2.0
    assert abs(extrapolated - exact) < min(errors)


def test_fourth_order_romberg_convergence():
    # each Richardson step (4 E_b - E_a)/3 leaves an O(h^4) error: halving h
    # divides it by 16, and the Romberg step over both beats either of them
    state = SectorState(1, -1, 0, F(1, 2), 1)
    problem = _problem(F(1, 2), -1, NU44)
    exact = 2.0 * energy_over_omega_c(state, NU44) + _zeeman(state, NU44)
    raw = [lowest_eigenvalues(build_tridiagonal(problem, n), 1)[0]
           for n in GRIDS + (8 * GRID_POINTS + 7,)]
    errors = [abs((4.0 * b - a) / 3.0 - exact) for a, b in zip(raw, raw[1:])]
    assert errors[0] / errors[1] == pytest.approx(16.0, rel=0.01)
    romberg = oracle_energies(problem, 0)[0] * 2.0
    assert abs(romberg - exact) < min(errors[:2])


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
        worst = max(row.deviation for row in report.rows)
        assert worst <= 1e-7, (sector, worst)


def test_oracle_worst_miss_over_the_whole_nu_range():
    # both parities, their first two ells, n <= 2: the three-grid Romberg
    # step misses by 2.7e-8 at worst (the two-grid step by 5.0e-8)
    worst = max(row.deviation for nu in WIDE_NUS for epsilon in (1, -1)
                for report in validate_sectors(
                    [s for s in SECTORS if s[0] * s[1] == epsilon],
                    WignerParams(*nu), lowest_ells(epsilon, 2), 2)
                for row in report.rows)
    assert worst <= 3e-8


@pytest.mark.parametrize("nu", WIDE_NUS, ids=lambda nu: f"{nu[0]},{nu[1]}")
def test_the_kappa_cut_moves_a_level_by_bisection_noise_only(monkeypatch, nu):
    # both parities, their first five ells, n <= 9: the cut grids give the
    # levels of the full ones to the 1e-13 bisection tolerance for n <= 2, and
    # to 1e-11 up to n = 9 (the cut's own shift is below 1e-13: module doc)
    params = WignerParams(*nu)
    problems = [_problem(ell, epsilon, params) for epsilon in (1, -1)
                for ell in lowest_ells(epsilon, 5)]
    cut = [oracle_energies(problem, 9) for problem in problems]
    monkeypatch.setattr(radial_oracle, "build_tridiagonal", _uncut)
    for levels, problem in zip(cut, problems):
        change = np.abs(levels - oracle_energies(problem, 9))
        assert change[:3].max() <= 5e-13 and change.max() <= 1e-11, problem


def test_validate_sector_solves_once_per_ell(monkeypatch):
    # one solve per ell serves both spins: its three grids (steps h, h/2 and
    # h/4, each cut at kappa) are the only eigen-solves
    calls = []

    def counting(matrix, k, bracket=None, predicted=None):
        calls.append(k)
        return lowest_eigenvalues(matrix, k, bracket, predicted)

    monkeypatch.setattr(radial_oracle, "lowest_eigenvalues", counting)
    ells = lowest_ells(1, 3)
    report = validate_sector((1, 1), NU44, SCALE, ells, 2)
    assert len(report.rows) == 2 * 3 * len(ells)
    assert calls == [3] * (3 * len(ells))


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
    """(k, bracket, predicted) of every lowest_eigenvalues call the oracle
    makes."""
    calls = []

    def recording(matrix, k, bracket=None, predicted=None):
        calls.append((k, bracket, predicted))
        return lowest_eigenvalues(matrix, k, bracket, predicted)

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
    # both even sectors, both spins: one operator per ell, three grid sizes
    ells = lowest_ells(1, 3)
    reports = validate_sectors([(1, 1), (-1, -1)], NU44, ells, 2)
    assert [(r.eps1, r.eps2) for r in reports] == [(1, 1), (-1, -1)]
    assert [len(r.rows) for r in reports] == [2 * 3 * len(ells)] * 2
    assert [k for k, *_ in solves] == [3] * (3 * len(ells))


def test_run_oracle_suite_solves_each_radial_operator_once(solves):
    # 4 nu pairs x 2 parities x 2 ells = 16 operators, three grid sizes each
    from dunkl_pauli.verify import run_oracle_suite
    result = run_oracle_suite()
    assert (result.passed, result.failed) == (192, 0)
    assert len(solves) == 48


@pytest.fixture
def operators(monkeypatch):
    """(lam, epsilon, params, n_max) of every oracle_energies call: one per
    radial operator solved."""
    calls = []

    def recording(problem, n_max):
        calls.append((problem.lam, problem.epsilon, problem.params, n_max))
        return oracle_energies(problem, n_max)

    monkeypatch.setattr(radial_oracle, "oracle_energies", recording)
    return calls


def _per_sector_rows(params, n_max=2):
    """The rows of one validate_sector call per sector, in SECTORS order,
    each sector at the two lowest ells of its parity."""
    return [validate_sector(sector, params, SCALE,
                            lowest_ells(sector[0] * sector[1], 2), n_max).rows
            for sector in SECTORS]


@pytest.mark.parametrize("nu", WIDE_NUS[:4], ids=lambda nu: f"{nu[0]},{nu[1]}")
def test_consecutive_sectors_of_one_parity_share_a_solve(operators, solves, nu):
    # SECTORS lists ++, --, +-, -+: the second sector of each parity reuses
    # the first one's levels, so 2 parities x 2 ells operators are solved,
    # on three grids each.  The rows are those of validate_sectors over all
    # four sectors from an empty memo, one call per parity, as no ell list
    # is valid in both
    params = WignerParams(*nu)
    rows = _per_sector_rows(params)
    assert len(operators) == 2 * 2 and len(solves) == 2 * 2 * 3
    assert len({op[:2] for op in operators}) == 4
    radial_oracle._parity_levels.cache_clear()
    assert rows == [r.rows for epsilon in (1, -1) for r in validate_sectors(
        [s for s in SECTORS if s[0] * s[1] == epsilon], params,
        lowest_ells(epsilon, 2), 2)]
    assert len(operators) == 2 * (2 * 2)


def test_a_second_pass_over_the_sectors_solves_again(operators):
    # the memo holds one parity: a pass ends on the odd one and the next
    # begins with the even one, so no pass is served by the one before it
    first = _per_sector_rows(NU44)
    assert _per_sector_rows(NU44) == first
    assert len(operators) == 2 * (2 * 2)


@pytest.mark.parametrize("change", ["nu", "n_max", "ells", "parity"])
def test_a_changed_key_misses_the_memo(operators, change):
    ells = lowest_ells(1, 2)
    validate_sectors([(1, 1)], NU44, ells, 2)
    args = {"nu": ([(-1, -1)], NU0, ells, 2),
            "n_max": ([(-1, -1)], NU44, ells, 1),
            "ells": ([(-1, -1)], NU44, ells[:1], 2),
            "parity": ([(1, -1)], NU44, lowest_ells(-1, 2), 2)}[change]
    validate_sectors(*args)
    assert len(operators) == len(ells) + len(args[2])
    # and the same key again hits: nothing more is solved
    validate_sectors(*args)
    assert len(operators) == len(ells) + len(args[2])


def test_a_call_gives_the_rows_of_one_call_per_sector_in_any_order(operators):
    # each sector takes its levels from the memo, which holds one parity:
    # an order of sectors changes what is solved, never a row
    ells, sectors = lowest_ells(1, 2), [(-1, -1), (1, 1), (-1, -1)]
    rows = [r.rows for r in validate_sectors(sectors, NU44, ells, 2)]
    assert len(operators) == len(ells)
    radial_oracle._parity_levels.cache_clear()
    assert rows == [validate_sector(s, NU44, SCALE, ells, 2).rows for s in sectors]
    # no ell list holds for both parities, so a call that alternates parity
    # is refused as its first sector of the other parity is on its own
    message = "odd sector requires half-odd positive ell, got 1"
    for call in (lambda: validate_sectors([(1, 1), (1, -1), (-1, -1)], NU44, ells, 2),
                 lambda: validate_sector((1, -1), NU44, SCALE, ells, 2)):
        with pytest.raises(ValueError, match=re.escape(message)):
            call()


def test_an_ell_of_the_wrong_parity_is_refused_before_any_solve(solves):
    # the even sector's ells are valid and come first, but the odd sector's
    # refusal of ell = 1 comes before the even parity's six grid solves
    message = "odd sector requires half-odd positive ell, got 1"
    with pytest.raises(ValueError, match=re.escape(message)):
        validate_sectors([(1, 1), (1, -1)], NU44, [1, 2], 2)
    assert solves == []


def test_the_memo_holds_the_last_key_only(operators):
    # A, B, A: the third call solves A again
    ells = lowest_ells(1, 2)
    for sector, params in (((1, 1), NU44), ((1, 1), NU0), ((-1, -1), NU44)):
        validate_sector(sector, params, SCALE, ells, 2)
    assert [op[2] for op in operators] == [NU44] * 2 + [NU0] * 2 + [NU44] * 2


def test_a_caller_cannot_change_a_memoized_result(operators):
    ells = lowest_ells(1, 2)
    levels = radial_oracle._parity_levels(NU44, 1, tuple(ells), 2)
    with pytest.raises(TypeError):
        levels[0][0] = 0.0
    report = validate_sector((1, 1), NU44, SCALE, ells, 2)
    rows = list(report.rows)
    with pytest.raises(AttributeError):
        report.rows[0].oracle = 0.0
    report.rows.clear()
    assert validate_sector((1, 1), NU44, SCALE, ells, 2).rows == rows
    assert radial_oracle._parity_levels(NU44, 1, tuple(ells), 2) == levels
    assert len(operators) == len(ells)


def _finer_with_brackets(problem, n_max):
    """The second and third matrices of oracle_energies, each with the
    (vl, vu] bracket it is given, taken from the levels of the grid before
    it."""
    levels = lowest_eigenvalues(build_tridiagonal(problem, GRIDS[0]), n_max + 1)
    finer = []
    for n in GRIDS[1:]:
        bracket = (problem.lam - 1.0,
                   levels[-1] + (levels[-1] - levels[-2]) / 2.0)
        finer.append((build_tridiagonal(problem, n), bracket))
        levels = lowest_eigenvalues(finer[-1][0], n_max + 1, bracket)
    return finer


@pytest.mark.parametrize("nu", WIDE_NUS, ids=lambda nu: f"{nu[0]},{nu[1]}")
def test_a_bracketed_solve_equals_the_full_range_solve(nu):
    params = WignerParams(*nu)
    for epsilon in (1, -1):
        for ell in lowest_ells(epsilon, 2):
            for fine, bracket in _finer_with_brackets(
                    _problem(ell, epsilon, params), 2):
                full = lowest_eigenvalues(fine, 3)
                # the floor is below the spectrum; vu leaves the 4th level out
                assert bracket[0] < full[0]
                assert lowest_eigenvalues(fine, 4)[3] > bracket[1]
                assert list(lowest_eigenvalues(fine, 3, bracket)) == pytest.approx(
                    list(full), abs=2e-13, rel=0)


def test_a_bracket_short_of_k_levels_or_k_1_gives_the_full_range_result():
    fine, (vl, _) = _finer_with_brackets(_problem(1, 1, NU44), 2)[-1]
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


@pytest.fixture
def lapack(monkeypatch):
    """(select, vl, vu, tol) of every dstebz call lowest_eigenvalues makes:
    select 1 bisects (vl, vu], select 2 finds levels by index."""
    calls = []
    real = radial_oracle.dstebz

    def recording(d, e, select, vl, vu, il, iu, tol, order):
        calls.append((select, vl, vu, tol))
        return real(d, e, select, vl, vu, il, iu, tol, order)

    monkeypatch.setattr(radial_oracle, "dstebz", recording)
    return calls


def _richardson_brackets(problem, n_max):
    """The finest matrix of oracle_energies, its (vl, vu] bracket and the
    levels' predicted (centres, half-widths): mu(h/2) + d/4 and 0.01 |d| +
    1e-12, d = mu(h/2) - mu(h)."""
    coarse = lowest_eigenvalues(build_tridiagonal(problem, GRIDS[0]), n_max + 1)
    (mid_matrix, mid_bracket), (fine, bracket) = _finer_with_brackets(
        problem, n_max)
    mid = lowest_eigenvalues(mid_matrix, n_max + 1, mid_bracket)
    step = mid - coarse
    return fine, bracket, (mid + step / 4.0, 0.01 * np.abs(step) + 1e-12)


def test_oracle_energies_bisects_the_fine_grid_level_by_level(solves, lapack):
    # the coarsest solve searches the full range and the middle one (vl, vu]
    # (n_max = 0 ignores its vu); the finest gets the predicted brackets,
    # and LAPACK counts (vl, p_2 + w_2] once and bisects each bracket alone
    problem = _problem(F(1, 2), -1, NU44)
    _, bracket, (centres, widths) = _richardson_brackets(problem, 2)
    (_, mid_bracket), _ = _finer_with_brackets(problem, 2)
    lapack.clear()
    oracle_energies(problem, 2)
    assert [(k, b) for k, b, _ in solves] == [(3, None), (3, mid_bracket),
                                              (3, bracket)]
    assert solves[0][2] is None and solves[1][2] is None
    assert np.array_equal(solves[2][2][0], centres)
    assert np.array_equal(solves[2][2][1], widths)
    lo, hi = centres - widths, centres + widths
    assert lapack == [(2, 0.0, 0.0, 1e-13), (1, *mid_bracket, 1e-13),
                      (1, bracket[0], hi[-1], math.inf)] + [
        (1, a, b, 1e-13) for a, b in zip(lo, hi)]
    # each bracket is narrow: about 2e-4 wide against level spacings near 2
    assert (hi - lo).max() < 1e-3
    # n_max = 0: the middle grid ignores its vu = inf; the finest one is
    # counted once and bisected in its one predicted bracket
    full = oracle_energies(problem, 2)
    solves.clear()
    lapack.clear()
    ground = oracle_energies(problem, 0)
    floor = (problem.lam - 1.0, math.inf)
    assert [(k, b) for k, b, _ in solves] == [(1, None), (1, floor), (1, floor)]
    assert [select for select, *_ in lapack] == [2, 2, 1, 1]
    assert lapack[2][3] == math.inf and lapack[3][2] - lapack[3][1] < 1e-3
    assert ground == pytest.approx(full[:1], abs=2e-13, rel=0)


def _bad_predictions(problem):
    """The finest matrix and bracket at n_max = 2, with six predictions
    that fail the count proof, each for one reason."""
    fine, bracket, (centres, widths) = _richardson_brackets(problem, 2)
    _, _, (next_centres, _) = _richardson_brackets(problem, 3)
    vl, spacing = bracket[0], centres[1] - centres[0]
    below_floor = centres.copy(), widths.copy()
    low = vl - 1e-3  # bracket 0 is (vl - 1e-3, p_0 + w_0]: holds level 0 only
    below_floor[0][0] = (low + centres[0] + widths[0]) / 2.0
    below_floor[1][0] = (centres[0] + widths[0] - low) / 2.0
    return fine, bracket, {
        # the top bracket moved up one level: each bracket holds one level,
        # but (vl, p_2 + w_2] holds four
        "moved a level": (np.append(centres[:2], next_centres[3]), widths),
        "off by 10 w": (centres + 10.0 * widths * np.array([0, 1, 0]), widths),
        "overlapping": (centres, np.full(3, 0.75 * spacing)),
        "below the floor": below_floor,
        "no level": (centres + spacing / 2.0, widths),
        # two brackets, on levels 0 and 2: (vl, p_2 + w_2] holds three
        "k - 1 brackets": (centres[[0, 2]], widths[[0, 2]]),
    }


@pytest.mark.parametrize("ell, epsilon", [(1, 1), (F(1, 2), -1)])
def test_a_bad_prediction_gives_the_levels_of_the_bracket(lapack, ell,
                                                          epsilon):
    problem = _problem(ell, epsilon, NU44)
    fine, bracket, bad = _bad_predictions(problem)
    wide = list(lowest_eigenvalues(fine, 3, bracket))
    for why, predicted in bad.items():
        lapack.clear()
        assert list(lowest_eigenvalues(fine, 3, bracket, predicted)) == wide, why
        # the (vl, vu] bisection ran, and ran last
        assert lapack[-1] == (1, *bracket, 1e-13), why
    # the good prediction passes the proof and gives the same levels
    good = _richardson_brackets(problem, 2)[2]
    lapack.clear()
    assert list(lowest_eigenvalues(fine, 3, bracket, good)) == pytest.approx(
        wide, abs=2e-13, rel=0)
    assert len(lapack) == 4 and (1, *bracket, 1e-13) not in lapack


def _wide_bracket(problem, n_max):
    """oracle_energies as it was before the predicted brackets: scipy's
    eigh_tridiagonal on each grid, the finest bisected over (lam - 1, vu]
    from the grid before it, or by index when n_max = 0."""
    mus, bracket = [], None
    for n in GRIDS:
        select = (dict(select="i", select_range=(0, n_max)) if bracket is None
                  else dict(select="v", select_range=bracket))
        mu = eigh_tridiagonal(*build_tridiagonal(problem, n), eigvals_only=True,
                              lapack_driver="stebz", tol=1e-13, **select)
        assert len(mu) >= n_max + 1
        mus.append(mu := mu[:n_max + 1])
        bracket = None if n_max == 0 else (
            problem.lam - 1.0, mu[-1] + (mu[-1] - mu[-2]) / 2.0)
    r_h, r_half = ((4.0 * b - a) / 3.0 for a, b in zip(mus, mus[1:]))
    return (16.0 * r_half - r_h) / 15.0 / 2.0


@pytest.mark.parametrize("nu", WIDE_NUS, ids=lambda nu: f"{nu[0]},{nu[1]}")
def test_predicted_brackets_agree_with_the_wide_bracket(lapack, nu):
    # both parities, their first five ells, n_max 2 and 9, with the odd
    # ell = 1/2 row next to the limit-circle case at nu = (-49/100, -49/100):
    # every solve passes the count proof, its last LAPACK call a bisection
    # narrower than the floor's margin of 1, and gives the wide bracket's
    # levels to the bisection tolerance
    params = WignerParams(*nu)
    problems = [_problem(ell, epsilon, params) for epsilon in (1, -1)
                for ell in lowest_ells(epsilon, 5)]
    assert lowest_ells(-1, 5)[0] == F(1, 2)
    predicted = 0
    for problem in problems:
        for n_max in (2, 9):
            lapack.clear()
            levels = oracle_energies(problem, n_max)
            select, vl, vu, _ = lapack[-1]
            predicted += select == 1 and vu - vl < 1.0
            change = np.abs(levels - _wide_bracket(problem, n_max))
            assert change.max() <= 2e-13, (problem, n_max)
    assert predicted == 2 * len(problems) == 20


def test_a_non_finite_entry_is_refused_before_lapack_runs(lapack):
    diag, off = np.linspace(1.0, 2.0, 20), np.full(19, -0.5)
    for bad in ((np.where(np.arange(20) == 7, np.nan, diag), off),
                (diag, np.where(np.arange(19) == 3, np.inf, off))):
        for bracket in (None, (0.0, 3.0)):
            with pytest.raises(ValueError, match="must be finite"):
                lowest_eigenvalues(bad, 3, bracket)
    assert lapack == []


@pytest.mark.parametrize("info", [1, 4, -5])
def test_a_nonzero_lapack_info_raises(monkeypatch, info):
    real = radial_oracle.dstebz

    def failing(*args):
        m, w, iblock, isplit, _ = real(*args)
        return m, w, iblock, isplit, info

    monkeypatch.setattr(radial_oracle, "dstebz", failing)
    with pytest.raises(np.linalg.LinAlgError, match=f"info = {info}"):
        lowest_eigenvalues((np.linspace(1.0, 2.0, 20), np.full(19, -0.5)), 3)


@pytest.mark.parametrize("bracket", [(3.0, 0.0), (1.5, 1.5), (math.nan, 3.0),
                                     (0.0, math.nan)],
                         ids=["inverted", "empty", "nan-vl", "nan-vu"])
def test_a_bracket_without_vl_below_vu_is_refused_by_name(lapack, capfd, bracket):
    # dstebz refuses vl >= vu too (info = -5), but only after its xerbla has
    # printed "** On entry to DSTEBZ parameter number 5 ..." on stdout
    message = f"bracket must have vl < vu, got ({bracket[0]}, {bracket[1]})"
    with pytest.raises(ValueError, match=re.escape(message)):
        lowest_eigenvalues((np.linspace(1.0, 2.0, 20), np.full(19, -0.5)), 3,
                           bracket)
    assert lapack == []
    assert capfd.readouterr().out == ""


def test_predicted_brackets_without_a_bracket_are_refused_by_name(lapack, capfd):
    # without vl the count proof has no floor: this raised a TypeError
    fine, _, good = _richardson_brackets(_problem(1, 1, NU44), 2)
    lapack.clear()
    with pytest.raises(ValueError, match="predicted needs a bracket"):
        lowest_eigenvalues(fine, 3, None, good)
    assert lapack == []
    assert capfd.readouterr() == ("", "")


@pytest.mark.parametrize("width", [0.0, -1e-7], ids=["zero", "negative"])
def test_a_half_width_not_above_zero_is_refused_by_name(lapack, capfd, width):
    # a zero or negative half-width once reached dstebz as vl >= vu: its
    # xerbla printed "** On entry to DSTEBZ parameter number 5 ..." and
    # LinAlgError (info = -5) followed
    fine, bracket, (centres, widths) = _richardson_brackets(
        _problem(1, 1, NU44), 2)
    widths[1] = width
    lapack.clear()
    with pytest.raises(ValueError, match="half-widths > 0"):
        lowest_eigenvalues(fine, 3, bracket, (centres, widths))
    assert lapack == []
    assert capfd.readouterr() == ("", "")


@pytest.mark.parametrize("width", [None, 0.0, -1e-7, math.nan, math.inf],
                         ids=["good", "zero", "negative", "nan", "inf"])
def test_predicted_brackets_as_lists_act_as_arrays(lapack, width):
    # lists once raised TypeError at the half-width check; now they give the
    # same levels, refusals and fallbacks, by the same LAPACK calls
    fine, bracket, (centres, widths) = _richardson_brackets(
        _problem(1, 1, NU44), 2)
    if width is not None:
        widths[1] = width

    def outcome(convert):
        lapack.clear()
        try:
            got = list(lowest_eigenvalues([convert(a) for a in fine], 3, bracket,
                                          (convert(centres), convert(widths))))
        except ValueError as exc:
            got = str(exc)
        return got, list(lapack)
    assert outcome(list) == outcome(np.asarray)
    with pytest.raises(ValueError, match="predicted needs a bracket"):
        lowest_eigenvalues(fine, 3, None, (list(centres), list(widths)))


@pytest.mark.parametrize("width", [math.nan, math.inf], ids=["nan", "inf"])
def test_a_non_finite_half_width_falls_back_to_the_bracket(lapack, capfd, width):
    # a bad guess costs time, not an error: the (vl, vu] bisection runs last
    fine, bracket, (centres, widths) = _richardson_brackets(
        _problem(1, 1, NU44), 2)
    wide = list(lowest_eigenvalues(fine, 3, bracket))
    widths[1] = width
    lapack.clear()
    assert list(lowest_eigenvalues(fine, 3, bracket, (centres, widths))) == wide
    assert lapack[-1] == (1, *bracket, 1e-13)
    assert capfd.readouterr() == ("", "")


@pytest.mark.parametrize("n_max", [-1, 1.5, 10, True])
def test_a_bad_n_max_is_refused_by_name_before_any_solve(solves, n_max):
    message = f"n_max must be an integer from 0 to 9, got {n_max}"
    with pytest.raises(ValueError, match=re.escape(message)):
        validate_sector((1, 1), NU44, SCALE, [1], n_max)
    with pytest.raises(ValueError, match=re.escape(message)):
        oracle_energies(_problem(1, 1, NU44), n_max)
    assert solves == []


@pytest.mark.parametrize("sectors, ell_list, n_max, message", [
    ([(1, 1)], [], -5, "n_max must be an integer from 0 to 9, got -5"),
    ([(1, 1), (2, 1)], [1], 2, "sector labels must be +/-1, got (2, 1)"),
    ([(1,)], [1], 2, "sector labels must be +/-1, got (1,)"),
    ([(1, 1)], [], 2, "ell_list must hold at least one ell"),
], ids=["n_max", "label", "short label", "no ell"])
def test_validate_sectors_checks_its_input_before_any_solve(
        solves, sectors, ell_list, n_max, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        validate_sectors(sectors, NU44, ell_list, n_max)
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
    assert len(report.rows) == 4  # 1 ell x 2 m_s x n in {0,1}
    assert max(row.deviation for row in report.rows) <= 1e-7


def test_validate_sector_reports_mismatch_without_raising():
    # the report carries no verdict: a tolerance below the oracle's miss
    # is an unread slot and leaves the rows as they are
    rows = validate_sector((1, 1), NU44, SCALE, [1], 0).rows
    assert max(row.deviation for row in rows) > 1e-14
    assert validate_sector((1, 1), NU44, SCALE, [1], 0, tolerance=1e-14).rows == rows
    assert validate_sector((1, 1), NU44, SCALE, [1], 0, None, 1e-14).rows == rows


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
