import math
import tracemalloc
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dunkl_pauli import rounding, thermo
from dunkl_pauli.algebra import WignerParams
from dunkl_pauli.spectrum import eta, rho
from dunkl_pauli.thermo import (MODES, QUANTITIES, ThermoCurve, ThermoInputs,
                                direct_sum_partition, entropy, heat_capacity,
                                helmholtz, internal_energy, log_grid,
                                log_partition, partition, sweep, sweeps)

PIN_RHO = 2.7416407864998735  # rho at ell=1, even sector, nu1=nu2=0.4


def test_inputs_validation():
    with pytest.raises(ValueError):
        ThermoInputs(0.0, 1.0, 0.5)
    with pytest.raises(ValueError):
        ThermoInputs(-1.0, 1.0, 0.5)
    with pytest.raises(ValueError):
        ThermoInputs(1.0, 1.0, 0.5, mode="exact")


@pytest.mark.parametrize("field", ["x", "rho", "eta"])
@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
def test_non_finite_inputs_are_refused_by_name(field, bad):
    # a bad ladder is refused on construction, not reported later as a
    # value the decimal fallback cannot settle
    args = {"x": 1.0, "rho": 1.0, "eta": 0.5, field: bad}
    with pytest.raises(ValueError, match=f"{field} must be finite"):
        ThermoInputs(**args)
    with pytest.raises(ValueError, match=f"{field} must be finite"):
        direct_sum_partition(**args)


def test_partition_undeformed_value():
    # rho = 0, eta = 1/2, x = 2: Z = cosh(1)/sinh(1) = coth(1)
    z = partition(ThermoInputs(2.0, 0.0, 0.5))
    assert z == pytest.approx(1.3130352854993312, rel=1e-15)
    assert z == pytest.approx(1 / math.tanh(1.0), rel=1e-15)


def test_partition_rearrangement_identity():
    for x in (0.3, 1.7, 12.0):
        for r, h in ((0.0, 0.5), (2.74, 0.9), (0.8, 0.1)):
            z = partition(ThermoInputs(x, r, h))
            assert z * math.exp(x * r) * math.sinh(x / 2) / math.cosh(x * h) \
                == pytest.approx(1.0, rel=1e-12)


def test_partition_antidiagonal_deformation_aligns_with_undeformed():
    # nu1 = -nu2 in an even-parity sector: same rho, eta = 1/2 exactly
    params = WignerParams(F(2, 5), F(-2, 5))
    params0 = WignerParams(0, 0)
    for eps1, eps2 in ((1, 1), (-1, -1)):
        r1 = rho(1, 1, 1, params)
        r0 = rho(1, 1, 1, params0)
        assert r1 == r0
        assert eta(eps1, eps2, params) == 0.5
        for x in (0.1, 1.0, 7.0):
            assert partition(ThermoInputs(x, r1, eta(eps1, eps2, params))) \
                == partition(ThermoInputs(x, r0, 0.5))


def test_direct_sum_matches_closed_form():
    for x in (0.1, 0.5, 1.0, 2.0, 5.0, 10.0):
        for r in (0.0, PIN_RHO, 0.8):
            for h in (0.5, 0.9, 0.1):
                z = partition(ThermoInputs(x, r, h))
                zd = direct_sum_partition(x, r, h)
                assert zd == pytest.approx(z, rel=1e-12)


def test_direct_sum_ground_state_dominance():
    x, r, h = 50.0, 0.8, 0.9
    z = direct_sum_partition(x, r, h)
    assert z == pytest.approx(math.exp(-x * (0.5 + r - h)), rel=1e-15)


def test_direct_sum_spin_factor_at_eta_zero():
    # eta = 0 collapses the spin sum to a factor 2
    x, r = 1.5, 0.3
    z = direct_sum_partition(x, r, 0.0)
    single = sum(math.exp(-x * (n + 0.5 + r)) for n in range(200))
    assert z == pytest.approx(2 * single, rel=1e-13)


def test_direct_sum_nmax_validation():
    direct_sum_partition(2.0, 0.0, 0.5)
    with pytest.raises(ValueError):
        direct_sum_partition(-1.0, 0.0, 0.5)
    with pytest.raises(ValueError, match="impractical"):  # n_max ~ 5e10
        direct_sum_partition(1e-9, 0.0, 0.5)


def test_helmholtz_is_minus_log_z_over_x():
    for x in (0.2, 1.0, 30.0):
        ti = ThermoInputs(x, 1.1, 0.7)
        assert helmholtz(ti) == pytest.approx(-log_partition(ti) / x, rel=1e-13)


def test_helmholtz_examples():
    # x -> infinity at rho = 0, eta = 1/2: ground-state energy 0 of that
    # ladder, approached from below as F = -log(coth(x/2))/x; the value is
    # mpmath's round-to-nearest of -(log1p(q) - log1p(-q))/x, q = exp(-x)
    assert helmholtz(ThermoInputs(500.0, 0.0, 0.5)) == -2.849830562696514e-220
    got = helmholtz(ThermoInputs(2.0, 0.0, 0.5))
    assert got == pytest.approx(0.5 * math.log(math.tanh(1.0)), rel=1e-14)
    assert got == pytest.approx(-0.13617073445591577, rel=1e-13)


def test_internal_energy_consistent_matches_derivative():
    x, r, h = 1.0, 2.0, 0.9
    dx = 1e-5
    fd = -(log_partition(ThermoInputs(x + dx, r, h))
           - log_partition(ThermoInputs(x - dx, r, h))) / (2 * dx)
    assert internal_energy(ThermoInputs(x, r, h)) == pytest.approx(fd, rel=1e-8)


def test_internal_energy_mode_difference_is_two_rho():
    for x in (0.4, 3.0):
        u_c = internal_energy(ThermoInputs(x, PIN_RHO, 0.9, "consistent"))
        u_p = internal_energy(ThermoInputs(x, PIN_RHO, 0.9, "paper-faithful"))
        assert u_c - u_p == pytest.approx(2 * PIN_RHO, rel=1e-13)


def test_internal_energy_limits():
    # high T: U ~ KT + rho (consistent) / KT - rho (paper-faithful)
    x = 1e-4
    assert internal_energy(ThermoInputs(x, 2.0, 0.9)) \
        == pytest.approx(1 / x + 2.0, rel=1e-4)
    assert internal_energy(ThermoInputs(x, 2.0, 0.9, "paper-faithful")) \
        == pytest.approx(1 / x - 2.0, rel=1e-4)
    # low T: 1/2 - eta + rho (consistent), 1/2 - eta - rho (printed form)
    x = 80.0
    assert internal_energy(ThermoInputs(x, 2.0, 0.9)) \
        == pytest.approx(0.5 - 0.9 + 2.0, rel=1e-12)
    assert internal_energy(ThermoInputs(x, 2.0, 0.9, "paper-faithful")) \
        == pytest.approx(0.5 - 0.9 - 2.0, rel=1e-12)


def test_heat_capacity_pinned_value_and_derivative():
    c = heat_capacity(ThermoInputs(1.0, 0.0, 0.9))
    assert c == pytest.approx(1.3150766567379488, rel=1e-15)
    x, dx = 1.0, 1e-5
    du = (internal_energy(ThermoInputs(x + dx, 0.0, 0.9))
          - internal_energy(ThermoInputs(x - dx, 0.0, 0.9))) / (2 * dx)
    assert c == pytest.approx(-x * x * du, rel=1e-8)


def test_heat_capacity_high_temperature_plateau():
    assert heat_capacity(ThermoInputs(1e-3, 3.0, 0.9)) == pytest.approx(1.0, abs=1e-3)


def test_heat_capacity_low_temperature_asymptotics():
    # C ~ x^2 e^-x + 4 (x eta)^2 e^-2 x eta for large x (the published display
    # drops the prefactor 4 and the sinh/cosh halving, an approximation)
    x, h = 40.0, 0.9
    asym = x * x * math.exp(-x) + 4 * (x * h) ** 2 * math.exp(-2 * x * h)
    assert heat_capacity(ThermoInputs(x, 0.0, h)) == pytest.approx(asym, rel=1e-10)


def test_heat_capacity_mode_independent():
    for x in (0.2, 1.0, 15.0):
        assert heat_capacity(ThermoInputs(x, 1.0, 0.7, "consistent")) \
            == heat_capacity(ThermoInputs(x, 1.0, 0.7, "paper-faithful"))


def test_entropy_third_law_consistent():
    # S -> 0+ as T -> 0; the value is mpmath's round-to-nearest of
    # log Z - x d(log Z)/dx for the ladder summed at 120 digits
    assert entropy(ThermoInputs(60.0, 1.0, 0.9)) == 5.341471565244877e-25


def test_entropy_consistent_satisfies_f_u_ts():
    x = 0.05
    while x <= 50:
        ti = ThermoInputs(x, 1.3, 0.7)
        resid = abs(x * helmholtz(ti) - x * internal_energy(ti) + entropy(ti))
        assert resid <= 1e-10
        x *= 1.4


def test_entropy_paper_faithful_identity_residual_reported():
    # the printed transcription does not satisfy F = U - TS; the residual is
    # real and large, which is exactly what the discrepancy report records
    ti = ThermoInputs(1.0, 1.3, 0.7, "paper-faithful")
    resid = abs(helmholtz(ti) - internal_energy(ti) + entropy(ti))
    assert resid > 0.1


def test_entropy_high_temperature_deformation_independent():
    s_deformed = entropy(ThermoInputs(0.005, 1.0, 0.9))
    s_plain = entropy(ThermoInputs(0.005, 1.0, 0.5))
    assert abs(s_deformed - s_plain) < 1e-4


def test_all_quantities_finite_over_wide_range():
    # (rho, eta): deformed even ladder, eta = 0, sector -- at nu = (0.8, 0.8)
    # (negative eta), the undeformed ladder whose ground level sits at 0
    ladders = [(2.74, 0.9), (1.3, 0.0), (0.8, -0.3), (0.0, 0.5)]
    for x in (1e-8, 1e-3, 0.1, 1.0, 30.0, 100.0, 700.0, 1e4, 1e6):
        for r, h in ladders:
            for mode in MODES:
                for fn in (*QUANTITIES.values(), log_partition):
                    v = fn(ThermoInputs(x, r, h, mode))
                    assert math.isfinite(v), (fn.__name__, x, r, h, mode)


@given(st.floats(1e-3, 700.0), st.floats(0.0, 3.0), st.floats(0.05, 1.25),
       st.sampled_from(MODES))
@settings(max_examples=120)
def test_quantities_finite_property(x, r, h, mode):
    ti = ThermoInputs(x, r, h, mode)
    for fn in QUANTITIES.values():
        assert math.isfinite(fn(ti))


@given(st.floats(0.01, 50.0), st.floats(0.0, 3.0), st.floats(0.05, 1.25))
@settings(max_examples=80)
def test_consistent_thermo_identity_property(x, r, h):
    ti = ThermoInputs(x, r, h)
    resid = abs(x * helmholtz(ti) - x * internal_energy(ti) + entropy(ti))
    assert resid <= 1e-9 * max(1.0, abs(x * helmholtz(ti)))


# ------------------------------------------- correctly rounded scalar values

def test_entropy_takes_abs_eta():
    # sector -- at nu = (0.8, 0.8) has eta = -0.3; with eta in place of
    # |eta| two terms of about 60 cancel and S comes out negative
    s = entropy(ThermoInputs(100.0, 0.8, -0.3))
    assert s == entropy(ThermoInputs(100.0, 0.8, 0.3))
    assert s == pytest.approx(5.341471565244889e-25, rel=1e-15)


def test_ground_level_at_zero_keeps_exponentially_small_values():
    # rho = 0, eta = 1/2: the exact parts of F, U and log Z cancel, and
    # what is left decays like exp(-x), far above the underflow threshold
    ti = ThermoInputs(100.0, 0.0, 0.5)
    tiny = 2 * math.exp(-100.0)
    assert helmholtz(ti) == pytest.approx(-tiny / 100, rel=1e-15, abs=0)
    assert internal_energy(ti) == pytest.approx(tiny, rel=1e-15, abs=0)
    assert log_partition(ti) == pytest.approx(tiny, rel=1e-15, abs=0)
    # log Z = 2e-4343 rounds to 0; the cancelling linear part adds nothing
    assert log_partition(ThermoInputs(1e4, 0.0, 0.5)) == 0.0


# ---------------------------------------------------------------- sweeps

def test_sweep_partition_is_increasing_in_temperature():
    curve = sweep("Z", ThermoInputs(1.0, PIN_RHO, 0.9), np.geomspace(0.01, 10, 400))
    assert all(b > a for a, b in zip(curve.values, curve.values[1:]))


def test_sweep_heat_capacity_has_single_interior_peak():
    curve = sweep("C", ThermoInputs(1.0, 0.0, 0.9), np.geomspace(0.01, 10, 400))
    v = curve.values
    peaks = [i for i in range(1, len(v) - 1) if v[i - 1] < v[i] > v[i + 1]]
    assert len(peaks) == 1
    assert v[-1] == pytest.approx(1.0, abs=2e-2)


def test_sweep_free_energy_low_temperature_limit():
    r, h = 0.8, 0.9
    curve = sweep("F", ThermoInputs(1.0, r, h), [0.001, 0.01])
    assert curve.values[0] == pytest.approx(0.5 + r - h, rel=1e-10)


def test_sweep_validation():
    with pytest.raises(ValueError):
        sweep("Q", ThermoInputs(1.0, 0.0, 0.5), [0.1, 1.0])
    with pytest.raises(ValueError):
        sweep("Z", ThermoInputs(1.0, 0.0, 0.5), [-1.0, 1.0])
    with pytest.raises(ValueError):
        ThermoCurve("Z", (1.0, 0.5), (1.0, 1.0), ThermoInputs(1.0, 0.0, 0.5))
    with pytest.raises(ValueError):
        ThermoCurve("Z", (0.5, 1.0), (1.0, math.inf), ThermoInputs(1.0, 0.0, 0.5))


def test_sweep_records_provenance():
    template = ThermoInputs(1.0, 0.3, 0.7, "paper-faithful")
    curve = sweep("U", template, [0.5, 1.0, 2.0])
    assert curve.provenance is template
    assert curve.quantity == "U"
    assert curve.grid == (0.5, 1.0, 2.0)


# (rho, eta) of the batched ladders: eta = 0 (the paper-faithful entropy
# limit), rho = 0, rho = |eta| - 1/2 (log Z without its linear part, here
# with a negative eta), a deformed even ladder and a generic one.  x = 700
# on the wide grids needs the decimal fallback for every quantity.
BATCH = [(1.3, 0.0), (0.0, 0.5), (0.25, -0.75), (PIN_RHO, 0.9), (0.8, 0.3)]
BATCH_GRIDS = [log_grid(1 / 700, 1000.0, 400), log_grid(1 / 700, 1000.0, 12)]


def _bytes(values):
    return np.array(values, dtype=float).tobytes()


@pytest.mark.parametrize("quantity", sorted(QUANTITIES))
def test_sweeps_equal_one_sweep_per_template_bit_for_bit(fallbacks, quantity):
    for grid in BATCH_GRIDS:
        for mode in MODES:
            templates = [ThermoInputs(1.0, r, h, mode) for r, h in BATCH]
            before = len(fallbacks)
            batched = sweeps(quantity, templates, grid)
            assert len(fallbacks) > before  # the fallback ran
            assert [c.provenance for c in batched] == templates
            for template, curve in zip(templates, batched):
                alone = sweep(quantity, template, grid)
                assert curve.grid == alone.grid == grid
                assert _bytes(curve.values) == _bytes(alone.values), \
                    (quantity, mode, template, len(grid))


def test_batched_log_partition_decides_its_linear_part_per_element():
    # log Z is no sweep quantity; its closed form is batched the same way.
    # At (1e-20, 0.5) e - rho rounds to 1/2, but e - 1/2 - rho is -1e-20:
    # the linear part stays, and it dominates log Z
    ladders = [*BATCH, (1e-20, 0.5)]
    x = 1.0 / np.array(BATCH_GRIDS[0])
    for mode in MODES:
        terms = thermo._curve_terms("log Z", mode)
        batched = rounding.round_curve(terms, x, [[r] for r, _ in ladders],
                                       [[abs(h)] for _, h in ladders])
        alone = [v for r, h in ladders for v in rounding.round_curve(terms, x, r, abs(h))]
        assert _bytes(batched) == _bytes(alone)
        assert batched[2 * x.size:3 * x.size:57] == [
            log_partition(ThermoInputs(float(v), 0.25, -0.75, mode)) for v in x[::57]]
        assert log_partition(ThermoInputs(100.0, 1e-20, 0.5, mode)) == -100 * 1e-20


def test_sweeps_validation():
    grid = (0.5, 1.0)
    for templates in ([], [ThermoInputs(1.0, 0.0, 0.5),
                           ThermoInputs(1.0, 0.0, 0.5, "paper-faithful")]):
        with pytest.raises(ValueError, match="one mode"):
            sweeps("Z", templates, grid)
    with pytest.raises(ValueError, match="positive and finite"):
        sweeps("Z", [ThermoInputs(1.0, 0.0, 0.5)], (1.0, math.inf))


def test_an_unsettled_point_names_its_position(monkeypatch):
    # with the decimal fallback capped at 4 digits, the first point that
    # needs it fails; its index // len(grid) is the template
    monkeypatch.setattr(rounding, "_PRECISIONS", (4,))
    grid = BATCH_GRIDS[1]
    templates = [ThermoInputs(1.0, 0.3, 0.7), ThermoInputs(1.0, 0.0, 0.5)]
    with pytest.raises(rounding.Unsettled, match="within 4 digits") as exc:
        sweeps("F", templates, grid)
    assert isinstance(exc.value, ValueError)
    assert exc.value.index // len(grid) == 1


@pytest.mark.parametrize("t_min, t_max, steps, message", [
    (0.01, 10.0, 1, "at least 2 grid points"),
    (0.01, 10.0, 0, "at least 2 grid points"),
    (0.01, 10.0, 400.0, "steps must be an integer, got 400.0"),
    (0.01, 10.0, True, "steps must be an integer, got True"),
    (10.0, 0.01, 400, "0 < tmin < tmax"),
    (1.0, 1.0, 400, "0 < tmin < tmax"),
    (0.0, 1.0, 400, "0 < tmin < tmax"),
    (-1.0, 1.0, 400, "0 < tmin < tmax"),
    (math.nan, 1.0, 400, "0 < tmin < tmax"),
    (0.01, math.nan, 400, "0 < tmin < tmax"),
    (0.01, math.inf, 400, "0 < tmin < tmax"),
])
def test_log_grid_refuses_bad_arguments_before_any_rounding(
        monkeypatch, t_min, t_max, steps, message):
    def no_rounding(*args):
        raise AssertionError("log_grid rounded a point of a refused grid")

    monkeypatch.setattr(thermo, "round_curve", no_rounding)
    with pytest.raises(ValueError, match=message):
        log_grid(t_min, t_max, steps)


NINE = [ThermoInputs(1.0, 0.3 * k, 0.1 * k) for k in range(1, 10)]
# elements through the array path's exp in a nine-ladder, 400-point panel:
# the factors of x alone (q = exp(-x) and log1p(-q)'s Newton step) are
# computed once per temperature, those of x*|eta| once per ladder and
# temperature, and paper-faithful S takes one more, for its ln 2
PANEL_EXP_ELEMENTS = {"C": 4000, "U": 4000, "Z": 7600, "F": 8000, "S": 8000}


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("quantity", sorted(QUANTITIES))
def test_a_panel_computes_its_grid_factors_once(monkeypatch, quantity, mode):
    grid, counted = log_grid(0.01, 10.0, 400), []

    def exp(xp, a):
        if xp is rounding._Arrays:
            counted.append(np.size(a.hi))
        return rounding._exp(xp, a)

    monkeypatch.setattr(rounding._Path, "exp", classmethod(exp))
    sweeps(quantity, [ThermoInputs(t.x, t.rho, t.eta, mode) for t in NINE], grid)
    extra = quantity == "S" and mode == "paper-faithful"
    assert sum(counted) <= PANEL_EXP_ELEMENTS[quantity] + extra


# 60 float64 arrays of a nine-curve, 400-point panel
PANEL_ARRAYS = 60 * 9 * 400 * 8


@pytest.mark.parametrize("quantity", sorted(QUANTITIES))
def test_a_panel_sweep_keeps_few_panel_sized_arrays_alive(quantity):
    # each exp and log1p of a closed form is its own vectorised call, so its
    # temporaries die when it returns
    grid = log_grid(0.01, 10.0, 400)
    sweeps(quantity, NINE, grid)  # warm-up: the kernel's constant tables
    tracing = tracemalloc.is_tracing()
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        entry = tracemalloc.get_traced_memory()[0]
        sweeps(quantity, NINE, grid)
        peak = tracemalloc.get_traced_memory()[1] - entry
    finally:
        if not tracing:
            tracemalloc.stop()
    assert peak < PANEL_ARRAYS, f"{quantity}: {peak / 1e6:.2f} MB"
