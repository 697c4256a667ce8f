"""Correct rounding of thermo values, emitted and scalar, and of
temperature grids.

The reference is scripts/check_rounding.py (mpmath), which checks the whole
figure bundle; here a seeded sample covers every quantity and mode, log Z,
the ends of the documented range x = beta*omega_c in [1e-3, 700], eta = 0,
negative eta, both evaluation paths of the fast code (vectorised and
point by point), the scalar functions and the decimal fallback.
"""

import decimal
import hashlib
import importlib.util
import json
import math
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from dunkl_pauli import rounding, thermo
from dunkl_pauli.cli import main as cli_main
from dunkl_pauli.thermo import (MODES, QUANTITIES, ThermoInputs, entropy,
                                log_grid, log_partition, sweep)

ROOT = Path(__file__).resolve().parents[1]

# (rho, eta): a deformed even ladder, the fig1c/1d ladder, eta = 0 (where the
# paper-faithful entropy takes its limit), negative eta, the undeformed one
LADDERS = [(2.7416407864998735, 0.9), (0.9582364933346154, 0.7), (1.3, 0.0),
           (0.8, -0.3), (0.0, 0.5)]
WIDE = log_grid(1 / 700, 1000.0, 24)  # x from 700 to 1e-3, vectorised path
SHORT = (1 / 700, 0.05, 3.0, 1000.0)  # point-by-point path


def _reference():
    pytest.importorskip("mpmath")
    spec = importlib.util.spec_from_file_location(
        "check_rounding", ROOT / "scripts" / "check_rounding.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _ladders(rng):
    return LADDERS + [(rng.uniform(0, 3), rng.uniform(-1.25, 1.25))
                      for _ in range(3)]


def test_sampled_values_equal_mpmath_rounding():
    ref = _reference()
    rng = random.Random(20230925)
    assert WIDE[-1] == 1000.0 and 1 / WIDE[0] == pytest.approx(700, rel=1e-15)
    checked = 0
    for rho, eta in _ladders(rng):
        for mode in MODES:
            for quantity in QUANTITIES:
                template = ThermoInputs(1.0, rho, eta, mode)
                wide = sweep(quantity, template, WIDE)
                short = sweep(quantity, template, SHORT)
                rows = ([(WIDE[i], wide.values[i])
                         for i in (0, len(WIDE) - 1, *rng.sample(range(1, 23), 4))]
                        + list(zip(SHORT, short.values)))
                for tau, value in rows:
                    want = [ref.reference(quantity, mode, 1.0 / tau, rho, eta,
                                          digits) for digits in (60, 120)]
                    assert want[0] == want[1], (quantity, mode, rho, eta, tau)
                    assert value == want[0], (quantity, mode, rho, eta, tau)
                    scalar = QUANTITIES[quantity](
                        ThermoInputs(1.0 / tau, rho, eta, mode))
                    assert scalar == value, (quantity, mode, rho, eta, tau)
                    checked += 1
                if quantity == "Z":  # log Z at the same points
                    for tau, _ in rows:
                        x = 1.0 / tau
                        want = [ref.reference("log Z", mode, x, rho, eta, d)
                                for d in (60, 120)]
                        assert want[0] == want[1], (mode, rho, eta, tau)
                        assert log_partition(ThermoInputs(x, rho, eta, mode)) \
                            == want[0], (mode, rho, eta, tau)
                        checked += 1
    assert checked == 8 * 2 * 6 * 10


def test_scalar_entropy_at_high_temperature_equals_mpmath_rounding():
    # beyond the documented range: 1 - exp(-x) keeps few digits in floats
    ref = _reference()
    for rho, eta in LADDERS:
        for mode in MODES:
            got = entropy(ThermoInputs(1e-6, rho, eta, mode))
            assert got == ref.reference("S", mode, 1e-6, rho, eta, 60), \
                (mode, rho, eta)


def test_sampled_grid_points_equal_mpmath_rounding():
    ref = _reference()
    rng = random.Random(7)
    # the extreme ends reach the decimal fallback through log1p(t - 1)
    for grid_args in ((0.01, 10.0, 400), (1 / 700, 1000.0, 24),
                      (5e-324, 1.0, 7), (1e-310, 2.0, 7),
                      (2.2250738585072014e-308, 3.0, 5),
                      (1e-3, 1.7976931348623157e308, 7)):
        got = log_grid(*grid_args)
        want = [ref.expected_grid(*grid_args, digits) for digits in (60, 120)]
        assert want[0] == want[1]
        for i in rng.sample(range(len(got)), min(len(got), 60)):
            assert got[i] == want[0][i], (grid_args, i)


def test_grid_endpoints_and_exact_powers_of_ten():
    grid = log_grid(1.0, 1e30, 31)
    assert grid[0] == 1.0 and grid[-1] == 1e30
    # 10**23 lies halfway between two doubles; ties go to even
    assert grid[23] == float(Fraction(10) ** 23) == 9.999999999999999e22
    assert grid == tuple(float(Fraction(10) ** k) for k in range(31))


@pytest.mark.parametrize("grid", [WIDE, SHORT], ids=["vectorised", "pointwise"])
def test_decimal_fallback_agrees_bit_for_bit_with_fast_path(grid):
    xs = [1.0 / tau for tau in grid]
    for rho, eta in LADDERS:
        for mode in MODES:
            for quantity in (*QUANTITIES, "log Z"):
                terms = thermo._curve_terms(quantity, mode)
                fast = rounding.round_curve(terms, xs, rho, abs(eta))
                slow = [rounding.settle(terms, x, rho, abs(eta)) for x in xs]
                assert fast == slow, (quantity, mode, rho, eta)


def test_decimal_fallback_raises_at_its_precision_cap(monkeypatch):
    terms = thermo._curve_terms("S", "consistent")
    assert rounding.settle(terms, 2.5, 0.8, 0.3) == sweep(
        "S", ThermoInputs(1.0, 0.8, -0.3), [0.4]).values[0]
    monkeypatch.setattr(rounding, "_PRECISIONS", (4, 8))
    with pytest.raises(ValueError, match="within 8 digits"):
        rounding.settle(terms, 2.5, 0.8, 0.3)


def test_decimal_fallback_settles_an_exact_midpoint():
    # 0.7 * 3/2 needs 54 bits: it lies halfway between two doubles, and an
    # exact decimal product carries no rounding error, so ties go to even
    got = rounding.round_curve(lambda num, t: ((), num.const(t) * 1.5), (0.5, 0.7))
    assert got == [0.75, float(Fraction(0.7) * Fraction(3, 2))]
    assert got == [0.75, 1.0499999999999998]


def test_exp_tables_equal_one_60_digit_exp_per_entry():
    # _exp's tables are the powers of one exp(ln2/n) each; every entry, hi
    # and lo, must be the split of its own 60-digit exp(j*ln2/n), bit for bit
    ctx = decimal.Context(prec=60)
    ln2 = ctx.ln(2)
    reference = []
    for n in (64, 4096):
        exact = [ctx.exp(ctx.multiply(ln2, ctx.divide(j, n))) for j in range(64)]
        his = [float(d) for d in exact]
        reference += [his, [float(ctx.subtract(d, decimal.Decimal(hi)))
                            for d, hi in zip(exact, his)]]
    assert ([list(map(float.hex, col)) for col in rounding._constants().tables]
            == [list(map(float.hex, col)) for col in reference])


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("size", [4, 40], ids=["pointwise", "vectorised"])
def test_a_non_finite_argument_is_unsettled_at_its_index(fallbacks, bad, size):
    terms = thermo._curve_terms("S", "consistent")
    x = [1.0] * size
    x[size // 2 + 1] = bad
    with pytest.raises(rounding.Unsettled, match="non-finite") as exc:
        rounding.round_curve(terms, x, [[0.3], [0.8]], 0.5)
    assert exc.value.index == size // 2 + 1
    assert fallbacks == []  # refused before any decimal evaluation


# Run in a fresh interpreter, where numpy is not loaded and every call of up
# to rounding._COLD elements takes the float path, and here, where numpy is
# loaded and every call of more than rounding._SHORT takes the array path
_PATHS_PROBE = """\
import json, math, sys
from dunkl_pauli import rounding, thermo


def run(ladders, wide):
    grid = thermo.log_grid(0.01, 10.0, 400)
    out = [grid, thermo.log_grid(1.0, 1e30, 31)]
    for mode in thermo.MODES:
        each = [thermo.ThermoInputs(1.0, r, h, mode) for r, h in ladders]
        for k, quantity in enumerate(sorted(thermo.QUANTITIES)):
            for templates, taus in ((each, wide), (each[k:k + 1], grid),
                                    (each, ())):
                out += [c.values for c in thermo.sweeps(quantity, templates, taus)]
    out += [c.values for c in thermo.sweeps("S", each[1:3], grid)]
    x = [1.0 / t for t in wide]
    x[5] = math.nan
    try:
        rounding.round_curve(thermo._curve_terms("U", "consistent"), x,
                             [[0.3], [0.8]], 0.5)
    except rounding.Unsettled as exc:
        index = exc.index
    return [[v.hex() for v in values] for values in out], index


if __name__ == "__main__":
    print(json.dumps([run(*json.loads(sys.argv[1])), "numpy" in sys.modules]))
"""


def test_the_float_path_without_numpy_equals_the_array_path_bit_for_bit():
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))}
    result = subprocess.run(
        [sys.executable, "-c", _PATHS_PROBE, json.dumps([LADDERS, WIDE])],
        env=env, check=True, capture_output=True, text=True, timeout=120)
    (values, index), loaded = json.loads(result.stdout)
    assert not loaded
    probe = {"__name__": "probe"}
    exec(_PATHS_PROBE, probe)
    assert "numpy" in sys.modules
    want_values, want_index = probe["run"](LADDERS, WIDE)
    assert len(values) == 2 + 2 * 5 * (5 + 1 + 5) + 2
    assert values == want_values and index == want_index == 5


def _negated_pow10_terms(num, y):
    return (), -thermo._pow10_terms(num, y)[1]


@pytest.mark.parametrize("y, value", [
    (400, math.inf), (308.5, math.inf), (1000, math.inf),
    (-400, 0.0), (-1000, 0.0), (-323.5, 5e-324)])
def test_decimal_fallback_rounds_values_beyond_the_double_range(y, value):
    # 10**y above the largest double overflows, below half the smallest
    # subnormal it is +0.0; |y| = 1000 puts both interval ends past the clamp
    got = rounding.settle(thermo._pow10_terms, y)
    assert got == value and math.copysign(1.0, got) == 1.0
    got = rounding.settle(_negated_pow10_terms, y)  # the sign follows, of 0 too
    assert got == -value and math.copysign(1.0, got) == -1.0


def test_paper_faithful_bundle_matches_its_pins(tmp_path, fallbacks):
    for fig in range(1, 9):
        assert cli_main(["figure", "--figure", str(fig), "--mode",
                         "paper-faithful", "--out", str(tmp_path)]) == 0
    # every value takes the fast test first; these bounds may only fall
    assert len(fallbacks) <= 126
    pinned = json.loads((ROOT / "tests" / "data" /
                         "figure_checksums_paper_faithful.json").read_text())
    produced = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
                for p in tmp_path.glob("*.csv")}
    assert produced == pinned


def _cpu_features():
    try:
        from numpy._core._multiarray_umath import __cpu_features__
    except ImportError:  # numpy < 2
        from numpy.core._multiarray_umath import __cpu_features__
    return __cpu_features__


NO_AVX512 = "SSE,SSE2,SSE3,SSSE3,SSE41,POPCNT,SSE42,AVX,F16C,FMA3,AVX2"
AVX512_DISPATCHED = """
try:
    from numpy._core._multiarray_umath import __cpu_features__ as f
except ImportError:
    from numpy.core._multiarray_umath import __cpu_features__ as f
print(f["AVX512_SKX"])
"""


@pytest.mark.skipif(not _cpu_features().get("AVX512_SKX"),
                    reason="numpy reports no AVX512_SKX on this CPU")
def test_bundle_without_avx512_dispatch_matches_pins(tmp_path):
    env = {**os.environ, "NPY_ENABLE_CPU_FEATURES": NO_AVX512,
           "PYTHONPATH": os.pathsep.join(
               filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))}

    def run(*argv):
        return subprocess.run([sys.executable, *argv], env=env, check=True,
                              capture_output=True, text=True, timeout=300)

    assert run("-c", AVX512_DISPATCHED).stdout.strip() == "False"
    run(str(ROOT / "scripts" / "make_figures.py"), "--out", str(tmp_path))
    pinned = json.loads((ROOT / "tests" / "data" /
                         "figure_checksums.json").read_text())
    produced = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
                for p in tmp_path.glob("*.csv")}
    assert produced == pinned
