"""Canonical-ensemble thermodynamics of one fixed-(sector, ell) level ladder.

Everything is dimensionless: x = beta*omega_c, temperatures tau = 1/x, F and
U in units of omega_c, C and S in units of the Boltzmann constant.  The
ladder is E_n/omega_c = n + 1/2 + rho - m_s*eta, summed over n >= 0 and
m_s = +/-1, giving

    Z = exp(-x*rho) * cosh(x*eta) / sinh(x/2).

Two evaluation modes exist because the published internal-energy and entropy
expressions are not the beta-derivatives of the published free energy:
"consistent" derives U and S from Z (so F = U - T*S holds to machine
precision), "paper-faithful" transcribes the printed formulas (+rho in U
becomes -rho; tanh(x*eta) in the last entropy term becomes coth(x*eta)).
Z, F and C are identical in both modes.

The scalar functions, ``sweeps`` and ``sweep`` return the correctly
rounded (round-to-nearest) double of each closed form at x, rho and eta,
from one evaluator: ``_curve_terms`` gives one closed form per quantity and
mode, and ``rounding.round_curve`` evaluates it elementwise over (x, rho,
eta), so that ``sweeps`` takes all the ladders of a figure panel on one
temperature grid in a single call.  ``log_grid`` returns the correctly
rounded points 10**y_i of the log-spaced grid y_i = i*step + lo,
step = (hi - lo)/(steps - 1), with lo and hi the correctly rounded log10 of
its exact endpoints, both from ``round_curve`` too.  Every value is therefore
the same on every IEEE-754 platform, whatever its libm or SIMD dispatch.
``round_curve`` loads numpy only for a call of more than ``rounding._COLD``
elements, so a one-ladder curve of 400 temperatures and its grid need none.
A value the decimal fallback cannot settle, which happens only far outside
x in [1e-3, 700], raises ValueError.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction

from .algebra import _Record
from .rounding import _two_sum, round_curve

MODES = ("consistent", "paper-faithful")


class ThermoInputs(_Record):
    """Dimensionless evaluation point: x = beta*omega_c plus the ladder's
    (rho, eta), all three finite, and the evaluation mode."""

    __slots__ = ("x", "rho", "eta", "mode")

    def __init__(self, x: float, rho: float, eta: float, mode: str = "consistent"):
        for name, v in (("x", x), ("rho", rho), ("eta", eta)):
            if not math.isfinite(v):
                raise ValueError(f"{name} must be finite, got {v}")
        if not x > 0:
            raise ValueError(f"x = beta*omega_c must be positive, got {x}")
        if mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}, got {mode!r}")
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "rho", rho)
        object.__setattr__(self, "eta", eta)
        object.__setattr__(self, "mode", mode)


def _value(quantity: str, inputs: ThermoInputs) -> float:
    """The correctly rounded closed form of one quantity at ``inputs``."""
    return round_curve(_curve_terms(quantity, inputs.mode), inputs.x,
                       inputs.rho, abs(inputs.eta))[0]


def log_partition(inputs: ThermoInputs) -> float:
    """log Z = -x*rho + log cosh(x*eta) - log sinh(x/2); mode-independent."""
    return _value("log Z", inputs)


def partition(inputs: ThermoInputs) -> float:
    """Closed-form Z.  (Z diverges like 2/x as x -> 0, which the x > 0
    precondition excludes.)"""
    return _value("Z", inputs)


def direct_sum_partition(x: float, rho: float, eta: float) -> float:
    """Oracle Z: literal sum of exp(-x*E_n) over n <= n_max and m_s = +/-1,
    n_max the smallest value whose geometric tail is below 1e-14 relative to
    the sum.  ValueError for a non-finite argument, for x <= 0, and where
    that n_max is impractical.
    """
    ThermoInputs(x, rho, eta)  # the same checks of x, rho and eta
    # tail over n > N, relative to Z:  <= exp(-x(N+1)) / (1 - exp(-x))
    n_max = max(math.ceil((-math.log(1e-14) - math.log(-math.expm1(-x))) / x), 1)
    if n_max > 10_000_000:
        raise ValueError("the 1e-14 tail bound needs an impractical n_max; "
                         "use the closed form for very small x")
    total = 0.0
    for n in range(n_max + 1):
        for m_s in (-1, 1):
            total += math.exp(-x * (n + 0.5 + rho - m_s * eta))
    return total


def helmholtz(inputs: ThermoInputs) -> float:
    """F/omega_c = (log sinh(x/2) - log cosh(x*eta))/x + rho; identical in
    both modes (it is -log(Z)/x)."""
    return _value("F", inputs)


def internal_energy(inputs: ThermoInputs) -> float:
    """U/omega_c = (1/2)coth(x/2) - eta*tanh(x*eta) + rho.

    The +rho is what -d(log Z)/d(beta) gives; paper-faithful mode flips it to
    the printed -rho.
    """
    return _value("U", inputs)


def heat_capacity(inputs: ThermoInputs) -> float:
    """C/K = (x/2)^2/sinh^2(x/2) + (x*eta)^2/cosh^2(x*eta); rho drops out of
    the second derivative, so the modes agree exactly."""
    return _value("C", inputs)


def entropy(inputs: ThermoInputs) -> float:
    """S/K = -log sinh(x/2) + (x/2)coth(x/2) + log cosh(x*eta) - x*eta*tanh(x*eta).

    That last factor is tanh as obtained from beta^2 dF/dbeta; paper-faithful
    mode uses the printed coth instead (their difference vanishes for large
    x*eta and blows the F = U - TS identity below it).
    """
    return _value("S", inputs)


class ThermoCurve(_Record):
    """One thermal quantity sampled on an ascending dimensionless temperature
    grid tau = KT/omega_c."""

    __slots__ = ("quantity", "grid", "values", "provenance")

    def __init__(self, quantity: str, grid: tuple[float, ...],
                 values: tuple[float, ...], provenance: ThermoInputs):
        if any(map(operator.le, grid[1:], grid)):
            raise ValueError("temperature grid must be strictly ascending")
        if not all(map(math.isfinite, values)):
            raise ValueError("curve contains non-finite values")
        self._set(quantity, grid, values, provenance)


QUANTITIES = {
    "Z": partition,
    "F": helmholtz,
    "U": internal_energy,
    "C": heat_capacity,
    "S": entropy,
}


def _curve_terms(quantity: str, mode: str):
    """The closed form ``terms(num, x, rho, e) -> (exact, t)`` of one quantity
    in one mode for :mod:`.rounding`, e = |eta|, of value ``sum(exact) + t``;
    x, rho and e are floats or float arrays that broadcast together.

    With y = x*e, q = exp(-x) and p = exp(-2y), the closed forms of the
    functions above regroup into sums whose terms, exact doubles apart,
    share one sign:

        Z = exp(y - x*rho - x/2) (1 + p)/(1 - q)
        log Z = (y - x*rho - x/2) + log1p(p) - log1p(-q)
        F = rho + 1/2 - e + (log1p(-q) - log1p(p))/x
        U = +/-rho + 1/2 - e + q/(1 - q) + 2e p/(1 + p)
        C = x^2 q/(1 - q)^2 + 4y^2 p/(1 + p)^2
        S = -log1p(-q) + x q/(1 - q) + log1p(p) + 2y p/(1 + p)

    except the last entropy term in paper-faithful mode, -2y p/(1 - p), or
    its limit log1p(1) - 1 where eta == 0.  The linear part of log Z is left
    out where e - 1/2 - rho is exactly 0: there its rounding error would
    swamp the exponentially small rest.  Both branches are taken per
    element (``num.choose``).  A ``_DD`` stays the left operand of every
    product with an argument, since numpy would otherwise make an object
    array of them.
    """

    def terms(num, x, rho, e):
        X = num.const(x)
        Y = X * e
        q, p = num.exp(-X), num.exp(-2 * Y)
        omq, opp = 1 - q, 1 + p
        if quantity == "Z":
            return (), num.exp(Y - X * rho - 0.5 * X) * opp / omq
        if quantity == "C":
            return (), X * X * q / (omq * omq) + 4 * Y * Y * p / (opp * opp)
        if quantity == "U":
            sign = 1.0 if mode == "consistent" else -1.0
            return (sign * rho, 0.5, -e), q / omq + p * (2 * e) / opp
        lq, lp = num.log1p(-q), num.log1p(p)
        if quantity == "log Z":
            t = lp - lq
            d, d_err = _two_sum(e, -rho)  # e - rho exactly
            return (), num.choose((d != 0.5) | (d_err != 0),
                                  lambda: t + (Y - X * rho - 0.5 * X), lambda: t)
        if quantity == "F":
            return (rho, 0.5, -e), (lq - lp) / X
        s = X * q / omq - lq
        if mode == "consistent":
            return (), s + lp + 2 * Y * p / opp
        return (), num.choose(e == 0, lambda: s + (num.log1p(num.const(1)) - 1),
                              lambda: s + lp - 2 * Y * p / (1 - p))

    return terms


def sweeps(quantity: str, templates, tau_grid) -> list[ThermoCurve]:
    """Evaluate one quantity over one temperature grid for each template's
    (rho, eta); the templates share one mode.

    Each value is the correctly rounded (round-to-nearest) double of the
    quantity's closed form above at x = 1.0/tau (the float division), rho
    and eta: the value the scalar function gives at that x, and the same on
    every IEEE-754 platform.  One ``round_curve`` call (``figure`` makes
    one per panel, over the ladders that no earlier panel of the layout
    evaluated) takes x as a row and (rho, |eta|) as a column of the
    templates, so that a factor of x alone is computed once per temperature.
    ``log_grid`` gives the matching grid.  Raises ValueError for templates
    of more than one mode or none, for temperatures that are not positive
    and finite or whose 1/tau overflows (subnormal ones), and (far outside
    x in [1e-3, 700]) ``rounding.Unsettled`` where the decimal fallback
    cannot settle a value; its ``index // len(tau_grid)`` is the template's
    position.
    """
    if quantity not in QUANTITIES:
        raise ValueError(f"quantity must be one of {sorted(QUANTITIES)}, "
                         f"got {quantity!r}")
    modes = {t.mode for t in templates}
    if len(modes) != 1:
        raise ValueError(f"the templates must share one mode, got {sorted(modes)}")
    taus = tuple(float(t) for t in tau_grid)
    if not all(0 < t < math.inf and 1.0 / t < math.inf for t in taus):
        raise ValueError("all temperatures and 1/tau must be positive and finite")
    # x along the grid, (rho, e) down the templates: one run per template
    values = round_curve(_curve_terms(quantity, modes.pop()),
                         [1.0 / t for t in taus],
                         [[t.rho] for t in templates],
                         [[abs(t.eta)] for t in templates])
    n = len(taus)
    return [ThermoCurve(quantity, taus, tuple(values[k * n:(k + 1) * n]), t)
            for k, t in enumerate(templates)]


def sweep(quantity: str, template: ThermoInputs, tau_grid) -> ThermoCurve:
    """``sweeps`` with the one template: the quantity over a temperature
    grid with the template's (rho, eta, mode)."""
    return sweeps(quantity, (template,), tau_grid)[0]


def _pow10_terms(num, y):
    return (), num.exp(num.const(y) * num.log1p(num.const(9)))


def _log10_terms(num, t):
    return (), num.log1p(num.const(t) - 1) / num.log1p(num.const(9))


def log_grid(t_min: float, t_max: float, steps: int) -> tuple[float, ...]:
    """``steps`` log-spaced temperatures from t_min to t_max, both kept exact.

    The exponents follow numpy's ``geomspace``: y_i = i*step + lo with
    step = (hi - lo)/(steps - 1); lo and hi, the log10 of the endpoints, and
    each interior point 10**y_i are correctly rounded by ``round_curve``.
    Raises ValueError unless 0 < t_min < t_max < inf and steps >= 2, and
    if two rounded points coincide (too many steps).
    """
    if not isinstance(steps, int) or isinstance(steps, bool):
        raise ValueError(f"steps must be an integer, got {steps!r}")
    if not 0 < t_min < t_max < math.inf:
        raise ValueError("need 0 < tmin < tmax, both finite")
    if steps < 2:
        raise ValueError("need at least 2 grid points")
    lo, hi = round_curve(_log10_terms, (t_min, t_max))
    step = (hi - lo) / (steps - 1)
    y = [i * step + lo for i in range(steps)]  # i < 2**53 converts exactly
    rest = iter(round_curve(_pow10_terms, [v for v in y if not v.is_integer()]))
    # 10**y is rational at a whole y (10**23 is a tie)
    taus = [float(Fraction(10) ** int(v)) if v.is_integer() else next(rest)
            for v in y]
    taus[0], taus[-1] = float(t_min), float(t_max)
    if any(map(operator.le, taus[1:], taus)):
        raise ValueError(f"the temperature grid of {steps} points on "
                         f"[{t_min!r}, {t_max!r}] repeats a rounded point")
    return tuple(taus)
