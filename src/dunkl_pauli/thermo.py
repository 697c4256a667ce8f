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

The scalar functions and ``sweep`` return the correctly rounded
(round-to-nearest) double of each closed form at x, rho and eta, from one
evaluator (``_curve_terms`` with ``rounding.round_curve``); ``log_grid``
returns the correctly rounded points 10**y_i of the log-spaced grid
y_i = i*step + lo, step = (hi - lo)/(steps - 1), with lo and hi the
correctly rounded log10 of its exact endpoints.  Every value is therefore
the same on every IEEE-754 platform, whatever its libm or SIMD dispatch.
A value the decimal fallback cannot settle, which happens only far outside
x in [1e-3, 700], raises ValueError.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .rounding import round_curve, settle

MODES = ("consistent", "paper-faithful")


@dataclass(frozen=True)
class ThermoInputs:
    """Dimensionless evaluation point: x = beta*omega_c plus the ladder's
    (rho, eta) and the evaluation mode."""

    x: float
    rho: float
    eta: float
    mode: str = "consistent"

    def __post_init__(self):
        if not self.x > 0:
            raise ValueError(f"x = beta*omega_c must be positive, got {self.x}")
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}, got {self.mode!r}")


def _value(quantity: str, inputs: ThermoInputs) -> float:
    """The correctly rounded closed form of one quantity at ``inputs``."""
    return round_curve(_curve_terms(quantity, inputs), (inputs.x,))[0]


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
    the sum.  ValueError for x <= 0, and where that n_max is impractical.
    """
    if not x > 0:
        raise ValueError(f"x must be positive, got {x}")
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


@dataclass(frozen=True)
class ThermoCurve:
    """One thermal quantity sampled on an ascending dimensionless temperature
    grid tau = KT/omega_c."""

    quantity: str
    grid: tuple[float, ...]
    values: tuple[float, ...]
    provenance: ThermoInputs

    def __post_init__(self):
        if any(b <= a for a, b in zip(self.grid, self.grid[1:])):
            raise ValueError("temperature grid must be strictly ascending")
        if not all(math.isfinite(v) for v in self.values):
            raise ValueError("curve contains non-finite values")


QUANTITIES = {
    "Z": partition,
    "F": helmholtz,
    "U": internal_energy,
    "C": heat_capacity,
    "S": entropy,
}


def _curve_terms(quantity: str, template: ThermoInputs):
    """The closed form of one quantity as ``terms(num, x) -> (exact, t)``
    for :mod:`.rounding`: the value is ``sum(exact) + t``.

    With e = |eta|, y = x*e, q = exp(-x) and p = exp(-2y), the closed forms
    of the functions above regroup into sums whose terms, exact doubles
    apart, share one sign:

        Z = exp(y - x*rho - x/2) (1 + p)/(1 - q)
        log Z = (y - x*rho - x/2) + log1p(p) - log1p(-q)
        F = rho + 1/2 - e + (log1p(-q) - log1p(p))/x
        U = +/-rho + 1/2 - e + q/(1 - q) + 2e p/(1 + p)
        C = x^2 q/(1 - q)^2 + 4y^2 p/(1 + p)^2
        S = -log1p(-q) + x q/(1 - q) + log1p(p) + 2y p/(1 + p)

    except the last entropy term in paper-faithful mode, -2y p/(1 - p), or
    its limit log(2) - 1 when eta == 0.  The linear part of log Z is left
    out where e - 1/2 - rho is exactly 0: there its rounding error would
    swamp the exponentially small rest.
    """
    rho, e, mode = template.rho, abs(template.eta), template.mode
    linear = math.fsum((e, -0.5, -rho)) != 0  # fsum: 0 only for an exact 0

    def terms(num, x):
        X = num.const(x)
        Y = X * e
        extra = (Y - X * rho - 0.5 * X,) if quantity == "Z" else ()
        q, p, *g = num.exp(-X, -2 * Y, *extra)
        omq, opp = 1 - q, 1 + p
        if quantity == "Z":
            return (), g[0] * opp / omq
        if quantity == "C":
            return (), X * X * q / (omq * omq) + 4 * Y * Y * p / (opp * opp)
        if quantity == "U":
            sign = 1.0 if mode == "consistent" else -1.0
            return (sign * rho, 0.5, -e), q / omq + 2 * e * p / opp
        lq, lp = num.log1p(-q, p)
        if quantity == "log Z":
            t = lp - lq
            return (), t + (Y - X * rho - 0.5 * X) if linear else t
        if quantity == "F":
            return (rho, 0.5, -e), (lq - lp) / X
        s = X * q / omq - lq
        if mode == "consistent":
            return (), s + lp + 2 * Y * p / opp
        if e == 0:
            return (), s + (num.ln2() - 1)
        return (), s + lp - 2 * Y * p / (1 - p)

    return terms


def sweep(quantity: str, template: ThermoInputs, tau_grid) -> ThermoCurve:
    """Evaluate one quantity over a temperature grid with the template's
    (rho, eta, mode).

    Each value is the correctly rounded (round-to-nearest) double of the
    quantity's closed form above at the inputs x = 1.0/tau (the float
    division), rho and eta: the value the scalar function gives at that x,
    and the same on every IEEE-754 platform.  ``log_grid`` gives the
    matching temperature grid.  Raises ValueError for temperatures that are
    not positive and finite, and (far outside x in [1e-3, 700]) where the
    decimal fallback cannot settle a value.
    """
    if quantity not in QUANTITIES:
        raise ValueError(f"quantity must be one of {sorted(QUANTITIES)}, "
                         f"got {quantity!r}")
    taus = tuple(float(t) for t in tau_grid)
    if not all(0 < t < math.inf for t in taus):
        raise ValueError("all temperatures must be positive and finite")
    x = 1.0 / np.array(taus, dtype=float)
    values = round_curve(_curve_terms(quantity, template), x)
    return ThermoCurve(quantity, taus, tuple(values), template)


def _pow10_terms(num, y):
    return (), num.exp(num.const(y) * num.ln10())[0]


def log_grid(t_min: float, t_max: float, steps: int) -> tuple[float, ...]:
    """``steps`` log-spaced temperatures from t_min to t_max, both kept exact.

    The exponents follow numpy's ``geomspace``: y_i = i*step + lo with
    step = (hi - lo)/(steps - 1), where lo and hi are the correctly rounded
    log10 of the endpoints; each interior point is 10**y_i correctly rounded.
    Raises ValueError if two rounded points coincide (too many steps).
    """
    lo, hi = (settle(lambda num, t: ((), num.log10(num.const(t))), t)
              for t in (t_min, t_max))
    y = np.arange(steps) * ((hi - lo) / (steps - 1)) + lo
    whole = y == np.floor(y)  # 10**y is rational here (10**23 is a tie)
    taus = np.empty(steps)
    taus[~whole] = round_curve(_pow10_terms, y[~whole])
    taus[whole] = [float(Fraction(10) ** int(k)) for k in y[whole]]
    taus[0], taus[-1] = t_min, t_max
    if not np.all(taus[1:] > taus[:-1]):
        raise ValueError(f"the temperature grid of {steps} points on "
                         f"[{t_min!r}, {t_max!r}] repeats a rounded point")
    return tuple(taus.tolist())
