#!/usr/bin/env python3
"""Check every number of the figure bundle against mpmath.

Regenerates all eight figure layouts with the defaults of
scripts/make_figures.py into a temporary directory and compares every tau
and every value with the double nearest to its documented closed form,
evaluated with mpmath from 60 and from 120 significant digits up (see
``rounded``).  Prints the
counts, with the number of values that went to the package's decimal
fallback (``rounding.settle``), and exits 1 on any difference.

    python scripts/check_rounding.py [--mode consistent|paper-faithful]

Needs mpmath (not a dependency of the package).
"""

import argparse
import math
import sys
import tempfile
from fractions import Fraction
from pathlib import Path

import mpmath

from dunkl_pauli import rounding
from dunkl_pauli.cli import main as cli_main

DIGITS = (60, 120)


def mp_terms(quantity: str, mode: str, x, rho, eta) -> list:
    """The closed form of ``quantity`` in the thermo module's docstrings as a
    list of terms, at the current mpmath precision."""
    x, rho, eta = mpmath.mpf(x), mpmath.mpf(rho), mpmath.mpf(eta)
    h, y = x / 2, x * eta
    if quantity == "Z":
        return [mpmath.exp(-x * rho) * mpmath.cosh(y) / mpmath.sinh(h)]
    if quantity == "log Z":
        return [-x * rho, mpmath.log(mpmath.cosh(y)), -mpmath.log(mpmath.sinh(h))]
    if quantity == "F":
        return [mpmath.log(mpmath.sinh(h)) / x, -mpmath.log(mpmath.cosh(y)) / x,
                rho]
    if quantity == "U":
        return [mpmath.coth(h) / 2, -eta * mpmath.tanh(y),
                rho if mode == "consistent" else -rho]
    if quantity == "C":
        return [(h / mpmath.sinh(h)) ** 2, (y / mpmath.cosh(y)) ** 2]
    if quantity == "S":
        if mode == "consistent":
            last = -y * mpmath.tanh(y)
        else:  # y coth(y) -> 1 as y -> 0
            last = -y * mpmath.coth(y) if y else mpmath.mpf(-1)
        return [-mpmath.log(mpmath.sinh(h)), h * mpmath.coth(h),
                mpmath.log(mpmath.cosh(y)), last]
    raise ValueError(f"unknown quantity {quantity!r}")


def mp_value(quantity: str, mode: str, x, rho, eta, digits: int):
    """The closed form to ``digits`` significant digits: the working
    precision grows until it exceeds the digits its terms cancel by 10."""
    extra = 10
    for _ in range(20):
        with mpmath.workdps(digits + extra):
            terms = mp_terms(quantity, mode, x, rho, eta)
            total = mpmath.fsum(terms)
            largest = max(abs(t) for t in terms)
        lost = float(mpmath.log10(largest / abs(total))) if total else digits + extra
        if extra >= lost + 10:
            return total
        extra = int(lost) + 20
    raise ArithmeticError(f"{quantity} cancels beyond reach at x = {x!r}")


def nearest(v) -> float:
    """The double nearest to the mpmath number v (ties to even)."""
    sign, man, exp, _ = v._mpf_
    exact = Fraction(int(man)) * Fraction(2) ** int(exp)
    try:
        return float(-exact if sign else exact)
    except OverflowError:
        return -math.inf if sign else math.inf


def rounded(value, digits: int) -> float:
    """The double nearest to ``value(d)``, an mpmath number accurate to d
    significant digits: d starts at ``digits`` and doubles while numbers
    within 10**(5 - d) of the value, relative, round to different doubles
    (a value next to a tie between two doubles)."""
    for _ in range(8):
        with mpmath.workdps(digits + 10):
            v = value(digits)
            radius = abs(v) * mpmath.mpf(10) ** (5 - digits)
            lo, hi = nearest(v - radius), nearest(v + radius)
        if lo == hi:
            return lo
        digits *= 2
    raise ArithmeticError("no settled rounding")


def reference(quantity: str, mode: str, x, rho, eta, digits: int) -> float:
    """The correctly rounded closed form, from ``digits`` digits up."""
    return rounded(lambda d: mp_value(quantity, mode, x, rho, eta, d), digits)


def expected_grid(t_min: float, t_max: float, steps: int, digits: int):
    """The documented log grid: exponents i*step + lo with lo, hi the
    correctly rounded log10 of the endpoints, points 10**y rounded."""
    lo, hi = (rounded(lambda d: mpmath.log10(mpmath.mpf(t)), digits)
              for t in (t_min, t_max))
    step = (hi - lo) / (steps - 1)
    taus = [rounded(lambda d: mpmath.mpf(10) ** (i * step + lo), digits)
            for i in range(steps)]
    taus[0], taus[-1] = t_min, t_max
    return taus


def read_curve(path: Path):
    """(metadata, taus, values) of one thermo CSV."""
    meta, taus, values = {}, [], []
    for line in path.read_text(encoding="utf-8").splitlines():
        if line.startswith("#"):
            key, _, val = line[2:].partition(" = ")
            meta[key] = val
        elif line != "tau,value":
            tau, value = line.split(",")
            taus.append(float(tau))
            values.append(float(value))
    return meta, taus, values


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--mode", default="consistent",
                    choices=("consistent", "paper-faithful"))
    args = ap.parse_args()
    grids = {d: expected_grid(0.01, 10.0, 400, d) for d in DIGITS}
    checked = wrong = fallbacks = 0
    settle = rounding.settle

    def counted(*settle_args):
        nonlocal fallbacks
        fallbacks += 1
        return settle(*settle_args)

    rounding.settle = counted
    with tempfile.TemporaryDirectory() as out:
        for fig in range(1, 9):
            if cli_main(["figure", "--figure", str(fig), "--out", out,
                         "--mode", args.mode]) != 0:
                return 2
        for path in sorted(Path(out).glob("*.csv")):
            meta, taus, values = read_curve(path)
            rho, eta = float(meta["rho"]), float(meta["eta"])
            for i, (tau, value) in enumerate(zip(taus, values)):
                want = [(grids[d][i], reference(meta["quantity"], meta["mode"],
                                                1.0 / tau, rho, eta, d))
                        for d in DIGITS]
                checked += 2
                if want[0] != want[1]:
                    print(f"{path.name} row {i}: reference unsettled {want}")
                bad = sum(a != b for a, b in zip((tau, value), want[0]))
                if bad:
                    print(f"{path.name} row {i}: got {(tau, value)}, "
                          f"want {want[0]}")
                wrong += bad
    print(f"{checked} numbers checked, {wrong} differ from the correctly "
          f"rounded closed form; {fallbacks} values of the bundle went to "
          f"the decimal fallback (settle)")
    return 1 if wrong else 0


if __name__ == "__main__":
    sys.exit(main())
