"""High-precision reference for emitted thermo values.

Each quantity is the package's documented closed form for one ladder,
evaluated with mpmath at 60 digits at the same float inputs the package
uses (x = 1.0/tau in floating point, rho and eta as printed), so the
distance to it is the package's own evaluation error.
"""

from __future__ import annotations

import struct
from pathlib import Path

import mpmath

mpmath.mp.dps = 60


def closed_form(quantity: str, mode: str, x: float, rho: float, eta: float):
    x, rho, eta = mpmath.mpf(x), mpmath.mpf(rho), mpmath.mpf(eta)
    h, y = x / 2, x * eta
    if quantity == "Z":
        return mpmath.exp(-x * rho) * mpmath.cosh(y) / mpmath.sinh(h)
    if quantity == "F":
        return (mpmath.log(mpmath.sinh(h)) - mpmath.log(mpmath.cosh(y))) / x + rho
    if quantity == "U":
        sign = 1 if mode == "consistent" else -1
        return mpmath.coth(h) / 2 - eta * mpmath.tanh(y) + sign * rho
    if quantity == "C":
        return (h / mpmath.sinh(h)) ** 2 + (y / mpmath.cosh(y)) ** 2
    if quantity == "S":
        last = mpmath.tanh(y) if mode == "consistent" else mpmath.coth(y)
        return (-mpmath.log(mpmath.sinh(h)) + h * mpmath.coth(h)
                + mpmath.log(mpmath.cosh(y)) - y * last)
    raise ValueError(f"unknown quantity {quantity!r}")


def _ordinal(v: float) -> int:
    """Position of a float on the line of doubles, monotone in value."""
    bits = struct.unpack("<q", struct.pack("<d", v))[0]
    return bits if bits >= 0 else -(bits & 0x7FFFFFFFFFFFFFFF)


def ulp_distance(a: float, b: float) -> int:
    return abs(_ordinal(a) - _ordinal(b))


def relative_error(value: float, ref) -> float:
    return float(abs(mpmath.mpf(value) - ref) / max(abs(ref), mpmath.mpf("1e-300")))


def read_curve(path: Path):
    """(metadata, [(tau, value), ...]) of one thermo-sweep CSV."""
    meta, rows = {}, []
    for line in path.read_text(encoding="utf-8").splitlines():
        if line.startswith("# ") and " = " in line:
            key, val = line[2:].split(" = ", 1)
            meta[key] = val
        elif line and line[0].isdigit():
            tau, value = line.split(",")
            rows.append((float(tau), float(value)))
    meta["rho"], meta["eta"] = float(meta["rho"]), float(meta["eta"])
    return meta, rows
