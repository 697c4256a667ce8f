"""Calibration: fixed computations that measure the machine's current speed.

On a shared machine the same code can run at half speed for seconds or
minutes at a time, while neighbours load the host.  A timing is only
comparable between runs made minutes apart once that drift is taken out.
Each workload names the calibration whose bottleneck matches its own; the
runner times the calibration between the workload's segments, and scales
each segment's wall time by ``NOMINAL[kind]`` over the mean of the two
calibration samples on either side of it.  The result is a time in seconds
at the machine speed at which the calibration takes its nominal time.

The calibrations use no dunkl_pauli code, so a change to the package cannot
move them.
"""

from __future__ import annotations

import io
import math
import subprocess
import sys
from fractions import Fraction
from time import perf_counter

import numpy as np
from scipy.linalg import eigh_tridiagonal

# seconds each calibration takes, a round figure near its median on the
# 2-vCPU shared Xeon on which the benchmark was defined
NOMINAL = {"interpreter": 0.02, "lapack": 0.02, "spawn": 0.4}

_DIAG = np.linspace(1.0, 2.0, 8000)
_OFF = np.full(7999, -0.5)


def interpreter() -> float:
    """Exact fraction arithmetic, dict updates and float formatting: pure
    interpreter work, as in the algebra, angular and figure code."""
    t0 = perf_counter()
    acc, table = Fraction(0), {}
    for k in range(1, 700):
        acc += Fraction(k, k + 1) * Fraction(3, 7)
        key = (k % 13, k % 7)
        table[key] = table.get(key, Fraction(0)) + Fraction(1, k)
    buf = io.StringIO()
    for k in range(1, 6000):
        x = 1.0 / k
        buf.write(f"{k * 0.01:.6f},"
                  f"{math.exp(-x) * math.cosh(x) / math.sinh(x + 0.5):.17g}\n")
    seconds = perf_counter() - t0
    if acc <= 0 or len(table) != 91 or not buf.tell():
        raise RuntimeError("interpreter calibration went wrong")
    return seconds


def lapack() -> float:
    """The six lowest eigenvalues of an 8000-point symmetric tridiagonal
    matrix by LAPACK bisection, as the radial oracle solves them."""
    t0 = perf_counter()
    vals = eigh_tridiagonal(_DIAG, _OFF, eigvals_only=True,
                            select="i", select_range=(0, 5))
    seconds = perf_counter() - t0
    if len(vals) != 6:
        raise RuntimeError("lapack calibration went wrong")
    return seconds


def spawn(cwd, env: dict) -> float:
    """A fresh interpreter that imports numpy and scipy.linalg and exits:
    process start-up and imports, as a CLI call or a set-up pays them."""
    t0 = perf_counter()
    subprocess.run([sys.executable, "-c", "import numpy, scipy.linalg"],
                   cwd=cwd, env=env, check=True, timeout=120)
    return perf_counter() - t0


class Clock:
    """Times the segments of a run and samples the calibration between
    them, starting with one sample before the first segment."""

    def __init__(self, kind: str, measure):
        self.kind = kind
        self._measure = measure
        self._nominal = NOMINAL[kind]
        self.samples = [measure()]
        self.raw = self.calibrated = 0.0
        self._lap = (0.0, 0.0)

    @classmethod
    def for_kind(cls, kind: str, cwd, env: dict) -> "Clock":
        if kind == "spawn":
            return cls(kind, lambda: spawn(cwd, env))
        return cls(kind, {"interpreter": interpreter, "lapack": lapack}[kind])

    def segment(self, fn, *args):
        """Run ``fn(*args)`` timed, then one calibration sample; return
        (its result, its wall seconds)."""
        t0 = perf_counter()
        out = fn(*args)
        seconds = perf_counter() - t0
        before, after = self.samples[-1], self._measure()
        self.samples.append(after)
        self.raw += seconds
        self.calibrated += seconds * self._nominal / ((before + after) / 2)
        return out, seconds

    def lap(self) -> tuple[float, float]:
        """(wall, calibrated) seconds of the segments since the last lap."""
        raw, cal = self.raw - self._lap[0], self.calibrated - self._lap[1]
        self._lap = (self.raw, self.calibrated)
        return raw, cal
