"""A pytest plugin that moves libm results by -1, 0 or +1 ulp.

Run tier-1 under it with ``tests`` on the path:

    PYTHONPATH=src:tests python -m pytest -q -p libm_noise

C11 Annex F sets no accuracy for ``exp`` or ``log``, so a conforming libm may
return either neighbour of a correctly rounded result.  Under this plugin
every result of ``math``'s and numpy's ``exp``, ``expm1``, ``log``,
``log1p``, ``sinh``, ``cosh``, ``sin``, ``cos`` and ``lgamma`` (numpy has no
``lgamma``) called from ``dunkl_pauli`` or from the tests moves by -1, 0 or
+1 ulp, the step chosen from the bits of the argument, so that every run
moves the same values the same way.  An argument of 0 and ``log`` at 1 stay
exact, as do results that are 0, infinite or NaN, and calls with a second
argument or a keyword (``math.log(x, base)``, numpy's ``out=``).  Calls from
any other module (mpmath, scipy, numpy itself) are left alone: mpmath's
``math.log(n, 2)`` of a big integer has no double to take bits from.

The functions are replaced before ``conftest.py`` imports ``dunkl_pauli``,
because ``rounding`` binds ``math.log1p`` at import.  numpy's ``log1p`` is
bound later, in ``rounding._Arrays.bind``, and gets the replacement too.
"""

import math
import sys

import numpy as np
import pytest

NAMES = ("exp", "expm1", "log", "log1p", "sinh", "cosh", "sin", "cos", "lgamma")
# a multiplier whose high bits of the product mix every bit of the argument
_MIX = 0x9E3779B97F4A7C15


def _ours(frame) -> bool:
    """Whether a call from ``frame`` is one from the package or a test."""
    name = frame.f_globals.get("__name__", "")
    return name.startswith(("dunkl_pauli", "test_", "conftest"))


def moved(name: str, arg, result):
    """A float64 ``result`` of ``name`` at ``arg`` (a number or an array),
    each element moved by the step that its argument's bits choose."""
    out = np.asarray(result)
    try:
        x = np.broadcast_to(np.asarray(arg, dtype=np.float64), out.shape).ravel()
    except (OverflowError, TypeError, ValueError):
        return result
    if out.dtype != np.float64:
        return result
    # -1, 0 or +1 from the high bits of the argument's bits times _MIX
    steps = (((x.view(np.uint64) * np.uint64(_MIX)) >> np.uint64(40))
             % np.uint64(3)).astype(np.int64) - 1
    flat = out.ravel()
    keep = ((steps == 0) | ~np.isfinite(flat) | (flat == 0) | (x == 0)
            | ((x == 1) if name == "log" else False))
    toward = np.where(steps > 0, np.inf, -np.inf)
    noisy = np.where(keep, flat, np.nextafter(flat, toward)).reshape(out.shape)
    return noisy if isinstance(result, np.ndarray) else type(result)(noisy[()])


def wrap(name: str, f):
    """f, with each result of a one-argument call from the package or a test
    moved."""
    def noisy(*args, **kwargs):
        result = f(*args, **kwargs)
        if kwargs or len(args) != 1 or not _ours(sys._getframe(1)):
            return result
        return moved(name, args[0], result)
    noisy.__name__ = noisy.__qualname__ = name
    return noisy


def install() -> None:
    """Replace the functions in ``math`` and ``numpy``."""
    if "dunkl_pauli" in sys.modules:
        raise RuntimeError("libm_noise must be installed before dunkl_pauli "
                           "is imported")
    for name in NAMES:
        for module in (math, np) if hasattr(np, name) else (math,):
            setattr(module, name, wrap(name, getattr(module, name)))


@pytest.hookimpl(tryfirst=True)
def pytest_load_initial_conftests(early_config, parser, args):
    install()
