"""The libm-noise plugin moves each result by at most one ulp, keeps the exact
cases exact and acts only on calls from the package and the tests."""

import math

import numpy as np

import libm_noise

ARGS = [0.001 * k for k in range(1, 600)] + [-3.5, 1e-300, 700.0]


def test_each_result_moves_by_minus_one_zero_or_plus_one_ulp():
    moves = set()
    for x in ARGS:
        for name in ("exp", "sin", "cosh", "expm1"):
            r = getattr(np, name)(np.float64(x)).item()
            got = libm_noise.moved(name, x, r)
            assert type(got) is float
            moves.add(-1 if got < r else int(got > r))
            assert got in (math.nextafter(r, -math.inf), r, math.nextafter(r, math.inf))
    assert moves == {-1, 0, 1}


def test_an_array_moves_as_its_elements_do():
    x = np.array(ARGS)
    r = np.exp(x)
    assert libm_noise.moved("exp", x, r).tolist() == [
        libm_noise.moved("exp", a, b) for a, b in zip(ARGS, r.tolist())]
    assert type(libm_noise.moved("exp", 0.5, np.exp(0.5))) is np.float64


def test_exact_cases_stay_exact():
    for name, x, r in (("exp", 0.0, 1.0), ("cos", 0.0, 1.0), ("cosh", -0.0, 1.0),
                       ("log", 1.0, 0.0), ("exp", -800.0, 0.0),
                       ("exp", 800.0, math.inf)):
        assert libm_noise.moved(name, x, r) == r
        assert libm_noise.moved(name, np.array([x]), np.array([r])).tolist() == [r]


def test_calls_from_other_modules_are_left_alone():
    # the same call from a module outside the package and the tests (here
    # one named as mpmath's) gets the function's own result
    wrapped = libm_noise.wrap("exp", lambda x: 1.5)
    moved = [wrapped(x) for x in ARGS]
    assert {*moved} - {1.5}
    namespace = {"__name__": "mpmath.libmp", "wrapped": wrapped, "ARGS": ARGS}
    exec("result = [wrapped(x) for x in ARGS]", namespace)
    assert namespace["result"] == [1.5] * len(ARGS)
