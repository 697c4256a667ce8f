"""Correctly rounded evaluation of closed forms over float64 arrays.

A closed form is written once as ``terms(num, *args) -> (exact, t)``.  Its
value is ``sum(exact) + t``: ``exact`` is a tuple of doubles, summed without
rounding, and ``t`` is built from ``num.const(a)``, the arguments, Python
numbers, the operators ``+ - * /`` and ``num.exp`` and ``num.log1p`` of
one number each, so ln 2 is ``num.log1p(1)``; ``num.choose(cond, f, g)``
picks a branch per element.  :func:`round_curve` evaluates it elementwise
over broadcast argument arrays, each subexpression at its own arguments'
broadcast shape, so that curves sharing a closed form and a grid take one
call that computes the grid's own factors once, and returns for each
element the correctly rounded double of that exact value (nearest, ties
to even), which every IEEE-754 platform reproduces bit for bit.

The method is Ziv's (A. Ziv, ACM TOMS 17(3), 1991), in two steps:

1. **Fast test**, on float64 arrays or, for a short call (see
   :func:`round_curve`), on Python floats: double-double numbers (Dekker,
   Numer. Math. 18, 1971) computed only with ``+ - * /``, ``rint``,
   ``ldexp`` and table look-ups, which IEEE 754 fixes bit for bit, so the
   result does not depend on libm or on numpy's SIMD dispatch.  libm's
   ``log1p`` only seeds one Newton step, whose error is bounded from its
   computed residual.  Every number carries a rigorous bound on its absolute
   error; each operation adds its own proved rounding error (the constants
   below) to the errors it propagates.  A value is emitted only if every
   real number within its error bound rounds to the same double.
2. **Decimal fallback** (:func:`settle`), the one exact decision, for every
   value that fails the test: the same closed form in ``decimal``
   arithmetic, whose ``exp`` and ``ln`` are correctly rounded,
   with the same kind of error bound, at 40, 80, ... digits up to a cap;
   the ends of its interval, clamped in ``_ends``, are rounded in exact
   rational arithmetic.  Past the cap it raises ``ValueError``.

Bounds are computed in double precision with ``|hi|`` standing in for the
magnitude of a value.  Each such step can understate a bound by a factor of
at most ``1 + 2**-50``; the final bound is multiplied by ``1 + 2**-30``,
which covers far more steps than any closed form here takes, and given an
absolute allowance of ``2**-1000`` for bound terms lost to underflow.
"""

from __future__ import annotations

import functools
import math
import sys
from decimal import (MAX_EMAX, MIN_EMIN, ROUND_CEILING, ROUND_FLOOR, Context,
                     Decimal, Inexact)
from fractions import Fraction
from types import SimpleNamespace

# Relative rounding error of a double-double sum, per unit of |a| + |b|: the
# two roundings of Dekker's sum come to at most 3u^2 (|a| + |b|), u = 2**-53.
_ADD = 2.0 ** -103
# Relative rounding error of a double-double product or quotient (at most
# 8u^2 and 16u^2 of the result).
_MUL = 2.0 ** -101
# Absolute allowance for products whose exact low part underflows: below
# |a*b| = 2**-968 Dekker's product may be inexact, by less than 2**-963.
_TINY = 2.0 ** -960
_SPLIT = 134217729.0  # 2**27 + 1, Veltkamp's splitting constant
_INFLATE = 1.0 + 2.0 ** -30
_FLOOR = 2.0 ** -1000

# Decimal fallback: working precisions in significant digits; the last is
# the cap.
_PRECISIONS = (40, 80, 160, 320, 640)
# Arrays up to this size are evaluated point by point in Python floats.
_SHORT = 16
# ... and up to this size while numpy is not loaded: its import (0.13-0.21 s)
# and an array call (1.2-12.7 ms) take as long as 1,100+ points at <= 115 us.
_COLD = 1000


# ------------------------------------------------------ error-free building blocks

def _two_sum(a, b):
    """(s, e) with s = fl(a + b) and s + e = a + b exactly (Knuth)."""
    s = a + b
    bb = s - a
    return s, (a - (s - bb)) + (b - bb)


def _two_prod(a, b):
    """(p, e) with p = fl(a*b) and p + e = a*b exactly when |a*b| >= 2**-968
    and |a|, |b| < 2**995 (Dekker, with Veltkamp's split)."""
    p = a * b
    c = _SPLIT * a
    ah = c - (c - a)
    al = a - ah
    c = _SPLIT * b
    bh = c - (c - b)
    bl = b - bh
    return p, ((ah * bh - p) + ah * bl + al * bh) + al * bl


def _mul(ah, al, bh, bl):
    """Double-double product, relative error at most 8u^2."""
    p, e = _two_prod(ah, bh)
    return _two_sum(p, e + (ah * bl + al * bh))


# ------------------------------------------------------------- fast path numbers

class _DD:
    """Double-double ``hi + lo`` with ``|exact - (hi + lo)| <= err``: float64
    arrays on the array path, Python floats on the scalar path.

    ``hi`` and ``lo`` never overlap (``|lo| <= u*|hi|``), which the rounding
    error constants assume.
    """

    __slots__ = ("hi", "lo", "err")

    def __init__(self, hi, lo=0.0, err=0.0):
        self.hi, self.lo, self.err = hi, lo, err

    def __neg__(self):
        return _DD(-self.hi, -self.lo, self.err)

    def __add__(self, other):
        o = _dd(other)
        s, t = _two_sum(self.hi, o.hi)
        hi, lo = _two_sum(s, t + (self.lo + o.lo))
        return _DD(hi, lo, self.err + o.err
                   + _ADD * (abs(self.hi) + abs(o.hi)))

    __radd__ = __add__

    def __sub__(self, other):
        return self + -_dd(other)

    def __rsub__(self, other):
        return _dd(other) + -self

    def __mul__(self, other):
        o = _dd(other)
        hi, lo = _mul(self.hi, self.lo, o.hi, o.lo)
        err = (abs(self.hi) * o.err + abs(o.hi) * self.err + self.err * o.err
               + _MUL * abs(hi) + _TINY)
        return _DD(hi, lo, err)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = _dd(other)
        q = self.hi / o.hi
        p, e = _two_prod(q, o.hi)
        r = (((self.hi - p) - e) + self.lo) - q * o.lo
        hi, lo = _two_sum(q, r / o.hi)
        # |a*/b* - a/b| <= (|da| + |a/b| |db|) / (|b| - |db|); a divisor
        # known to less than half its size has no bound (division by zero:
        # infinite on the array path, ZeroDivisionError on the scalar path)
        b = abs(o.hi)
        den = abs(b - o.err) * (o.err <= 0.5 * b)
        err = ((self.err + abs(hi) * o.err + _TINY) / den
               + _MUL * abs(hi) + _TINY)
        return _DD(hi, lo, err)


def _dd(v) -> _DD:
    return v if isinstance(v, _DD) else _DD(v)


@functools.cache
def _constants() -> SimpleNamespace:
    """Double-double constants of ``_exp``, each within 2**-105 relative:
    the step ln2/4096 split so that k*l1 is exact for |k| < 2**23, and the
    tables 2**(j/64) and 2**(j/4096) for j < 64 (hi and lo parts)."""
    ctx = Context(prec=60)
    ln2 = ctx.ln(2)

    def split(d):
        hi = float(d)
        return hi, float(ctx.subtract(d, Decimal(hi)))

    def table(n):
        return [split(ctx.exp(ctx.multiply(ln2, ctx.divide(j, n))))
                for j in range(64)]

    step = ctx.divide(ln2, 4096)
    m, ex = math.frexp(float(step))
    l1 = math.ldexp(math.floor(math.ldexp(m, 30)), ex - 30)
    l2, l3 = split(ctx.subtract(step, Decimal(l1)))
    return SimpleNamespace(inv_step=float(ctx.divide(4096, ln2)),
                           l1=l1, l2=l2, l3=l3,
                           tables=[list(col) for n in (64, 4096)
                                   for col in zip(*table(n))])


def _exp(xp, a: _DD) -> _DD:
    """exp(a) with relative error at most

        2**-100 (1 + |a|) + 2**-102 |r| + 3u |r|^3 + |r|^7/4096

    plus the propagated input error, where r, |r| < 2**-13, is the argument
    reduced by k ln2/4096: the 2**-100 covers the table entries, the two
    table products and the rounding of the reduction; the |r| terms the
    rounding and truncation of the degree-6 Taylor polynomial of exp(r) - 1,
    so that exp of a small argument is accurate relative to the argument.
    Below a = -745 the result is 0 within 2**-1070; above 709 the bound is
    infinite (the value may overflow).
    """
    c = _constants()
    live = (a.hi > -745.0) & (a.hi < 709.0)
    ah = xp.where(live, a.hi, 0.0)
    k = xp.rint(ah * c.inv_step)
    t, te = _two_sum(ah, -(k * c.l1))
    p, pe = _two_prod(k, c.l2)
    s, se = _two_sum(t, -p)
    rh, rl = _two_sum(s, se + te - pe - k * c.l3 + xp.where(live, a.lo, 0.0))
    sq, sqe = _two_prod(rh, rh)
    tail = rh * sq * (1 / 6 + rh * (1 / 24 + rh * (1 / 120 + rh * (1 / 720))))
    m, me = _two_sum(rh, 0.5 * sq)
    m, ml = _two_sum(m, rl + 0.5 * sqe + rh * rl + tail + me)
    e, ee = _two_sum(1.0, m)
    e, el = _two_sum(e, ee + ml)
    kk = xp.integer(k)
    j1, j2 = (kk >> 6) & 63, kk & 63
    t64h, t64l, t4096h, t4096l = xp.tables()
    th, tl = _mul(t64h[j1], t64l[j1], t4096h[j2], t4096l[j2])
    hi, lo = _mul(th, tl, e, el)
    hi, lo = xp.ldexp(hi, kk >> 12), xp.ldexp(lo, kk >> 12)
    r = abs(rh)
    d = a.err
    rel = (2.0 ** -100 * (1.0 + abs(ah)) + 2.0 ** -102 * r
           + r * r * r * (3 * 2.0 ** -53 + r * r * r * r / 4096))
    # |exp(a + d) - exp(a)| <= exp(a) (d + d*d) for d <= 1
    err = xp.where(d <= 1.0, abs(hi) * (rel + d + d * d) + 2.0 ** -1070,
                   math.inf)
    gone = (a.hi <= -745.0) & (d <= 1.0)
    return _DD(xp.where(live, hi, 0.0), xp.where(live, lo, 0.0),
               xp.where(live, err, xp.where(gone, 2.0 ** -1070, math.inf)))


def _log1p(xp, w: _DD) -> _DD:
    """log(1 + w) for w > -1, relative error about 2**-82 or better.

    |w| < 2**-16: Taylor series to w**6, truncation below 2**-98 |w| and
    rounding below 2**-82 |w|.  Otherwise one Newton step from libm's
    y0 = log1p(w): with r = (1 + w) exp(-y0) - 1, log1p(w) = y0 + r - r**2/2
    within |r|**3, and an error e in r moves log1p(r) by at most
    e (1 + 2(|r| + e)); a seed worse than |r| < 2**-20 (or e >= 2**-20)
    gives an infinite bound.
    """
    wh = w.hi

    def series():
        sq, sqe = _two_prod(wh, wh)
        tail = sq * wh * (1 / 3 - wh * (1 / 4 - wh * (1 / 5 - wh * (1 / 6))))
        s, se = _two_sum(wh, -0.5 * sq)
        s, sl = _two_sum(s, w.lo - 0.5 * sqe - wh * w.lo + tail + se)
        # |d log1p/dw| <= 1/(1 - 2**-16 - err) over w's error interval
        den = abs(1.0 - 2.0 ** -15 - w.err) * (w.err < 0.5)
        return _DD(s, sl, 2.0 ** -82 * abs(wh) + w.err / den)

    def newton():
        y0 = xp.seed_log1p(wh)
        r = (1.0 + w) * xp.exp(_DD(-y0)) - 1.0
        rh = abs(r.hi)
        n = (_DD(y0) + r) - 0.5 * r.hi * r.hi
        n.err = n.err + xp.where(
            (rh < 2.0 ** -20) & (r.err < 2.0 ** -20),
            rh * rh * rh + 2.0 * (rh + r.err) * r.err + 2.0 ** -50 * rh * rh,
            math.inf)
        return n

    return xp.choose(abs(wh) < 2.0 ** -16, series, newton)


class _Path:
    """Number constructors and functions of the fast path; ``exp`` and
    ``log1p`` take one number and get the rest of a subclass as ``xp``."""

    const = _DD
    exp = classmethod(_exp)
    log1p = classmethod(_log1p)


class _Arrays(_Path):
    """Fast path over float64 arrays: one vectorised call per function,
    elementwise over its argument, with numpy bound on first use (:meth:`bind`)."""

    @classmethod
    @functools.cache
    def bind(cls):
        import numpy as np
        cls.np, cls.where, cls.rint, cls.seed_log1p, cls.nextafter = np, *map(
            staticmethod, (np.where, np.rint, np.log1p, np.nextafter))
        return np

    @staticmethod
    def integer(k):
        return k.astype("int64")

    @classmethod
    def choose(cls, cond, if_true, if_false):
        a, b = if_true(), if_false()
        return _DD(*(cls.where(cond, x, y) for x, y in
                     ((a.hi, b.hi), (a.lo, b.lo), (a.err, b.err))))

    @classmethod
    def ldexp(cls, v, n):
        return cls.np.ldexp(v, n.astype("int32"))

    @classmethod
    @functools.cache
    def tables(cls):
        return [cls.np.array(col) for col in _constants().tables]


class _Floats(_Path):
    """Fast path over Python floats, one point at a time: the same
    arithmetic without numpy's per-call cost, for short grids.  Where the
    array path would give an infinite bound it may raise instead
    (ZeroDivisionError, ValueError, OverflowError)."""

    @staticmethod
    def where(cond, a, b):
        return a if cond else b

    @staticmethod
    def rint(v):
        return float(round(v))  # ties to even

    @staticmethod
    def choose(cond, if_true, if_false):
        return if_true() if cond else if_false()

    seed_log1p = staticmethod(math.log1p)
    nextafter = staticmethod(math.nextafter)
    integer = staticmethod(int)
    ldexp = staticmethod(math.ldexp)

    @staticmethod
    def tables():
        return _constants().tables


# --------------------------------------------------------------- decimal fallback

_UP = Context(prec=12, rounding=ROUND_CEILING, Emax=MAX_EMAX, Emin=MIN_EMIN,
              traps=[])
_DOWN = Context(prec=12, rounding=ROUND_FLOOR, Emax=MAX_EMAX, Emin=MIN_EMIN,
                traps=[])
_INF = Decimal("Infinity")


def _up(*terms) -> Decimal:
    """Upper bound of a sum of nonnegative terms."""
    total = Decimal(0)
    for t in terms:
        total = _UP.add(total, t)
    return total


class _Dec:
    """Decimal value ``v`` with ``|exact - v| <= err``, at its backend's
    precision; an unbounded error is infinite (never NaN, as 0 * inf would
    give)."""

    __slots__ = ("v", "err", "num")

    def __init__(self, v, err, num):
        self.v, self.err, self.num = v, _INF if err.is_nan() else err, num

    def _rounded(self, op, other):
        """op(self.v, other.v) in the backend's context and its rounding
        error: rel * |v|, or 0 where the operation was exact."""
        ctx = self.num.ctx
        ctx.clear_flags()
        v = op(self.v, other.v)
        return v, _UP.multiply(v.copy_abs(), self.num.rel) if ctx.flags[Inexact] else 0

    def __neg__(self):
        return _Dec(self.v.copy_negate(), self.err, self.num)

    def __add__(self, other):
        o = self.num.coerce(other)
        v, r = self._rounded(self.num.ctx.add, o)
        return _Dec(v, _up(r, self.err, o.err), self.num)

    __radd__ = __add__

    def __sub__(self, other):
        return self + -self.num.coerce(other)

    def __rsub__(self, other):
        return self.num.coerce(other) + -self

    def __mul__(self, other):
        o = self.num.coerce(other)
        v, r = self._rounded(self.num.ctx.multiply, o)
        return _Dec(v, _up(r, _UP.multiply(self.v.copy_abs(), o.err),
                           _UP.multiply(o.v.copy_abs(), self.err),
                           _UP.multiply(self.err, o.err)), self.num)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self.num.coerce(other)
        den = _DOWN.subtract(o.v.copy_abs(), o.err)
        if not den > 0:
            return _Dec(Decimal(0), _INF, self.num)
        v, r = self._rounded(self.num.ctx.divide, o)
        # |a/b| <= 2|v| covers the rounding of v
        spread = _up(self.err, _UP.multiply(_UP.multiply(2, v.copy_abs()), o.err))
        return _Dec(v, _up(r, _UP.divide(spread, den)), self.num)


class _Exact:
    """Number constructors and functions of the decimal fallback at ``prec``
    significant digits; every operation rounds to nearest, so its relative
    error is below ``rel = 10**(1 - prec)``."""

    def __init__(self, prec: int):
        self.ctx = Context(prec=prec, Emax=MAX_EMAX, Emin=MIN_EMIN, traps=[])
        self.rel = Decimal(10) ** (1 - prec)

    def coerce(self, v) -> _Dec:
        return v if isinstance(v, _Dec) else self.const(v)

    def const(self, v) -> _Dec:
        return _Dec(Decimal(float(v)) if not isinstance(v, int) else Decimal(v),
                    Decimal(0), self)

    choose = staticmethod(_Floats.choose)

    def exp(self, a: _Dec) -> _Dec:
        if not a.err <= 1:
            return _Dec(Decimal(0), _INF, self)
        v = self.ctx.exp(a.v)
        if v.adjusted() < MIN_EMIN // 2:  # may have underflowed
            return _Dec(v, _INF, self)
        # |exp(a + d) - exp(a)| <= exp(a)(d + d*d) <= 2|v|(d + d*d)
        spread = _UP.multiply(_UP.multiply(2, v.copy_abs()),
                              _up(a.err, _UP.multiply(a.err, a.err)))
        return _Dec(v, _up(spread, _UP.multiply(v.copy_abs(), self.rel)), self)

    def log1p(self, w: _Dec) -> _Dec:
        if not w.err < Decimal("0.25"):
            return _Dec(Decimal(0), _INF, self)
        if w.v.adjusted() < -2 * self.ctx.prec:
            # |log1p(w) - w| <= w**2 for |w| <= 1/2
            big = _up(w.v.copy_abs(), w.err)
            return _Dec(w.v, _up(_UP.multiply(big, big), w.err), self)
        # 1 + w without rounding, then one correctly rounded ln
        digits = 2 + max(0, w.v.adjusted()) - min(0, w.v.as_tuple().exponent)
        one_w = Context(prec=digits + 2, Emax=MAX_EMAX, Emin=MIN_EMIN,
                        traps=[Inexact]).add(1, w.v)
        den = _DOWN.subtract(one_w, w.err)
        if not den > 0:
            return _Dec(Decimal(0), _INF, self)
        v = self.ctx.ln(one_w)
        return _Dec(v, _up(_UP.divide(w.err, den),
                           _UP.multiply(v.copy_abs(), self.rel)), self)


# -------------------------------------------------------------------- rounding

def _to_double(x: Fraction) -> float:
    try:
        return float(x)  # integer division: correctly rounded, ties to even
    except OverflowError:
        return math.inf if x > 0 else -math.inf


def _ends(t: _Dec) -> tuple[Fraction, Fraction]:
    """t's interval [v - err, v + err], widened to ``prec + 10`` digits.

    An end of decimal exponent 450 or more becomes +/-10**500, one of -450
    or less +/-10**-500: the exact parts are doubles, so their sum is a
    multiple of 2**-1075 below 2**1025 in size, and the sum plus any end in
    one of those ranges rounds as it does with the replacement.  It keeps
    the exact arithmetic small."""
    prec = t.num.ctx.prec + 10
    down = Context(prec=prec, rounding=ROUND_FLOOR, Emax=MAX_EMAX, Emin=MIN_EMIN)
    up = Context(prec=prec, rounding=ROUND_CEILING, Emax=MAX_EMAX, Emin=MIN_EMIN)
    ends = []
    for v in (down.subtract(t.v, t.err), up.add(t.v, t.err)):
        if v and not -450 < v.adjusted() < 450:
            v = Decimal(1).scaleb(500 if v.adjusted() > 0 else -500).copy_sign(v)
        ends.append(Fraction(v))
    return tuple(ends)


class Unsettled(ValueError):
    """No correctly rounded value within the decimal fallback's cap at the
    element ``index`` of :func:`round_curve`'s arguments."""

    def __init__(self, index: int, cause: ValueError):
        super().__init__(str(cause))
        self.index = index


def settle(terms, *args: float) -> float:
    """The correctly rounded value of ``terms`` at finite scalars ``args``
    from the decimal evaluation, at increasing precision up to the cap."""
    if not all(map(math.isfinite, args)):
        raise ValueError(f"no correctly rounded value at the non-finite {args}")
    for prec in _PRECISIONS:
        exact, t = terms(_Exact(prec), *args)
        if t.v.is_finite() and t.err.is_finite():
            # the double that every number in the interval rounds to, if any
            base = sum(map(Fraction, exact), Fraction(0))
            a, b = (_to_double(base + end) for end in _ends(t))
            if a == b and math.copysign(1.0, a) == math.copysign(1.0, b):
                return a
    raise ValueError(f"no correctly rounded value at {', '.join(map(repr, args))} "
                     f"within {_PRECISIONS[-1]} digits")


def _rounded(xp, exact, t: _DD):
    """(hi, ok) for the value sum(exact) + t: ok where every number within
    the error bound of hi + lo is nearer to hi than half of each (non-NaN)
    gap to its neighbours, so that it rounds to hi."""
    v = _DD(t.hi, t.lo, t.err * _INFLATE + _FLOOR)
    for c in exact:
        v = v + c
    a = abs(v.hi)
    slack, half = abs(v.lo) + (v.err * _INFLATE + _FLOOR), 0.5 - 2.0 ** -42
    return v.hi, ((slack < (a - xp.nextafter(a, 0.0)) * half)
                  & (slack < (xp.nextafter(a, math.inf) - a) * half))


def _round_point(terms, args) -> float:
    """The fast test at one point, else the decimal fallback."""
    try:
        hi, ok = _rounded(_Floats, *terms(_Floats, *args))
        if ok:
            return hi
    except (ArithmeticError, ValueError):
        pass
    return settle(terms, *args)


def _fill(out: list, indices, value) -> list:
    """out[i] = value(i) at each index; a ValueError names its index."""
    for i in indices:
        try:
            out[i] = value(i)
        except ValueError as exc:
            raise Unsettled(i, exc) from None
    return out


def _matrix(a) -> list:
    """A scalar as [[a]], a flat sequence as [a], a (k, 1) column as is."""
    try:
        rows = list(a)
    except TypeError:  # a scalar
        return [[a]]
    return rows if rows and hasattr(rows[0], "__len__") else [rows]


def _extent(lengths) -> int:
    """One dimension of a broadcast: the lengths other than 1 agree."""
    [size] = set(lengths) - {1} or {1}  # else ValueError: too many values
    return size


def round_curve(terms, *args) -> list[float]:
    """Correctly rounded values of ``terms`` at every element of the
    broadcast ``args`` (scalars, flat sequences of n and (k, 1) columns give
    k runs of n values, in C order): point by point in Python floats up to
    ``_SHORT`` elements (where numpy's per-call cost would dominate), or
    ``_COLD`` while numpy is not loaded (where its import would), else each
    subexpression vectorised at its arguments' broadcast shape.  Raises
    :class:`Unsettled` at the C-order ``index`` of an unsettled element."""
    rows = [_matrix(a) for a in args]
    k, n = _extent(map(len, rows)), _extent(len(r[0]) for r in rows)
    if k * n <= (_SHORT if sys.modules.get("numpy") else _COLD):
        points = [tuple(float(r[i % len(r)][j % len(r[0])]) for r in rows)
                  for i in range(k) for j in range(n)]
        return _fill([0.0] * len(points), range(len(points)),
                     lambda i: _round_point(terms, points[i]))
    np = _Arrays.bind()
    args = [np.asarray(a, dtype=float) for a in args]
    with np.errstate(all="ignore"):
        exact, t = terms(_Arrays, *args)
        t = _DD(*(np.broadcast_to(f, (k, n)) for f in (t.hi, t.lo, t.err)))
        hi, ok = (v.ravel() for v in _rounded(_Arrays, exact, t))
    return _fill(hi.tolist(), np.flatnonzero(~ok).tolist(), lambda i: settle(
        terms, *(float(np.broadcast_to(a, (k, n)).flat[i]) for a in args)))
