"""Real roots of the channel cubic c3 u^3 + c1 u + c0, c3 != 0.

Both bundled channels have this form, alpha u^3 - u + c (the pendulum's
force alpha u^3, Example 5.1's u^3): with no u^2 term there is no shift to
lose digits to and, with c3 != 0 (a zero c3 is refused), no quadratic or
linear case.  Trigonometric form in the three-real-root regime, Cardano
otherwise, then two guarded Newton steps, each written once for a float
and for a column of constant terms: the step sets FLOAT and COLUMN hold
the few steps whose two forms differ, and give the same floats.  A
forcing with |c0 / c3| past 2^500, or a cubic whose (c1 / c3)^3
overflows, is solved for t = u / 2^j, whose coefficients scale exactly,
so that every finite forcing and coefficient ratio has its finite root.
bracket_root is the package's one bracketed scalar solve, Brent's
method.
"""

from __future__ import annotations

import itertools
import math
from types import SimpleNamespace
from typing import Callable

import numpy as np

_TWO_PI_3 = 2.0943951023931953


class RootBracketFailure(RuntimeError):
    """A controller root bracket shows no sign change."""


def bracket_root(q: Callable, lo: float, hi: float, xtol: float = 1e-14) -> float:
    """Root of q on [lo, hi] by Brent's method; an endpoint where q is
    exactly zero.

    Brent (1973), Algorithms for Minimization without Derivatives, ch. 4,
    in the operation order of scipy's brentq.c, so the same floats as
    scipy.optimize.brentq(q, lo, hi, xtol=xtol, rtol=8.9e-16): done when
    the bracket half-width is below (xtol + rtol |x|) / 2.  Raises
    RootBracketFailure when q has the same sign at both ends, ValueError
    on a NaN value of q, and RuntimeError after 100 iterations.
    """
    xpre, xcur = float(lo), float(hi)
    fpre, fcur = q(lo), q(hi)
    if fpre == 0.0:
        return lo
    if fcur == 0.0:
        return hi
    if (fpre > 0.0) == (fcur > 0.0):
        raise RootBracketFailure(f"no sign change on [{lo}, {hi}]: q = ({fpre:.3g}, {fcur:.3g})")
    fpre, fcur = float(fpre), float(fcur)
    xblk = fblk = spre = scur = 0.0
    for _ in range(100):
        if fpre != 0.0 and fcur != 0.0 and (fpre < 0.0) != (fcur < 0.0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (xtol + 8.9e-16 * abs(xcur)) / 2.0
        sbis = (xblk - xcur) / 2.0
        if fcur == 0.0 or abs(sbis) < delta:
            return xcur
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:  # secant
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:  # inverse quadratic interpolation
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            short = 2.0 * abs(stry) < min(abs(spre), 3.0 * abs(sbis) - delta)
            spre, scur = (scur, stry) if short else (sbis, sbis)
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        xcur += scur if abs(scur) > delta else (delta if sbis > 0.0 else -delta)
        fcur = float(q(xcur))
        if fcur != fcur:
            raise ValueError(f"q is NaN at {xcur!r}")
    raise RuntimeError(f"no convergence after 100 iterations, value is {xcur!r}")


def libm_map(fn: Callable, x: np.ndarray, *args) -> np.ndarray:
    """fn(v, *args) of math for each float v of the column x: numpy's own
    transcendental functions may differ from libm's in the last bits."""
    return np.fromiter(map(fn, x.tolist(), *map(itertools.repeat, args)), float, len(x))


def _div_column(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):  # silent, as a float's /
        return x / y


def _split_column(mask, yes: Callable, no: Callable, *args) -> np.ndarray:
    n = np.count_nonzero(mask)
    if n in (0, np.size(mask)):
        return (yes if n else no)(*args)
    out = np.empty(np.size(mask))
    for part, fn in ((mask, yes), (~mask, no)):
        out[part] = fn(*(a[part] if isinstance(a, np.ndarray) else a for a in args))
    return out


# The steps of the channel formulas whose float and column forms differ,
# with the same floats, signed zeros and NaNs included; the rest (+, -, *,
# / by a nonzero, comparisons) is written once, as Python and numpy round
# each of them correctly.  sin, cos, acos and the cube root
# copysign(|x| ** (1/3), x) go through libm, per element on a column, as
# numpy's may differ in the last bits.  exponent(x) is frexp's e, |x| < 2^e;
# scale(j) is 2^j where j > 0, else 1 (one float 1 for a whole column);
# select(cond, a, b) is a where cond holds, else b; div(x, y) is x / y, an
# infinity or NaN where y is zero; split(mask, yes, no, *args) is yes(*args)
# where mask holds and no(*args) elsewhere, a column's array arguments cut
# to those elements.
FLOAT = SimpleNamespace(
    sqrt=math.sqrt, sin=math.sin, cos=math.cos, acos=math.acos,
    cbrt=lambda x: math.copysign(abs(x) ** (1.0 / 3.0), x),
    exponent=lambda x: math.frexp(x)[1],
    scale=lambda j: 2.0 ** j if j > 0 else 1.0,
    select=lambda cond, a, b: a if cond else b,
    div=lambda x, y: x / y if y else x * math.copysign(math.inf, y),  # x / +-0 as IEEE has it
    split=lambda mask, yes, no, *args: (yes if mask else no)(*args),
)
COLUMN = SimpleNamespace(
    sqrt=np.sqrt,
    sin=lambda x: libm_map(math.sin, x),
    cos=lambda x: libm_map(math.cos, x),
    acos=lambda x: libm_map(math.acos, x),
    cbrt=lambda x: np.copysign(libm_map(math.pow, np.abs(x), 1.0 / 3.0), x),
    exponent=lambda x: np.frexp(x)[1],
    scale=lambda j: np.ldexp(1.0, np.maximum(j, 0)) if j.max(initial=0) > 0 else 1.0,
    select=np.where,
    div=_div_column,
    split=_split_column,
)


def steps_of(x) -> SimpleNamespace:
    """COLUMN for a float array, FLOAT for a float."""
    return COLUMN if isinstance(x, np.ndarray) else FLOAT


def real_roots(c3: float, c1: float, c0: float) -> tuple[float, ...]:
    """All real roots of c3 u^3 + c1 u + c0, ascending; ValueError if c3 = 0.

    A double root is reported twice, a triple root three times.
    """
    p, q, p3, k, three = _depressed(FLOAT, c3, c1, c0)
    root = _trig if three else _cardano
    # the one Cardano root once, but the triple root 0 (p = q = 0) three times
    ns = (0, 1, 2) if three or p == q == 0.0 else (0,)
    return tuple(sorted(_polish(FLOAT, c3, c1, c0, k, root(FLOAT, p, q, p3, k, n)) for n in ns))


def extreme_root(c3: float, c1: float, c0, sign: int):
    """Largest (sign=+1) or smallest (sign=-1) real root of c3 u^3 + c1 u + c0.

    Equals real_roots(...)[-1] (or [0]) but computes and polishes only
    that root: the trigonometric branch n = 0 (largest) or n = 2
    (smallest), or the one Cardano root.  c0 may also be a column of
    constant terms (a float array): the roots are then a column of the
    same floats as one call per element.  ValueError if c3 = 0.
    """
    S = steps_of(c0)
    p, q, p3, k, three = _depressed(S, c3, c1, c0)
    t = S.split(three, _trig, _cardano, S, p, q, p3, k, 0 if sign > 0 else 2)
    return _polish(S, c3, c1, c0, k, t)


def _depressed(S: SimpleNamespace, c3: float, c1: float, c0) -> tuple:
    """(p, q, p3, k, three): t = u / k solves t^3 + (p / k^2) t + q = 0,
    p3 = (p / k^2)^3, and three holds where it has three real roots.

    k = 2^j with j >= 0 the least that keeps |q| below 2^501, and |p / k^2|
    below 2^341 where p^3 overflows, so q q and p3 do not overflow: k = 1
    wherever |c0 / c3| < 2^500 and p^3 is finite.  Dividing by a power of
    two is exact, so the scaled q and p3 are those of u to the last bit;
    p is cubed before the scale where it may be.  A column c0 gives
    columns q, and p3 and k if any element is scaled.
    """
    if c3 == 0.0:
        raise ValueError(f"c3 must be nonzero in c3 u^3 + c1 u + c0, got {c3}")
    p, big = c1 / c3, 0
    try:
        cube = p**3
    except OverflowError:  # |p| past about 5.6e102: k scales p too, cubed after
        big = (math.frexp(p)[1] - 340) // 2
    j = (S.exponent(c0) - math.frexp(c3)[1] - 498) // 3
    k = S.scale(S.select(j > big, j, big))
    r, w = p / k / k, k * k * k
    q, p3 = c0 / w / c3, (r * r * r if big else cube / w / w)
    return p, q, p3, k, p < 0.0 and -4.0 * p3 - 27.0 * q * q >= 0.0


def _trig(S: SimpleNamespace, p: float, q, p3, k, n: int):
    """Root n of the three real roots as t = u / k: n = 0 is the largest,
    n = 2 the smallest."""
    m = 2.0 * math.sqrt(-p / 3.0)
    arg = 3.0 * (q * (k * k * k)) / (p * m)
    arg = S.select(arg < 1.0, arg, 1.0)  # min(1.0, arg), which takes a NaN to 1.0
    arg = S.select(arg > -1.0, arg, -1.0)
    return m * S.cos(S.acos(arg) / 3.0 - _TWO_PI_3 * n) / k


def _cardano(S: SimpleNamespace, p: float, q, p3, k, n: int):
    """The one real root t, by Cardano's formula (0 at p = q = 0, the
    triple root); the arguments are _trig's."""
    r = q * q / 4.0 + p3 / 27.0
    s = S.sqrt(S.select(r > 0.0, r, 0.0))
    h = -q / 2.0
    return S.cbrt(h + s) + S.cbrt(h - s)


def _polish(S: SimpleNamespace, c3: float, c1: float, c0, k, t):
    """Two guarded Newton steps on c3 t^3 + (c1 / k^2) t + c0 / k^3, the
    cubic of t = u / k, then u = k t.  An element stops at a step that is
    not finite or passes half of 1 + |t|."""
    c1, c0 = c1 / k / k, c0 / (k * k * k)
    go = True
    for _ in range(2):
        step = S.div((c3 * t * t + c1) * t + c0, 3.0 * c3 * t * t + c1)
        go = go & (abs(step) <= 0.5 * (1.0 + abs(t)))
        t = S.select(go, t - step, t)
    return t * k
