"""Real roots of the channel cubic c3 u^3 + c1 u + c0, c3 != 0.

Both bundled channels have this form, alpha u^3 - u + c (the pendulum's
force alpha u^3, Example 5.1's u^3): with no u^2 term there is no shift to
lose digits to and, with c3 != 0 (a zero c3 is refused), no quadratic or
linear case.  Trigonometric form in the three-real-root regime, Cardano
otherwise, then two guarded Newton steps.  bracket_root is the package's
one bracketed scalar solve, Brent's method.
"""

from __future__ import annotations

import itertools
import math
from typing import Callable

import numpy as np

_TWO_PI_3 = 2.0943951023931953
# Cardano's q q overflows past |q| ~ 1.3e154, the root of the largest
# float: above _Q_BIG its radicand is scaled by q q
_Q_BIG = 1e150


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


def real_roots(c3: float, c1: float, c0: float) -> tuple[float, ...]:
    """All real roots of c3 u^3 + c1 u + c0, ascending; ValueError if c3 = 0.

    A double root is reported twice, a triple root three times.
    """
    p, q = _depressed(c3, c1, c0)
    return tuple(sorted(_polish(c3, c1, c0, t) for t in _depressed_roots(p, q, (0, 1, 2))))


def extreme_root(c3: float, c1: float, c0: float, sign: int) -> float:
    """Largest (sign=+1) or smallest (sign=-1) real root of c3 u^3 + c1 u + c0.

    Equals real_roots(...)[-1] (or [0]) but computes and polishes only
    that root: the trigonometric branch n = 0 (largest) or n = 2
    (smallest), or the one Cardano root.  c0 may also be a column of
    constant terms (a float array): the roots are then a column of the
    same floats as one call per element.  ValueError if c3 = 0.
    """
    p, q = _depressed(c3, c1, c0)
    n = 0 if sign > 0 else 2
    if isinstance(c0, np.ndarray):
        # numpy's +, -, *, / and sqrt are correctly rounded, as Python's are,
        # so the scalar formulas in the same order give the same floats on a
        # column; acos, cos and the cube roots go through libm_map
        return _polish_column(c3, c1, c0, _depressed_root_column(p, q, n))
    (t,) = _depressed_roots(p, q, (n,))
    return _polish(c3, c1, c0, t)


def _depressed(c3: float, c1: float, c0) -> tuple:
    """(p, q) of u^3 + p u + q, the cubic over c3; a column c0 gives a column q."""
    if c3 == 0.0:
        raise ValueError(f"c3 must be nonzero in c3 u^3 + c1 u + c0, got {c3}")
    return c1 / c3, c0 / c3


def _depressed_roots(p: float, q: float, branches: tuple) -> list:
    """Roots t of t^3 + p t + q, unpolished.

    With three real roots, the trigonometric roots of the given branches
    (n = 0 is the largest, n = 2 the smallest), and the triple root 0 once
    for each branch; otherwise the one real root, by Cardano.
    """
    disc = -4.0 * p**3 - 27.0 * q * q
    if disc >= 0.0 and p < 0.0:
        m = 2.0 * math.sqrt(-p / 3.0)
        arg = 3.0 * q / (p * m)
        arg = max(-1.0, min(1.0, arg))
        phi = math.acos(arg) / 3.0
        return [m * math.cos(phi - _TWO_PI_3 * n) for n in branches]
    if p == 0.0 and q == 0.0:
        return [0.0] * len(branches)
    if _Q_BIG < abs(q) < math.inf:
        # q q would overflow: the radicand q q / 4 + p^3 / 27 over q q
        s = abs(q) * math.sqrt(max(0.0, 0.25 + p**3 / 27.0 / q / q))
    else:
        s = math.sqrt(max(0.0, q * q / 4.0 + p**3 / 27.0))
    t = (math.copysign(abs(-q / 2.0 + s) ** (1.0 / 3.0), -q / 2.0 + s)
         + math.copysign(abs(-q / 2.0 - s) ** (1.0 / 3.0), -q / 2.0 - s))
    return [t]


def _depressed_root_column(p: float, q: np.ndarray, n: int) -> np.ndarray:
    """_depressed_roots(p, q, (n,)) on a column q: the trigonometric root
    of branch n where there are three real roots, else Cardano's (which
    gives the triple root 0 as well)."""
    with np.errstate(over="ignore"):
        # an overflow gives disc = -inf, Cardano's case, as for a float
        disc = -4.0 * p**3 - 27.0 * q * q
    trig = disc >= 0.0 if p < 0.0 else np.zeros(len(q), dtype=bool)
    k = np.count_nonzero(trig)
    if k in (0, len(q)):
        return _trig_roots(p, q, n) if k else _cardano_roots(p, q)
    t = np.empty(len(q))
    t[trig] = _trig_roots(p, q[trig], n)
    t[~trig] = _cardano_roots(p, q[~trig])
    return t


def _trig_roots(p: float, q: np.ndarray, n: int) -> np.ndarray:
    m = 2.0 * math.sqrt(-p / 3.0)
    # max(-1.0, min(1.0, arg)): fmin and fmax keep the bound, as min and max do
    arg = np.fmax(np.fmin(3.0 * q / (p * m), 1.0), -1.0)
    phi = libm_map(math.acos, arg) / 3.0
    return m * libm_map(math.cos, phi - _TWO_PI_3 * n)


def _cardano_roots(p: float, q: np.ndarray) -> np.ndarray:
    # max(0.0, r): r is never -0.0, and fmax keeps 0.0 for a NaN r, as max does
    aq = np.abs(q)
    if aq.max(initial=0.0) > _Q_BIG:
        # the radicand over q q where _depressed_roots scales it: the same
        # floats, as q / |q| = +-1 and 1/4 is exact
        w = np.where((aq > _Q_BIG) & (aq < math.inf), aq, 1.0)
        s = w * np.sqrt(np.fmax((q / w) * (q / w) / 4.0 + p**3 / 27.0 / w / w, 0.0))
    else:
        s = np.sqrt(np.fmax(q * q / 4.0 + p**3 / 27.0, 0.0))
    h = -q / 2.0
    return _cbrt(h + s) + _cbrt(h - s)


def _cbrt(x: np.ndarray) -> np.ndarray:
    """copysign(|x| ** (1/3), x) on a column, the power by libm per element."""
    return np.copysign(libm_map(math.pow, np.abs(x), 1.0 / 3.0), x)


def libm_map(fn: Callable, x: np.ndarray, *args) -> np.ndarray:
    """fn(v, *args) of math for each float v of the column x: numpy's own
    transcendental functions may differ from libm's in the last bits."""
    return np.fromiter(map(fn, x.tolist(), *map(itertools.repeat, args)), float, len(x))


def _polish(c3: float, c1: float, c0: float, u: float) -> float:
    """Two guarded Newton steps on the cubic."""
    for _ in range(2):
        f = (c3 * u * u + c1) * u + c0
        fp = 3.0 * c3 * u * u + c1
        if fp == 0.0:
            break
        step = f / fp
        if not math.isfinite(step) or abs(step) > 0.5 * (1.0 + abs(u)):
            break
        u -= step
    return u


def _polish_column(c3: float, c1: float, c0: np.ndarray, u: np.ndarray) -> np.ndarray:
    """_polish on columns: an element stops where the scalar loop breaks."""
    go = True
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for _ in range(2):
            f = (c3 * u * u + c1) * u + c0
            fp = 3.0 * c3 * u * u + c1
            step = f / fp
            # a step that is not finite fails the bound as well: it is NaN
            # where u is not finite, and fp == 0 gives an infinite or NaN step
            go = go & (np.abs(step) <= 0.5 * (1.0 + np.abs(u)))
            u = u - step if go.all() else np.where(go, u - step, u)
    return u
