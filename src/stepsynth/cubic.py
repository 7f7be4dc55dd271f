"""Real roots of real cubics.

Trigonometric form in the three-real-root regime, Cardano otherwise, and a
couple of Newton polish steps on the original coefficients either way.
Where a shifted depressed form leaves a root whose residual is large
against the terms of the cubic, the real eigenvalues of the companion
matrix are taken instead.
Degenerate leading coefficients fall back to the quadratic/linear cases.
bracket_root is the package's one bracketed scalar solve (brentq).
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

_TWO_PI_3 = 2.0943951023931953
_RESIDUAL_TOL = 1e-9
_IMAG_TOL = 1e-7


class RootBracketFailure(RuntimeError):
    """A controller root bracket shows no sign change."""


def bracket_root(q: Callable, lo: float, hi: float, xtol: float = 1e-14) -> float:
    """Root of q on [lo, hi] by brentq; an endpoint where q is exactly zero.

    Raises RootBracketFailure when q has the same sign at both ends.
    """
    qlo, qhi = q(lo), q(hi)
    if qlo == 0.0:
        return lo
    if qhi == 0.0:
        return hi
    if (qlo > 0.0) == (qhi > 0.0):
        raise RootBracketFailure(f"no sign change on [{lo}, {hi}]: q = ({qlo:.3g}, {qhi:.3g})")
    from scipy.optimize import brentq

    return float(brentq(q, lo, hi, xtol=xtol, rtol=8.9e-16))


def real_roots(c3: float, c2: float, c1: float, c0: float) -> tuple[float, ...]:
    """All real roots of c3 u^3 + c2 u^2 + c1 u + c0, ascending.

    A double root is reported twice, a triple root three times; quadratic
    and linear degenerations are handled when leading coefficients vanish.
    """
    if c3 == 0.0:
        if c2 == 0.0:
            if c1 == 0.0:
                raise ValueError("degenerate polynomial: all leading coefficients zero")
            return (-c0 / c1,)
        disc = c1 * c1 - 4.0 * c2 * c0
        if disc < 0.0:
            return ()
        # q takes the larger root's sign so that -c1 and the root of disc
        # never cancel; the other root follows from the product c0/c2
        q = -0.5 * (c1 + math.copysign(math.sqrt(disc), c1))
        if q == 0.0:
            return (0.0, 0.0)
        return tuple(sorted((q / c2, c0 / q)))

    shift, p, q = _depressed(c3, c2, c1, c0)
    roots = [_polish(c3, c2, c1, c0, t - shift) for t in _depressed_roots(p, q, (0, 1, 2))]
    if shift != 0.0 and not all(_settled(c3, c2, c1, c0, u) for u in roots):
        roots = _companion_roots(c3, c2, c1, c0)
    return tuple(sorted(roots))


def extreme_root(c3: float, c2: float, c1: float, c0: float, sign: int) -> float:
    """Largest (sign=+1) or smallest (sign=-1) real root; raises if none.

    Equals real_roots(...)[-1] (or [0]) but computes and polishes only
    that root: the trigonometric branch n = 0 (largest) or n = 2
    (smallest), or the one Cardano root.
    """
    if c3 != 0.0:
        shift, p, q = _depressed(c3, c2, c1, c0)
        (t,) = _depressed_roots(p, q, (0,) if sign > 0 else (2,))
        u = _polish(c3, c2, c1, c0, t - shift)
        if shift == 0.0 or _settled(c3, c2, c1, c0, u):
            return u
    roots = real_roots(c3, c2, c1, c0)
    if not roots:
        raise ValueError("cubic has no real roots")
    return roots[-1] if sign > 0 else roots[0]


def _depressed(c3: float, c2: float, c1: float, c0: float) -> tuple:
    """(shift, p, q): the cubic over c3 is t^3 + p t + q with u = t - shift."""
    shift = c2 / (3.0 * c3)
    p = c1 / c3 - shift * shift * 3.0
    q = 2.0 * shift**3 - shift * c1 / c3 + c0 / c3
    return shift, p, q


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
    s = math.sqrt(max(0.0, q * q / 4.0 + p**3 / 27.0))
    t = (math.copysign(abs(-q / 2.0 + s) ** (1.0 / 3.0), -q / 2.0 + s)
         + math.copysign(abs(-q / 2.0 - s) ** (1.0 / 3.0), -q / 2.0 - s))
    return [t]


def _polish(c3: float, c2: float, c1: float, c0: float, u: float) -> float:
    """Two guarded Newton steps on the original coefficients."""
    for _ in range(2):
        f = ((c3 * u + c2) * u + c1) * u + c0
        fp = (3.0 * c3 * u + 2.0 * c2) * u + c1
        if fp == 0.0:
            break
        step = f / fp
        if not math.isfinite(step) or abs(step) > 0.5 * (1.0 + abs(u)):
            break
        u -= step
    return u


def _companion_roots(c3: float, c2: float, c1: float, c0: float) -> list:
    """Real eigenvalues of the companion matrix.

    With c3 tiny against c2 the shift cancels c1/c3 out of p, and the
    small roots of the depressed form are lost; the eigenvalues keep them.
    """
    return [
        float(z.real)
        for z in np.roots((c3, c2, c1, c0))
        if abs(z.imag) <= _IMAG_TOL * max(1.0, abs(z))
    ]


def _settled(c3: float, c2: float, c1: float, c0: float, u: float) -> bool:
    """The cubic at u is small against the sum of its absolute terms."""
    a = abs(u)
    f = ((c3 * u + c2) * u + c1) * u + c0
    return abs(f) <= _RESIDUAL_TOL * (((abs(c3) * a + abs(c2)) * a + abs(c1)) * a + abs(c0))
