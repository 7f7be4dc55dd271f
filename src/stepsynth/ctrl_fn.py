"""Controllability function and bounded linear feedback for an integrator chain.

For a chain of dimension k with design constants a0 and d, Theta(x) is the
unique positive root of

    2 a0 Theta = (N(Theta)^{-1} x, x),

and the feedback is v(x) = -1/2 b0* N(Theta(x))^{-1} x.  Along the closed
loop Theta decays at unit rate, so Theta(x0) is the exact time to the
origin, and |v| <= d holds whenever 0 < a0 <= 2 d^2 / (N(1)^{-1} b0, b0).
The hold band THETA_MIN, under which v is 0 and a block counts as done,
and the residual tolerance ROOT_TOL of the Theta solve are constants of
the method.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .chain_gramian import GramSet
from .cubic import bracket_root

_MAX_ITER = 2200  # factor-2 steps of the Theta walk: more than the float exponent range spans
THETA_MIN = 1e-9  # hold band: v = 0 and the block is done below it
ROOT_TOL = 1e-12  # relative residual tolerance of the Theta root


class NonConvergence(RuntimeError):
    """Theta root iteration failed to meet the residual tolerance."""


def a0_max(gram: GramSet, d: float) -> float:
    """Largest admissible a0 for control bound d: 2 d^2 / (N(1)^{-1} b0, b0)."""
    if not d > 0:
        raise ValueError(f"control bound d must be positive, got {d}")
    return 2.0 * d * d / gram.n1_inv[gram.k - 1][gram.k - 1]


@dataclass(frozen=True)
class LinearSynth:
    """Feedback synthesis constants for one chain.

    Requires 0 < a0 <= a0_max(gram, d).
    """

    gram: GramSet
    a0: float
    d: float
    # float copies of N(1)^{-1} and the dilation exponents, for theta_of
    _n1_inv: tuple = field(init=False, repr=False, compare=False)
    _dil: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not self.a0 > 0:
            raise ValueError(f"a0 must be positive, got {self.a0}")
        cap = a0_max(self.gram, self.d)
        if self.a0 > cap * (1 + 1e-12):
            raise ValueError(f"a0={self.a0} exceeds a0_max={cap} for d={self.d}")
        object.__setattr__(self, "_n1_inv", tuple(tuple(float(v) for v in row) for row in self.gram.n1_inv))
        object.__setattr__(self, "_dil", tuple(float(e) for e in self.gram.dil))


@dataclass(frozen=True)
class ThetaEval:
    """Theta(x) together with w = N(Theta)^{-1} x, v = -w_k/2 and sigma = w_k."""

    theta: float
    w: np.ndarray
    v: float
    sigma: float


def _as_floats(x, k: int) -> list:
    try:
        xs = [float(v) for v in x] if getattr(x, "ndim", 1) == 1 else None
    except TypeError:
        xs = None
    if xs is None or len(xs) != k:
        raise ValueError(f"x must have shape ({k},), got {np.shape(x)}")
    if not all(map(math.isfinite, xs)):
        raise ValueError("x must be finite")
    return xs


def _form(ninv: tuple, xs: list) -> list:
    """c[p] = sum over i+j=p of N(1)^{-1}[i][j] x_i x_j, the Theta^p
    coefficient of the quadratic form (N(Theta)^{-1} x, x) Theta^(2k-1)."""
    c = [0.0] * (2 * len(xs) - 1)
    for i, xi in enumerate(xs):
        row = ninv[i]
        for j, xj in enumerate(xs):
            c[i + j] += row[j] * (xi * xj)
    return c


def _horner(coeffs: list, th: float) -> float:
    # the same operation order as np.polyval on descending coefficients
    y = 0.0
    for c in coeffs:
        y = y * th + c
    return y


def theta_of(s: LinearSynth, x: Sequence[float]) -> ThetaEval:
    """Solve 2 a0 Theta = (N(Theta)^{-1} x, x) for the unique positive root.

    The whole solve runs in one frame: x dilated by lam = 2^-m so that its
    largest entry is near 1, x~_i = lam^(k-i+1) x_i for 1-based i.  For
    k = 1 the dilated root Theta~ has the closed form |x~| sqrt(N(1)^{-1} /
    (2 a0)).  For k >= 2 the scalar equation times Theta^(2k-1) is a
    polynomial, whose root is bracketed within a factor of 2 by doubling/
    halving from Theta = 1 and solved by Brent's method (cubic.bracket_root)
    to 1e-14 of the bracket's upper end.  w~ = N(Theta~)^{-1} x~ and the
    residual check are on the same frame, and the results scale back
    exactly by the dilation law Theta(lam^k x_1, ..., lam x_k) = lam
    Theta(x): Theta = 2^m Theta~, w_i = 2^(-m(k-i)) w~_i, sigma = w_k = w~_k.
    So every finite x and every a0 > 0 have a root; a Theta past the float
    range raises OverflowError, and a w entry past it is +-inf.  Only x = 0
    is the origin, with theta = 0 exactly.
    """
    k = s.gram.k
    xs = _as_floats(x, k)
    if not any(xs):
        return ThetaEval(theta=0.0, w=np.zeros(k), v=0.0, sigma=0.0)

    # m = max over x_i != 0 of floor(e_i / (k-i)), 0-based, e_i the binary
    # exponent of x_i: every dilated entry is below 2^(k-i) in magnitude
    m = max(math.frexp(v)[1] // (k - i) for i, v in enumerate(xs) if v)
    xd = [math.ldexp(v, -m * (k - i)) for i, v in enumerate(xs)]
    if k == 1:
        th, sigma = _theta1(s, xd[0])
        wd = [sigma]
    else:
        th = _theta_root(s, xd)
        dil = [th ** -e for e in s._dil]
        y = [dj * xj for dj, xj in zip(dil, xd)]
        wd = [di * sum(map(operator.mul, row, y)) for di, row in zip(dil, s._n1_inv)]

    # a0 Theta~ against (w~, x~) / 2: the equation halved, exactly, so
    # that 2 a0 cannot overflow
    residual = abs(s.a0 * th - 0.5 * sum(map(operator.mul, wd, xd)))
    # a NaN residual (an infinite w~ entry times a zero x~ entry) fails too
    if not residual <= ROOT_TOL * max(0.5, s.a0 * th):
        raise NonConvergence(f"theta residual {residual:.3e} above tolerance")
    try:
        theta = math.ldexp(th, m)
    except OverflowError:
        raise OverflowError(f"theta = {th!r} * 2**{m} is past the float range") from None
    with np.errstate(over="ignore"):
        w = np.ldexp(wd, [-m * (k - 1 - i) for i in range(k)])
    sigma = wd[k - 1]
    return ThetaEval(theta=theta, w=w, v=-0.5 * sigma, sigma=sigma)


def _theta1(s: LinearSynth, x):
    """Theta and sigma of a 1-chain at x != 0, in closed form: floats, or
    columns of them for a column x."""
    n = s._n1_inv[0][0]
    root = math.sqrt(n / (2.0 * s.a0))
    if root == math.inf or root == 0.0:
        # n / (2 a0) overflows at a0 below about 5.6e-309, and 2 a0 at a0
        # above about 8.99e307; the finite path keeps its floats
        root = math.sqrt(0.5 * n) / math.sqrt(s.a0)
    th = abs(x) * root
    return th, n * x / th


def sigmas(s: LinearSynth, X: np.ndarray) -> np.ndarray:
    """theta_of(s, x).sigma for each row x of the (rows, k) array X, as a
    float array.

    For k = 1 by theta_of's closed form (_theta1) on the column's dilated
    frame, its frexp mantissas: the same floats, with sigma = 0 only at
    x = 0.  For k >= 2, and for a batch with a row that theta_of rejects,
    theta_of one row at a time: the first such row raises.
    """
    if s.gram.k == 1 and X.shape[1] == 1:
        x = X[:, 0]
        xd = np.frexp(x)[0]
        with np.errstate(all="ignore"):
            th, sigma = _theta1(s, xd)
            lhs = s.a0 * th
            residual = np.abs(lhs - 0.5 * (sigma * xd))
            origin = x == 0.0
            ok = origin | (np.isfinite(x) & (residual <= ROOT_TOL * np.fmax(lhs, 0.5)))
        if ok.all():
            return np.where(origin, 0.0, sigma)
    return np.array([theta_of(s, x).sigma for x in X.tolist()], dtype=float)


def _theta_root(s: LinearSynth, xd: list) -> float:
    # the positive root at theta_of's dilated chain xd
    c = _form(s._n1_inv, xd)
    # F(Theta) = a0 Theta^{2k} - sum_p c_p Theta^p / 2, descending order:
    # negative below the positive root, positive above it.  The equation
    # is halved, exactly, so that 2 a0 cannot overflow
    coeffs = [s.a0, 0.0] + [-0.5 * cp for cp in reversed(c)]
    F = lambda th: _horner(coeffs, th)
    # walk Theta by factors of 2 from 1 toward the root until F changes sign
    up = F(1.0) <= 0.0
    th = 1.0
    for _ in range(_MAX_ITER):
        th = th * 2.0 if up else th * 0.5
        if (F(th) > 0.0) == up:
            lo, hi = (0.5 * th, th) if up else (th, 2.0 * th)
            return bracket_root(F, lo, hi, xtol=1e-14 * hi)
    raise NonConvergence("bracket for theta did not close")
