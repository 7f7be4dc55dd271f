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

    For k = 1 the root has the closed form Theta = |x| sqrt(N(1)^{-1}/(2 a0)).
    For k >= 2 the scalar equation is multiplied by Theta^(2k-1) to give a
    polynomial in Theta.  It is solved at x dilated by a power of two so
    that its largest entry is near 1, since Theta(lam^k x_1, ..., lam x_k)
    = lam Theta(x) and a power of two dilates x and Theta exactly.  The
    dilated root is bracketed within a factor of 2 by doubling/halving from
    Theta=1, over the whole float exponent range, then solved by brentq
    (cubic.bracket_root) to 1e-14 of the bracket's upper end.  So every
    finite x and every a0 > 0 have a root, from subnormal a0 to x whose
    quadratic form overflows; a Theta past the float range raises
    OverflowError.  w = N(Theta)^{-1} x comes from the dilation form
    D(Theta) N(1)^{-1} D(Theta) x, which raises OverflowError where
    Theta^-(k - 1/2) overflows.  x = 0, or an x whose quadratic form
    underflows to zero, returns theta = 0 exactly.  All arithmetic is on
    Python floats.
    """
    k = s.gram.k
    xs = _as_floats(x, k)
    ninv = s._n1_inv
    if not any(_form(ninv, xs)):
        # x is zero, or its quadratic form underflowed to zero: treat as origin
        return ThetaEval(theta=0.0, w=np.zeros(k), v=0.0, sigma=0.0)

    if k == 1:
        th, sigma = _theta1(s, xs[0])
        w = [sigma]
    else:
        th = _theta_root(s, xs)
        dil = [th ** -e for e in s._dil]
        y = [dj * xj for dj, xj in zip(dil, xs)]
        w = [di * sum(map(operator.mul, row, y)) for di, row in zip(dil, ninv)]

    residual = abs(2.0 * s.a0 * th - sum(map(operator.mul, w, xs)))
    if residual > ROOT_TOL * max(1.0, 2.0 * s.a0 * th):
        raise NonConvergence(f"theta residual {residual:.3e} above tolerance")
    sigma = w[k - 1]
    return ThetaEval(theta=th, w=np.array(w), v=-0.5 * sigma, sigma=sigma)


def _theta1(s: LinearSynth, x):
    """Theta and sigma of a 1-chain at x != 0, in closed form: floats, or
    columns of them for a column x."""
    n = s._n1_inv[0][0]
    th = abs(x) * math.sqrt(n / (2.0 * s.a0))
    return th, n * x / th


def sigmas(s: LinearSynth, X: np.ndarray) -> np.ndarray:
    """theta_of(s, x).sigma for each row x of the (rows, k) array X, as a
    float array.

    For k = 1 by theta_of's closed form (_theta1) on the column itself,
    the same floats.  For k >= 2, and for a batch with a row that theta_of
    rejects, theta_of one row at a time: the first such row raises.
    """
    if s.gram.k == 1 and X.shape[1] == 1:
        x = X[:, 0]
        with np.errstate(all="ignore"):
            origin = s._n1_inv[0][0] * (x * x) == 0.0  # theta_of's zero quadratic form
            th, sigma = _theta1(s, x)
            lhs = 2.0 * s.a0 * th
            residual = np.abs(lhs - sigma * x)
            ok = origin | (np.isfinite(x) & ~(residual > ROOT_TOL * np.fmax(lhs, 1.0)))
        if ok.all():
            return np.where(origin, 0.0, sigma)
    return np.array([theta_of(s, x).sigma for x in X.tolist()], dtype=float)


def _theta_root(s: LinearSynth, xs: list) -> float:
    # solve at x dilated by lam = 2^-m, lam^(k-i) x_i for i = 0..k-1: m =
    # max over x_i != 0 of floor(e_i / (k-i)), e_i the binary exponent of
    # x_i, puts the largest dilated entry near 1; Theta is 2^m times the
    # dilated root
    k = len(xs)
    m = max(math.frexp(v)[1] // (k - i) for i, v in enumerate(xs) if v)
    c = _form(s._n1_inv, [math.ldexp(v, -m * (k - i)) for i, v in enumerate(xs)])
    # F(Theta) = 2 a0 Theta^{2k} - sum_p c_p Theta^p, descending order:
    # negative below the positive root, positive above it
    coeffs = [2.0 * s.a0, 0.0] + [-cp for cp in reversed(c)]
    F = lambda th: _horner(coeffs, th)
    # walk Theta by factors of 2 from 1 toward the root until F changes sign
    up = F(1.0) <= 0.0
    th = 1.0
    for _ in range(_MAX_ITER):
        th = th * 2.0 if up else th * 0.5
        if (F(th) > 0.0) == up:
            lo, hi = (0.5 * th, th) if up else (th, 2.0 * th)
            root = bracket_root(F, lo, hi, xtol=1e-14 * hi)
            try:
                return math.ldexp(root, m)
            except OverflowError:
                raise OverflowError(f"theta = {root!r} * 2**{m} is past the float range") from None
    raise NonConvergence("bracket for theta did not close")
