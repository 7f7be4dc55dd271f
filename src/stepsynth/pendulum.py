"""Two-link pendulum stoppage: relative angle first, then the second link.

State x = (phi, dphi, psi, dpsi) with forces F1 = alpha u^3, F2 = u driving
the two links.  The chart z = (x1 - x3, x2 - x4, x3, x4) splits the system
into two 2-chains: block 1 (relative angle) obeys dz2 = H1(z, u), block 2
(second link) obeys dz4 = H2(z, u).  Step 1 drives the relative coordinates
to zero along a parabolic curve with margins eps1p/eps1m; step 2 keeps the
motion inside the plane z1 = z2 = 0 (the links swing as one) and steers the
remaining double integrator along the curve built from the constant-channel
controls.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .cubic import extreme_root
from .scenarios import ProbeFields, Scenario
from .stepwise import BlockPartition, CurveSwitch


class NoRealRoot(RuntimeError):
    """The channel cubic has no real root on the requested side."""


@dataclass(frozen=True)
class PendulumParams:
    """Masses, lengths, gravity, cubic force coefficient and step-1 margins."""

    m1: float = 1.0
    m2: float = 1.0
    l1: float = 1.0
    l2: float = 1.0
    g: float = 1.0
    alpha: float = 1.0 / 9.0
    eps1p: float = 20.0
    eps1m: float = 10.0

    def __post_init__(self):
        for name in ("m1", "m2", "l1", "l2", "g", "eps1p", "eps1m"):
            if getattr(self, name) <= 0.0:
                raise ValueError(f"{name} must be positive, got {getattr(self, name)}")
        hi = (4.0 / 27.0) * self.l1 ** 2 / self.g ** 2
        if not 0.0 < self.alpha <= hi * (1.0 + 1e-12):
            raise ValueError(f"alpha = {self.alpha} outside (0, {hi}]")


def _beta(p: PendulumParams, x, u: float) -> tuple:
    """Acceleration pair (ddphi, ddpsi) of the original chart."""
    x1, x2, x3, x4 = x
    s = math.sin(x1 - x3)
    c = math.cos(x1 - x3)
    den = p.m1 + p.m2 * s * s
    b1 = (
        -(p.g * p.m1 * math.sin(x1) + p.m2 * s * (p.g * math.cos(x3) + p.l1 * x2 * x2 * c + p.l2 * x4 * x4))
        / (p.l1 * den)
        + p.alpha * u ** 3
    )
    b2 = (
        s * ((p.m1 + p.m2) * (p.g * math.cos(x1) + p.l1 * x2 * x2) + p.l2 * p.m2 * x4 * x4 * c)
        / (p.l2 * den)
        + u
    )
    return b1, b2


def _drifts(p: PendulumParams, z) -> tuple:
    """Control-free parts (G1, G2): H1 = G1 + alpha u^3 - u, H2 = G2 + u."""
    z1, z2, z3, z4 = z
    s = math.sin(z1)
    c = math.cos(z1)
    den = p.m1 + p.m2 * s * s
    vsq = (z2 + z4) ** 2
    g2n = s * (p.l2 * p.m2 * z4 * z4 * c + (p.m1 + p.m2) * (p.g * math.cos(z1 + z3) + p.l1 * vsq))
    g1 = (
        -(
            p.l2 * p.m1 * p.g * math.sin(z1 + z3)
            + p.l2 * p.m2 * s * (p.g * math.cos(z3) + p.l2 * z4 * z4 + p.l1 * vsq * c)
            + p.l1 * g2n
        )
        / (p.l1 * p.l2 * den)
    )
    return g1, g2n / (p.l2 * den)


def pendulum_H(p: PendulumParams, z, u: float) -> tuple:
    """Residual channels (H1, H2) of the block chart at (z, u)."""
    g1, g2 = _drifts(p, z)
    return (g1 + p.alpha * u ** 3 - u, g2 + u)


_ROOT_TOL = 1e-10


def _branch_root(p: PendulumParams, c: float, sign: int) -> float:
    """Extreme root of alpha u^3 - u + c = 0 on the branch's side of zero.

    extreme_root has already polished it; NoRealRoot if it has the wrong
    sign or misses the 1e-10 residual gate (relative to the forcing size).
    """
    u = extreme_root(p.alpha, 0.0, -1.0, c, sign)
    if (sign > 0 and u <= 0.0) or (sign < 0 and u >= 0.0):
        raise NoRealRoot(f"extreme root {u:.6g} for forcing {c:.6g} has the wrong sign")
    r = p.alpha * u ** 3 - u + c
    if abs(r) > _ROOT_TOL * max(1.0, abs(c)):
        raise NoRealRoot(f"channel root {u:.6g} misses the residual gate: residual {r:.3e}")
    return u


def pendulum_u1pm(p: PendulumParams, z, sign: int) -> float:
    """Step-1 branch control: H1(z, u) = +eps1p (sign > 0) or -eps1m.

    Picks the real root of largest magnitude on the branch's side of zero,
    which is the extreme root on that side; the defining equation holds to
    1e-10 (relative to the forcing size).
    """
    g1, _ = _drifts(p, z)
    c = g1 - p.eps1p if sign > 0 else g1 + p.eps1m
    return _branch_root(p, c, sign)


def pendulum_w1(p: PendulumParams, z1: float) -> float:
    """Step-1 switching curve through the origin of the (z1, z2) plane."""
    if z1 >= 0.0:
        return -math.sqrt(2.0 * p.eps1p * z1)
    return math.sqrt(-2.0 * p.eps1m * z1)


def pendulum_u2pm(p: PendulumParams, z3: float, sign: int) -> float:
    """Extreme real root of alpha u^3 - u - (g/l1) sin z3 = 0.

    The admissible alpha range guarantees a positive maximal root and a
    negative minimal root for every z3.
    """
    c = -(p.g / p.l1) * math.sin(z3)
    return _branch_root(p, c, sign)


def pendulum_w2(p: PendulumParams, z3: float) -> float:
    """Step-2 switching curve: signed sqrt of the branch-control integral.

    Uses adaptive quadrature (abs tol 1e-10, rel tol 1e-12).  It is the
    reference for the scipy-free Hermite table of _w2_table that pendulum()
    steers with; the table calls it only past its span, |z3| > 7.
    """
    from scipy.integrate import quad

    if z3 == 0.0:
        return 0.0
    if z3 > 0.0:
        val, _ = quad(lambda zeta: pendulum_u2pm(p, zeta, +1), 0.0, z3, epsabs=1e-10, epsrel=1e-12, limit=200)
        return -math.sqrt(2.0 * val)
    val, _ = quad(lambda zeta: pendulum_u2pm(p, zeta, -1), z3, 0.0, epsabs=1e-10, epsrel=1e-12, limit=200)
    return math.sqrt(-2.0 * val)


def pendulum_T1_analytic(p: PendulumParams, z0) -> tuple:
    """Closed-form (T11, T12, T1) for step 1 from z0, by curve position.

    Off the curve the step is two parabolic arcs (switch at T11); on the
    curve it is the single arrival arc (T11 = 0).
    """
    z1, z2 = float(z0[0]), float(z0[1])
    ep, em = p.eps1p, p.eps1m
    w = pendulum_w1(p, z1)
    if z1 == 0.0 and z2 == 0.0:
        return (0.0, 0.0, 0.0)
    if z2 < w:
        q = z2 * z2 - 2.0 * z1 * ep
        t11 = (-z2 + math.sqrt(q * em / (ep + em))) / ep
        t12 = math.sqrt(q / (em * (ep + em)))
        return (t11, t12, t11 + t12)
    if z2 > w:
        q = z2 * z2 + 2.0 * z1 * em
        t11 = (z2 + math.sqrt(q * ep / (ep + em))) / em
        t12 = math.sqrt(q / (ep * (ep + em)))
        return (t11, t12, t11 + t12)
    # on the curve: one arc at constant channel sign
    t12 = -z2 / ep if z1 >= 0.0 else z2 / em
    return (0.0, t12, t12)


def _w2_table(p: PendulumParams, span: float = 7.0, intervals: int = 1024):
    """Fast w2: cubic Hermite tables of the cumulative branch-control integral.

    On each side the integral A(s) = |int_0^(+-s) u2pm| is tabulated at
    uniform knots in s = |z3|.  Its slope is the branch control itself, so
    the knot slopes are exact; each interval's increment is Simpson's rule
    on the knot and midpoint controls, which makes the Hermite cubic's
    derivative the quadratic through those three controls.  Returns a
    closure matching pendulum_w2 to a few 1e-12 on |z3| <= span and falling
    back to quadrature outside.
    """
    h = span / intervals

    def coefficients(sign):
        # power basis in t = s - s_i: A_i + u_i t + c2 t^2 + c3 t^3
        rate = lambda s: sign * pendulum_u2pm(p, sign * s, sign)
        a0, a1, a2, a3 = [], [], [], []
        acc = 0.0
        u0 = rate(0.0)
        for i in range(intervals):
            um = rate((i + 0.5) * h)
            u1 = rate((i + 1) * h)
            mean = (u0 + 4.0 * um + u1) / 6.0  # Simpson: increment / h
            a0.append(acc)
            a1.append(u0)
            a2.append((3.0 * mean - 2.0 * u0 - u1) / h)
            a3.append((u0 + u1 - 2.0 * mean) / (h * h))
            acc += mean * h
            u0 = u1
        return a0, a1, a2, a3

    table_p = coefficients(+1)  # A(s) = integral of u2+ from 0 to s
    table_m = coefficients(-1)  # A(s) = -(integral of u2- from 0 to -s)
    last = intervals - 1

    def w2(z3: float) -> float:
        if z3 == 0.0:
            return 0.0
        s = abs(z3)
        if s > span:
            return pendulum_w2(p, z3)
        a0, a1, a2, a3 = table_p if z3 > 0.0 else table_m
        idx = min(int(s / h), last)
        t = s - idx * h
        val = ((a3[idx] * t + a2[idx]) * t + a1[idx]) * t + a0[idx]
        root = math.sqrt(max(2.0 * val, 0.0))
        return -root if z3 > 0.0 else root

    return w2


def pendulum(params: PendulumParams | None = None) -> Scenario:
    """Scenario: blocks (2,2), curve policies for both steps.

    analytic_schedule gives the exact step-1 time only; the step-2 time has
    no closed form and comes out of the simulation.
    """
    p = params if params is not None else PendulumParams()

    def f(x, u):
        b1, b2 = _beta(p, x, u)
        return (x[1], b1, x[3], b2)

    def to_z(x):
        return (x[0] - x[2], x[1] - x[3], x[2], x[3])

    def from_z(z):
        return (z[0] + z[2], z[1] + z[3], z[2], z[3])

    def H(z, u):
        return pendulum_H(p, z, u)

    step1 = CurveSwitch(
        w=lambda z1: pendulum_w1(p, z1),
        u_plus=lambda z: pendulum_u1pm(p, z, +1),
        u_minus=lambda z: pendulum_u1pm(p, z, -1),
    )
    w2_fast = _w2_table(p)
    step2 = CurveSwitch(
        w=w2_fast,
        u_plus=lambda z: pendulum_u2pm(p, z[2], +1),
        u_minus=lambda z: pendulum_u2pm(p, z[2], -1),
    )

    def schedule(z0):
        return [pendulum_T1_analytic(p, z0)[2]]

    probe = ProbeFields(
        a=lambda x: np.array([x[1], 0.0, x[3], 0.0]),
        bs=(
            lambda x: np.array([0.0, 1.0, 0.0, 0.0]),
            lambda x: np.array([0.0, 0.0, 0.0, 1.0]),
        ),
        phi_grads=(
            lambda x: np.array([1.0, 0.0, -1.0, 0.0]),
            lambda x: np.array([0.0, 0.0, 1.0, 0.0]),
        ),
        box=((-1.0, 1.0),) * 4,
    )
    return Scenario(
        name="pendulum",
        n=4,
        f=f,
        to_z=to_z,
        from_z=from_z,
        blocks=BlockPartition((2, 2)),
        H=H,
        policies=(step1, step2),
        params={
            "m1": p.m1,
            "m2": p.m2,
            "l1": p.l1,
            "l2": p.l2,
            "g": p.g,
            "alpha": p.alpha,
            "eps1p": p.eps1p,
            "eps1m": p.eps1m,
        },
        analytic_schedule=schedule,
        probe=probe,
    )


def pendulum_energy(p: PendulumParams, x) -> float:
    """Total mechanical energy of the uncontrolled pendulum (u = 0 check)."""
    x1, x2, x3, x4 = x
    return (
        0.5 * (p.m1 + p.m2) * p.l1 ** 2 * x2 * x2
        + 0.5 * p.m2 * p.l2 ** 2 * x4 * x4
        + p.m2 * p.l1 * p.l2 * x2 * x4 * math.cos(x1 - x3)
        - (p.m1 + p.m2) * p.g * p.l1 * math.cos(x1)
        - p.m2 * p.g * p.l2 * math.cos(x3)
    )
