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
from dataclasses import asdict, dataclass

import numpy as np

from .cubic import extreme_root, libm_map
from .scenarios import ProbeFields, Scenario, _each
from .stepwise import BlockPartition, CurveSwitch, arrival_curve, parabola

# one float, or each float of a column, through math: numpy's sin and cos
# are not promised to match libm's to the last bit
_sin, _cos = _each(math.sin), _each(math.cos)


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
            if not getattr(self, name) > 0.0:
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
    """Control-free parts (G1, G2): H1 = G1 + alpha u^3 - u, H2 = G2 + u.

    z is one state, or the columns of a batch: then G1 and G2 are columns."""
    z1, z2, z3, z4 = z
    sin, cos = (_sin, _cos) if isinstance(z1, np.ndarray) else (math.sin, math.cos)
    s = sin(z1)
    c = cos(z1)
    den = p.m1 + p.m2 * s * s
    vsq = (z2 + z4) * (z2 + z4)
    z13 = z1 + z3
    g2n = s * (p.l2 * p.m2 * z4 * z4 * c + (p.m1 + p.m2) * (p.g * cos(z13) + p.l1 * vsq))
    g1 = (
        -(
            p.l2 * p.m1 * p.g * sin(z13)
            + p.l2 * p.m2 * s * (p.g * cos(z3) + p.l2 * z4 * z4 + p.l1 * vsq * c)
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


def _branch_root(p: PendulumParams, c, sign: int):
    """Extreme root of alpha u^3 - u + c = 0 on the branch's side of zero.

    extreme_root has already polished it; NoRealRoot if it has the wrong
    sign or misses the 1e-10 residual gate (relative to the forcing size).
    c may be a column of forcings: then the roots are a column, and the
    first element that fails raises as it does alone.
    """
    u = extreme_root(p.alpha, 0.0, -1.0, c, sign)
    if isinstance(c, np.ndarray):
        # the checks below on columns, u ** 3 by libm per element (numpy's
        # power may differ from it); an element that fails them, or whose
        # cube may overflow, or that is NaN, is solved alone: the first
        # that fails raises
        odd = ~(np.abs(u) <= 1e100)
        r = p.alpha * libm_map(math.pow, np.where(odd, 0.0, u), 3.0) - u + c
        miss = odd | (u <= 0.0 if sign > 0 else u >= 0.0) | (np.abs(r) > _ROOT_TOL * np.fmax(np.abs(c), 1.0))
        for i in np.flatnonzero(miss).tolist():
            u[i] = _branch_root(p, float(c[i]), sign)
        return u
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
    1e-10 (relative to the forcing size).  z is one state, or the columns
    of a batch: then the controls are a column.
    """
    g1, _ = _drifts(p, z)
    c = g1 - p.eps1p if sign > 0 else g1 + p.eps1m
    return _branch_root(p, c, sign)


def pendulum_w1(p: PendulumParams, z1):
    """Step-1 switching curve through the origin of the (z1, z2) plane, at
    a float z1 or a column of them."""
    return parabola(z1, p.eps1p, p.eps1m)


def pendulum_u2pm(p: PendulumParams, z3, sign: int):
    """Extreme real root of alpha u^3 - u - (g/l1) sin z3 = 0.

    The admissible alpha range guarantees a positive maximal root and a
    negative minimal root for every z3.  z3 is a float, or a column of
    them: then the roots are a column.
    """
    c = -(p.g / p.l1) * _sin(z3)
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


def _w2_table(p: PendulumParams):
    """Fast w2: stepwise.arrival_curve's table of the step-2 block on |z3| <= 7.

    On the plane z1 = z2 = 0 the block (z3, z4) arrives with dz4 =
    pendulum_u2pm(z3); the table matches pendulum_w2 to a few 1e-12 and
    defers to it past the span.  Both are read through the module globals
    at call time.
    """
    return arrival_curve(lambda z3, z4, side: pendulum_u2pm(p, z3, side), 7.0, lambda z3: pendulum_w2(p, z3))


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
        f=f,
        to_z=to_z,
        from_z=from_z,
        blocks=BlockPartition((2, 2)),
        H=H,
        policies=(step1, step2),
        params=asdict(p),
        analytic_schedule=schedule,
        probe=probe,
    )
