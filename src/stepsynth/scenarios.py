"""Bundled systems already reducible to block chain form, with their policies.

Each scenario packages the original-coordinate dynamics, the transform to
and from block coordinates, the per-block channel map H, a policy per step,
and (where available) a closed-form schedule of step completion times for
cross-checking simulations.  Names accepted by the registry:

    intro2d, example51, polyodd:<n>, pendulum
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Optional, Sequence

import numpy as np

from .chain_gramian import gram_n1
from .ctrl_fn import LinearSynth
from .cubic import RootBracketFailure, real_roots
from .cubic import bracket_root as _bracket_root  # module global: tests and the tracer patch it
from .stepwise import BlockPartition, BlockSystem, ConstSign, CurveSwitch, ThetaSwitch, arrival_curve, parabola


@dataclass(frozen=True)
class ProbeFields:
    """Drift, control fields and sample box of the reducibility probe."""

    a: Callable
    bs: tuple
    box: tuple


@dataclass(frozen=True)
class Scenario:
    """A system in both charts plus the stepwise policy stack.

    f is the original-chart right side f(x, u) -> dx/dt on tuples; to_z and
    from_z convert states between charts: one state, or the n columns of
    the transpose of a (k, n) array, with the same floats as row by row;
    blocks/H/policies feed the stepwise orchestrator; analytic_schedule(z0)
    returns a prefix of the exact step completion times, and probe holds the
    fields of the reducibility probe.
    """

    name: str
    f: Callable
    to_z: Callable
    from_z: Callable
    blocks: BlockPartition
    H: Callable
    policies: tuple
    analytic_schedule: Callable
    probe: ProbeFields
    params: dict = field(default_factory=dict)

    @property
    def n(self) -> int:
        """State dimension: the total size of the blocks."""
        return self.blocks.n

    @property
    def system(self) -> BlockSystem:
        return BlockSystem(self.blocks, self.H)


# ---------------------------------------------------------------------------
# intro2d: planar system with two independent control channels
# ---------------------------------------------------------------------------


def intro2d() -> Scenario:
    """dx1 = sin u, dx2 = u cos 2u; blocks (1, 1), constant-sign policies.

    Step 1 pins x1 with u = -(pi/2) sign x1 (sin u = -sign x1, u cos 2u = 0);
    step 2 moves x2 with u = -pi sign x2 (sin u = 0, rate -pi sign x2).
    During step 1 the x2 channel drifts at rate (pi/2) sign x1.
    """

    def f(x, u):
        return (math.sin(u), u * math.cos(2.0 * u))

    ident = lambda s: tuple(s)

    def schedule(z0):
        t1 = abs(z0[0])
        return [t1, t1 + abs(z0[0] / 2.0 + z0[1] / math.pi)]

    probe = ProbeFields(
        a=lambda x: np.zeros(2),
        bs=(
            lambda x: np.array([1.0, 0.0]),
            lambda x: np.array([0.0, 1.0]),
        ),
        box=((-1.0, 1.0), (-1.0, 1.0)),
    )
    return Scenario(
        name="intro2d",
        f=f,
        to_z=ident,
        from_z=ident,
        blocks=BlockPartition((1, 1)),
        H=lambda z, u: f(z, u),
        policies=(ConstSign(level=math.pi / 2.0), ConstSign(level=math.pi)),
        params={},
        analytic_schedule=schedule,
        probe=probe,
    )


def _sgn(v: float) -> float:
    return 1.0 if v > 0.0 else (-1.0 if v < 0.0 else 0.0)


# ---------------------------------------------------------------------------
# polyodd: dx_i = u^(2i-1), transformed so block i responds to P_i(u)
# ---------------------------------------------------------------------------


def polyodd_coeffs(n: int, i: int, lambdas: Optional[Sequence] = None) -> tuple:
    """Exact coefficients c so that P_i(u) = u^(2(n-i)+1) + sum c_k u^(2k-1).

    P_i(u) = u * prod_{k=1}^{n-i} (u^2 - lam_k^2); the returned tuple lists
    (c_1, ..., c_{n-i}) as Fractions when lambdas is None (defaults k/n),
    floats otherwise.  The same coefficients define the chart transform
    z_i = x_{n-i+1} + sum c_k x_k.
    """
    if i < 1 or i > n:
        raise ValueError(f"block index {i} outside 1..{n}")
    if lambdas is None:
        lams2 = [Fraction(k, n) ** 2 for k in range(1, n)]
    else:
        lams2 = [float(l) ** 2 for l in lambdas]
    # expand prod (y - lam_k^2) over y = u^2, ascending powers of y
    poly = [1]
    for lam2 in lams2[: n - i]:
        nxt = [0] * (len(poly) + 1)
        for p, cp in enumerate(poly):
            nxt[p + 1] += cp
            nxt[p] -= cp * lam2
        poly = nxt
    return tuple(poly[:-1])


def _poly_eval(coeffs: Sequence, u: float) -> float:
    """P(u) = u^(2d+1) + sum coeffs[k-1] u^(2k-1), d = len(coeffs)."""
    y = u * u
    acc = 1.0
    for c in reversed(coeffs):
        acc = acc * y + c
    return acc * u


def polyodd(n: int, lambdas: Optional[Sequence] = None, alpha: Optional[float] = None) -> Scenario:
    """dx_i = u^(2i-1), i = 1..n, pinned block by block with constant levels.

    Block i of the transformed chart obeys dz_i = P_i(u) where P_i has roots
    0, ±lam_1, ..., ±lam_{n-i}.  Step i >= 2 drives u = ±lam_{n+1-i}, a root
    of every earlier P_j, so finished blocks stay pinned exactly.  Step 1
    uses ±alpha (default 1) which must exceed every lam.  One number for
    lambdas is a list of one value, as `--param lambdas=0.5` gives it.
    """
    if n < 2:
        raise ValueError(f"need n >= 2, got {n}")
    if lambdas is not None and np.ndim(lambdas) == 0:
        lambdas = (lambdas,)
    if lambdas is None:
        lams = [Fraction(k, n) for k in range(1, n)]
    else:
        lams = [float(l) for l in lambdas]
        if len(lams) != n - 1:
            raise ValueError(f"need {n - 1} lambda values, got {len(lams)}")
        if not all(lams[j] > (lams[j - 1] if j else 0.0) for j in range(len(lams))):
            raise ValueError("lambda values must be strictly increasing and positive")
        if not lams[-1] < 1.0:
            raise ValueError("lambda values must stay below the control bound 1")
    if alpha is None:
        alpha = 1.0
    if not 0.0 < float(alpha) <= 1.0:
        raise ValueError(f"alpha = {alpha} outside (0, 1]")

    coeff_rows = [polyodd_coeffs(n, i, lambdas) for i in range(1, n + 1)]
    coeff_float = [tuple(float(c) for c in row) for row in coeff_rows]
    if _poly_eval(coeff_float[0], -float(alpha)) >= 0.0:
        raise ValueError(
            f"alpha = {alpha} does not drive block 1 toward zero "
            "(P1(-alpha) must be negative; any level above the largest lambda works)"
        )

    # z_i = x_(n-i+1) + sum_k c_k x_k: the head index and the row of each block
    # (the row is shorter than x; map stops at its end), summed left to right
    chart_rows = [(n - i, coeff_float[i - 1]) for i in range(1, n + 1)]
    exponents = [2 * i + 1 for i in range(n)]
    mul = operator.mul

    def to_z(x):
        return tuple([x[head] + sum(map(mul, row, x)) for head, row in chart_rows])

    def from_z(z):
        x = [0.0] * n
        x[0] = z[n - 1]
        for i in range(n - 1, 0, -1):
            head, row = chart_rows[i - 1]
            x[head] = z[i - 1] - sum(map(mul, row, x))
        return tuple(x)

    def f(x, u):
        return tuple([u ** e for e in exponents])

    def H(z, u):
        return tuple(_poly_eval(row, u) for row in coeff_float)

    levels = [float(alpha)] + [float(lams[n - i]) for i in range(2, n + 1)]
    policies = tuple(ConstSign(level=lv) for lv in levels)

    def schedule(z0):
        z = [float(v) for v in z0]
        t = 0.0
        out = []
        for i in range(n):
            if z[i] != 0.0:
                u = -levels[i] * _sgn(z[i])
                rate = _poly_eval(coeff_float[i], u)
                if rate == 0.0 or _sgn(rate) == _sgn(z[i]):
                    raise RootBracketFailure(
                        f"level {levels[i]} does not drive block {i + 1} toward zero"
                    )
                dt = -z[i] / rate
                for j in range(i + 1, n):
                    z[j] += _poly_eval(coeff_float[j], u) * dt
                t += dt
            z[i] = 0.0
            out.append(t)
        return out

    def unit(j):
        e = np.zeros(n)
        e[j] = 1.0
        return lambda x: e.copy()

    probe = ProbeFields(
        a=lambda x: np.zeros(n),
        # block i is driven by u^(2(n-i)+1), so its field is e_(n-i+1)
        bs=tuple(unit(n - 1 - j) for j in range(n)),
        box=tuple(((-1.0, 1.0),) * n),
    )
    return Scenario(
        name=f"polyodd:{n}",
        f=f,
        to_z=to_z,
        from_z=from_z,
        blocks=BlockPartition((1,) * n),
        H=H,
        policies=policies,
        params={"n": n, "alpha": float(alpha), "lambdas": [float(l) for l in lams]},
        analytic_schedule=schedule,
        probe=probe,
    )


# ---------------------------------------------------------------------------
# example51: three states, blocks (1, 2), cubic channel with a bounded dent
# ---------------------------------------------------------------------------


def example51(f1: Optional[Callable] = None, f2: Optional[Callable] = None) -> Scenario:
    """dx = (u^3 + 0.1 sin^2 f1(x, u), u, f2(x2)); blocks (1, 2).

    Defaults: f1 = 0, f2 = identity.  f2 must be a strictly increasing
    bijection of the line; a custom f2 gets a numerically inverted chart.
    A custom f1 or f2 gets the arrival_curve table of the second block's
    switch curve, built out to the largest |z2| a run reads.
    z = (x1 - x2, x3, f2(x2)); step 1 holds the first block with a
    unit-bound cubic controller (d = 0.2), step 2 steers the double
    integrator (z2, z3) along the curve of the constant-channel extremal
    controls.
    """
    custom_f1 = f1 is not None
    custom_f2 = f2 is not None
    if custom_f1 and abs(f1(0.0, 0.0, 0.0, 0.0)) > 1e-12:
        raise ValueError("f1 must vanish at the origin")
    if custom_f2 and abs(f2(0.0)) > 1e-12:
        raise ValueError("f2 must vanish at the origin")
    if custom_f2 and not f2(-1.0) < f2(0.0) < f2(1.0):
        raise ValueError("f2 must be increasing")
    if f1 is None:
        f1 = lambda x1, x2, x3, u: 0.0
    if f2 is None:
        f2_fn = lambda v: v
        f2_inv = lambda v: v
        f2_slope = lambda v: 1.0
    else:
        f2_fn = f2
        # h1, f2_slope and u2_root read the same z[2] of a state: one
        # inversion serves all three.  The inverse is a pure function of one
        # float, so reuse keyed on equality is safe
        f2_inv = functools.lru_cache(maxsize=1)(_monotone_inverse(f2))
        h0 = _FD_H

        def f2_slope(z3):
            v = f2_inv(z3)
            h = h0 * max(1.0, abs(v))
            return (f2_fn(v + h) - f2_fn(v - h)) / (2.0 * h)

    def f(x, u):
        s = math.sin(f1(x[0], x[1], x[2], u))
        return (u ** 3 + 0.1 * s * s, u, f2_fn(x[1]))

    # a custom f2 and its cached inverse read one float: on columns of
    # states they go element by element
    f2_map, f2_inv_map = (_each(f2_fn), _each(f2_inv)) if custom_f2 else (f2_fn, f2_inv)

    def to_z(x):
        return (x[0] - x[1], x[2], f2_map(x[1]))

    def from_z(z):
        x2 = f2_inv_map(z[2])
        return (z[0] + x2, x2, z[1])

    def h1(z, u):
        x2 = f2_inv(z[2])
        s = math.sin(f1(z[0] + x2, x2, z[1], u))
        return u ** 3 - u + 0.1 * s * s

    def H(z, u):
        return (h1(z, u), f2_slope(z[2]) * u)

    # with the default f1, h1 = u^3 - u does not depend on z: every channel
    # root below is solved once here instead of on each control call
    # a policy callback takes one state or the columns of a batch; the
    # roots of a custom channel are solved one state at a time (_each)
    def step1_control(target, lo, hi):
        if custom_f1:
            return _each(lambda z: _bracket_root(lambda u: h1(z, u) - target, lo, hi))
        roots = [r for r in real_roots(1.0, -1.0, -target) if lo <= r <= hi]
        if not roots:
            raise RootBracketFailure(f"no cubic root in [{lo}, {hi}] for level {target}")
        u = roots[0]
        return lambda z: u

    u1_plus = step1_control(0.2, 0.7, 1.1)
    u1_minus = step1_control(-0.2, -1.2, -0.8)
    u1_zero = step1_control(0.0, -0.5, 0.5)

    synth1 = LinearSynth(gram=gram_n1(1), a0=0.04, d=0.2)
    step1 = ThetaSwitch(synth=synth1, u_plus=u1_plus, u_minus=u1_minus, u_zero=u1_zero)

    # step 2: constant-channel controls from h1(0, z2, z3, u) = 0
    def step2_root(lo, hi):
        def root(z2, z3):
            z = (0.0, z2, z3)
            return _bracket_root(lambda u: h1(z, u), lo, hi)

        if custom_f1:
            return root
        u = root(0.0, 0.0)
        return lambda z2, z3: u

    u2_pos = step2_root(0.9, 1.0)
    u2_neg = step2_root(-1.1, -1.0)

    def u2_root(z2, z3, positive_rate):
        want_pos = positive_rate == (f2_slope(z3) > 0.0)
        return u2_pos(z2, z3) if want_pos else u2_neg(z2, z3)

    u2_plus = lambda z: u2_root(z[1], z[2], True)
    u2_minus = lambda z: u2_root(z[1], z[2], False)

    if not custom_f1 and not custom_f2:
        # H2 = u with u = ±1 on the curve: classic parabolic switch locus
        w2 = lambda z2: parabola(z2, 1.0, 1.0)
    else:
        u2_plus, u2_minus = _each(u2_plus), _each(u2_minus)
        w2 = arrival_curve(lambda z2, z3, side: f2_slope(z3) * u2_root(z2, z3, side > 0))

    step2 = CurveSwitch(w=w2, u_plus=u2_plus, u_minus=u2_minus)

    def schedule(z0):
        return [5.0 * abs(z0[0])]

    probe = ProbeFields(
        a=lambda x: np.array([0.0, 0.0, f2_fn(x[1])]),
        bs=(
            lambda x: np.array([1.0, 0.0, 0.0]),
            lambda x: np.array([0.0, 1.0, 0.0]),
        ),
        box=((-1.0, 1.0), (-1.0, 1.0), (-1.0, 1.0)),
    )
    return Scenario(
        name="example51",
        f=f,
        to_z=to_z,
        from_z=from_z,
        blocks=BlockPartition((1, 2)),
        H=H,
        policies=(step1, step2),
        params={"f1": "custom" if custom_f1 else "zero", "f2": "custom" if custom_f2 else "identity"},
        analytic_schedule=schedule,
        probe=probe,
    )


_FD_H = float(np.cbrt(np.finfo(float).eps))


def _each(fn: Callable) -> Callable:
    """fn on one value, or on each of a batch: each float of a column, or
    each row, as a tuple, of the columns of a batch of states."""

    def each(v):
        if isinstance(v, np.ndarray):
            items = v.tolist() if v.ndim == 1 else map(tuple, v.T.tolist())
            return np.fromiter(map(fn, items), float, v.shape[-1])
        return fn(v)

    return each


def _monotone_inverse(fn: Callable) -> Callable:
    """Invert a strictly increasing scalar bijection by expanding brackets."""

    def inv(y):
        lo, hi = -1.0, 1.0
        for _ in range(200):
            if fn(lo) <= y <= fn(hi):
                return _bracket_root(lambda v: fn(v) - y, lo, hi)
            lo *= 2.0
            hi *= 2.0
        raise RootBracketFailure(f"could not bracket f2 inverse at {y}")

    return inv


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------

SCENARIO_NAMES = ("intro2d", "example51", "polyodd:<n>", "pendulum")


def get_scenario(name: str, **params) -> Scenario:
    """Build a scenario by registry name; extra keywords reach the factory."""
    if name == "intro2d":
        return intro2d(**params)
    if name == "example51":
        return example51(**params)
    if name == "pendulum":
        from .pendulum import PendulumParams, pendulum

        return pendulum(PendulumParams(**params)) if params else pendulum()
    if name.startswith("polyodd:"):
        tail = name.split(":", 1)[1]
        try:
            n = int(tail)
        except ValueError:
            raise ValueError(f"polyodd needs an integer block count, got {tail!r}") from None
        return polyodd(n, **params)
    raise ValueError(f"unknown scenario {name!r}; known: {', '.join(SCENARIO_NAMES)}")
