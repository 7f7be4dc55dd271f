"""Stepwise composition of per-block controls for block chain-of-integrators forms.

The state z splits into m blocks, each a chain whose last coordinate is
driven by the residual channel H_i(z, u).  Step i drives block i to the
done band while earlier blocks are pinned by controls that keep their
channels at zero; the orchestrator runs the steps in order, monitors the
pinned blocks, and reports per-step times together with Theta bounds where
the step uses the controllability-function policy.  A policy states every
control it applies (ThetaSwitch needs u_zero) and reads its block head;
the hold band is ctrl_fn.THETA_MIN.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from . import engine
from .ctrl_fn import THETA_MIN, LinearSynth, sigmas, theta_of
from .cubic import RootBracketFailure, steps_of


class StepTimeout(RuntimeError):
    """A step ran past twice its Theta bound: policy violates the H inequalities."""


class HoldViolation(RuntimeError):
    """A pinned block drifted past 10x the done tolerance."""


@dataclass(frozen=True)
class BlockPartition:
    """Sizes (n_1, ..., n_m) of the blocks; offsets are cumulative starts."""

    sizes: tuple
    # half-open index range of each block, computed once
    spans: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not self.sizes or any((not isinstance(s, int)) or s < 1 for s in self.sizes):
            raise ValueError(f"block sizes must be positive ints, got {self.sizes}")
        ends = itertools.accumulate(self.sizes)
        object.__setattr__(self, "spans", tuple((e - n, e) for e, n in zip(ends, self.sizes)))

    @property
    def m(self) -> int:
        return len(self.sizes)

    @property
    def n(self) -> int:
        return sum(self.sizes)

    def bounds(self, i: int) -> tuple[int, int]:
        """Half-open index range of block i (1-based block index)."""
        if not 1 <= i <= self.m:
            raise ValueError(f"block index {i} out of range 1..{self.m}")
        return self.spans[i - 1]


class StepPolicy:
    """How one step drives its block: ThetaSwitch, CurveSwitch or ConstSign.

    A policy reads block-chart states z and the half-open index span of
    its block.  Each one gives control(branch, z), the control value on a
    branch, and residual(z, span), the switching function g: u_plus (+1)
    acts where g < 0, u_minus (-1) where g > 0.  At a switching event,
    switch picks the branch by Filippov's test, from gradient(z, span),
    the nonzero entries (index, dg/dz_index) of g's gradient; the defaults
    below cover the rest.  residuals and controls read a batch of sample
    rows, a (k, n) array Z, and give a float array of k: one call of
    residual and control on the columns Z.T, which they read as they read
    one state (ThetaSwitch reads its sigma column through ctrl_fn.sigmas).
    A batch's Z is component-major, so each z[i] of Z.T is a contiguous
    array of k floats, along which numpy's inner loop runs.

    The callbacks a policy holds (w, u_plus, u_minus, u_zero) follow the
    contract of Scenario.to_z: they take one state, a tuple of floats (w
    one float), or the columns of a batch, z[i] the column of coordinate i
    (w one column), and give the same floats either way.  A callback that
    returns one constant is broadcast to the batch.  One state keeps the
    Python float path, which the integrator's field evaluations take; a
    batch takes numpy's columns, with each transcendental function
    applied by math one element at a time.
    """

    # on columns, overflow and invalid operations give inf and nan silently,
    # as Python's float arithmetic does
    def residuals(self, Z: np.ndarray, span: tuple) -> np.ndarray:
        with np.errstate(over="ignore", invalid="ignore"):
            return _column(self.residual(Z.T, span), len(Z))

    def controls(self, branch: int, Z: np.ndarray) -> np.ndarray:
        with np.errstate(over="ignore", invalid="ignore"):
            return _column(self.control(branch, Z.T), len(Z))

    def branch(self, z: tuple, span: tuple) -> int:
        """+1 (u_plus) below the surface, -1 (u_minus) above, 0 on it."""
        r = self.residual(z, span)
        return +1 if r < 0.0 else -1 if r > 0.0 else 0

    def switch(self, z: tuple, span: tuple, rate: Callable) -> int:
        """The branch after a switching event at z, by Filippov's test
        (Filippov 1988, section 2.4) on rate(b), the derivative of g along
        branch b's field.  A branch whose rate is about 0 (RIDE times the
        other's) rides the surface and is kept.  Both rates positive enter
        g > 0: u_minus; both negative: u_plus; rate(+1) > 0 > rate(-1)
        slides (0), on the Filippov combination of the two fields.  Fields
        that both leave the surface keep the side z is on."""
        gp, gm = rate(+1), rate(-1)
        if min(abs(gp), abs(gm)) <= RIDE * max(abs(gp), abs(gm)):
            return +1 if abs(gp) <= abs(gm) else -1
        if gp > 0.0 > gm:
            return 0
        if gp * gm > 0.0:
            return -1 if gp > 0.0 else +1
        return -1 if self.residual(z, span) > 0.0 else +1

    def field(self, branch: int, rhs: Callable, control: Callable, rate: Callable) -> Callable:
        """Closed-loop right side on a branch; on branch 0, Filippov's convex
        combination of the two branch fields along which g stays put.
        control(branch, s) and rate(branch, s) are the stage's."""
        if branch:
            return lambda s: rhs(s, control(branch, s))
        up, down = self.field(+1, rhs, control, rate), self.field(-1, rhs, control, rate)

        def slide(s):
            gp, gm = rate(+1, s), rate(-1, s)
            lam = gm / (gm - gp)
            return tuple(lam * a + (1.0 - lam) * b for a, b in zip(up(s), down(s)))

        return slide

    def arrive_coord(self, span: tuple) -> int:
        """Coordinate whose zero crossing marks the origin passage: the block head."""
        return span[0]

    def theta_bound(self, z: tuple, span: tuple) -> float | None:
        return None


def _column(v, k: int) -> np.ndarray:
    """A value on k rows as a float array of k: a column, or a constant."""
    return np.asarray(v, dtype=float) if getattr(v, "ndim", 0) else np.full(k, float(v))


SURFACE_TOL = 1e-9  # ThetaSwitch's zero band on sigma, relative to max |w|
RIDE = 1e-6  # a branch rate this small against the other's rides the surface
SLOPE_STEP = 1e-6  # relative step of the central difference of a curve's slope


@dataclass(frozen=True)
class ThetaSwitch(StepPolicy):
    """Three-branch policy switching on the sign of sigma = b0* N(Theta)^{-1} z^i.

    u_minus acts where sigma > 0, u_plus where sigma < 0, u_zero inside
    the band |sigma| <= SURFACE_TOL * scale and below the THETA_MIN hold
    band.
    """

    synth: LinearSynth
    u_plus: Callable
    u_minus: Callable
    u_zero: Callable

    def branch(self, z: tuple, span: tuple) -> int:
        ev = theta_of(self.synth, z[span[0] : span[1]])
        if ev.theta < THETA_MIN:
            return 0
        band = SURFACE_TOL * max(1.0, float(np.max(np.abs(ev.w))))
        if abs(ev.sigma) <= band:
            return 0
        return -1 if ev.sigma > 0 else +1

    def switch(self, z: tuple, span: tuple, rate: Callable) -> int:
        # its own bands, and u_zero on the surface
        return self.branch(z, span)

    def field(self, branch: int, rhs: Callable, control: Callable, rate: Callable) -> Callable:
        return lambda s: rhs(s, control(branch, s))

    def control(self, branch: int, z: tuple) -> float:
        if branch > 0:
            return self.u_plus(z)
        if branch < 0:
            return self.u_minus(z)
        return self.u_zero(z)

    def residual(self, z: tuple, span: tuple) -> float:
        return theta_of(self.synth, z[span[0] : span[1]]).sigma

    def residuals(self, Z: np.ndarray, span: tuple) -> np.ndarray:
        return sigmas(self.synth, Z[:, span[0] : span[1]])

    def theta_bound(self, z: tuple, span: tuple) -> float:
        s, e = span
        if self.synth.gram.k != e - s:
            raise ValueError(f"ThetaSwitch synth dimension {self.synth.gram.k} != block size {e - s}")
        return theta_of(self.synth, z[s:e]).theta


@dataclass(frozen=True)
class CurveSwitch(StepPolicy):
    """Two-branch policy for a 2-coordinate block with switching curve w.

    The curve maps the block's position coordinate to a velocity; u_plus
    acts strictly below the curve or on it with position >= 0, u_minus
    strictly above or on it with position <= 0.  The step arrives where
    the block velocity crosses zero.  A curve that is an integral curve
    of a branch is ridden on that branch (StepPolicy.switch); its slope
    is a central difference of w.
    """

    w: Callable
    u_plus: Callable
    u_minus: Callable

    def control(self, branch: int, z: tuple) -> float:
        return self.u_plus(z) if branch > 0 else self.u_minus(z)

    def residual(self, z: tuple, span: tuple) -> float:
        return z[span[0] + 1] - self.w(z[span[0]])

    def gradient(self, z: tuple, span: tuple) -> tuple:
        a = span[0]
        d = SLOPE_STEP * abs(z[a]) + 5e-324
        return ((a, (self.w(z[a] - d) - self.w(z[a] + d)) / (2.0 * d)), (a + 1, 1.0))

    def branch(self, z: tuple, span: tuple) -> int:
        # on the curve, the branch of the position's sign, whose arrival arc it is
        return super().branch(z, span) or (+1 if z[span[0]] >= 0.0 else -1)

    def arrive_coord(self, span: tuple) -> int:
        return span[0] + 1


def parabola(pos, up: float, down: float):
    """Switching curve of a block braked at the constant rates up (for
    pos >= 0) and down: -sqrt(2 up pos), or sqrt(-2 down pos) below zero.

    pos is a float, or a column of them.  At pos = -0.0 the root on the
    up side is sqrt(-0.0) = -0.0, so the curve is +0.0 there.
    """
    S = steps_of(pos)
    return S.select(pos >= 0.0, -1.0, 1.0) * S.sqrt(2.0 * S.select(pos >= 0.0, up, -down) * pos)


CURVE_ROWS = 2 ** 16  # intervals a side an arrival_curve table may grow to: |pos| < 448


def arrival_curve(accel: Callable) -> Callable:
    """Switching curve velocity = w(position) of a CurveSwitch block.

    accel(pos, vel, side) is the block's velocity channel on the branch
    arriving from side = sign(pos) (u_plus for pos > 0).  On each side
    E = vel^2/2 is tabulated against s = |pos| as a cubic Hermite table,
    from dE/ds = side * accel(side s, -side sqrt(2E), side) > 0.  Each
    interval adds Simpson's rule on its start, midpoint and end slopes
    k1, k2, k3, so the cubic's derivative is the quadratic through them;
    its k3 is the next interval's k1.  k2 and k3 are read at an E
    extrapolated from the last three slopes.  On the first interval they
    are read at E = h k1 / 2 and h (3 k2 - k1) / 2: the error of that k3,
    carried as the next k1, cancels the error of k2 over the two Simpson
    sums.

    Building the curve reads no accel: each side's rows are built when a
    position first needs them, out to the largest |position| read, and a
    row does not depend on how far its table has grown.  A branch that
    does not slow the block raises ValueError when a position reaches it.
    A position with |pos| >= CURVE_ROWS h, or not finite, raises
    RootBracketFailure before any row is built.  w takes a column of
    positions, which it reads against the tables as arrays, or one float,
    which it reads as a column of one.
    """
    return _ArrivalCurve(accel)


class _ArrivalCurve:
    """arrival_curve's w: one array holds the + side's rows from row 0 and
    the - side's from row cap; its room doubles as the rows grow."""

    h = 7.0 / 1024.0  # knot spacing

    def __init__(self, accel: Callable):
        self.accel = accel
        self.built = {+1: 0, -1: 0}  # rows of each side
        self.ends = {}  # each side's E and slopes ka, kb, k1 where its last row ends
        self.cap = 1
        self.table = np.zeros((2, 4))  # rows (E_i, k1, c2, c3): E = E_i + k1 t + c2 t^2 + c3 t^3, t = s - s_i

    def slope(self, side: int, s: float, e: float) -> float:
        k = side * self.accel(side * s, -side * math.sqrt(2.0 * e), side)
        if not k > 0.0:
            raise ValueError(f"arriving branch does not slow the block at position {side * s}")
        return k

    def grow(self, side: int, n: int) -> None:
        """Build the side's rows out to n, each from where the last one ends."""
        if n > self.cap:
            cap = min(max(n, 2 * self.cap), CURVE_ROWS)
            table = np.zeros((2 * cap, 4))
            table[: self.built[+1]] = self.table[: self.built[+1]]
            table[cap : cap + self.built[-1]] = self.table[self.cap : self.cap + self.built[-1]]
            self.cap, self.table = cap, table
        start = 0 if side > 0 else self.cap
        h, slope = self.h, self.slope
        for i in range(self.built[side], n):
            if i == 0:
                acc, k1 = 0.0, slope(side, 0.0, 0.0)
                k2 = slope(side, 0.5 * h, 0.5 * h * k1)
                k3 = slope(side, h, h * (1.5 * k2 - 0.5 * k1))
            else:  # ka, kb: the previous interval's start and midpoint slopes
                acc, ka, kb, k1 = self.ends[side]
                k2 = slope(side, (i + 0.5) * h, acc + h * (5.0 * ka - 16.0 * kb + 23.0 * k1) / 24.0)
                k3 = slope(side, (i + 1) * h, acc + h * (kb - 2.0 * k1 + 7.0 * k2) / 6.0)
            mean = (k1 + 4.0 * k2 + k3) / 6.0  # Simpson: increment / h
            self.table[start + i] = (acc, k1, (3.0 * mean - 2.0 * k1 - k3) / h, (k1 + k3 - 2.0 * mean) / (h * h))
            self.ends[side] = (acc + mean * h, k1, k2, k3)
            self.built[side] = i + 1

    def __call__(self, pos):
        if not isinstance(pos, np.ndarray):  # one float, as a column of one
            return float(self(np.array([pos], dtype=float))[0])
        s = np.abs(pos)
        far = np.flatnonzero(~(s < CURVE_ROWS * self.h)).tolist()
        if far:
            raise RootBracketFailure(f"switch curve table does not reach position {float(pos[far[0]])}")
        idx = (s / self.h).astype(np.int64)
        right = pos > 0.0
        for side, on in ((+1, right), (-1, pos < 0.0)):
            n = int(idx.max(initial=-1, where=on)) + 1
            if n > self.built[side]:
                self.grow(side, n)
        e0, e1, e2, e3 = self.table[idx + self.cap * ~right].T
        t = s - idx * self.h
        root = np.sqrt(np.maximum(2.0 * (((e3 * t + e2) * t + e1) * t + e0), 0.0))
        out = np.where(right, -root, root)
        out[pos == 0.0] = 0.0
        return out


@dataclass(frozen=True)
class ConstSign(StepPolicy):
    """Constant-level policy u = -level * sign(block head)."""

    level: float

    def control(self, branch: int, z: tuple) -> float:
        return -self.level * float(branch == -1) + self.level * float(branch == +1)

    def field(self, branch: int, rhs: Callable, control: Callable, rate: Callable) -> Callable:
        if not branch:
            return super().field(branch, rhs, control, rate)
        # the control is constant on a branch: solve it once, not per state
        u = self.control(branch, ())
        return lambda s: rhs(s, u)

    def residual(self, z: tuple, span: tuple) -> float:
        return z[span[0]]

    def gradient(self, z: tuple, span: tuple) -> tuple:
        return ((span[0], 1.0),)


@dataclass(frozen=True)
class BlockSystem:
    """Block partition plus the residual channels H(z, u) (one per block)."""

    blocks: BlockPartition
    H: Callable[[tuple, float], Sequence[float]]

    def rhs(self, z: tuple, u: float) -> tuple:
        h = self.H(z, u)
        out = []
        for i, (s, e) in enumerate(self.blocks.spans):
            out.extend(z[s + 1 : e])
            out.append(h[i])
        return tuple(out)


@dataclass
class StepwiseRun:
    """End time and Theta bound (None off a Theta policy) of each step, and
    the peak drift of each block once it is done."""

    step_times: list
    theta_bounds: list
    hold_residuals: list
    done_tol: float

    @property
    def T_total(self) -> float:
        return self.step_times[-1]


DONE_TOL = 1e-8  # default per-block done band


def step_done(z: Sequence[float] | np.ndarray, blocks: BlockPartition, i: int, delta: float = DONE_TOL):
    """True when block i is inside the done band: max-abs <= delta.

    z is one state, or a (k, n) array of rows: then one bool per row.
    """
    s, e = blocks.bounds(i)
    return np.abs(np.asarray(z, dtype=float)[..., s:e]).max(axis=-1) <= delta


# The routes by which perfbench/layertrace.py counts control and residual
# evaluations, patched by name: the controls of the fields and of the
# branch rates, one state each, go through _control_of; a batch's
# residuals and recorded controls are read on columns (StepPolicy.residuals,
# controls), so no call takes _switch_residual, which stays for the tracer
# to find.
def _control_of(policy: StepPolicy, branch: int, z: tuple) -> float:
    return policy.control(branch, z)


def _switch_residual(policy: StepPolicy, z: tuple, span: tuple) -> float:
    return policy.residual(z, span)


class _Stage:
    """Step i's policy bound to its block span, chart map, done test and
    hold check.

    This is the stage object engine.run_stage drives.  Its methods read
    states s of the integrated chart, which z(s) maps to the block chart;
    rows reads a batch of them (_Rows).  The rates of Filippov's test come
    from the block-form right side, whatever chart is integrated.  hold
    folds the drift of blocks 1..i-1 into hold_residuals.
    """

    def __init__(self, policy: StepPolicy, system: BlockSystem, i: int, t0: float, s0: tuple,
                 rhs: Callable, z_of: Callable | None, done_tol: float, hold_residuals: list):
        self.policy, self.blocks, self.i = policy, system.blocks, i
        self.block_rhs, self.rhs, self.z_of, self.done_tol = system.rhs, rhs, z_of, done_tol
        self.hold_residuals = hold_residuals
        self.span = system.blocks.bounds(i)
        self.arrive_idx = policy.arrive_coord(self.span)
        # only a Theta policy bounds its step: it must end by twice Theta(z0)
        self.theta_bound = policy.theta_bound(self.z(s0), self.span)
        self.deadline = math.inf
        if self.theta_bound is not None and self.theta_bound > 0.0:
            self.deadline = t0 + 2.0 * self.theta_bound

    def z(self, s: tuple) -> tuple:
        """State s of the integrated chart as a z: z_of(s), or s itself
        when z_of is None."""
        return s if self.z_of is None else self.z_of(s)

    def deadline_error(self, t: float) -> Exception:
        return StepTimeout(f"step {self.i} ran past 2x its Theta bound {self.theta_bound:.6g} (t={t:.6g})")

    def field(self, branch: int) -> Callable:
        return self.policy.field(branch, self.rhs, self.control, self.rate)

    def control(self, branch: int, s: tuple) -> float:
        return _control_of(self.policy, branch, self.z(s))

    def rate(self, branch: int, s: tuple) -> float:
        """The derivative of the residual along the field of a branch."""
        z = self.z(s)
        dz = self.block_rhs(z, _control_of(self.policy, branch, z))
        return sum(c * dz[j] for j, c in self.policy.gradient(z, self.span))

    def branch(self, s: tuple) -> int:
        return self.policy.branch(self.z(s), self.span)

    def switch(self, s: tuple) -> int:
        return self.policy.switch(self.z(s), self.span, lambda b: self.rate(b, s))

    def rows(self, t: np.ndarray, y: np.ndarray) -> "_Rows":
        return _Rows(self, t, y)

    def hold(self, rows: "_Rows", lo: int, hi: int) -> None:
        """Fold the drift of blocks 1..i-1 over rows lo..hi-1 into
        hold_residuals; raises HoldViolation when one of them drifts."""
        if self.i == 1:
            return
        # the finished blocks are the first columns of z
        peaks = np.abs(rows.Z[lo:hi, : self.span[0]]).max(axis=0).tolist()
        limit = 10.0 * self.done_tol
        for j, (a, b) in enumerate(self.blocks.spans[: self.i - 1]):
            r = max(peaks[a:b])
            if r > limit:
                raise HoldViolation(f"block {j + 1} drifted to {r:.3e} > {limit:.3e} at t={rows.t[lo]:.6g}")
            self.hold_residuals[j] = max(self.hold_residuals[j], r)


class _Rows:
    """A batch of rows as step i reads them (the batch of
    engine.run_stage), in the block chart as the (k, n) array Z: y itself,
    or y mapped to z by one call of z_of on its n columns.  The done band
    and arrive coordinate are columns of Z, and so are the controls on a
    branch and, off the surface, the residual that off compares with the
    branch's side.  Z keeps y's component-major layout: z_of's columns are
    stacked as the rows of an (n, k) C array, of which Z is the transpose."""

    def __init__(self, stage: _Stage, t: np.ndarray, y: np.ndarray):
        self.t, self.y, self.stage = t, y, stage
        self.Z = y if stage.z_of is None else np.array(stage.z_of(y.T)).T
        self.arrive = self.Z[:, stage.arrive_idx]

    @property
    def done(self) -> np.ndarray:
        return step_done(self.Z, self.stage.blocks, self.stage.i, self.stage.done_tol)

    def off(self, branch: int) -> np.ndarray:
        """True where g has left the branch's side (g < 0 for u_plus), or
        where a state on the surface would switch off it."""
        stage = self.stage
        if branch:
            return branch * stage.policy.residuals(self.Z, stage.span) > 0.0
        return np.array([stage.switch(s) != 0 for s in map(tuple, self.y.tolist())], dtype=bool)

    def controls(self, branch: int) -> np.ndarray:
        return self.stage.policy.controls(branch, self.Z)


def orchestrate(
    system: BlockSystem,
    start: Sequence[float],
    policies: Sequence[StepPolicy],
    cfg: engine.IntegratorConfig,
    done_tol: float = DONE_TOL,
    recorder: engine.Recorder | None = None,
    chart: tuple[Callable[[tuple, float], tuple], Callable[[tuple], tuple]] | None = None,
) -> tuple[StepwiseRun, engine.Recorder]:
    """Run all steps in order from start and report times and hold residuals.

    By default the block-form dynamics system.rhs are integrated on z
    itself, and start is a z.  chart=(rhs, z_of) integrates rhs in an
    alternative chart whose state maps to z through z_of (used for the
    x-chart cross-check); start is then a state of that chart, and so are
    the recorded states.

    z_of takes one state, or the n columns of a batch of rows (the
    transpose of a (k, n) array), with the same floats as row by row.  Each
    batch of rows is mapped to z in one call (_Rows), and that map serves
    the switch residuals, done tests, arrive coordinates, hold check and
    recorded controls.  z_of must be a pure function of the state; the map
    it returns is treated as read-only.
    """
    blocks = system.blocks
    if len(policies) != blocks.m:
        raise ValueError(f"need {blocks.m} policies, got {len(policies)}")
    if len(start) != blocks.n:
        raise ValueError(f"start must have length {blocks.n}, got {len(start)}")
    if not done_tol > 0:
        raise ValueError("done_tol must be positive")
    if not math.isfinite(done_tol):
        raise ValueError(f"done_tol must be finite, got {done_tol}")

    recorder = recorder if recorder is not None else engine.Recorder()
    rhs, z_of = chart if chart is not None else (system.rhs, None)
    state = tuple(float(v) for v in start)

    t = 0.0
    step_times: list[float] = []
    theta_bounds: list[float | None] = []
    hold_residuals = [0.0] * blocks.m

    for i in range(1, blocks.m + 1):
        stage = _Stage(policies[i - 1], system, i, t, state, rhs, z_of, done_tol, hold_residuals)
        t, state = engine.run_stage(step_index=i, t0=t, z0=state, stage=stage, cfg=cfg, recorder=recorder)
        step_times.append(t)
        theta_bounds.append(stage.theta_bound)
        a, b = stage.span
        hold_residuals[i - 1] = max(abs(v) for v in stage.z(state)[a:b])

    return (
        StepwiseRun(step_times, theta_bounds, hold_residuals, done_tol),
        recorder,
    )
