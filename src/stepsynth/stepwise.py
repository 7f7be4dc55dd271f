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


class StepTimeout(RuntimeError):
    """A step ran past twice its Theta bound: policy violates the H inequalities."""


class HoldViolation(RuntimeError):
    """A pinned block drifted beyond 10x the done tolerance."""


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

    def extract(self, z: Sequence[float], i: int) -> np.ndarray:
        s, e = self.bounds(i)
        return np.asarray(z[s:e], dtype=float)


class StepPolicy:
    """How one step drives its block: ThetaSwitch, CurveSwitch or ConstSign.

    A policy reads block-chart states z and the half-open index span of
    its block.  Each one gives control(branch, z), the control value on a
    branch, and residual(z, span), the switching function whose sign picks
    the branch; the defaults below cover the rest.  residuals and controls
    read a batch of sample rows, a (k, n) array Z, and give k floats: one
    call of residual and control on the columns Z.T, which they read as
    they read one state (ThetaSwitch reads its sigma column through
    ctrl_fn.sigmas).

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
    def residuals(self, Z: np.ndarray, span: tuple) -> list:
        with np.errstate(over="ignore", invalid="ignore"):
            return _floats(self.residual(Z.T, span), len(Z))

    def controls(self, branch: int, Z: np.ndarray) -> list:
        with np.errstate(over="ignore", invalid="ignore"):
            return _floats(self.control(branch, Z.T), len(Z))

    def branch(self, z: tuple, span: tuple) -> int:
        """+1 (u_plus) below the surface, -1 (u_minus) above, slide_branch on it."""
        r = self.residual(z, span)
        if r < 0.0:
            return +1
        if r > 0.0:
            return -1
        return self.slide_branch(z, span)

    def field(self, branch: int, rhs: Callable, control: Callable) -> Callable:
        """Closed-loop right side on a branch; control(branch, s) is the stage's."""
        return lambda s: rhs(s, control(branch, s))

    def slide_branch(self, z: tuple, span: tuple) -> int:
        return 0

    def arrive_coord(self, span: tuple) -> int:
        """Coordinate whose zero crossing marks the origin passage: the block head."""
        return span[0]

    def theta_bound(self, z: tuple, span: tuple) -> float | None:
        return None


def _floats(v, k: int) -> list:
    """A value on k rows as a list of k floats: a column, or a constant."""
    return v.tolist() if getattr(v, "ndim", 0) else [float(v)] * k


SURFACE_TOL = 1e-9  # ThetaSwitch's zero band on sigma, relative to max |w|


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

    def control(self, branch: int, z: tuple) -> float:
        if branch > 0:
            return self.u_plus(z)
        if branch < 0:
            return self.u_minus(z)
        return self.u_zero(z)

    def residual(self, z: tuple, span: tuple) -> float:
        return theta_of(self.synth, z[span[0] : span[1]]).sigma

    def residuals(self, Z: np.ndarray, span: tuple) -> list:
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
    the block velocity crosses zero, and slides along the curve on the
    branch of the position's sign.
    """

    w: Callable
    u_plus: Callable
    u_minus: Callable

    def control(self, branch: int, z: tuple) -> float:
        return self.u_plus(z) if branch > 0 else self.u_minus(z)

    def residual(self, z: tuple, span: tuple) -> float:
        return z[span[0] + 1] - self.w(z[span[0]])

    def slide_branch(self, z: tuple, span: tuple) -> int:
        return +1 if z[span[0]] >= 0.0 else -1

    def arrive_coord(self, span: tuple) -> int:
        return span[0] + 1


def parabola(pos, up: float, down: float):
    """Switching curve of a block braked at the constant rates up (for
    pos >= 0) and down: -sqrt(2 up pos), or sqrt(-2 down pos) below zero.

    pos is a float, or a column of them.
    """
    if isinstance(pos, np.ndarray):
        with np.errstate(invalid="ignore"):  # each side's root is dropped on the other side
            return np.where(pos >= 0.0, -np.sqrt(2.0 * up * pos), np.sqrt(-2.0 * down * pos))
    if pos >= 0.0:
        return -math.sqrt(2.0 * up * pos)
    return math.sqrt(-2.0 * down * pos)


def arrival_curve(accel: Callable, span: float, beyond: Callable[[float], float]) -> Callable:
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
    sums.  w reads the table on |pos| <= span and calls beyond(pos) past it.
    w takes a float, or a column of them, which it reads against the
    tables as arrays, the same floats as one position at a time.
    """
    h = 7.0 / 1024.0  # knot spacing; the interval count follows from the span
    intervals = math.ceil(span / h)

    def table(side):
        def slope(s, e):
            k = side * accel(side * s, -side * math.sqrt(2.0 * e), side)
            if not k > 0.0:
                raise ValueError(f"arriving branch does not slow the block at position {side * s}")
            return k

        rows = []  # (E_i, k1, c2, c3): E = E_i + k1 t + c2 t^2 + c3 t^3, t = s - s_i
        acc = 0.0
        k1 = slope(0.0, 0.0)
        for i in range(intervals):
            if i == 0:
                k2 = slope(0.5 * h, 0.5 * h * k1)
                k3 = slope(h, h * (1.5 * k2 - 0.5 * k1))
            else:  # ka, kb: the previous interval's start and midpoint slopes
                k2 = slope((i + 0.5) * h, acc + h * (5.0 * ka - 16.0 * kb + 23.0 * k1) / 24.0)
                k3 = slope((i + 1) * h, acc + h * (kb - 2.0 * k1 + 7.0 * k2) / 6.0)
            mean = (k1 + 4.0 * k2 + k3) / 6.0  # Simpson: increment / h
            rows.append((acc, k1, (3.0 * mean - 2.0 * k1 - k3) / h, (k1 + k3 - 2.0 * mean) / (h * h)))
            acc += mean * h
            ka, kb, k1 = k1, k2, k3
        return rows

    table_p = table(+1)
    table_m = table(-1)
    tables = np.array(table_p + table_m)  # w_column's: the + side's rows, then the - side's
    last = intervals - 1

    def w(pos):
        if isinstance(pos, np.ndarray):
            return w_column(pos)
        if pos == 0.0:
            return 0.0
        s = abs(pos)
        if s > span:
            return beyond(pos)
        idx = min(int(s / h), last)
        e0, e1, e2, e3 = (table_p if pos > 0.0 else table_m)[idx]
        t = s - idx * h
        e = ((e3 * t + e2) * t + e1) * t + e0
        root = math.sqrt(max(2.0 * e, 0.0))
        return -root if pos > 0.0 else root

    def w_column(pos):
        # w's arithmetic on columns; a position past the span, or not
        # finite, goes alone
        s = np.abs(pos)
        outside = np.flatnonzero(~(s <= span)).tolist()
        if outside:
            s = np.where(s <= span, s, 0.0)
        idx = np.minimum((s / h).astype(np.int64), last)
        right = pos > 0.0
        e0, e1, e2, e3 = tables[idx + intervals * ~right].T
        t = s - idx * h
        # max(2 e, 0.0) as np.maximum: the sum is never -0.0, since e0 >= +0.0
        root = np.sqrt(np.maximum(2.0 * (((e3 * t + e2) * t + e1) * t + e0), 0.0))
        out = np.where(right, -root, root)
        out[pos == 0.0] = 0.0
        for i in outside:
            out[i] = w(float(pos[i]))
        return out

    return w


@dataclass(frozen=True)
class ConstSign(StepPolicy):
    """Constant-level policy u = -level * sign(block head)."""

    level: float

    def control(self, branch: int, z: tuple) -> float:
        return -self.level * float(branch == -1) + self.level * float(branch == +1)

    def field(self, branch: int, rhs: Callable, control: Callable) -> Callable:
        # the control is constant on a branch: solve it once, not per state
        u = self.control(branch, ())
        return lambda s: rhs(s, u)

    def residual(self, z: tuple, span: tuple) -> float:
        return z[span[0]]


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
# evaluations, patched by name: the field's controls, one state each, go
# through _control_of; a batch's residuals and recorded controls are read
# on columns (StepPolicy.residuals, controls), so no call takes
# _switch_residual, which stays for the tracer to find.
def _control_of(policy: StepPolicy, branch: int, z: tuple) -> float:
    return policy.control(branch, z)


def _switch_residual(policy: StepPolicy, z: tuple, span: tuple) -> float:
    return policy.residual(z, span)


class _Stage:
    """Step i's policy bound to its block span, chart map, done test and
    hold check.

    This is the stage object engine.run_stage drives.  Its methods read
    states of the integrated chart, which z(s) maps to the block chart;
    rows reads a batch of them (_Rows).  hold folds the drift of blocks
    1..i-1 into hold_residuals.
    """

    def __init__(self, policy: StepPolicy, blocks: BlockPartition, i: int, t0: float, s0: tuple,
                 rhs: Callable, z_of: Callable | None, done_tol: float, hold_residuals: list):
        self.policy, self.blocks, self.i = policy, blocks, i
        self.rhs, self.z_of, self.done_tol = rhs, z_of, done_tol
        self.hold_residuals = hold_residuals
        self.span = blocks.bounds(i)
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
        return self.policy.field(branch, self.rhs, self.control)

    def control(self, branch: int, s: tuple) -> float:
        return _control_of(self.policy, branch, self.z(s))

    def branch(self, s: tuple) -> int:
        return self.policy.branch(self.z(s), self.span)

    def slide_branch(self, s: tuple) -> int:
        return self.policy.slide_branch(self.z(s), self.span)

    def rows(self, t: list, y: np.ndarray) -> "_Rows":
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


class _Rows(engine.Rows):
    """A batch of sample rows as step i reads them, in the block chart as
    the (k, n) array Z: y itself, or y mapped to z by one call of z_of on
    its n columns.  The done band and arrive coordinate are columns of Z."""

    def __init__(self, stage: _Stage, t: list, y: np.ndarray):
        super().__init__(t, y)
        self.policy, self.span = stage.policy, stage.span
        self.Z = y if stage.z_of is None else np.column_stack(stage.z_of(y.T))
        self.done = step_done(self.Z, stage.blocks, stage.i, stage.done_tol)
        self.arrive = self.Z[:, stage.arrive_idx]

    def residuals(self, lo: int, hi: int) -> list:
        return self.policy.residuals(self.Z[lo:hi], self.span)

    def controls(self, branch: int, lo: int, hi: int) -> list:
        return self.policy.controls(branch, self.Z[lo:hi])


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
    batch of sample rows is mapped to z in one call (_Rows), and that map
    serves the rows' switch residuals, done tests, arrive coordinates,
    hold check and recorded controls.  z_of must be a pure function of the
    state; the map it returns is treated as read-only.
    """
    blocks = system.blocks
    if len(policies) != blocks.m:
        raise ValueError(f"need {blocks.m} policies, got {len(policies)}")
    if len(start) != blocks.n:
        raise ValueError(f"start must have length {blocks.n}, got {len(start)}")
    if not done_tol > 0:
        raise ValueError("done_tol must be positive")

    recorder = recorder if recorder is not None else engine.Recorder()
    rhs, z_of = chart if chart is not None else (system.rhs, None)
    state = tuple(float(v) for v in start)

    t = 0.0
    step_times: list[float] = []
    theta_bounds: list[float | None] = []
    hold_residuals = [0.0] * blocks.m

    for i in range(1, blocks.m + 1):
        stage = _Stage(policies[i - 1], blocks, i, t, state, rhs, z_of, done_tol, hold_residuals)
        result = engine.run_stage(step_index=i, t0=t, z0=state, stage=stage, cfg=cfg, recorder=recorder)
        step_times.append(result.t_end)
        theta_bounds.append(stage.theta_bound)
        t, state = result.t_end, result.z_end
        a, b = stage.span
        hold_residuals[i - 1] = max(abs(v) for v in stage.z(state)[a:b])

    return (
        StepwiseRun(step_times, theta_bounds, hold_residuals, done_tol),
        recorder,
    )


def audit_theta_switch(
    policy: ThetaSwitch,
    h_channel: Callable[[tuple, float], float],
    states: Sequence[tuple],
) -> tuple[float, float]:
    """(min over states of H(z, u_plus), max of H(z, u_minus)) for the audit.

    The step precondition requires the first >= d and the second <= -d up
    to 1e-9 slack.
    """
    lo = min(h_channel(tuple(z), policy.u_plus(tuple(z))) for z in states)
    hi = max(h_channel(tuple(z), policy.u_minus(tuple(z))) for z in states)
    return lo, hi
