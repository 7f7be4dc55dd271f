"""Stepwise composition of per-block controls for block chain-of-integrators forms.

The state z splits into m blocks, each a chain whose last coordinate is
driven by the residual channel H_i(z, u).  Step i drives block i to the
done band while earlier blocks are pinned by controls that keep their
channels at zero; the orchestrator runs the steps in order, monitors the
pinned blocks, and reports per-step times together with Theta bounds where
the step uses the controllability-function policy.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from . import engine
from .ctrl_fn import LinearSynth, theta_of


class DomainError(RuntimeError):
    """A scenario callback rejected the state it was evaluated at."""


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
    the branch; the defaults below cover the rest.
    """

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


@dataclass(frozen=True)
class ThetaSwitch(StepPolicy):
    """Three-branch policy switching on the sign of sigma = b0* N(Theta)^{-1} z^i.

    u_minus acts where sigma > 0, u_plus where sigma < 0, u_zero (or the
    midpoint fallback) inside the band |sigma| <= surface_tol * scale.
    """

    synth: LinearSynth
    u_plus: Callable[[tuple], float]
    u_minus: Callable[[tuple], float]
    u_zero: Callable[[tuple], float] | None = None
    surface_tol: float = 1e-9

    def branch(self, z: tuple, span: tuple) -> int:
        ev = theta_of(self.synth, z[span[0] : span[1]])
        if ev.theta < self.synth.theta_min:
            return 0
        band = self.surface_tol * max(1.0, float(np.max(np.abs(ev.w))))
        if abs(ev.sigma) <= band:
            return 0
        return -1 if ev.sigma > 0 else +1

    def control(self, branch: int, z: tuple) -> float:
        if branch > 0:
            return self.u_plus(z)
        if branch < 0:
            return self.u_minus(z)
        if self.u_zero is not None:
            return self.u_zero(z)
        return 0.5 * (self.u_plus(z) + self.u_minus(z))

    def residual(self, z: tuple, span: tuple) -> float:
        return theta_of(self.synth, z[span[0] : span[1]]).sigma

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

    w: Callable[[float], float]
    u_plus: Callable[[tuple], float]
    u_minus: Callable[[tuple], float]

    def control(self, branch: int, z: tuple) -> float:
        return self.u_plus(z) if branch > 0 else self.u_minus(z)

    def residual(self, z: tuple, span: tuple) -> float:
        return z[span[0] + 1] - self.w(z[span[0]])

    def slide_branch(self, z: tuple, span: tuple) -> int:
        return +1 if z[span[0]] >= 0.0 else -1

    def arrive_coord(self, span: tuple) -> int:
        return span[0] + 1


@dataclass(frozen=True)
class ConstSign(StepPolicy):
    """Constant-level policy u = -level * sign(designated coordinate)."""

    level: float
    coord: int | None = None  # absolute index into z; block start if None

    def control(self, branch: int, z: tuple) -> float:
        return -self.level * float(branch == -1) + self.level * float(branch == +1)

    def field(self, branch: int, rhs: Callable, control: Callable) -> Callable:
        # the control is constant on a branch: solve it once, not per state
        u = self.control(branch, ())
        return lambda s: rhs(s, u)

    def residual(self, z: tuple, span: tuple) -> float:
        return z[span[0] if self.coord is None else self.coord]


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
class StepRecord:
    i: int
    t_start: float
    t_end: float
    theta_bound: float | None
    policy: str


@dataclass
class StepwiseRun:
    steps: list
    T_total: float
    hold_residuals: list
    done_tol: float

    @property
    def step_times(self) -> list:
        return [s.t_end for s in self.steps]

    @property
    def theta_bounds(self) -> list:
        return [s.theta_bound for s in self.steps]

    def to_json_dict(self) -> dict:
        return {
            "steps": [
                {
                    "i": s.i,
                    "T_start": s.t_start,
                    "T_end": s.t_end,
                    "theta_bound": s.theta_bound,
                    "policy": s.policy,
                }
                for s in self.steps
            ],
            "T_total": self.T_total,
            "hold_residuals": list(self.hold_residuals),
        }


def step_done(z: Sequence[float], blocks: BlockPartition, i: int, delta: float = 1e-8) -> bool:
    """True when block i is inside the done band: max-abs <= delta."""
    s, e = blocks.bounds(i)
    return max(abs(v) for v in z[s:e]) <= delta


def _control_of(policy: StepPolicy, branch: int, z: tuple) -> float:
    return policy.control(branch, z)


def _switch_residual(policy: StepPolicy, z: tuple, span: tuple) -> float:
    return policy.residual(z, span)


def eval_control(
    policy: StepPolicy, z: Sequence[float], blocks: BlockPartition, i: int
) -> float:
    """Control value at z under the step-i policy (three-branch selection)."""
    zt = tuple(float(v) for v in z)
    try:
        branch = policy.branch(zt, blocks.bounds(i))
        return float(_control_of(policy, branch, zt))
    except DomainError:
        raise
    except (ValueError, ZeroDivisionError, OverflowError) as exc:
        raise DomainError(f"control callback rejected z={zt}: {exc}") from exc


class _Stage:
    """Step i's policy bound to its block span, chart map and done test.

    This is the stage object engine.run_stage drives.  Its methods read
    states of the integrated chart and map them to z through z_of, or
    take them as z when z_of is None.  control is memoized with
    engine.reuse_last, so the control recorded at an accepted state and
    the next step's k1 share one solve.
    """

    def __init__(self, policy: StepPolicy, blocks: BlockPartition, i: int, t0: float, s0: tuple,
                 rhs: Callable, z_of: Callable | None, done_tol: float):
        self.policy, self.blocks, self.i = policy, blocks, i
        self.rhs, self.z_of, self.done_tol = rhs, z_of, done_tol
        self.span = blocks.bounds(i)
        self.arrive_idx = policy.arrive_coord(self.span)
        self.control = engine.reuse_last(self._control)
        # only a Theta policy bounds its step: it must end by twice Theta(z0)
        self.theta_bound = policy.theta_bound(s0 if z_of is None else z_of(s0), self.span)
        self.deadline = None
        if self.theta_bound is not None and self.theta_bound > 0.0:
            self.deadline = t0 + 2.0 * self.theta_bound

    def deadline_error(self, t: float) -> Exception:
        return StepTimeout(f"step {self.i} ran past 2x its Theta bound {self.theta_bound:.6g} (t={t:.6g})")

    def field(self, branch: int) -> Callable:
        return self.policy.field(branch, self.rhs, self.control)

    def _control(self, branch: int, s: tuple) -> float:
        return _control_of(self.policy, branch, s if self.z_of is None else self.z_of(s))

    def branch(self, s: tuple) -> int:
        return self.policy.branch(s if self.z_of is None else self.z_of(s), self.span)

    def slide_branch(self, s: tuple) -> int:
        return self.policy.slide_branch(s if self.z_of is None else self.z_of(s), self.span)

    def residual(self, s: tuple) -> float:
        return _switch_residual(self.policy, s if self.z_of is None else self.z_of(s), self.span)

    def arrive(self, s: tuple) -> float:
        return (s if self.z_of is None else self.z_of(s))[self.arrive_idx]

    def done(self, s: tuple) -> bool:
        return step_done(s if self.z_of is None else self.z_of(s), self.blocks, self.i, self.done_tol)


def orchestrate(
    system: BlockSystem,
    z0: Sequence[float],
    policies: Sequence[StepPolicy],
    cfg: engine.IntegratorConfig,
    done_tol: float = 1e-8,
    recorder: engine.Recorder | None = None,
    rhs: Callable[[tuple, float], tuple] | None = None,
    z_of: Callable[[tuple], tuple] | None = None,
    state0: Sequence[float] | None = None,
) -> tuple[StepwiseRun, engine.Recorder]:
    """Run all steps in order from z0 and report times and hold residuals.

    By default the block-form dynamics system.rhs are integrated on z
    itself.  Passing rhs/z_of/state0 integrates an alternative chart whose
    state maps to z through z_of (used for the x-chart cross-check).

    z_of is wrapped once in engine.reuse_last, so each integrated state is
    mapped once however many callbacks read its z: the switch residual,
    the done test, the arrive residual, the hold monitor, the recorded
    control and the recorder's states_z of a step's end state share one
    map.  z_of must be a pure function of the state; the map it returns is
    treated as read-only.
    """
    blocks = system.blocks
    if len(policies) != blocks.m:
        raise ValueError(f"need {blocks.m} policies, got {len(policies)}")
    if len(z0) != blocks.n:
        raise ValueError(f"z0 must have length {blocks.n}, got {len(z0)}")
    if done_tol <= 0:
        raise ValueError("done_tol must be positive")

    recorder = recorder if recorder is not None else engine.Recorder()
    if rhs is None:
        rhs = system.rhs
    if z_of is None:
        state = tuple(float(v) for v in z0)
    else:
        if state0 is None:
            raise ValueError("state0 is required when integrating a non-z chart")
        z_of = recorder.z_of = engine.reuse_last(z_of)
        state = tuple(float(v) for v in state0)

    t = 0.0
    steps: list[StepRecord] = []
    hold_residuals = [0.0] * blocks.m
    hold_limit = 10.0 * done_tol
    completed: list[int] = []

    def monitor(s: tuple, tm: float) -> None:
        zz = s if z_of is None else z_of(s)
        for j in completed:
            a, b = blocks.bounds(j)
            r = max(abs(v) for v in zz[a:b])
            if r > hold_residuals[j - 1]:
                hold_residuals[j - 1] = r
            if r > hold_limit:
                raise HoldViolation(
                    f"block {j} drifted to {r:.3e} > {hold_limit:.3e} at t={tm:.6g}"
                )

    for i in range(1, blocks.m + 1):
        stage = _Stage(policies[i - 1], blocks, i, t, state, rhs, z_of, done_tol)
        result = engine.run_stage(
            step_index=i, t0=t, z0=state, stage=stage, cfg=cfg, recorder=recorder, monitor=monitor
        )
        steps.append(
            StepRecord(i=i, t_start=t, t_end=result.t_end, theta_bound=stage.theta_bound,
                       policy=type(stage.policy).__name__)
        )
        t, state = result.t_end, result.z_end
        completed.append(i)
        a, b = stage.span
        zz = state if z_of is None else z_of(state)
        hold_residuals[i - 1] = max(abs(v) for v in zz[a:b])

    return (
        StepwiseRun(steps=steps, T_total=t, hold_residuals=hold_residuals, done_tol=done_tol),
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
