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
from typing import Callable, Sequence, Union

import numpy as np

from . import engine
from .ctrl_fn import LinearSynth, ThetaEval, theta_of


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


@dataclass(frozen=True)
class ThetaSwitch:
    """Three-branch policy switching on the sign of sigma = b0* N(Theta)^{-1} z^i.

    u_minus acts where sigma > 0, u_plus where sigma < 0, u_zero (or the
    midpoint fallback) inside the band |sigma| <= surface_tol * scale.
    """

    synth: LinearSynth
    u_plus: Callable[[tuple], float]
    u_minus: Callable[[tuple], float]
    u_zero: Callable[[tuple], float] | None = None
    surface_tol: float = 1e-9


@dataclass(frozen=True)
class CurveSwitch:
    """Two-branch policy for a 2-coordinate block with switching curve w.

    The curve maps the block's position coordinate to a velocity; u_plus
    acts strictly below the curve or on it with position >= 0, u_minus
    strictly above or on it with position <= 0.
    """

    w: Callable[[float], float]
    u_plus: Callable[[tuple], float]
    u_minus: Callable[[tuple], float]


@dataclass(frozen=True)
class ConstSign:
    """Constant-level policy u = -level * sign(designated coordinate)."""

    level: float
    coord: int | None = None  # absolute index into z; block start if None


StepPolicy = Union[ThetaSwitch, CurveSwitch, ConstSign]


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


def _theta_eval_block(policy: ThetaSwitch, z: Sequence[float], blocks: BlockPartition, i: int) -> ThetaEval:
    s, e = blocks.spans[i - 1]
    if policy.synth.gram.k != e - s:
        raise ValueError(
            f"ThetaSwitch synth dimension {policy.synth.gram.k} != block size {e - s}"
        )
    return theta_of(policy.synth, z[s:e])


def _branch_of(policy: StepPolicy, z: tuple, blocks: BlockPartition, i: int) -> int:
    """Branch key: +1 for u_plus, -1 for u_minus, 0 for the zero/slide control."""
    if isinstance(policy, ThetaSwitch):
        ev = _theta_eval_block(policy, z, blocks, i)
        if ev.theta < policy.synth.theta_min:
            return 0
        band = policy.surface_tol * max(1.0, float(np.max(np.abs(ev.w))))
        if abs(ev.sigma) <= band:
            return 0
        return -1 if ev.sigma > 0 else +1
    if isinstance(policy, CurveSwitch):
        s, _ = blocks.bounds(i)
        pos, vel = z[s], z[s + 1]
        r = vel - policy.w(pos)
        if r < 0.0:
            return +1
        if r > 0.0:
            return -1
        return +1 if pos >= 0.0 else -1
    if isinstance(policy, ConstSign):
        c = policy.coord if policy.coord is not None else blocks.bounds(i)[0]
        v = z[c]
        if v > 0.0:
            return -1
        if v < 0.0:
            return +1
        return 0
    raise TypeError(f"unknown policy {policy!r}")


def _control_of(policy: StepPolicy, branch: int, z: tuple) -> float:
    if isinstance(policy, ThetaSwitch):
        if branch > 0:
            return policy.u_plus(z)
        if branch < 0:
            return policy.u_minus(z)
        if policy.u_zero is not None:
            return policy.u_zero(z)
        return 0.5 * (policy.u_plus(z) + policy.u_minus(z))
    if isinstance(policy, CurveSwitch):
        return policy.u_plus(z) if branch > 0 else policy.u_minus(z)
    if isinstance(policy, ConstSign):
        return -policy.level * float(branch == -1) + policy.level * float(branch == +1)
    raise TypeError(f"unknown policy {policy!r}")


def _switch_residual(policy: StepPolicy, z: tuple, blocks: BlockPartition, i: int) -> float:
    if isinstance(policy, ThetaSwitch):
        return _theta_eval_block(policy, z, blocks, i).sigma
    if isinstance(policy, CurveSwitch):
        s, _ = blocks.bounds(i)
        return z[s + 1] - policy.w(z[s])
    if isinstance(policy, ConstSign):
        c = policy.coord if policy.coord is not None else blocks.bounds(i)[0]
        return z[c]
    raise TypeError(f"unknown policy {policy!r}")


def _slide_branch_of(policy: StepPolicy, z: tuple, blocks: BlockPartition, i: int) -> int:
    if isinstance(policy, CurveSwitch):
        s, _ = blocks.bounds(i)
        return +1 if z[s] >= 0.0 else -1
    return 0


def eval_control(
    policy: StepPolicy, z: Sequence[float], blocks: BlockPartition, i: int
) -> float:
    """Control value at z under the step-i policy (three-branch selection)."""
    zt = tuple(float(v) for v in z)
    try:
        branch = _branch_of(policy, zt, blocks, i)
        return float(_control_of(policy, branch, zt))
    except DomainError:
        raise
    except (ValueError, ZeroDivisionError, OverflowError) as exc:
        raise DomainError(f"control callback rejected z={zt}: {exc}") from exc


def _policy_name(policy: StepPolicy) -> str:
    return type(policy).__name__


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
    the done test, the arrive residual, the hold monitor and the recorded
    control of a step's end state share one map.  z_of must be a pure
    function of the state; the map it returns is treated as read-only.
    """
    blocks = system.blocks
    if len(policies) != blocks.m:
        raise ValueError(f"need {blocks.m} policies, got {len(policies)}")
    if len(z0) != blocks.n:
        raise ValueError(f"z0 must have length {blocks.n}, got {len(z0)}")
    if done_tol <= 0:
        raise ValueError("done_tol must be positive")

    if rhs is None:
        rhs = system.rhs
    if z_of is None:
        z_of = lambda s: s
        state = tuple(float(v) for v in z0)
    else:
        if state0 is None:
            raise ValueError("state0 is required when integrating a non-z chart")
        z_of = engine.reuse_last(z_of)
        state = tuple(float(v) for v in state0)

    recorder = recorder if recorder is not None else engine.Recorder()
    t = 0.0
    steps: list[StepRecord] = []
    hold_residuals = [0.0] * blocks.m
    hold_limit = 10.0 * done_tol
    completed: list[int] = []

    def make_monitor():
        def monitor(s: tuple, tm: float) -> None:
            zz = z_of(s)
            for j in completed:
                a, b = blocks.bounds(j)
                r = max(abs(v) for v in zz[a:b])
                if r > hold_residuals[j - 1]:
                    hold_residuals[j - 1] = r
                if r > hold_limit:
                    raise HoldViolation(
                        f"block {j} drifted to {r:.3e} > {hold_limit:.3e} at t={tm:.6g}"
                    )
        return monitor

    for i in range(1, blocks.m + 1):
        policy = policies[i - 1]
        z_now = z_of(state)

        theta_bound = None
        t_deadline = None
        deadline_error = None
        if isinstance(policy, ThetaSwitch):
            ev = _theta_eval_block(policy, z_now, blocks, i)
            theta_bound = ev.theta
            if theta_bound > 0.0:
                t_deadline = t + 2.0 * theta_bound
                deadline_error = lambda tm, _i=i, _b=theta_bound: StepTimeout(
                    f"step {_i} ran past 2x its Theta bound {_b:.6g} (t={tm:.6g})"
                )

        # the recorded control and the next step's k1 share one solve
        control = engine.reuse_last(lambda b, s, _p=policy: _control_of(_p, b, z_of(s)))

        def rhs_for_branch(branch: int, _control=control):
            def f(s: tuple):
                return rhs(s, _control(branch, s))
            return f

        # the coordinate whose zero-crossing marks the origin passage: the
        # block velocity for curve riders, the block head otherwise
        a_lo, _a_hi = blocks.bounds(i)
        arrive_idx = a_lo + 1 if isinstance(policy, CurveSwitch) else a_lo

        result = engine.run_stage(
            step_index=i,
            t0=t,
            z0=state,
            rhs_for_branch=rhs_for_branch,
            branch_of=lambda s, _p=policy, _i=i: _branch_of(_p, z_of(s), blocks, _i),
            control_of=control,
            switch_residual=lambda s, _p=policy, _i=i: _switch_residual(_p, z_of(s), blocks, _i),
            slide_branch_of=lambda s, _p=policy, _i=i: _slide_branch_of(_p, z_of(s), blocks, _i),
            done=lambda s, _i=i: step_done(z_of(s), blocks, _i, done_tol),
            cfg=cfg,
            recorder=recorder,
            monitor=make_monitor(),
            t_deadline=t_deadline,
            deadline_error=deadline_error,
            arrive_residual=lambda s, _j=arrive_idx: z_of(s)[_j],
        )
        steps.append(
            StepRecord(i=i, t_start=t, t_end=result.t_end, theta_bound=theta_bound, policy=_policy_name(policy))
        )
        t, state = result.t_end, result.z_end
        completed.append(i)
        a, b = blocks.bounds(i)
        zz = z_of(state)
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
