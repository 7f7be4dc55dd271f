"""Dormand-Prince 5(4) integration of closed loops with switching controls.

The engine advances one stepwise stage at a time, driving one stage object
(see run_stage).  Each branch field is integrated by an embedded 5(4) pair
(Dormand & Prince 1980) with adaptive steps, rtol = atol = TOL in the RMS
error norm, and Hairer's fourth-order dense output.  cfg.dt is only the
sample spacing: samples are read from the dense output every dt after
the last event, and the switching residual, the arrival coordinate and
the completion test are evaluated there.  A sign change between two
samples is localized by bisection on the dense output to event_tol
(Shampine, Gladwell & Brankin 1991), and the integration restarts at the
event state on the re-selected branch.  Two branch switches closer
together than 4 dt trigger a surface-slide regime on the stage's slide
branch with a factor-`hysteresis` release band, which bounds chattering.
rk4_step, one classical Runge-Kutta step, is kept as a reference
integrator; run_stage does not call it.  States are tuples of floats: the
bundled scenarios record 3e4 to 1e5 samples per run at dt = 1e-4, and at
those counts tuples are several times faster than small numpy arrays.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence, TypeVar

State = tuple  # tuple of floats
Rhs = Callable[[State], Sequence[float]]
T = TypeVar("T")


class Timeout(RuntimeError):
    """Integration reached t_max before the run completed."""


class NonFinite(RuntimeError):
    """A state, control or error estimate became non-finite, or the step
    size underflowed (the solution escapes in finite time)."""


@dataclass(frozen=True)
class IntegratorConfig:
    """dt is the spacing of the recorded samples, not an integration step:
    the integrator picks its own steps to TOL.  event_tol is the width to
    which event times are bisected."""

    dt: float = 1e-4
    event_tol: float = 1e-10
    hysteresis: float = 2.0
    t_max: float = 100.0

    def __post_init__(self):
        if self.dt <= 0:
            raise ValueError(f"dt must be positive, got {self.dt}")
        if not 0 < self.event_tol < self.dt:
            raise ValueError("event_tol must satisfy 0 < event_tol < dt")
        if self.hysteresis <= 1:
            raise ValueError("hysteresis factor must exceed 1")
        if self.t_max <= 0:
            raise ValueError("t_max must be positive")


@dataclass
class Event:
    t: float
    kind: str  # 'branch-switch' | 'step-complete' | 'surface-slide'
    step: int
    detail: str = ""


def rk4_step(f: Rhs, z: State, h: float) -> State:
    """One classical Runge-Kutta step of size h."""
    k1 = f(z)
    h2 = 0.5 * h
    k2 = f(tuple(zi + h2 * ki for zi, ki in zip(z, k1)))
    k3 = f(tuple(zi + h2 * ki for zi, ki in zip(z, k2)))
    k4 = f(tuple(zi + h * ki for zi, ki in zip(z, k3)))
    s = h / 6.0
    return tuple(
        zi + s * (a + 2.0 * (b + c) + d) for zi, a, b, c, d in zip(z, k1, k2, k3, k4)
    )


def _finite(z: State) -> bool:
    return all(map(math.isfinite, z))


# Dormand & Prince (1980) 5(4) pair: stage rows A, fifth-order weights B
# (the seventh stage's row, so the last stage of a step is the first of the
# next), error weights E = B - B*, and Hairer's fourth-order continuous
# extension D (Hairer, Norsett & Wanner, Solving ODEs I, II.6).
A21 = 1 / 5
A31, A32 = 3 / 40, 9 / 40
A41, A42, A43 = 44 / 45, -56 / 15, 32 / 9
A51, A52, A53, A54 = 19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729
A61, A62, A63, A64, A65 = 9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656
B1, B3, B4, B5, B6 = 35 / 384, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84
E1, E3, E4, E5, E6, E7 = 71 / 57600, -71 / 16695, 71 / 1920, -17253 / 339200, 22 / 525, -1 / 40
D1, D3, D4, D5, D6, D7 = (
    -12715105075 / 11282082432,
    87487479700 / 32700410799,
    -10690763975 / 1880347072,
    701980252875 / 199316789632,
    -1453857185 / 822651844,
    69997945 / 29380423,
)
TOL = 1e-12  # rtol = atol of the RMS error norm of one step


def _dp_step(f: Rhs, z: State, k1: Sequence[float], h: float):
    """One Dormand-Prince step from (z, k1 = f(z)): (z1, stages, err).

    stages are k1, k3, k4, k5, k6 and k7 = f(z1) (k2 has weight 0); err is
    the RMS error norm scaled by TOL, and the step is accepted at err <= 1.
    Returns None if z1 is not finite.
    """
    k2 = f(tuple(y + h * A21 * a for y, a in zip(z, k1)))
    k3 = f(tuple(y + h * (A31 * a + A32 * b) for y, a, b in zip(z, k1, k2)))
    k4 = f(tuple(y + h * (A41 * a + A42 * b + A43 * c) for y, a, b, c in zip(z, k1, k2, k3)))
    k5 = f(tuple(
        y + h * (A51 * a + A52 * b + A53 * c + A54 * d) for y, a, b, c, d in zip(z, k1, k2, k3, k4)
    ))
    k6 = f(tuple(
        y + h * (A61 * a + A62 * b + A63 * c + A64 * d + A65 * e)
        for y, a, b, c, d, e in zip(z, k1, k2, k3, k4, k5)
    ))
    z1 = tuple(
        y + h * (B1 * a + B3 * c + B4 * d + B5 * e + B6 * g)
        for y, a, c, d, e, g in zip(z, k1, k3, k4, k5, k6)
    )
    if not _finite(z1):
        return None
    k7 = f(z1)
    acc = 0.0
    for y, y1, a, c, d, e, g, q in zip(z, z1, k1, k3, k4, k5, k6, k7):
        err = h * (E1 * a + E3 * c + E4 * d + E5 * e + E6 * g + E7 * q)
        acc += (err / (TOL * (1.0 + max(abs(y), abs(y1))))) ** 2
    return z1, (k1, k3, k4, k5, k6, k7), math.sqrt(acc / len(z))


def _dense_rows(z: State, z1: State, stages: tuple, h: float) -> list:
    """Per component, the coefficients (y0, y1 - y0, b, c, d) of the step's
    continuous extension y0 + s (y1 - y0 + (1 - s) (b + s (c + (1 - s) d)))."""
    rows = []
    for y, y1, a, c, d, e, g, q in zip(z, z1, *stages):
        diff = y1 - y
        bspl = h * a - diff
        dense = h * (D1 * a + D3 * c + D4 * d + D5 * e + D6 * g + D7 * q)
        rows.append((y, diff, bspl, diff - h * q - bspl, dense))
    return rows


class _Flow:
    """The flow of one branch field from one state, with dense output.

    Dormand-Prince steps run ahead of the sample rows, their size set by
    the error norm; cover(t_lo, t_hi) integrates until the accepted steps
    reach t_hi, and at(t) reads the continuous extension of the step that
    holds t.  Each flow starts with a step of h0.
    """

    def __init__(self, f: Rhs, t0: float, z0: State, h0: float, t_max: float, step_index: int):
        self.f, self.t_max, self.step_index = f, t_max, step_index
        self.t, self.z, self.k = t0, z0, f(z0)
        self.h = h0
        self.pieces: list = []  # (t_a, t_b, rows) of the accepted steps, oldest first

    def cover(self, t_lo: float, t_hi: float) -> None:
        pieces = self.pieces
        while len(pieces) > 1 and pieces[0][1] <= t_lo:
            del pieces[0]
        limit = max(self.t_max, t_hi)
        while self.t < t_hi:
            ta = self.t
            tb = min(ta + self.h, limit)
            if not tb > ta:
                raise NonFinite(f"step size underflow at t={ta:.6g} in step {self.step_index}")
            ahead = tb > t_hi
            try:
                out = _dp_step(self.f, self.z, self.k, tb - ta)
            except (ArithmeticError, ValueError, RuntimeError):
                # the field may reject a state past the row (a control with
                # no root there); within the row the error is the run's own
                if not ahead:
                    raise
                out = None
            if out is None or not math.isfinite(out[2]):
                if not ahead:
                    raise NonFinite(f"non-finite state at t={tb:.6g} in step {self.step_index}")
                limit = t_hi
                continue
            z1, stages, err = out
            fac = 0.9 * err ** -0.2 if err > 0.0 else 10.0
            self.h = (tb - ta) * min(10.0, max(0.2, fac))
            if err <= 1.0:
                pieces.append((ta, tb, _dense_rows(self.z, z1, stages, tb - ta)))
                self.t, self.z, self.k = tb, z1, stages[-1]

    def at(self, t: float) -> State:
        for ta, tb, rows in self.pieces:
            if t <= tb:
                break
        s = (t - ta) / (tb - ta)
        s1 = 1.0 - s
        return tuple(a + s * (b + s1 * (c + s * (d + s1 * e))) for a, b, c, d, e in rows)

    def first(self, t: float, h: float, crossed: Callable[[State], bool], event_tol: float) -> float:
        """Earliest tau in (0, h] with crossed(state at t + tau), to event_tol.

        crossed must be False at tau=0+ and True at tau=h; states are read
        from the dense output.
        """
        lo, hi = 0.0, h
        while hi - lo > event_tol:
            mid = 0.5 * (lo + hi)
            if mid <= lo or mid >= hi:
                break
            if crossed(self.at(t + mid)):
                hi = mid
            else:
                lo = mid
        return hi


@dataclass
class StageResult:
    t_end: float
    z_end: State
    events: list
    # samples appended directly into the recorder passed by the caller


class Recorder:
    """Columnar trajectory accumulator (times, states, controls, event flags).

    When z_of is set, states_z also keeps z_of(state) of each sample: the
    block-chart state of a run integrated in another chart.
    """

    def __init__(self):
        self.times: list[float] = []
        self.states: list[State] = []
        self.controls: list[float] = []
        self.flags: list[int] = []
        self.events: list[Event] = []
        self.z_of: Callable[[State], State] | None = None
        self.states_z: list[State] = []

    def add(self, t: float, z: State, u: float, flag: int = 0) -> None:
        # keep times strictly increasing; replace the flag if a sample repeats
        if self.times and t <= self.times[-1]:
            if flag:
                self.flags[-1] = flag
            return
        self.times.append(t)
        self.states.append(z)
        if self.z_of is not None:
            self.states_z.append(self.z_of(z))
        self.controls.append(u)
        self.flags.append(flag)


FLAG_NONE = 0
FLAG_SWITCH = 1
FLAG_COMPLETE = 2
FLAG_SLIDE = 3

def reuse_last(fn: Callable[..., T]) -> Callable[..., T]:
    """fn with a one-entry reuse keyed on its last argument, the state.

    A call whose state is the same object as the previous call's, and
    whose other arguments are equal to its, returns the stored value.
    orchestrate wraps its chart map this way, so every reader of one
    sample (residual, done test, hold monitor, recorded control) shares
    one map of it; example51 wraps its f2 inverse, read by several
    callbacks at one z3.
    fn must be a pure function of its arguments.  The memo holds the last
    state, so that object's id cannot be reused while it is stored.
    """
    key: tuple = (object(),)  # no state is this object
    value = None

    def memo(*args):
        nonlocal key, value
        if args[-1] is key[-1] and args == key:
            return value
        value = fn(*args)
        key = args
        return value

    return memo


def run_stage(
    *,
    step_index: int,
    t0: float,
    z0: State,
    stage,
    cfg: IntegratorConfig,
    recorder: Recorder,
    monitor: Callable[[State, float], None] | None = None,
) -> StageResult:
    """Integrate one stepwise stage until its completion test holds.

    The stage object gives, for a state z:
      branch(z)        the branch in {-1, 0, +1} (u-minus, slide/zero, u-plus);
      field(b)         the closed-loop right side of branch b;
      control(b, z)    the control value on branch b, for the record;
      residual(z)      the switching function: a sign change is a branch switch;
      slide_branch(z)  the branch that holds a chattering state on the surface;
      arrive(z)        a coordinate that crosses zero transversally at the
                       instant the stage should complete (the block velocity
                       for curve-following policies);
      done(z)          the completion test;
      deadline         a time past which the stage fails with
                       deadline_error(t), or None.
    monitor is called at every sample (hold checks).

    The branch field is integrated by Dormand-Prince steps of their own
    size (_Flow).  Samples are taken every cfg.dt from the last event
    time, read from the dense output; events are tested between
    consecutive samples, and a sign change of the residual or of arrive,
    or an entry into done, is bisected on the dense output.  The done ball
    is narrower than one sample spacing near an arrival, so endpoint tests
    alone fly over it; crossings of arrive are bisected and done is tested
    at the crossing point itself.  After an event the integration restarts
    from the event state on the new branch.

    Evaluations per sample without an event: one residual, one arrive and
    one done test at the sample (the previous sample's serve as the start
    values) and one control to record it.  The field's six evaluations per
    Dormand-Prince step are shared by all samples the step covers.  Event
    bisection adds evaluations at its probe states.
    """
    residual, arrive, done, control = stage.residual, stage.arrive, stage.done, stage.control
    deadline = stage.deadline
    t, z = t0, z0
    events: list[Event] = []

    def _emit(ev: Event) -> None:
        events.append(ev)
        recorder.events.append(ev)

    branch = stage.branch(z)
    last_switch_t: float | None = None
    sliding = False
    slide_release = 0.0

    recorder.add(t, z, control(branch, z), FLAG_NONE)
    flow = _Flow(stage.field(branch), t, z, cfg.dt, cfg.t_max, step_index)
    fresh = True  # z is the start or an event state: nothing is known there yet

    while True:
        if fresh and done(z):
            _emit(Event(t, "step-complete", step_index))
            if recorder.flags:
                recorder.flags[-1] = FLAG_COMPLETE
            if monitor is not None:
                monitor(z, t)
            return StageResult(t_end=t, z_end=z, events=events)
        if t >= cfg.t_max:
            raise Timeout(f"t_max={cfg.t_max} reached in step {step_index}")
        if deadline is not None and t > deadline:
            raise stage.deadline_error(t)
        if fresh:
            g0 = residual(z)
            a0 = arrive(z)
            fresh = False

        h = min(cfg.dt, cfg.t_max - t)
        flow.cover(t, t + h)
        z_new = flow.at(t + h)
        if not _finite(z_new):
            raise NonFinite(f"non-finite state at t={t + h:.6g} in step {step_index}")
        g1 = residual(z_new)

        # candidate event times within (0, h]
        tau_done = None
        if done(z_new):
            tau_done = flow.first(t, h, done, cfg.event_tol)
        a1 = arrive(z_new)
        if a0 != 0.0 and a1 != 0.0 and (a0 > 0.0) != (a1 > 0.0):
            apos = a0 > 0.0
            tau_arr = flow.first(t, h, lambda zz: (arrive(zz) > 0.0) != apos, cfg.event_tol)
            if (tau_done is None or tau_arr < tau_done) and done(flow.at(t + tau_arr)):
                tau_done = tau_arr
        tau_switch = None
        if sliding:
            if abs(g1) > slide_release:
                # leave the slide regime at the end of this sample interval
                tau_switch = h
        elif g0 != 0.0 and g1 != 0.0 and (g0 > 0.0) != (g1 > 0.0):
            pos0 = g0 > 0.0
            tau_switch = flow.first(t, h, lambda zz: (residual(zz) > 0.0) != pos0, cfg.event_tol)

        if tau_done is not None and (tau_switch is None or tau_done <= tau_switch):
            z_end = z_new if tau_done == h else flow.at(t + tau_done)
            t_end = t + tau_done
            _emit(Event(t_end, "step-complete", step_index))
            recorder.add(t_end, z_end, control(branch, z_end), FLAG_COMPLETE)
            if monitor is not None:
                monitor(z_end, t_end)
            return StageResult(t_end=t_end, z_end=z_end, events=events)

        if tau_switch is not None:
            z = z_new if tau_switch == h else flow.at(t + tau_switch)
            t = t + tau_switch
            fresh = True
            if monitor is not None:
                monitor(z, t)
            if sliding:
                sliding = False
                branch = stage.branch(z)
                event, flag = Event(t, "surface-slide", step_index, "release"), FLAG_SLIDE
                last_switch_t = None
            elif last_switch_t is not None and (t - last_switch_t) <= 4.0 * cfg.dt:
                # chattering: enter the slide regime; release only when the
                # residual escapes hysteresis x the one-sample overshoot scale
                sliding = True
                floor = 1e-12 * (1.0 + max(abs(v) for v in z))
                slide_release = cfg.hysteresis * max(abs(g0), abs(g1), floor)
                branch = stage.slide_branch(z)
                event, flag = Event(t, "surface-slide", step_index, "enter"), FLAG_SLIDE
                last_switch_t = t
            else:
                last_switch_t = t
                branch = stage.branch(z)
                event, flag = Event(t, "branch-switch", step_index), FLAG_SWITCH
            _emit(event)
            recorder.add(t, z, control(branch, z), flag)
            flow = _Flow(stage.field(branch), t, z, cfg.dt, cfg.t_max, step_index)
            continue

        t, z = t + h, z_new
        g0, a0 = g1, a1
        if monitor is not None:
            monitor(z, t)
        recorder.add(t, z, control(branch, z), FLAG_NONE)
