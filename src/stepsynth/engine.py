"""Fixed-step RK4 integration of closed loops with switching controls.

The engine advances one stepwise stage at a time: a stage has a single
scalar switching function g(z), branch controls selected from sign(g), a
completion test, and optional monitors.  Sign changes of g across a step
are localized by bisection on the step's own RK4 map to event_tol, the
step is split there, and the branch is re-selected.  Two branch switches
closer together than 4 dt trigger a surface-slide regime with a slide
control and factor-`hysteresis` release band, which bounds chattering.

Each accepted step evaluates the switching function, the completion test
and the control once, carrying their values at its end state into the next
step (see run_stage).  States are tuples of floats: the bundled scenarios
take 2e4 to 1e5 RK4 steps per run at dt = 1e-4, and at those counts tuples
are several times faster than small numpy arrays.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence, TypeVar

State = tuple  # tuple of floats
Rhs = Callable[[State], Sequence[float]]
T = TypeVar("T")


class Timeout(RuntimeError):
    """Integration reached t_max before the run completed."""


class NonFinite(RuntimeError):
    """A state or control value became non-finite."""


@dataclass(frozen=True)
class IntegratorConfig:
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
    for v in z:
        if v != v or v in (float("inf"), float("-inf")):
            return False
    return True


def _bisect_first(
    f: Rhs, z: State, h: float, crossed: Callable[[State], bool], event_tol: float
) -> float:
    """Earliest tau in (0, h] with crossed(state at tau), to event_tol.

    crossed must be False at tau=0+ and True at tau=h; states are probed with
    single RK4 steps of size tau from z, matching how the step will be split.
    """
    lo, hi = 0.0, h
    while hi - lo > event_tol:
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            break
        if crossed(rk4_step(f, z, mid)):
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
    """Columnar trajectory accumulator (times, states, controls, event flags)."""

    def __init__(self):
        self.times: list[float] = []
        self.states: list[State] = []
        self.controls: list[float] = []
        self.flags: list[int] = []
        self.events: list[Event] = []

    def add(self, t: float, z: State, u: float, flag: int = 0) -> None:
        # keep times strictly increasing; replace the flag if a sample repeats
        if self.times and t <= self.times[-1]:
            if flag:
                self.flags[-1] = flag
            return
        self.times.append(t)
        self.states.append(z)
        self.controls.append(u)
        self.flags.append(flag)


FLAG_NONE = 0
FLAG_SWITCH = 1
FLAG_COMPLETE = 2
FLAG_SLIDE = 3

_FLAG_OF_KIND = {
    "branch-switch": FLAG_SWITCH,
    "step-complete": FLAG_COMPLETE,
    "surface-slide": FLAG_SLIDE,
}


def reuse_last(fn: Callable[..., T]) -> Callable[..., T]:
    """fn with a one-entry reuse keyed on its last argument, the state.

    A call whose state is the same object as the previous call's, and
    whose other arguments (a branch, say) are equal to its, returns the
    stored value.  run_stage records control_of(branch, z) at each
    accepted state before the next step evaluates k1 = f(z) on that same
    object, so a field that takes its control from reuse_last(control_of)
    solves it once there; orchestrate wraps its chart map the same way.
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
    rhs_for_branch: Callable[[int], Rhs],
    branch_of: Callable[[State], int],
    control_of: Callable[[int, State], float],
    switch_residual: Callable[[State], float],
    slide_branch_of: Callable[[State], int],
    done: Callable[[State], bool],
    cfg: IntegratorConfig,
    recorder: Recorder,
    monitor: Callable[[State, float], None] | None = None,
    t_deadline: float | None = None,
    deadline_error: Callable[[float], Exception] | None = None,
    arrive_residual: Callable[[State], float] | None = None,
) -> StageResult:
    """Integrate one stepwise stage until its completion test holds.

    rhs_for_branch(b) returns the closed-loop field for branch b in
    {-1, 0, +1} (u-minus, slide/zero, u-plus); branch_of picks the branch
    from a state, control_of evaluates the control value for recording.
    monitor is called at every accepted sample (hold checks).  t_deadline
    with deadline_error enforces a per-stage time bound.

    arrive_residual, when given, is a coordinate that crosses zero
    transversally at the instant the stage should complete (the block
    velocity for curve-following policies).  The done ball is narrower than
    one integration step near such a passage, so endpoint tests alone fly
    over it; crossings of this residual are bisected and done is tested at
    the crossing point itself.

    Evaluations per accepted step without an event: one switch_residual
    and one arrive_residual (at the step's end state; the start state's
    values are the previous step's), one done test (the end state's, which
    also serves as the next step's first test), the field's four RK4
    stages, and one control_of to record the end state.  When the field
    takes its control from reuse_last(control_of), the next step's k1
    reuses that recorded solve, which makes four control solves per step.
    After a split step (a branch switch or a slide entry or release) the
    residuals, the done test and the control are evaluated afresh at the
    new state.  Event bisection adds evaluations at its probe states.
    """
    t, z = t0, z0
    events: list[Event] = []

    def _emit(ev: Event) -> None:
        events.append(ev)
        recorder.events.append(ev)

    branch = branch_of(z)
    f = rhs_for_branch(branch)
    last_switch_t: float | None = None
    sliding = False
    slide_release = 0.0

    recorder.add(t, z, control_of(branch, z), FLAG_NONE)
    fresh = True  # z was not reached by a plain step: nothing is known there yet

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
        if t_deadline is not None and t > t_deadline:
            raise deadline_error(t)
        if fresh:
            g0 = switch_residual(z)
            if arrive_residual is not None:
                a0 = arrive_residual(z)
            fresh = False

        h = min(cfg.dt, cfg.t_max - t)
        z_new = rk4_step(f, z, h)
        if not _finite(z_new):
            raise NonFinite(f"non-finite state at t={t + h:.6g} in step {step_index}")
        g1 = switch_residual(z_new)

        # candidate event times within (0, h]
        tau_done = None
        if done(z_new):
            tau_done = _bisect_first(f, z, h, done, cfg.event_tol)
        if arrive_residual is not None:
            a1 = arrive_residual(z_new)
            if a0 != 0.0 and a1 != 0.0 and (a0 > 0.0) != (a1 > 0.0):
                apos = a0 > 0.0
                tau_arr = _bisect_first(
                    f, z, h, lambda zz: (arrive_residual(zz) > 0.0) != apos, cfg.event_tol
                )
                if (tau_done is None or tau_arr < tau_done) and done(
                    rk4_step(f, z, tau_arr)
                ):
                    tau_done = tau_arr
        tau_switch = None
        if sliding:
            if abs(g1) > slide_release:
                # leave the slide regime at the end of this step
                tau_switch = h
        elif g0 != 0.0 and g1 != 0.0 and (g0 > 0.0) != (g1 > 0.0):
            pos0 = g0 > 0.0
            tau_switch = _bisect_first(
                f, z, h, lambda zz: (switch_residual(zz) > 0.0) != pos0, cfg.event_tol
            )

        if tau_done is not None and (tau_switch is None or tau_done <= tau_switch):
            z_end = z_new if tau_done == h else rk4_step(f, z, tau_done)
            t_end = t + tau_done
            _emit(Event(t_end, "step-complete", step_index))
            recorder.add(t_end, z_end, control_of(branch, z_end), FLAG_COMPLETE)
            if monitor is not None:
                monitor(z_end, t_end)
            return StageResult(t_end=t_end, z_end=z_end, events=events)

        if tau_switch is not None:
            z = z_new if tau_switch == h else rk4_step(f, z, tau_switch)
            t = t + tau_switch
            fresh = True
            if monitor is not None:
                monitor(z, t)
            if sliding:
                sliding = False
                branch = branch_of(z)
                f = rhs_for_branch(branch)
                _emit(Event(t, "surface-slide", step_index, "release"))
                recorder.add(t, z, control_of(branch, z), FLAG_SLIDE)
                last_switch_t = None
                continue
            if last_switch_t is not None and (t - last_switch_t) <= 4.0 * cfg.dt:
                # chattering: enter the slide regime; release only when the
                # residual escapes hysteresis x the one-step overshoot scale
                sliding = True
                floor = 1e-12 * (1.0 + max(abs(v) for v in z))
                slide_release = cfg.hysteresis * max(abs(g0), abs(g1), floor)
                branch = slide_branch_of(z)
                f = rhs_for_branch(branch)
                _emit(Event(t, "surface-slide", step_index, "enter"))
                recorder.add(t, z, control_of(branch, z), FLAG_SLIDE)
                last_switch_t = t
                continue
            last_switch_t = t
            branch = branch_of(z)
            f = rhs_for_branch(branch)
            _emit(Event(t, "branch-switch", step_index))
            recorder.add(t, z, control_of(branch, z), FLAG_SWITCH)
            continue

        t, z = t + h, z_new
        g0 = g1
        if arrive_residual is not None:
            a0 = a1
        if monitor is not None:
            monitor(z, t)
        recorder.add(t, z, control_of(branch, z), FLAG_NONE)
