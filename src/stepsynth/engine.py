"""Dormand-Prince 5(4) integration of closed loops with switching controls.

The engine advances one stepwise stage at a time (run_stage).  A stage
object gives the branch fields of its step, a deadline (math.inf when the
step has none), a hold check on the finished blocks, and reads batches of
sample rows (Rows); run_stage reads every sample through such a batch.
Each branch field is integrated by an embedded 5(4) pair (Dormand &
Prince 1980) with adaptive steps, rtol = atol = TOL in the RMS error norm,
and Hairer's fourth-order dense output.  cfg.dt is only the sample
spacing: samples are read from the dense output every dt after the last
event, and the switching residual, the arrival coordinate and the
completion test are evaluated there.  A sign change between two samples
is localized by bisection on the dense output to EVENT_TOL (Shampine,
Gladwell & Brankin 1991), and the integration restarts at the event state
on the re-selected branch.  Two branch switches closer together than 4 dt
trigger a surface-slide regime on the stage's slide branch with a
factor-HYSTERESIS release band, which bounds chattering.  rk4_step, one
classical Runge-Kutta step, is kept as a reference integrator; run_stage
does not call it.

The bundled scenarios record 3e4 to 1e5 samples per run at dt = 1e-4 from
1e2 to 2e3 integrator steps, so the work is in the samples.  The rows that
the accepted steps already cover come out of the dense output as one
(k, n) numpy array, by the same elementwise formula as one row at a time,
and the stage tests them as columns: the switching residuals and the
recorded controls too, each in one call per batch.  The rows stay arrays
from there to the Recorder, which joins them into one (k, n) array.  A
tuple is built only for one state: the start and each event row, which
the integrator restarts from.  A batch that fails is read again one row
at a time up to the next event, so a run ends at the row where a
row-by-row run ends.  The integrator's own states and stages stay tuples
of floats, and so does the state its field reads: a step has a handful
of components, where numpy's per-call cost outweighs its arithmetic.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

State = tuple  # tuple of floats
Rhs = Callable[[State], Sequence[float]]


class Timeout(RuntimeError):
    """Integration reached t_max before the run completed."""


class NonFinite(RuntimeError):
    """A state, control or error estimate became non-finite, or the step
    size underflowed (the solution escapes in finite time)."""


EVENT_TOL = 1e-10  # the width to which event times are bisected
ROWS = 4096  # most sample rows per batch
HYSTERESIS = 2.0  # slide release band, in units of the overshoot at entry


@dataclass(frozen=True)
class IntegratorConfig:
    """dt is the spacing of the recorded samples, not an integration step:
    the integrator picks its own steps to TOL."""

    dt: float = 1e-4
    t_max: float = 100.0

    def __post_init__(self):
        if not self.dt > 0:
            raise ValueError(f"dt must be positive, got {self.dt}")
        if not self.dt > EVENT_TOL:
            raise ValueError(f"dt must exceed the event width {EVENT_TOL}, got {self.dt}")
        if not self.t_max > 0:
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


def _dense_rows(z: State, z1: State, stages: tuple, h: float) -> np.ndarray:
    """The coefficients (y0, y1 - y0, b, c, d) of the step's continuous
    extension y0 + s (y1 - y0 + (1 - s) (b + s (c + (1 - s) d))), as a
    (5, n) array: one row per coefficient, one column per component."""
    rows = []
    for y, y1, a, c, d, e, g, q in zip(z, z1, *stages):
        diff = y1 - y
        bspl = h * a - diff
        dense = h * (D1 * a + D3 * c + D4 * d + D5 * e + D6 * g + D7 * q)
        rows.append((y, diff, bspl, diff - h * q - bspl, dense))
    return np.array(rows).T


class _Flow:
    """The flow of one branch field from one state, with dense output.

    Dormand-Prince steps run ahead of the sample rows, their size set by
    the error norm; cover(t_lo, t_hi) integrates until the accepted steps
    reach t_hi, and rows(times) reads the continuous extension of the
    steps that hold them.  Each flow starts with a step of h0.
    """

    def __init__(self, f: Rhs, t0: float, z0: State, h0: float, t_max: float, step_index: int):
        self.f, self.t_max, self.step_index = f, t_max, step_index
        self.t, self.z, self.k = t0, z0, f(z0)
        self.h = h0
        self.pieces: list = []  # (t_a, t_b, coefficients) of the accepted steps, oldest first

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
            elif min(ta + self.h, limit) == tb:
                # the smaller step rounds to the same end: it would be retried forever
                raise NonFinite(f"step size underflow at t={ta:.6g} in step {self.step_index}")

    def rows(self, times: list) -> np.ndarray:
        """The states at ascending times inside the covered steps, as a
        (len(times), n) array.  A time at the end of a step reads that step."""
        ts = np.array(times)
        parts = []
        lo, k, last = 0, len(times), len(self.pieces) - 1
        for j, (ta, tb, (a, b, c, d, e)) in enumerate(self.pieces):
            hi = k if j == last else bisect.bisect_right(times, tb, lo)
            if hi > lo:
                s = ((ts[lo:hi] - ta) / (tb - ta))[:, None]
                s1 = 1.0 - s
                parts.append(a + s * (b + s1 * (c + s * (d + s1 * e))))
                lo = hi
                if lo == k:
                    break
        return parts[0] if len(parts) == 1 else np.concatenate(parts)


def _bisect(t: float, h: float, crossed: Callable[[float], bool]) -> float:
    """Earliest tau in (0, h] with crossed(t + tau), to EVENT_TOL.

    crossed must be False at tau=0+ and True at tau=h.
    """
    lo, hi = 0.0, h
    while hi - lo > EVENT_TOL:
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            break
        if crossed(t + mid):
            hi = mid
        else:
            lo = mid
    return hi


class Rows:
    """A batch of sample rows: times t, a list, and states y, a (k, n)
    float array with one row per time.

    The stage's rows(t, y) returns a Rows that also gives, per row:
      done                 the completion test, a bool array;
      arrive               the arrival coordinate, a float array;
      residuals(lo, hi)    the switching function on rows lo..hi-1, a list;
      controls(b, lo, hi)  the control on branch b on rows lo..hi-1, a list.
    Each covers exactly the rows it is asked for, or raises.
    """

    def __init__(self, t: list, y: np.ndarray):
        self.t, self.y = t, y

    def state(self, i: int) -> State:
        """Row i as a tuple of floats, for the integrator to start from."""
        return tuple(self.y[i].tolist())


def first(hits: np.ndarray) -> int:
    """Index of the first True in hits, or len(hits)."""
    idx = np.flatnonzero(hits)
    return int(idx[0]) if idx.size else len(hits)


def _sign_change(prev: float, values) -> int:
    """Index of the first value whose sign is opposite to that of the value
    before it (prev before the first); a zero changes no sign."""
    v = np.concatenate(([prev], values))
    pos, nz = v > 0.0, v != 0.0
    return first(nz[:-1] & nz[1:] & (pos[:-1] != pos[1:]))


@dataclass
class StageResult:
    t_end: float
    z_end: State
    # samples and events are appended directly into the recorder passed by the caller


FLAG_NONE = 0
FLAG_SWITCH = 1
FLAG_COMPLETE = 2
FLAG_SLIDE = 3


class Recorder:
    """Columnar trajectory accumulator (times, states, controls, event flags).

    times, controls and flags are lists.  states is a (k, n) float array:
    the batches' row slices are kept as they are recorded and joined on
    the first read.
    """

    def __init__(self):
        self.times: list[float] = []
        self.controls: list[float] = []
        self.flags: list[int] = []
        self.events: list[Event] = []
        self._states: list = []

    @property
    def states(self) -> np.ndarray:
        parts = self._states
        if len(parts) != 1:
            parts[:] = [np.concatenate(parts) if parts else np.empty((0, 0))]
        return parts[0]

    def extend(self, rows: Rows, lo: int, hi: int, controls: list, flag: int = FLAG_NONE) -> None:
        """Record rows lo..hi-1 of a batch, later than the last recorded
        row, with their controls and a flag each."""
        self.times.extend(rows.t[lo:hi])
        self._states.append(rows.y[lo:hi])
        self.controls.extend(controls)
        self.flags.extend([flag] * (hi - lo))


def run_stage(
    *,
    step_index: int,
    t0: float,
    z0: State,
    stage,
    cfg: IntegratorConfig,
    recorder: Recorder,
) -> StageResult:
    """Integrate one stepwise stage until its completion test holds.

    The stage object gives, for a state z:
      branch(z)        the branch in {-1, 0, +1} (u-minus, slide/zero, u-plus);
      field(b)         the closed-loop right side of branch b;
      slide_branch(z)  the branch that holds a chattering state on the surface;
      deadline         a time past which the stage fails with
                       deadline_error(t); math.inf when there is none;
    and, for a batch of at most ROWS sample rows at times t with states
    y, a (k, n) array, rows(t, y): a Rows that gives each row's
      residuals        the switching function: a sign change is a branch switch;
      arrive           a coordinate that crosses zero transversally at the
                       instant the stage should complete (the block velocity
                       for curve-following policies);
      done             the completion test;
      controls         the control value on a branch, for the record.
    hold(rows, lo, hi) checks that rows lo..hi-1 of a batch keep the
    finished blocks pinned, and raises if one of them does not: the plain
    rows before they are recorded, and each event row and the end row.

    The branch field is integrated by Dormand-Prince steps of their own
    size (_Flow).  Samples are taken every cfg.dt from the last event
    time, read from the dense output; events are tested between
    consecutive samples, and a sign change of the residual or of arrive,
    or an entry into done, is bisected on the dense output.  The done ball
    is narrower than one sample spacing near an arrival, so endpoint tests
    alone fly over it; crossings of arrive are bisected and done is tested
    at the crossing point itself.  After an event the integration restarts
    from the event state on the new branch.  Events go to recorder.events.
    The start row is recorded only by the first stage: a later stage starts
    on the row its predecessor ended on.

    Evaluations per sample: the samples that the accepted steps cover, up
    to ROWS of them, are read as one batch.  Its done and arrive columns
    are tested over the whole batch, and residuals up to the first row
    that may hold an event; the rows before that row are plain and are
    held, given their controls and recorded together.  The row itself goes
    through the event tests with the batch's values, and the batch goes on
    after it unless an event ends the batch.  So a run without events
    tests each sample once, in about one stage call per batch (a stage
    that tests rows in another chart maps the whole batch there); the
    residuals and the recorded controls of a batch are one call each,
    which the bundled policies compute on columns.  The field's six
    evaluations per Dormand-Prince step are shared by all samples the
    step covers, and read one state each.  Event bisection and each event row read
    one-row batches.

    One rule keeps the outcome of a row-by-row run: a batch of more than
    one row fails when reading it or testing its plain rows raises, or when
    it holds a non-finite state, and is then read again from its first
    unrecorded row in batches of one row until the next event.  In a
    one-row batch every error is that row's and propagates, so the first
    row that fails, and any event before it, end the stage.
    """
    deadline, read_rows = stage.deadline, stage.rows
    t, z = t0, z0

    def read(tm: float) -> Rows:
        """The one-row batch at time tm of the current flow."""
        return read_rows([tm], flow.rows([tm]))

    branch = stage.branch(z)
    last_switch_t: float | None = None
    sliding = False
    slide_release = 0.0

    # at is the one-row batch of the start or of the last event: nothing is known there yet
    at = read_rows([t], np.array([z], dtype=float))
    if not recorder.times:
        recorder.extend(at, 0, 1, at.controls(branch, 0, 1))
    flow = _Flow(stage.field(branch), t, z, cfg.dt, cfg.t_max, step_index)
    fresh = True
    size = ROWS  # rows per batch: one from a batch that fails up to the next event

    while True:
        if fresh and at.done[0]:
            recorder.events.append(Event(t, "step-complete", step_index))
            if recorder.flags:
                recorder.flags[-1] = FLAG_COMPLETE
            stage.hold(at, 0, 1)
            return StageResult(t_end=t, z_end=z)
        if t >= cfg.t_max:
            raise Timeout(f"t_max={cfg.t_max} reached in step {step_index}")
        if t > deadline:
            raise stage.deadline_error(t)
        if fresh:
            # g0 and a0: the residual and arrive of the last row tested for events
            g0 = at.residuals(0, 1)[0]
            a0 = float(at.arrive[0])
            fresh = False

        # the batch: sample times by the same repeated addition as one row
        # at a time, through the first row past t_max or the deadline
        flow.cover(t, t + min(cfg.dt, cfg.t_max - t))
        times = []
        tk = t
        while len(times) < size:
            tk = tk + min(cfg.dt, cfg.t_max - tk)
            if tk > flow.t:
                break
            times.append(tk)
            if tk >= cfg.t_max or tk > deadline:
                break
        k = len(times)
        rows = None
        gs: list = []  # residuals of rows 0..len(gs)-1
        i = start = 0  # the first row not yet recorded, and not yet tested for events
        while True:
            try:
                if rows is None:
                    y = flow.rows(times)
                    bad = first(~np.isfinite(y).all(axis=1))
                    if bad < k:
                        raise NonFinite(f"non-finite state at t={times[bad]:.6g} in step {step_index}")
                    rows = read_rows(times, y)
                # c: the first row from start that may hold an event
                c = start + min(first(rows.done[start:]), _sign_change(a0, rows.arrive[start:]))
                gs += rows.residuals(start, min(c + 1, k))
                g = np.array(gs[start:])
                if sliding:
                    c = min(c, start + first(np.abs(g) > slide_release))
                else:
                    c = min(c, start + _sign_change(g0, g))
                if i < c:
                    stage.hold(rows, i, c)
                    recorder.extend(rows, i, c, rows.controls(branch, i, c))
                    i = c
            except Exception:
                if k == 1:
                    raise
                # t is the last recorded row's: go on from the row after it
                size = 1
                break

            if c:
                t, g0, a0 = times[c - 1], gs[c - 1], float(rows.arrive[c - 1])
            if c == k:
                break

            # row c: its values against those of the row before it
            h = min(cfg.dt, cfg.t_max - t)
            g1, a1 = gs[c], float(rows.arrive[c])

            # candidate event times within (0, h]
            tau_done = None
            if rows.done[c]:
                tau_done = _bisect(t, h, lambda tm: read(tm).done[0])
            if a0 != 0.0 and a1 != 0.0 and (a0 > 0.0) != (a1 > 0.0):
                apos = a0 > 0.0
                tau_arr = _bisect(t, h, lambda tm: (read(tm).arrive[0] > 0.0) != apos)
                if (tau_done is None or tau_arr < tau_done) and read(t + tau_arr).done[0]:
                    tau_done = tau_arr
            tau_switch = None
            if sliding:
                if abs(g1) > slide_release:
                    # leave the slide regime at the end of this sample interval
                    tau_switch = h
            elif g0 != 0.0 and g1 != 0.0 and (g0 > 0.0) != (g1 > 0.0):
                pos0 = g0 > 0.0
                tau_switch = _bisect(t, h, lambda tm: (read(tm).residuals(0, 1)[0] > 0.0) != pos0)

            if tau_done is not None and (tau_switch is None or tau_done <= tau_switch):
                end = read(t + tau_done)
                recorder.events.append(Event(end.t[0], "step-complete", step_index))
                recorder.extend(end, 0, 1, end.controls(branch, 0, 1), FLAG_COMPLETE)
                stage.hold(end, 0, 1)
                return StageResult(t_end=end.t[0], z_end=end.state(0))

            if tau_switch is not None:
                at = read(t + tau_switch)
                t, z = at.t[0], at.state(0)
                fresh = True
                size = ROWS
                stage.hold(at, 0, 1)
                if sliding:
                    sliding = False
                    branch = stage.branch(z)
                    event, flag = Event(t, "surface-slide", step_index, "release"), FLAG_SLIDE
                    last_switch_t = None
                elif last_switch_t is not None and (t - last_switch_t) <= 4.0 * cfg.dt:
                    # chattering: enter the slide regime; release only when the
                    # residual escapes HYSTERESIS x the one-sample overshoot scale
                    sliding = True
                    floor = 1e-12 * (1.0 + max(abs(v) for v in z))
                    slide_release = HYSTERESIS * max(abs(g0), abs(g1), floor)
                    branch = stage.slide_branch(z)
                    event, flag = Event(t, "surface-slide", step_index, "enter"), FLAG_SLIDE
                    last_switch_t = t
                else:
                    last_switch_t = t
                    branch = stage.branch(z)
                    event, flag = Event(t, "branch-switch", step_index), FLAG_SWITCH
                recorder.events.append(event)
                recorder.extend(at, 0, 1, at.controls(branch, 0, 1), flag)
                flow = _Flow(stage.field(branch), t, z, cfg.dt, cfg.t_max, step_index)
                break

            # no event at row c: it is recorded with the plain rows after it
            start, g0, a0 = c + 1, g1, a1
