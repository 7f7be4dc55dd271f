"""Dormand-Prince 5(4) integration of closed loops with switching controls.

The engine advances one stepwise stage at a time (run_stage), which
returns the end time and state (t_end, z_end).  A stage object gives the
branch fields of its step, a deadline (math.inf when the step has none), a
hold check on the finished blocks, and reads batches of sample rows;
run_stage reads every sample through such a batch.  A batch is columns:
it gives its times t, its states y, and per row the completion test done,
the arrival coordinate arrive, residuals() and controls(branch), each a
whole-batch array.  Each branch field is integrated by an embedded 5(4) pair (Dormand &
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
at times that one numpy accumulate gives, the floats of adding dt one row
at a time.  The array is component-major, the transpose of an (n, k) C
array: its readers (the stage's control, residual, done band, arrive
coordinate and hold check, the chart maps and the writers) each take one
component at a time, and numpy runs its inner loop along the contiguous
axis, so a column is k contiguous floats rather than a view that steps
over the n components of each row.  The stage tests the rows as columns,
and run_stage reads each column once per batch, which costs a fixed part
per read besides the part per row.  So a flow runs up to AHEAD integrator steps past the next
sample, and one batch holds the rows of all of them: a pendulum step
covers about 100 rows at dt = 1e-4.  The steps are the error
controller's alone, so the record does not depend on how far the flow
runs ahead; a step past the next sample that fails ends the run-ahead, and
the rows a batch holds past an event are discarded with its flow.  The
record stays arrays: the Recorder joins each
column's batch slices on its first read, and np.concatenate keeps their
component-major layout.  A tuple is built only for one
state: the start and each event row, which the integrator restarts from.
A batch that fails is read again one row at a time up to the next event,
so a run ends at the row where a row-by-row run ends.  The integrator's
own states and stages stay tuples of floats, and so does the state its
field reads: a step has a handful of components, where numpy's per-call
cost outweighs its arithmetic.
"""

from __future__ import annotations

import bisect
import math
import operator
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
AHEAD = 8  # most integrator step attempts a flow makes past the next sample
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
        if not math.isfinite(self.dt):
            raise ValueError(f"dt must be finite, got {self.dt}")
        if not self.t_max > 0:
            raise ValueError("t_max must be positive")
        if not math.isfinite(self.t_max):
            # an infinite t_max would switch the Timeout guard off
            raise ValueError(f"t_max must be finite, got {self.t_max}")


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


_END = operator.itemgetter(1)  # the end time t_b of a _Flow piece


class _Flow:
    """The flow of one branch field from one state, with dense output.

    Dormand-Prince steps run ahead of the sample rows, their size set by
    the error norm alone; cover(t_lo, t_hi, t_far) integrates until the
    accepted steps reach t_hi, and then makes up to AHEAD more step
    attempts while they end before t_far.  rows(times) reads the
    continuous extension of the steps that hold them.  Each flow starts
    with a step of h0.

    How far a flow runs ahead never changes its steps: each step's size
    comes from the error of the one before.  An attempt past t_hi that
    fails (the field raises, or the state or error is not finite, or the
    step size underflows) ends the run-ahead with h unchanged, so the call
    whose t_hi lies past the step makes the same attempt under the rules
    of a step it needs: a failure within the row raises, and one that
    reaches past the row is retried cut at t_hi.
    """

    def __init__(self, f: Rhs, t0: float, z0: State, h0: float, t_max: float, step_index: int):
        self.f, self.t_max, self.step_index = f, t_max, step_index
        self.t, self.z, self.k = t0, z0, f(z0)
        self.h = h0
        self.pieces: list = []  # (t_a, t_b, coefficients) of the accepted steps, oldest first

    def cover(self, t_lo: float, t_hi: float, t_far: float = -math.inf) -> None:
        pieces = self.pieces
        while len(pieces) > 1 and pieces[0][1] <= t_lo:
            del pieces[0]
        limit = max(self.t_max, t_hi)
        spare = AHEAD
        while self.t < t_hi or (spare and self.t < min(limit, t_far)):
            optional = self.t >= t_hi
            spare -= optional
            ta = self.t
            tb = min(ta + self.h, limit)
            if not tb > ta:
                if optional:
                    return
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
                if optional:
                    return
                if not ahead:
                    raise NonFinite(f"non-finite state at t={tb:.6g} in step {self.step_index}")
                limit = t_hi
                continue
            z1, stages, err = out
            fac = 0.9 * err ** -0.2 if err > 0.0 else 10.0
            h = (tb - ta) * min(10.0, max(0.2, fac))
            if err <= 1.0:
                pieces.append((ta, tb, _dense_rows(self.z, z1, stages, tb - ta)))
                self.t, self.z, self.k = tb, z1, stages[-1]
            elif min(ta + h, limit) == tb:
                # the smaller step rounds to the same end: it would be retried forever
                if optional:
                    return
                raise NonFinite(f"step size underflow at t={ta:.6g} in step {self.step_index}")
            self.h = h

    def rows(self, times: np.ndarray) -> np.ndarray:
        """The states at ascending times, a float array, inside the covered
        steps, as a (len(times), n) array, component-major: the transpose
        of an (n, len(times)) C array, so each component is contiguous.  A
        time at the end of a step reads that step."""
        parts = []
        lo, k, last = 0, len(times), len(self.pieces) - 1
        for j in range(min(bisect.bisect_left(self.pieces, times[0], key=_END), last), last + 1):
            ta, tb, coef = self.pieces[j]
            hi = k if j == last else int(np.searchsorted(times, tb, side="right"))
            if hi > lo:
                # (n, 1) coefficient columns against the row of s: the
                # inner loop runs along the rows, not over n components
                a, b, c, d, e = coef[:, :, None]
                s = (times[lo:hi] - ta) / (tb - ta)
                s1 = 1.0 - s
                parts.append(a + s * (b + s1 * (c + s * (d + s1 * e))))
                lo = hi
                if lo == k:
                    break
        return (parts[0] if len(parts) == 1 else np.concatenate(parts, axis=1)).T


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


FLAG_NONE = 0
FLAG_SWITCH = 1
FLAG_COMPLETE = 2
FLAG_SLIDE = 3


def _joined(parts: list, empty: np.ndarray) -> np.ndarray:
    """The array that parts join to, which then replaces them."""
    if len(parts) != 1:
        parts[:] = [np.concatenate(parts) if parts else empty]
    return parts[0]


class Recorder:
    """Columnar trajectory accumulator (times, states, controls, event flags).

    times and controls are float arrays, states is a (k, n) float array and
    flags an integer array.  Each column keeps the batches' row slices as
    they are recorded and joins them on its first read.  The states'
    slices are component-major, and np.concatenate keeps its inputs'
    layout, so the joined states are too, with no transposing copy.
    """

    def __init__(self):
        self.events: list[Event] = []
        self._times, self._states, self._controls, self._flags = [], [], [], []

    times = property(lambda self: _joined(self._times, np.empty(0)))
    states = property(lambda self: _joined(self._states, np.empty((0, 0))))
    controls = property(lambda self: _joined(self._controls, np.empty(0)))
    flags = property(lambda self: _joined(self._flags, np.empty(0, dtype=int)))

    def __len__(self) -> int:
        return sum(map(len, self._times))

    def extend(self, rows, lo: int, hi: int, controls: np.ndarray, flag: int = FLAG_NONE) -> None:
        """Record rows lo..hi-1 of a batch, later than the last recorded
        row, with their controls (the batch's column) and a flag each."""
        self._times.append(rows.t[lo:hi])
        self._states.append(rows.y[lo:hi])
        self._controls.append(controls[lo:hi])
        self._flags.append(np.full(hi - lo, flag))


def run_stage(
    *,
    step_index: int,
    t0: float,
    z0: State,
    stage,
    cfg: IntegratorConfig,
    recorder: Recorder,
) -> tuple[float, State]:
    """Integrate one stepwise stage until its completion test holds, and
    return its end time and state (t_end, z_end).

    The stage object gives, for a state z:
      branch(z)        the branch in {-1, 0, +1} (u-minus, slide/zero, u-plus);
      field(b)         the closed-loop right side of branch b;
      slide_branch(z)  the branch that holds a chattering state on the surface;
      deadline         a time past which the stage fails with
                       deadline_error(t); math.inf when there is none;
    and, for a batch of at most ROWS sample rows at times t with states
    y, a (k, n) array, rows(t, y): the batch, with t and y, and with one
    value per row in each of its columns
      done              the completion test, a bool array;
      arrive            a coordinate that crosses zero transversally at the
                        instant the stage should complete (the block
                        velocity for curve-following policies), a float array;
      residuals()       the switching function: a sign change is a branch
                        switch, a float array;
      controls(branch)  the control value on a branch, for the record, a
                        float array.
    Each column covers every row of the batch, or raises.  y is
    component-major, the transpose of an (n, k) C array as _Flow.rows
    gives it, so each state component is a contiguous column of y.
    hold(rows, lo, hi) checks that rows lo..hi-1 of a batch keep the
    finished blocks pinned, and raises if one of them does not: the plain
    rows before they are recorded, and each event row and the end row.

    The branch field is integrated by Dormand-Prince steps of their own
    size (_Flow).  Samples are taken every cfg.dt from the last event
    time, read from the dense output.  A batch's sample times are one
    left-to-right accumulate of [t, dt, dt, ...]: each is the float that
    adding dt to the time before gives, as in a row-by-row run, and only
    the row at t_max takes the shorter step t_max - tk.  Events are tested
    between consecutive samples, and a sign change of the residual or of arrive,
    or an entry into done, is bisected on the dense output.  The done ball
    is narrower than one sample spacing near an arrival, so endpoint tests
    alone fly over it; crossings of arrive are bisected and done is tested
    at the crossing point itself.  After an event the integration restarts
    from the event state on the new branch.  Events go to recorder.events.
    The start row is recorded only by the first stage: a later stage starts
    on the row its predecessor ended on.

    Evaluations per sample: the flow integrates past the next sample and
    then makes up to AHEAD more step attempts, while they end before the
    last of the ROWS rows a batch can hold.  An attempt among them that
    fails ends them; the next batch whose next sample lies past that step
    makes it again, as a step it needs (_Flow).  The samples that the accepted steps
    cover, up to ROWS of them, are read as one batch, and its residuals
    and its controls on the current branch are read right after it, once
    each, over every row.  The rows before the first row that may hold an event
    are plain: they are held and recorded together with their slice of
    the controls.  That row goes through the event tests with the batch's
    values, and the batch goes on after it unless an event ends the batch.
    So a run without events tests each sample once, in about one stage
    call per batch (a stage that tests rows in another chart maps the
    whole batch there), and a batch that ends at an event has read the
    rows past it too, and the flow's steps past it are discarded with the
    flow.  The field's six evaluations per Dormand-Prince step are shared
    by all samples the step covers, and read one state each.  Event
    bisection and each event row read one-row batches from the steps
    already made.  After a batch fails, the flow makes no attempt past the
    next sample until the next event.

    One rule keeps the outcome of a row-by-row run, in which reading a row
    reads each of its columns: a batch of more than one row fails when
    reading it or its columns or testing its plain rows raises, or when it
    holds a non-finite state, and is then read again from its first
    unrecorded row in batches of one row until the next event.  So an
    error on a row past an event only makes the run read up to that event
    row by row.  In a one-row batch every error is that row's and
    propagates, so the first row that fails, and any event before it, end
    the stage.
    """
    deadline, read_rows = stage.deadline, stage.rows
    t, z = t0, z0

    def read(tm: float):
        """The one-row batch at time tm of the current flow."""
        ts = np.array([tm])
        return read_rows(ts, flow.rows(ts))

    branch = stage.branch(z)
    last_switch_t: float | None = None
    sliding = False
    slide_release = 0.0

    # at is the one-row batch of the start or of the last event: nothing is known there yet
    at = read_rows(np.array([t]), np.array([z], dtype=float))
    if not len(recorder):
        recorder.extend(at, 0, 1, at.controls(branch))
    flow = _Flow(stage.field(branch), t, z, cfg.dt, cfg.t_max, step_index)
    fresh = True
    size = ROWS  # rows per batch: one from a batch that fails up to the next event

    while True:
        if fresh and at.done[0]:
            recorder.events.append(Event(t, "step-complete", step_index))
            recorder.flags[-1] = FLAG_COMPLETE
            stage.hold(at, 0, 1)
            return t, z
        if t >= cfg.t_max:
            raise Timeout(f"t_max={cfg.t_max} reached in step {step_index}")
        if t > deadline:
            raise stage.deadline_error(t)
        if fresh:
            # g0 and a0: the residual and arrive of the last row tested for events
            g0 = float(at.residuals()[0])
            a0 = float(at.arrive[0])
            fresh = False

        # the batch: sample times by one np.add.accumulate of [t, dt, dt,
        # ...].  ufunc.accumulate adds left to right, so each time is the
        # float that adding dt to the time before gives, as one row at a
        # time does.  The times run through the first row at t_max or past
        # the deadline; only that row can take the step t_max - tk, shorter
        # than dt, and the scalar rule recomputes it.  n reaches two rows
        # past the covered steps; where rounding leaves it short, the batch
        # ends early and the next one goes on with the same times
        flow.cover(t, t + min(cfg.dt, cfg.t_max - t), t + size * cfg.dt)
        n = int(min(size, (flow.t - t) / cfg.dt + 2.0))
        steps = np.full(n + 1, cfg.dt)
        steps[0] = t
        times = np.add.accumulate(steps)[1:]
        stop = first((times >= cfg.t_max) | (times > deadline))
        if stop < n:
            tk = float(times[stop - 1]) if stop else t
            times[stop] = tk + min(cfg.dt, cfg.t_max - tk)
            n = stop + 1
        k = first(times[:n] > flow.t)
        times = times[:k]
        rows = None
        i = start = 0  # the first row not yet recorded, and not yet tested for events
        while True:
            try:
                if rows is None:
                    y = flow.rows(times)
                    bad = first(~np.isfinite(y).all(axis=1))
                    if bad < k:
                        raise NonFinite(f"non-finite state at t={times[bad]:.6g} in step {step_index}")
                    rows = read_rows(times, y)
                    gs, us = rows.residuals(), rows.controls(branch)
                # c: the first row from start that may hold an event
                c = start + min(first(rows.done[start:]), _sign_change(a0, rows.arrive[start:]))
                g = gs[start : c + 1]
                if sliding:
                    c = min(c, start + first(np.abs(g) > slide_release))
                else:
                    c = min(c, start + _sign_change(g0, g))
                if i < c:
                    stage.hold(rows, i, c)
                    recorder.extend(rows, i, c, us)
                    i = c
            except Exception:
                if k == 1:
                    raise
                # t is the last recorded row's: go on from the row after it
                size = 1
                break

            if c:
                t, g0, a0 = float(times[c - 1]), float(gs[c - 1]), float(rows.arrive[c - 1])
            if c == k:
                break

            # row c: its values against those of the row before it
            h = min(cfg.dt, cfg.t_max - t)
            g1, a1 = float(gs[c]), float(rows.arrive[c])

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
                tau_switch = _bisect(t, h, lambda tm: (read(tm).residuals()[0] > 0.0) != pos0)

            if tau_done is not None and (tau_switch is None or tau_done <= tau_switch):
                end = read(t + tau_done)
                t = float(end.t[0])
                recorder.events.append(Event(t, "step-complete", step_index))
                recorder.extend(end, 0, 1, end.controls(branch), FLAG_COMPLETE)
                stage.hold(end, 0, 1)
                return t, tuple(end.y[0].tolist())

            if tau_switch is not None:
                at = read(t + tau_switch)
                t, z = float(at.t[0]), tuple(at.y[0].tolist())
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
                recorder.extend(at, 0, 1, at.controls(branch), flag)
                flow = _Flow(stage.field(branch), t, z, cfg.dt, cfg.t_max, step_index)
                break

            # no event at row c: it is recorded with the plain rows after it
            start, g0, a0 = c + 1, g1, a1
