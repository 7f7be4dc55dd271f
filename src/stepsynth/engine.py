"""Dormand-Prince 5(4) integration of closed loops with switching controls.

run_stage advances one stepwise stage and returns its end time and state.
Each branch field is integrated by an embedded 5(4) pair (Dormand &
Prince 1980) with adaptive steps, rtol = atol = TOL in the RMS error norm,
and Hairer's fourth-order dense output; every flow starts with a step of
H0.  Events are found on the integrator's own steps (Shampine & Thompson
2000): the stage's completion test, arrival coordinate and switching test
are read at PROBES evenly spaced points of each accepted step, and the
first change is bisected on the dense output to EVENT_TOL.  After an event
the stage picks the branch (Filippov's test), and the integration restarts
from the event state.  cfg.dt only places the recorded rows: every dt from
the last event, read from the dense output up to the next event.
rk4_step, one classical Runge-Kutta step, is kept as a reference
integrator; run_stage does not call it.

The work is in the rows (3e4 to 1e5 per run at dt = 1e-4, from 1e2 to 2e3
integrator steps), so they are read as (k, n) numpy arrays, many at a
time: a flow runs up to AHEAD step attempts past the next row, and its
probes and rows are each read as one batch.  The arrays are
component-major, the transpose of an (n, k) C array, so each component
is a contiguous column for the stage, the chart maps and the writers.
The steps are the error controller's alone, so how far a flow runs ahead
changes no record.  The integrator's own states and stages stay tuples of
floats: a step has a handful of components, where numpy's per-call cost
outweighs its arithmetic.
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
H0 = 1e-4  # the first step of every flow
PROBES = 4  # points per accepted step where events are tested: s = 1/4, 1/2, 3/4, 1
ROWS = 4096  # most sample rows per batch
AHEAD = 8  # most integrator step attempts a flow makes past the next sample


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
    if not all(map(math.isfinite, z1)):
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
    with a step of H0.

    How far a flow runs ahead never changes its steps: each step's size
    comes from the error of the one before, and a step that fails (the
    field raises, or the state or error is not finite) is retried at a
    fifth of its size, until the size underflows.  That raises the
    failure, unless the attempt lies past t_hi: then it ends the run-ahead
    with h unchanged, and the call that needs the step makes it again.
    """

    def __init__(self, f: Rhs, t0: float, z0: State, t_max: float, step_index: int):
        self.f, self.t_max, self.step_index = f, t_max, step_index
        self.t, self.z, self.k = t0, z0, f(z0)
        self.h = H0
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
            failure = None
            try:
                out = _dp_step(self.f, self.z, self.k, tb - ta)
            except (ArithmeticError, ValueError, RuntimeError) as exc:
                out, failure = None, exc
            z1, stages, err = out if out and math.isfinite(out[2]) else (None, None, math.inf)
            if err <= 1.0:
                pieces.append((ta, tb, _dense_rows(self.z, z1, stages, tb - ta)))
                self.t, self.z, self.k = tb, z1, stages[-1]
            # from the error, and a fifth of a step that failed
            h = (tb - ta) * (min(10.0, max(0.2, 0.9 * err ** -0.2)) if err > 0.0 else 10.0)
            if err > 1.0 and not ta < min(ta + h, limit) < tb:
                if optional:
                    return
                if z1 is not None:
                    raise NonFinite(f"step size underflow at t={ta:.6g} in step {self.step_index}")
                raise failure or NonFinite(f"non-finite state at t={tb:.6g} in step {self.step_index}")
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

    crossed must be False at tau=0+ and True at tau=h.  A point where
    crossed raises counts as crossed: a failure past an event leaves the
    event where it is.
    """
    lo, hi = 0.0, h
    while hi - lo > EVENT_TOL:
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            break
        try:
            hit = crossed(t + mid)
        except Exception:
            hit = True
        if hit:
            hi = mid
        else:
            lo = mid
    return hi


def first(hits: np.ndarray) -> int:
    """Index of the first True in hits, or len(hits)."""
    idx = np.flatnonzero(hits)
    return int(idx[0]) if idx.size else len(hits)


_FRACS = np.arange(1, PROBES + 1) / PROBES


def _probe_times(pieces: list) -> np.ndarray:
    """PROBES evenly spaced times of each step, the last at its end."""
    ta, tb = np.array([p[:2] for p in pieces]).T
    times = ta[:, None] + (tb - ta)[:, None] * _FRACS
    times[:, -1] = tb
    return times.ravel()


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
      branch(z)  the branch in {-1, 0, +1} (u-minus, surface, u-plus) of
                 the side of the switching surface z lies on;
      switch(z)  the branch to take at a switching event at z;
      field(b)   the closed-loop right side of branch b;
      deadline   a time past which the stage fails with deadline_error(t),
                 math.inf when there is none;
    and, for states y, a (k, n) component-major array, at times t,
    rows(t, y): a batch with t and y and, one value per row,
      done         the completion test, a bool array;
      arrive       a coordinate that crosses zero transversally where the
                   stage should complete (the block velocity for
                   curve-following policies), a float array;
      off(b)       True where the state has left branch b's course;
      controls(b)  the control on branch b, for the record.
    hold(rows, lo, hi) raises if rows lo..hi-1 of a batch leave the
    finished blocks unpinned.

    done, arrive and off(branch) are read at PROBES points of each accepted
    step of the flow (_Flow), from the start or the last event on.  A
    crossing of arrive or a rise of off, else an entry into done, is
    bisected on the dense output.  There the stage completes if done
    holds; a rise of off switches to switch(z), and an arrive crossing
    outside done to branch(z), when it differs from the branch.  Then the
    rows before the event are read, held and recorded with their
    controls, every cfg.dt from the last event by the floats of repeated
    addition, through the first row at t_max or past the deadline, which
    ends the stage.  A batch of rows that raises is read again one row at
    a time, so the first row that fails raises.  A probe that raises
    counts as a change, and an event whose state raises ends the stage
    after the rows before it.  Events go to recorder.events.  The start
    row is recorded only by the first stage: a later stage starts on the
    row its predecessor ended on.
    """
    deadline, read_rows, dt, t_max = stage.deadline, stage.rows, cfg.dt, cfg.t_max

    def read(tm: float):
        """The one-row batch at time tm of the current flow."""
        ts = np.array([tm])
        return read_rows(ts, flow.rows(ts))

    def record(times: np.ndarray) -> None:
        """Hold and record the rows at times, or raise what the first
        failing row raises."""
        try:
            rows = read_rows(times, flow.rows(times))
            stage.hold(rows, 0, len(times))
            recorder.extend(rows, 0, len(times), rows.controls(branch))
        except Exception:
            if len(times) == 1:
                raise
            for j in range(len(times)):
                record(times[j : j + 1])

    def rows_before(te: float) -> float:
        """Record the rows after t that the flow covers, before te and
        through the first row at t_max or past the deadline; the time of
        the last one."""
        tk = t
        while tk < t_max and tk <= deadline:
            n = int(min(ROWS, (min(flow.t, te) - tk) / dt + 2.0))
            steps = np.full(n + 1, dt)
            steps[0] = tk
            times = np.add.accumulate(steps)[1:]
            stop = first((times >= t_max) | (times > deadline))
            if stop < n:
                # only the row at t_max takes a step shorter than dt
                before = float(times[stop - 1]) if stop else tk
                times[stop] = before + min(dt, t_max - before)
                n = stop + 1
            times = times[: first((times[:n] > flow.t) | (times[:n] >= te))]
            if not len(times):
                break
            record(times)
            tk = float(times[-1])
        return tk

    def values(batch) -> tuple:
        """done, arrive and off of a one-row batch."""
        return bool(batch.done[0]), float(batch.arrive[0]), bool(batch.off(branch)[0])

    def moved(now: tuple, before: tuple) -> bool:
        """arrive crosses zero or off rises from before (arrive, off) to now
        (done, arrive, off)."""
        _, a, o = now
        return (before[0] != 0.0 != a and (a > 0.0) != (before[0] > 0.0)) or (o and not before[1])

    def events(times: np.ndarray):
        """The first event at the probe times, tested from the last point
        on: (te, batch at te, new branch), (te, exception, None) for a
        failure, or None."""
        nonlocal last
        try:
            batch = read_rows(times, flow.rows(times))
            done, arrive, off = batch.done, batch.arrive, batch.off(branch)
            a, o = np.concatenate(([last[1]], arrive)), np.concatenate(([last[2]], off))
            crossed = (a[:-1] != 0.0) & (a[1:] != 0.0) & ((a[:-1] > 0.0) != (a[1:] > 0.0))
            checks = np.flatnonzero(done | crossed | (o[1:] & ~o[:-1])).tolist()
            now = list(zip(done.tolist(), arrive.tolist(), off.tolist()))
        except Exception:
            if len(times) > 1:  # one probe at a time
                return next((found for found in map(events, np.split(times, len(times))) if found), None)
            checks, now = [0], [None]  # a probe that raises counts as a change
        for j in checks:
            if j:
                last = (float(times[j - 1]), *now[j - 1][1:])
            while now[j] is None or now[j][0] or moved(now[j], last[1:]):
                # a crossing or rise, else the entry into done
                before, cross = last[1:], now[j] is None or moved(now[j], last[1:])
                test = lambda tm: moved(values(read(tm)), before) if cross else read(tm).done[0]
                te = last[0] + _bisect(last[0], float(times[j]) - last[0], test)
                try:
                    at = read(te)
                    here = values(at)
                    if here[0]:
                        return te, at, None
                    # a rise of off is a switching event; an arrival outside
                    # done leaves the surface, for the branch of its side
                    switch = stage.switch if here[2] and not before[1] else stage.branch
                    new = switch(tuple(at.y[0].tolist())) if moved(here, before) else branch
                except Exception as exc:
                    return te, exc, None
                if new != branch:
                    return te, at, new
                last = (te, *here[1:])
        last = (float(times[-1]), *now[-1][1:])
        return None

    t, z = t0, z0
    branch = stage.branch(z)
    # at is the one-row batch of the start or of the last event
    at = read_rows(np.array([t]), np.array([z], dtype=float))
    if not len(recorder):
        recorder.extend(at, 0, 1, at.controls(branch))
    while True:
        if at.done[0]:
            recorder.events.append(Event(t, "step-complete", step_index))
            recorder.flags[-1] = FLAG_COMPLETE
            stage.hold(at, 0, 1)
            return t, z
        flow = _Flow(stage.field(branch), t, z, t_max, step_index)
        last = (t, float(at.arrive[0]), bool(at.off(branch)[0]))  # the last point tested for events
        while True:
            if t >= t_max:
                raise Timeout(f"t_max={t_max} reached in step {step_index}")
            if t > deadline:
                raise stage.deadline_error(t)
            flow.cover(t, t + min(dt, t_max - t), t + ROWS * dt)
            fresh = [p for p in flow.pieces if p[0] >= last[0]]
            found = events(_probe_times(fresh)) if fresh else None
            t = rows_before(found[0] if found else math.inf)
            if found and t < t_max and t <= deadline:
                break
        _, at, new = found
        if isinstance(at, Exception):
            raise at
        t, z = float(at.t[0]), tuple(at.y[0].tolist())
        flag = FLAG_NONE  # a completion row: flagged above
        if new is not None:
            stage.hold(at, 0, 1)
            slide = "" if new and branch else "enter" if branch else "release"
            recorder.events.append(Event(t, "surface-slide" if slide else "branch-switch", step_index, slide))
            flag, branch = FLAG_SLIDE if slide else FLAG_SWITCH, new
        recorder.extend(at, 0, 1, at.controls(branch), flag)
