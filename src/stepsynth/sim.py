"""Scenario simulation driver plus CSV/JSON/SVG emitters.

simulate() runs the stepwise policy stack of a scenario from an
original-chart initial state and reports the trajectory in both charts.
By default the block-form dynamics are integrated (the chart where the
switching functions live); chart="x" integrates the original right side
instead, as a transform cross-check, and reports the z that the run's
callbacks mapped each sample to through to_z.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass

from . import engine, stepwise
from .scenarios import Scenario


@dataclass
class Trajectory:
    """Sampled closed-loop run: both charts, controls, and typed events."""

    times: list
    states_x: list
    states_z: list
    controls: list
    flags: list
    events: list  # (time, kind, detail) tuples, time-sorted

    def __len__(self) -> int:
        return len(self.times)


@dataclass
class RunSummary:
    scenario: str
    x0: list
    params: dict
    T_total: float
    step_times: list
    theta_bounds: list
    hold_residuals: list
    final_state_norm: float
    chart: str
    dt: float
    delta: float
    schema_version: int = 1

    def to_json_dict(self) -> dict:
        """The fields in declaration order, schema_version first."""
        fields = asdict(self)
        return {"schema_version": fields.pop("schema_version"), **fields}


def simulate(
    scn: Scenario,
    x0,
    cfg: engine.IntegratorConfig,
    chart: str = "z",
    delta: float = stepwise.DONE_TOL,
    x0_chart: str = "x",
) -> tuple[Trajectory, RunSummary]:
    """Run every step of the scenario from x0 (original chart).

    Returns the sampled trajectory and a summary whose final_state_norm is
    measured in the original chart.  Raises engine.Timeout at cfg.t_max and
    the stepwise errors (StepTimeout, HoldViolation) as they occur.
    x0_chart="z" reads x0 as a block-chart point instead (mapped back
    through from_z for the record).
    """
    x0 = tuple(float(v) for v in x0)
    if len(x0) != scn.n:
        raise ValueError(f"x0 must have length {scn.n}, got {len(x0)}")
    if not all(math.isfinite(v) for v in x0):
        raise ValueError(f"x0 must be finite, got {x0}")
    if chart not in ("z", "x"):
        raise ValueError(f"chart must be 'z' or 'x', got {chart!r}")
    if x0_chart not in ("x", "z"):
        raise ValueError(f"x0_chart must be 'x' or 'z', got {x0_chart!r}")

    given = x0
    if x0_chart == "z":
        x0 = tuple(float(v) for v in scn.from_z(given))
    # the run starts in the chart it integrates, mapped there only when
    # given in the other one
    if chart == "z":
        z0 = given if x0_chart == "z" else scn.to_z(x0)
        run, rec = stepwise.orchestrate(scn.system, z0, scn.policies, cfg, done_tol=delta)
        states_z = rec.states
        states_x = [tuple(scn.from_z(z)) for z in states_z]
    else:
        run, rec = stepwise.orchestrate(
            scn.system, x0, scn.policies, cfg, done_tol=delta, chart=(scn.f, scn.to_z)
        )
        states_x = rec.states
        states_z = [tuple(z) for z in rec.states_z]

    traj = Trajectory(
        times=rec.times,
        states_x=states_x,
        states_z=states_z,
        controls=rec.controls,
        flags=rec.flags,
        events=[(ev.t, ev.kind, ev.detail) for ev in rec.events],
    )
    final_norm = max(abs(v) for v in states_x[-1]) if states_x else 0.0
    summary = RunSummary(
        scenario=scn.name,
        x0=list(x0),
        params=dict(scn.params),
        T_total=run.T_total,
        step_times=list(run.step_times),
        theta_bounds=list(run.theta_bounds),
        hold_residuals=list(run.hold_residuals),
        final_state_norm=final_norm,
        chart=chart,
        dt=cfg.dt,
        delta=delta,
    )
    return traj, summary


def emit_csv(traj: Trajectory, path) -> None:
    """t, x1..xn, z1..zn, u, event columns; %.12e; header row."""
    n = len(traj.states_x[0]) if traj.states_x else 0
    header = (
        ["t"]
        + [f"x{i}" for i in range(1, n + 1)]
        + [f"z{i}" for i in range(1, n + 1)]
        + ["u", "event"]
    )
    try:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(",".join(header) + "\n")
            fmt = ",".join(["%.12e"] * (2 * n + 2)) + ",%d\n"
            for t, x, z, u, flag in zip(
                traj.times, traj.states_x, traj.states_z, traj.controls, traj.flags
            ):
                fh.write(fmt % (t, *x, *z, u, flag))
    except OSError as exc:
        raise OSError(f"could not write CSV to {path}: {exc}") from exc


def emit_json(summary: RunSummary, path) -> None:
    try:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(summary.to_json_dict(), fh, indent=2)
            fh.write("\n")
    except OSError as exc:
        raise OSError(f"could not write JSON to {path}: {exc}") from exc


_SVG_MAX_POINTS = 4000


def emit_svg(traj: Trajectory, projection: tuple, path) -> None:
    """Polyline of the (i, j) state projection with circles at events.

    projection uses 1-based original-chart coordinates; the sample list is
    strided down to at most 4000 points, event samples always kept.
    """
    n = len(traj.states_x[0]) if traj.states_x else 0
    i, j = projection
    if traj.states_x and not (1 <= i <= n and 1 <= j <= n):
        raise ValueError(f"projection {projection} outside 1..{n}")

    stride = max(1, math.ceil(len(traj.times) / _SVG_MAX_POINTS))
    pts = []
    marks = []
    for idx, (x, flag) in enumerate(zip(traj.states_x, traj.flags)):
        if idx % stride == 0 or flag or idx == len(traj.times) - 1:
            pts.append((x[i - 1], x[j - 1]))
            if flag:
                marks.append((x[i - 1], x[j - 1]))

    xs = [p[0] for p in pts] or [0.0]
    ys = [p[1] for p in pts] or [0.0]
    lo_x, hi_x = min(xs), max(xs)
    lo_y, hi_y = min(ys), max(ys)
    pad_x = 0.05 * (hi_x - lo_x or 1.0)
    pad_y = 0.05 * (hi_y - lo_y or 1.0)
    view = (lo_x - pad_x, lo_y - pad_y, (hi_x - lo_x) + 2 * pad_x, (hi_y - lo_y) + 2 * pad_y)
    # svg y grows downward: flip the second coordinate
    flip = lambda y: (view[1] + view[3]) - (y - view[1])
    poly = " ".join(f"{px:.6g},{flip(py):.6g}" for px, py in pts)
    width = 0.002 * max(view[2], view[3])
    radius = 0.008 * max(view[2], view[3])
    body = [
        f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="{view[0]:.6g} {view[1]:.6g} {view[2]:.6g} {view[3]:.6g}">',
        f'<polyline points="{poly}" fill="none" stroke="black" stroke-width="{width:.6g}"/>',
    ]
    body += [
        f'<circle cx="{px:.6g}" cy="{flip(py):.6g}" r="{radius:.6g}" fill="red"/>'
        for px, py in marks
    ]
    body.append("</svg>")
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("\n".join(body) + "\n")
    except OSError as exc:
        raise OSError(f"could not write SVG to {path}: {exc}") from exc


def default_projections(n: int) -> list:
    """Phase-plane pairs emitted by the CLI for an n-state scenario."""
    if n >= 4:
        return [(1, 2), (3, 4)]
    if n == 3:
        return [(1, 2), (2, 3)]
    return [(1, 2)]
