"""Scenario simulation driver plus CSV/JSON/SVG emitters.

simulate() runs the stepwise policy stack of a scenario from an
original-chart initial state and reports the trajectory in both charts.
By default the block-form dynamics are integrated (the chart where the
switching functions live); chart="x" integrates the original right side
instead, as a transform cross-check.

The recorded states stay (k, n) float arrays from the engine's Recorder
to the files.  The run records only the chart it integrates; the record
goes to the other chart in one call of the scenario's from_z or to_z on
its columns (the transpose), which gives the same floats as one call per
row.  emit_csv assembles the bytes of a chunk of rows with numpy, and
emit_svg converts only the rows it draws to Python floats.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass

import numpy as np

from . import engine, stepwise
from .scenarios import Scenario


@dataclass
class Trajectory:
    """Sampled closed-loop run: both charts, controls, and typed events.

    states_x and states_z are (k, n) float arrays, one row per sample;
    times, controls and flags are lists.  The emitters also take
    trajectories built by hand with lists of state tuples.
    """

    times: list
    states_x: np.ndarray
    states_z: np.ndarray
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
        states_x = np.column_stack(scn.from_z(states_z.T))
    else:
        run, rec = stepwise.orchestrate(
            scn.system, x0, scn.policies, cfg, done_tol=delta, chart=(scn.f, scn.to_z)
        )
        states_x = rec.states
        states_z = np.column_stack(scn.to_z(states_x.T))

    traj = Trajectory(
        times=rec.times,
        states_x=states_x,
        states_z=states_z,
        controls=rec.controls,
        flags=rec.flags,
        events=[(ev.t, ev.kind, ev.detail) for ev in rec.events],
    )
    final_norm = max(map(abs, states_x[-1].tolist())) if len(states_x) else 0.0
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


def _as_rows(states) -> np.ndarray:
    """states as a (k, n) float array, also when built by hand as a list
    of tuples; (0, 0) when there are none."""
    rows = np.asarray(states, dtype=float)
    return rows.reshape(len(rows), rows.shape[1] if len(rows) else 0)


_CSV_CHUNK = 1024  # rows assembled as bytes at a time

# A cell's "%.12e" bytes and its comma sit in a slot of 21 bytes,
# [-]d.dddddddddddde±dd[d], with a 0 byte where there is no '-' or no third
# exponent digit; the 0 bytes are dropped when a chunk is written.  The 12
# decimals are three groups of four digits, each written as one uint32 of
# their bytes, and so is the exponent's sign and digits.
_CELL = np.dtype(
    {
        "names": ["sign", "lead", "dot", "g1", "g2", "g3", "e", "exp", "comma"],
        "formats": ["u1", "u1", "u1", "<u4", "<u4", "<u4", "u1", "<u4", "u1"],
        "offsets": [0, 1, 2, 3, 7, 11, 15, 16, 20],
        "itemsize": 21,
    }
)
_GROUPS = np.arange(10_000, dtype=np.uint16)[:, None] // np.array([1000, 100, 10, 1], np.uint16) % 10
_GROUPS = (_GROUPS + ord("0")).astype(np.uint8).view("<u4").ravel()
_EXPONENTS = np.frombuffer(b"".join((b"%+03d" % k).ljust(4, b"\0") for k in range(-300, 301)), "<u4")
_POW10 = np.array([float(f"1e{k}") for k in range(-300, 301)])  # correctly rounded
# s = |v|·10^(12-e) carries two roundings (the power of ten and the
# product), an error below 1e13·2^-52 < 0.0023: a mantissa n = rint(s) with
# |s - n| under this margin is the correctly rounded one
_MARGIN = 0.5 - 1 / 64


def _cells(v: np.ndarray) -> np.ndarray:
    """The float vector v as _CELL slots, each one cell's "%.12e" and a comma.

    The 13 digits come from numpy arithmetic where they are provably those
    of Python's correctly rounded "%.12e"; the other cells (0, nan, ±inf,
    |v| outside (1e-280, 1e280), s within 1/64 of a rounding tie or
    outside [1e12, 1e13 - 1/2)) are formatted by Python, in one % call.
    """
    a = np.abs(v)
    # inside the cuts 10^(12-e) is a normal float of _POW10
    exact = (a > 1e-280) & (a < 1e280)
    a = np.where(exact, a, 1.0)
    e = np.floor(np.log10(a)).astype(np.int64)
    s = a * _POW10[312 - e]
    n = np.rint(s)
    # n is the mantissa at exponent e only for s in [1e12, 1e13 - 1/2): a
    # mantissa rounding to 1e13 belongs to e + 1, and where log10 misses
    # the decade s falls outside too
    exact &= (s >= 1e12) & (s < 1e13 - 0.5) & (np.abs(s - n) < _MARGIN)

    # n = lead·10^12 + g1·10^8 + g2·10^4 + g3, from its two halves of 7
    # and 6 digits, which fit int32
    hi, lo = np.divmod(n.astype(np.int64), 10**6)
    lead, hi = np.divmod(hi.astype(np.int32), 10**6)
    lo = lo.astype(np.int32)
    cells = np.empty(len(v), _CELL)
    cells["sign"] = np.where(v < 0, ord("-"), 0)
    cells["lead"] = lead + ord("0")
    cells["dot"] = ord(".")
    cells["g1"] = _GROUPS[hi // 100]
    cells["g2"] = _GROUPS[hi % 100 * 100 + lo // 10**4]
    cells["g3"] = _GROUPS[lo % 10**4]
    cells["e"] = ord("e")
    cells["exp"] = _EXPONENTS[e + 300]
    cells["comma"] = ord(",")

    rest = np.flatnonzero(~exact)
    if len(rest):
        # "% -20.12e" puts a space where there is no '-' and pads to 20
        # bytes on the right: each space becomes a 0 byte
        text = ("% -20.12e" * len(rest)) % tuple(v[rest].tolist())
        raw = np.frombuffer(text.replace(" ", "\0").encode("ascii"), np.uint8)
        cells.view(np.uint8).reshape(-1, _CELL.itemsize)[rest, :20] = raw.reshape(-1, 20)
    return cells


def emit_csv(traj: Trajectory, path) -> None:
    """t, x1..xn, z1..zn, u, event columns; %.12e; header row.

    The cells are byte for byte Python's "%.12e" and the event column is
    the flag's one digit; a flag outside 0..9 raises ValueError before the
    file is opened.
    """
    xs, zs = _as_rows(traj.states_x), _as_rows(traj.states_z)
    n = xs.shape[1]
    flags = np.asarray(traj.flags)
    bad = flags[~np.isin(flags, np.arange(10))]
    if len(bad):
        raise ValueError(f"event flag {bad[0].item()!r} is not one digit 0..9")
    header = (
        ["t"]
        + [f"x{i}" for i in range(1, n + 1)]
        + [f"z{i}" for i in range(1, n + 1)]
        + ["u", "event"]
    )
    try:
        with open(path, "wb") as fh:
            fh.write((",".join(header) + "\n").encode("ascii"))
            for lo in range(0, len(xs), _CSV_CHUNK):
                hi = lo + _CSV_CHUNK
                cells = np.column_stack((traj.times[lo:hi], xs[lo:hi], zs[lo:hi], traj.controls[lo:hi]))
                k = len(cells)
                rows = np.empty((k, cells.shape[1] * _CELL.itemsize + 2), np.uint8)
                rows[:, :-2] = _cells(cells.ravel()).view(np.uint8).reshape(k, -1)
                rows[:, -2] = flags[lo:hi] + ord("0")
                rows[:, -1] = ord("\n")
                fh.write(rows.tobytes().replace(b"\0", b""))
    except OSError as exc:
        raise OSError(f"could not write CSV to {path}: {exc}") from exc


def emit_json(summary: RunSummary, path) -> None:
    """The summary as strict JSON: a non-finite field raises ValueError
    before the file is opened."""
    text = json.dumps(summary.to_json_dict(), indent=2, allow_nan=False) + "\n"
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise OSError(f"could not write JSON to {path}: {exc}") from exc


_SVG_MAX_POINTS = 4000


def emit_svg(traj: Trajectory, projection: tuple, path) -> None:
    """Polyline of the (i, j) state projection with circles at events.

    projection uses 1-based original-chart coordinates; the sample list is
    strided down to at most 4000 points, event samples always kept.
    """
    states = _as_rows(traj.states_x)
    k, n = states.shape
    i, j = projection
    if k and not (1 <= i <= n and 1 <= j <= n):
        raise ValueError(f"projection {projection} outside 1..{n}")

    stride = max(1, math.ceil(len(traj.times) / _SVG_MAX_POINTS))
    flagged = np.asarray(traj.flags) != 0
    kept = flagged.copy()
    kept[::stride] = True
    kept[-1:] = True
    xy = states[:, [i - 1, j - 1]] if k else np.empty((0, 2))
    pts = xy[kept].tolist()
    marks = xy[flagged].tolist()

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
