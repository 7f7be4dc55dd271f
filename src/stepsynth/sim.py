"""Scenario simulation driver plus CSV/JSON/SVG emitters.

simulate() runs the stepwise policy stack of a scenario from an
original-chart initial state and reports the trajectory in both charts.
By default the block-form dynamics are integrated (the chart where the
switching functions live); chart="x" integrates the original right side
instead, as a transform cross-check.

The record's four columns stay numpy arrays from the engine's Recorder
to the files.  The states are component-major, (k, n) arrays that are
the transpose of (n, k) C arrays, as the engine's dense output gives them:
every step that reads them takes one component at a time, which numpy
runs fastest along a contiguous column.  The run records only the chart
it integrates; the record goes to the other chart in one call of the
scenario's from_z or to_z on its columns (the transpose), which gives the
same floats as one call per row, and whose columns are stacked in the
same layout.  emit_csv assembles the bytes of a chunk of rows with numpy:
copying the chunk into a row-major buffer is its one transposition, the
digits of most cells come from exact float arithmetic, the rest from
Python's %, and the chunk's padding 0 bytes go in one bytes.translate.
emit_svg converts only the rows it draws to Python floats, and formats
the polyline's points in one % call.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import asdict, dataclass

import numpy as np

from . import engine, stepwise
from .scenarios import Scenario


@dataclass
class Trajectory:
    """Sampled closed-loop run: both charts, controls, and typed events.

    times and controls are float arrays, flags an integer array, and
    states_x and states_z are (k, n) float arrays, one row per sample,
    component-major as simulate gives them (each coordinate's column is
    contiguous).  The emitters write the same bytes for any memory order,
    and also take trajectories built by hand with lists.
    """

    times: np.ndarray
    states_x: np.ndarray
    states_z: np.ndarray
    controls: np.ndarray
    flags: np.ndarray
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
        states_x = np.array(scn.from_z(states_z.T)).T
    else:
        run, rec = stepwise.orchestrate(
            scn.system, x0, scn.policies, cfg, done_tol=delta, chart=(scn.f, scn.to_z)
        )
        states_x = rec.states
        states_z = np.array(scn.to_z(states_x.T)).T

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
# the slot with its constant bytes '.', 'e' and ',', repeated for a chunk
_BLANK = np.zeros(1, _CELL)
_BLANK[["dot", "e", "comma"]] = (ord("."), ord("e"), ord(","))
_GROUPS = np.arange(10_000, dtype=np.uint16)[:, None] // np.array([1000, 100, 10, 1], np.uint16) % 10
_GROUPS = (_GROUPS + ord("0")).astype(np.uint8).view("<u4").ravel()
_EXPONENTS = np.frombuffer(b"".join((b"%+03d" % k).ljust(4, b"\0") for k in range(-300, 301)), "<u4")
_POW10 = np.array([float(f"1e{k}") for k in range(-300, 301)])  # correctly rounded
# s = |v|·10^(12-e) carries two roundings (the power of ten and the
# product), an error below 1e13·2^-52 < 0.0023 < 1/256: a mantissa
# n = rint(s) with |s - n| under this margin, s more than 1/256 from a
# rounding tie, is the correctly rounded one
_MARGIN = 0.5 - 1 / 256


def _cells(v: np.ndarray) -> np.ndarray:
    """The float vector v as _CELL slots, each one cell's "%.12e" and a comma.

    The 13 digits come from numpy arithmetic where they are provably those
    of Python's correctly rounded "%.12e", and are split into groups in
    exact float arithmetic; the other cells (0, nan, ±inf, |v| outside
    (1e-280, 1e280), s within 1/256 of a rounding tie or outside
    [1e12, 1e13 - 1/2)) are formatted by Python, in one % call.
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

    # n = lead·10^12 + g1·10^8 + g2·10^4 + g3, split in float arithmetic.
    # n and each remainder r are integers below 2^53, so the exact quotient
    # of each division below is q + f, q < 2^14 an integer and f = 0 or
    # 1e-12 <= f <= 1 - 1e-12, while the float quotient is off by at most
    # half an ulp of a number below 2^14, 2^-40 < 1e-12: floor gives q
    # exactly, and the products and differences are exact integers.  This
    # holds on every cell, so each group indexes _GROUPS inside 0..9999
    lead = np.floor(n / 1e12)
    r = n - lead * 1e12
    g1 = np.floor(r / 1e8)
    r -= g1 * 1e8
    g2 = np.floor(r / 1e4)
    r -= g2 * 1e4
    cells = np.repeat(_BLANK, len(v))
    cells["sign"] = (v < 0) * np.uint8(ord("-"))
    cells["lead"] = lead + ord("0")
    cells["g1"] = _GROUPS[g1.astype(np.intp)]
    cells["g2"] = _GROUPS[g2.astype(np.intp)]
    cells["g3"] = _GROUPS[r.astype(np.intp)]
    cells["exp"] = _EXPONENTS[e + 300]

    rest = np.flatnonzero(~exact)
    if len(rest):
        # "% -20.12e," fills a slot: a space where there is no '-' and
        # padding to 20 bytes on the right, each space becoming a 0 byte
        text = ("% -20.12e," * len(rest)) % tuple(v[rest].tolist())
        cells[rest] = np.frombuffer(text.replace(" ", "\0").encode("ascii"), _CELL)
    return cells


def _open_new(path, mode: str, **kw):
    """open(path, mode) after unlinking a regular file at path: on ext4 a
    truncated and rewritten file is flushed at close (auto_da_alloc)."""
    if os.path.isfile(path) and not os.path.islink(path):
        os.unlink(path)
    return open(path, mode, **kw)


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
        with _open_new(path, "wb") as fh:
            fh.write((",".join(header) + "\n").encode("ascii"))
            # a chunk's cells in file order: filling this row-major buffer
            # is the one transposition of the component-major states
            buffer = np.empty((min(len(xs), _CSV_CHUNK), 2 * n + 2))
            for lo in range(0, len(xs), _CSV_CHUNK):
                hi = lo + _CSV_CHUNK
                cells = buffer[: len(xs) - lo]
                cells[:, 0] = traj.times[lo:hi]
                cells[:, 1 : n + 1] = xs[lo:hi]
                cells[:, n + 1 : -1] = zs[lo:hi]
                cells[:, -1] = traj.controls[lo:hi]
                k = len(cells)
                rows = np.empty((k, cells.shape[1] * _CELL.itemsize + 2), np.uint8)
                rows[:, :-2] = _cells(cells.ravel()).view(np.uint8).reshape(k, -1)
                rows[:, -2] = flags[lo:hi] + ord("0")
                rows[:, -1] = ord("\n")
                fh.write(rows.tobytes().translate(None, b"\0"))
    except OSError as exc:
        raise OSError(f"could not write CSV to {path}: {exc}") from exc


def emit_json(summary: RunSummary, path) -> None:
    """The summary as strict JSON: a non-finite field raises ValueError
    before the file is opened."""
    text = json.dumps(summary.to_json_dict(), indent=2, allow_nan=False) + "\n"
    try:
        with _open_new(path, "w", encoding="utf-8") as fh:
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
    # only the kept rows of the two columns are copied
    x, y = (states[:, i - 1], states[:, j - 1]) if k else (np.empty(0), np.empty(0))
    pts = np.column_stack((x[kept], y[kept]))
    marks = np.column_stack((x[flagged], y[flagged])).tolist()

    xs = pts[:, 0].tolist() or [0.0]
    ys = pts[:, 1].tolist() or [0.0]
    lo_x, hi_x = min(xs), max(xs)
    lo_y, hi_y = min(ys), max(ys)
    pad_x = 0.05 * (hi_x - lo_x or 1.0)
    pad_y = 0.05 * (hi_y - lo_y or 1.0)
    view = (lo_x - pad_x, lo_y - pad_y, (hi_x - lo_x) + 2 * pad_x, (hi_y - lo_y) + 2 * pad_y)
    # svg y grows downward: flip the second coordinate
    flip = lambda y: (view[1] + view[3]) - (y - view[1])
    with np.errstate(over="ignore", invalid="ignore"):  # as on Python floats
        pts[:, 1] = flip(pts[:, 1])
    poly = ("%.6g,%.6g " * len(pts) % tuple(pts.ravel().tolist()))[:-1]
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
        with _open_new(path, "w", encoding="utf-8") as fh:
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
