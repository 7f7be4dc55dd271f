"""Output checks of one benchmark round.

Every reference value is computed here from the formulas of the bundled
scenarios (charts, closed-form step times, exact rational schedules); none
is read from stepsynth or from a stored copy of an earlier output.  Each
check returns a list of failure messages, empty when the output is right.
"""

from __future__ import annotations

import json
import math
import xml.etree.ElementTree as ET
from fractions import Fraction

from workloads import DEFAULT_SEED, DELTA

# A block is done inside DELTA and must stay inside 10 DELTA once pinned.
HOLD = 10.0 * DELTA
# A step ends as soon as its block enters the DELTA ball, so its time is
# early by about DELTA / |block rate|; the slowest block rate in the bundled
# runs is 0.2 (example51 step 1), which makes 5 DELTA.  The polyodd cascade
# adds each step's shortfall to the next, hence the wider schedule bound.
STEP_TOL = 10.0 * DELTA
SCHEDULE_TOL = 100.0 * DELTA
# %.12e keeps 13 significant digits
CSV_REL = 1e-12
# z columns against the benchmark's own chart of the x columns
CHART_TOL = 1e-9
# the paper's pendulum figures at the default start
PAPER_T_TOTAL = 3.53471
PAPER_FIRST_STEP2_SWITCH = 2.64102
PAPER_REL = 0.01
# event column of traj.csv
FLAG_SWITCH = 1
FLAG_COMPLETE = 2


# --- charts and reference schedules ------------------------------------------


def _polyodd_rows(n: int) -> list:
    """Ascending coefficients a_p of P_i(u) = sum_p a_p u^(2p+1), i = 1..n.

    P_i(u) = u * prod_{k=1}^{n-i} (u^2 - lam_k^2) with lam_k = k/n.
    """
    lams = [Fraction(k, n) for k in range(1, n)]
    rows = []
    for i in range(1, n + 1):
        a = [Fraction(1)]
        for lam in lams[: n - i]:
            shifted = [Fraction(0)] + a
            a = [s - lam * lam * (a[p] if p < len(a) else 0) for p, s in enumerate(shifted)]
        rows.append(a)
    return rows


def _poly(row: list, u: Fraction) -> Fraction:
    return sum(c * u ** (2 * p + 1) for p, c in enumerate(row))


def chart(scenario: str):
    """Map from original-chart states to block-chart coordinates."""
    if scenario == "pendulum":
        return lambda x: (x[0] - x[2], x[1] - x[3], x[2], x[3])
    if scenario == "example51":
        return lambda x: (x[0] - x[1], x[2], x[1])
    n = int(scenario.split(":")[1])
    # z_i integrates P_i(u), and x_{p+1} integrates u^(2p+1)
    rows = [[float(c) for c in row] for row in _polyodd_rows(n)]
    return lambda x: tuple(sum(c * x[p] for p, c in enumerate(row)) for row in rows)


def polyodd_schedule(n: int, z0) -> list:
    """Exact step completion times of polyodd:n from block-chart z0.

    Step 1 pushes with u = -sign(z_1); step i >= 2 with u = -lam_{n+1-i}
    sign(z_i), a root of every earlier P_j, so pinned blocks do not move.
    """
    rows = _polyodd_rows(n)
    levels = [Fraction(1)] + [Fraction(n + 1 - i, n) for i in range(2, n + 1)]
    z = [Fraction(v) for v in z0]
    t = Fraction(0)
    times = []
    for i in range(n):
        if z[i] != 0:
            u = -levels[i] if z[i] > 0 else levels[i]
            rates = [_poly(row, u) for row in rows]
            if any(rates[:i]) or rates[i] == 0 or (rates[i] > 0) == (z[i] > 0):
                raise ValueError(f"level {levels[i]} does not move block {i + 1} alone")
            dt = -z[i] / rates[i]
            z = [zj + r * dt for zj, r in zip(z, rates)]
            t += dt
        times.append(float(t))
    return times


def two_arc_time(z1: float, z2: float, up: float = 20.0, down: float = 10.0) -> float:
    """Time to the origin of z1' = z2, z2' = +up below the curve, -down above.

    The curve is the pair of arrival arcs z1 = z2^2 / (2 up), z2 <= 0 and
    z1 = -z2^2 / (2 down), z2 >= 0; off the curve the path is one arc to the
    curve and the arrival arc along it.
    """
    w = -math.sqrt(2.0 * up * z1) if z1 >= 0.0 else math.sqrt(-2.0 * down * z1)
    if z2 < w:
        c = z1 - z2 * z2 / (2.0 * up)  # on the +up parabola z1 = z2^2 / (2 up) + c
        v = math.sqrt(-2.0 * c * up * down / (up + down))
        return (v - z2) / up + v / down
    if z2 > w:
        c = z1 + z2 * z2 / (2.0 * down)  # on the -down parabola z1 = c - z2^2 / (2 down)
        v = math.sqrt(2.0 * c * up * down / (up + down))
        return (z2 + v) / down + v / up
    return -z2 / up if z1 >= 0.0 else z2 / down


def double_integrator_time(p: float, v: float) -> float:
    """Minimum time to the origin of p' = v, v' = u, |u| <= 1."""
    s = p + 0.5 * v * abs(v)
    if s > 0.0:
        return v + 2.0 * math.sqrt(0.5 * v * v + p)
    if s < 0.0:
        return -v + 2.0 * math.sqrt(0.5 * v * v - p)
    return abs(v)


# --- emitted files -------------------------------------------------------------


def read_csv(path) -> tuple:
    """(header, rows) of traj.csv with every field parsed."""
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().rstrip("\n").split(",")
        rows = []
        for line in fh:
            fields = line.rstrip("\n").split(",")
            rows.append([float(v) for v in fields[:-1]] + [int(fields[-1])])
    return header, rows


def _close(a: float, b: float, rel: float) -> bool:
    return abs(a - b) <= rel * abs(b)


def check_csv(header, rows, traj) -> list:
    n = len(traj.states_x[0])
    want = ["t"] + [f"x{i}" for i in range(1, n + 1)] + [f"z{i}" for i in range(1, n + 1)] + ["u", "event"]
    if header != want:
        return [f"CSV header {header} != {want}"]
    if len(rows) != len(traj.times):
        return [f"CSV has {len(rows)} rows for {len(traj.times)} samples"]
    for k, (row, t, x, z, u, flag) in enumerate(
        zip(rows, traj.times, traj.states_x, traj.states_z, traj.controls, traj.flags)
    ):
        values = [t, *x, *z, u]
        if row[-1] != flag or not all(_close(a, b, CSV_REL) for a, b in zip(row, values)):
            return [f"CSV row {k + 1} does not re-parse to sample {k}"]
    return []


def check_chart(scenario: str, rows, n: int) -> list:
    to_z = chart(scenario)
    for k, row in enumerate(rows):
        x, z = row[1 : 1 + n], row[1 + n : 1 + 2 * n]
        ref = to_z(x)
        scale = 1.0 + max(abs(v) for v in x)
        if any(abs(a - b) > CHART_TOL * scale for a, b in zip(z, ref)):
            return [f"row {k + 1}: z columns {z} are not the chart of x {x}"]
    return []


def check_holds(rows, n: int, blocks: tuple, step_times: list) -> list:
    """Each finished block stays within 10 DELTA on every later sample."""
    failures = []
    lo = 0
    for i, (size, t_done) in enumerate(zip(blocks, step_times), start=1):
        cols = range(1 + n + lo, 1 + n + lo + size)
        worst = max((max(abs(row[c]) for c in cols) for row in rows if row[0] >= t_done), default=0.0)
        if worst > HOLD:
            failures.append(f"block {i} drifts to {worst:.3e} after its step ends at {t_done}")
        lo += size
    return failures


def check_final(scenario: str, rows, n: int, blocks: tuple, summary: dict) -> list:
    """The last sample, in the original chart, lies in the done band."""
    x = rows[-1][1 : 1 + n]
    z = chart(scenario)(x)
    failures = []
    lo = 0
    for i, size in enumerate(blocks, start=1):
        r = max(abs(v) for v in z[lo : lo + size])
        limit = DELTA if i == len(blocks) else HOLD
        if r > limit * (1.0 + 1e-9):
            failures.append(f"final block {i} at {r:.3e} > {limit:.1e}")
        lo += size
    if not _close(summary["final_state_norm"], max(abs(v) for v in x), 1e-9):
        failures.append("summary final_state_norm is not the sup-norm of the last x")
    if not _close(summary["T_total"], rows[-1][0], 1e-9):
        failures.append("summary T_total is not the last sample time")
    return failures


def check_svgs(paths, rows) -> list:
    marks = sum(1 for row in rows if row[-1])
    failures = []
    for path in paths:
        root = ET.parse(path).getroot()
        tags = [el.tag.rsplit("}", 1)[-1] for el in root]
        if tags.count("polyline") != 1 or tags.count("circle") != marks:
            failures.append(f"{path.name}: {tags.count('circle')} event marks for {marks} events")
    return failures


# --- per-workload step times ----------------------------------------------------


def check_steps(workload, seed: int, start, summary: dict, rows) -> list:
    n = len(start)
    step_times = summary["step_times"]
    failures = []
    if workload.scenario == "pendulum":
        z = chart("pendulum")(start)
        want = two_arc_time(z[0], z[1])
        if abs(step_times[0] - want) > STEP_TOL:
            failures.append(f"step 1 ends at {step_times[0]!r}, two-arc time {want!r}")
        if seed == DEFAULT_SEED:
            switches = [row[0] for row in rows if row[-1] == FLAG_SWITCH and row[0] > step_times[0]]
            if abs(step_times[-1] - PAPER_T_TOTAL) > PAPER_REL * PAPER_T_TOTAL:
                failures.append(f"total time {step_times[-1]} not within 1% of {PAPER_T_TOTAL}")
            if not switches or abs(switches[0] - PAPER_FIRST_STEP2_SWITCH) > PAPER_REL * PAPER_FIRST_STEP2_SWITCH:
                failures.append(f"first step-2 switch {switches[:1]} not within 1% of {PAPER_FIRST_STEP2_SWITCH}")
    elif workload.scenario == "example51":
        # Theta(z0) of the 1-chain with a0 = 0.04, d = 0.2; the step runs at rate d
        want = 5.0 * abs(start[0] - start[1])
        if abs(step_times[0] - want) > STEP_TOL:
            failures.append(f"step 1 ends at {step_times[0]!r}, Theta(z0) = {want!r}")
        if not _close(summary["theta_bounds"][0], want, 1e-9):
            failures.append(f"step 1 Theta bound {summary['theta_bounds'][0]!r}, Theta(z0) = {want!r}")
        ends = [row for row in rows if row[-1] == FLAG_COMPLETE]
        if len(ends) != 2:
            failures.append(f"{len(ends)} step-completion samples for 2 steps")
        else:
            p, v = ends[0][1 + n + 1], ends[0][1 + n + 2]  # (z2, z3) at T1
            want2 = double_integrator_time(p, v)
            got2 = step_times[1] - step_times[0]
            if abs(got2 - want2) > STEP_TOL:
                failures.append(f"step 2 lasts {got2!r}, minimum time {want2!r}")
    else:
        want = polyodd_schedule(n, start)
        for i, (got, ref) in enumerate(zip(step_times, want), start=1):
            if abs(got - ref) > SCHEDULE_TOL:
                failures.append(f"step {i} ends at {got!r}, exact schedule {ref!r}")
    return failures


def run_checks(workload, seed: int, start, traj, report, out_dir) -> list:
    """All output checks of one round; start is in the workload's x0 chart."""
    summary = json.loads((out_dir / "summary.json").read_text(encoding="utf-8"))
    header, rows = read_csv(out_dir / "traj.csv")
    n = len(start)
    failures = []
    if tuple(report.indices) != workload.blocks:
        failures.append(f"probe found blocks {report.indices}, want {workload.blocks}")
    if len(summary["step_times"]) != len(workload.blocks):
        return failures + [f"{len(summary['step_times'])} steps for {len(workload.blocks)} blocks"]
    failures += check_csv(header, rows, traj)
    failures += check_chart(workload.scenario, rows, n)
    failures += check_holds(rows, n, workload.blocks, summary["step_times"])
    failures += check_final(workload.scenario, rows, n, workload.blocks, summary)
    failures += check_svgs(sorted(out_dir.glob("traj_x*.svg")), rows)
    failures += check_steps(workload, seed, start, summary, rows)
    return failures
