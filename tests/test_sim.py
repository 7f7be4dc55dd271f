"""simulate() runs plus the CSV/JSON/SVG emitters."""

import dataclasses
import json
import os
import math
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stepsynth import (
    IntegratorConfig,
    NonFinite,
    PendulumParams,
    Timeout,
    Trajectory,
    default_projections,
    emit_csv,
    emit_json,
    emit_svg,
    get_scenario,
    simulate,
    stepwise,
)
from stepsynth import chain_gramian, ctrl_fn, mappability

import paper_oracles

CFG = IntegratorConfig(dt=1e-3, t_max=50.0)


def run_intro(dt=1e-4, x0=(1.0, 1.0)):
    scn = get_scenario("intro2d")
    return simulate(scn, x0, IntegratorConfig(dt=dt, t_max=20.0))


# --- closed-loop runs against the analytic schedules ---


def test_intro2d_total_time():
    traj, summary = run_intro()
    assert summary.T_total == pytest.approx(1.8183098861837907, abs=1e-6)
    assert summary.step_times[0] == pytest.approx(1.0, abs=1e-6)
    assert summary.final_state_norm <= 1e-7
    assert summary.scenario == "intro2d"


def test_polyodd3_from_block_chart_point():
    scn = get_scenario("polyodd:3")
    traj, summary = simulate(scn, (1.0, 1.0, 1.0), CFG, x0_chart="z")
    assert summary.step_times == pytest.approx([2.025, 5.625, 9.75], abs=1e-5)
    assert summary.T_total == pytest.approx(9.75, abs=1e-5)
    assert summary.final_state_norm <= 1e-7
    # the recorded x0 is the block point pulled back through the chart
    assert summary.x0 == pytest.approx(
        [1.0, 1.1111111111111112, 1.5679012345679013], rel=1e-12
    )
    assert traj.states_z[0] == pytest.approx((1.0, 1.0, 1.0), abs=0.0)


def test_zero_start_is_trivial():
    traj, summary = run_intro(x0=(0.0, 0.0))
    assert summary.T_total == 0.0
    assert summary.step_times == [0.0, 0.0]
    assert len(traj) == 1
    assert summary.final_state_norm == 0.0


def test_dt_refinement():
    _, coarse = run_intro(dt=2e-3)
    _, fine = run_intro(dt=1e-3)
    assert abs(coarse.T_total - fine.T_total) <= 2e-3


def test_x_chart_cross_check():
    scn = get_scenario("example51")
    x0 = (0.5, 0.1, -0.3)
    _, s_z = simulate(scn, x0, CFG, chart="z")
    _, s_x = simulate(scn, x0, CFG, chart="x")
    assert s_z.chart == "z" and s_x.chart == "x"
    assert s_z.step_times[0] == pytest.approx(2.0, abs=1e-5)
    assert s_x.step_times[0] == pytest.approx(2.0, abs=1e-5)
    assert s_x.T_total == pytest.approx(s_z.T_total, abs=1e-4)
    assert s_z.final_state_norm <= 1e-7
    assert s_x.final_state_norm <= 1e-7
    assert all(r <= 1e-7 for r in s_z.hold_residuals)
    assert all(r <= 1e-7 for r in s_x.hold_residuals)
    # integrating the original chart must stop each step when the block
    # chart does, and where a schedule exists, when the schedule says:
    # polyodd and intro2d give every step, the pendulum and example51 step
    # 1 only.  The record's z are the x mapped on columns, bit for bit the
    # map per row: a linear chart, the identity, and a custom f2 applied
    # element by element
    for name, params, x0, x0_chart in (
        ("polyodd:3", {}, (1.0, 1.0, 1.0), "z"),
        ("pendulum", {}, (-2.0, 1.0, -1.0, 0.5), "x"),
        ("example51", {"f2": lambda v: v + 0.2 * math.sin(v)}, (0.5, 0.1, -0.3), "x"),
        ("intro2d", {}, (1.0, 1.0), "x"),
    ):
        scn = get_scenario(name, **params)
        _, s_z = simulate(scn, x0, CFG, chart="z", x0_chart=x0_chart)
        traj, s_x = simulate(scn, x0, CFG, chart="x", x0_chart=x0_chart)
        assert traj.states_z.tolist() == [list(scn.to_z(x)) for x in map(tuple, traj.states_x.tolist())]
        assert s_x.step_times == pytest.approx(s_z.step_times, abs=1e-6)
        z0 = x0 if x0_chart == "z" else scn.to_z(x0)
        schedule = [float(t) for t in scn.analytic_schedule(z0)]
        assert schedule and s_x.step_times[: len(schedule)] == pytest.approx(schedule, abs=1e-6)
        assert s_x.final_state_norm <= 1e-7
        assert all(r <= 1e-7 for r in s_x.hold_residuals)


def _count_x_chart_maps(monkeypatch, name, x0, x0_chart, dt):
    """chart="x" run of a scenario, counting to_z calls inside and outside orchestrate."""
    calls = {"orchestrate": 0, "simulate": 0}
    phase = ["simulate"]
    orchestrate = stepwise.orchestrate

    def traced_orchestrate(*args, **kwargs):
        phase[0] = "orchestrate"
        try:
            return orchestrate(*args, **kwargs)
        finally:
            phase[0] = "simulate"

    monkeypatch.setattr(stepwise, "orchestrate", traced_orchestrate)
    scn = get_scenario(name)

    def to_z(x):
        calls[phase[0]] += 1
        return scn.to_z(x)

    traj, summary = simulate(
        dataclasses.replace(scn, to_z=to_z),
        x0,
        IntegratorConfig(dt=dt, t_max=50.0),
        chart="x",
        x0_chart=x0_chart,
    )
    assert len(summary.step_times) == scn.blocks.m
    # the run records x only; simulate maps the record once, on its columns,
    # to the same floats as a map per row
    assert traj.states_z.tolist() == [list(scn.to_z(x)) for x in map(tuple, traj.states_x.tolist())]
    return calls, len(traj) - 1


def test_x_chart_maps_each_state_once(monkeypatch):
    # orchestrate maps each batch of sample rows to z in one call on its
    # columns, and that map serves every callback that reads the rows.
    # Constant-sign steps bind their control into the field, so only the
    # batches and the event bisection's probe states (a few dozen per
    # event) are mapped
    calls, steps = _count_x_chart_maps(monkeypatch, "polyodd:3", (1.0, 1.0, 1.0), "z", 2.5e-4)
    assert steps > 35000
    assert calls["orchestrate"] <= 0.01 * steps
    assert calls["simulate"] == 1


def test_x_chart_maps_each_state_once_curve_switch(monkeypatch):
    # curve-switch controls read z at each integrator stage state, and the
    # samples in batches; the start, given in x, is integrated as it is, so
    # simulate maps only the record
    calls, steps = _count_x_chart_maps(monkeypatch, "pendulum", (-2.0, 1.0, -1.0, 0.5), "x", 1e-4)
    assert steps > 35000
    assert calls["orchestrate"] <= 0.1 * steps
    assert calls["simulate"] == 1


@pytest.mark.parametrize(
    "name, x0, x0_chart",
    [("polyodd:3", (1.0, 1.0, 1.0), "z"), ("pendulum", (-2.0, 1.0, -1.0, 0.5), "x")],
    ids=["polyodd:3", "pendulum"],
)
def test_z_chart_record_maps_by_columns(name, x0, x0_chart):
    # a block-chart run maps the start once and its whole record once, on
    # the columns, where a map per row would make thousands of calls
    scn = get_scenario(name)
    calls = []

    def counted(chart_map):
        def wrapper(s):
            calls.append(s)
            return chart_map(s)

        return wrapper

    traj, _ = simulate(
        dataclasses.replace(scn, to_z=counted(scn.to_z), from_z=counted(scn.from_z)),
        x0,
        IntegratorConfig(dt=1e-3, t_max=50.0),
        x0_chart=x0_chart,
    )
    assert len(traj) > 3000
    assert len(calls) <= 2
    assert traj.states_x.tolist() == [list(scn.from_z(z)) for z in map(tuple, traj.states_z.tolist())]


def test_polyodd_integrates_in_few_field_evaluations(monkeypatch):
    # polyodd's branch fields are constant, so the integrator's steps grow
    # past the samples they serve; a fixed-step RK4 at dt makes four field
    # evaluations per sample (390,000 here)
    calls = {"rhs": 0}
    rhs = stepwise.BlockSystem.rhs

    def counted(self, z, u):
        calls["rhs"] += 1
        return rhs(self, z, u)

    monkeypatch.setattr(stepwise.BlockSystem, "rhs", counted)
    traj, _ = simulate(
        get_scenario("polyodd:3"), (1.0, 1.0, 1.0), IntegratorConfig(dt=1e-4, t_max=100.0), x0_chart="z"
    )
    assert len(traj) == 97_501
    assert calls["rhs"] < 300


def test_trajectory_invariants():
    traj, summary = run_intro(dt=1e-3)
    n = len(traj)
    assert (
        len(traj.states_x)
        == len(traj.states_z)
        == len(traj.controls)
        == len(traj.flags)
        == n
    )
    assert all(b > a for a, b in zip(traj.times, traj.times[1:]))
    ev_times = [t for t, _, _ in traj.events]
    assert ev_times == sorted(ev_times)
    completes = [t for t, kind, _ in traj.events if kind == "step-complete"]
    assert len(completes) == 2
    for t_ev, t_step in zip(completes, summary.step_times):
        assert t_ev == pytest.approx(t_step, abs=1e-12)


def test_timeout_propagates():
    scn = get_scenario("intro2d")
    with pytest.raises(Timeout):
        simulate(scn, (1.0, 1.0), IntegratorConfig(dt=1e-3, t_max=0.5))


def test_pendulum_escape_is_nonfinite():
    # the velocity sum squares to inf on the first start instead of raising
    # OverflowError, so both escapes fail as the engine reports them
    scn = get_scenario("pendulum")
    for x0 in ((0.0, 1e155, 0.0, 0.0), (0.0, 1e100, 0.0, 0.0)):
        with pytest.raises(NonFinite):
            simulate(scn, x0, IntegratorConfig(dt=1e-3))


def test_simulate_validation():
    scn = get_scenario("intro2d")
    with pytest.raises(ValueError):
        simulate(scn, (1.0,), CFG)
    with pytest.raises(ValueError):
        simulate(scn, (1.0, float("nan")), CFG)
    with pytest.raises(ValueError):
        simulate(scn, (1.0, 1.0), CFG, chart="y")
    with pytest.raises(ValueError):
        simulate(scn, (1.0, 1.0), CFG, x0_chart="w")


NAN = float("nan")
G2 = chain_gramian.gram_n1(2)


@pytest.mark.parametrize(
    "call",
    [
        pytest.param(lambda: IntegratorConfig(dt=NAN), id="dt"),
        pytest.param(lambda: IntegratorConfig(t_max=NAN), id="t_max"),
        pytest.param(
            lambda: simulate(get_scenario("intro2d"), (1.0, 1.0), CFG, delta=NAN), id="delta"
        ),
        pytest.param(lambda: ctrl_fn.a0_max(G2, NAN), id="a0_max-d"),
        pytest.param(lambda: ctrl_fn.LinearSynth(gram=G2, a0=NAN, d=1.0), id="synth-a0"),
        pytest.param(lambda: ctrl_fn.LinearSynth(gram=G2, a0=0.1, d=NAN), id="synth-d"),
        pytest.param(lambda: chain_gramian.gram_theta(G2, NAN), id="gram_theta"),
        pytest.param(lambda: chain_gramian.gram_theta_inv(G2, NAN), id="gram_theta_inv"),
        pytest.param(lambda: paper_oracles.dilation_matrix(G2, NAN), id="dilation_matrix"),
        pytest.param(lambda: paper_oracles.gram_hat(G2, NAN), id="gram_hat"),
        pytest.param(lambda: paper_oracles.gram_tilde(G2, NAN), id="gram_tilde"),
        pytest.param(lambda: mappability.halton_samples(((NAN, 1.0),), 8), id="box-lo"),
        pytest.param(lambda: mappability.halton_samples(((-1.0, NAN),), 8), id="box-hi"),
        pytest.param(lambda: PendulumParams(m1=NAN), id="pendulum-m1"),
        pytest.param(lambda: get_scenario("polyodd:3", lambdas=[NAN, 0.5]), id="polyodd-lambda1"),
        pytest.param(lambda: get_scenario("polyodd:3", lambdas=[0.3, NAN]), id="polyodd-lambda2"),
    ],
)
def test_nan_settings_are_rejected(call):
    # each check is written so that a NaN fails it, before any integration
    with pytest.raises(ValueError):
        call()


# --- summary serialization ---


def test_summary_json_shape():
    _, summary = run_intro(dt=1e-3)
    d = json.loads(json.dumps(summary.to_json_dict()))
    assert d["schema_version"] == 1
    assert d["scenario"] == "intro2d"
    assert d["x0"] == [1.0, 1.0]
    assert d["dt"] == 1e-3
    assert d["delta"] == 1e-8
    assert len(d["step_times"]) == 2
    assert isinstance(d["theta_bounds"], list)
    assert isinstance(d["hold_residuals"], list)


# --- CSV ---


def test_emit_csv_layout(tmp_path):
    traj, _ = run_intro(dt=1e-3)
    path = tmp_path / "traj.csv"
    emit_csv(traj, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "t,x1,x2,z1,z2,u,event"
    assert len(lines) == 1 + len(traj)
    cell = lines[1].split(",")[0]
    assert re.fullmatch(r"-?\d\.\d{12}e[+-]\d{2,3}", cell)
    flags = {row.rsplit(",", 1)[1] for row in lines[1:]}
    assert flags <= {"0", "1", "2", "3"}


def test_emit_csv_empty(tmp_path):
    empty = Trajectory([], [], [], [], [], [])
    path = tmp_path / "empty.csv"
    emit_csv(empty, path)
    assert path.read_text() == "t,u,event\n"


def _csv_by_fields(traj: Trajectory) -> bytes:
    # reference writer: every cell formatted on its own and joined per row
    n = len(traj.states_x[0])
    header = ["t"] + [f"x{i}" for i in range(1, n + 1)] + [f"z{i}" for i in range(1, n + 1)] + ["u", "event"]
    lines = [",".join(header)]
    for t, x, z, u, flag in zip(traj.times, traj.states_x, traj.states_z, traj.controls, traj.flags):
        row = [f"{t:.12e}"] + [f"{v:.12e}" for v in x] + [f"{v:.12e}" for v in z]
        lines.append(",".join(row + [f"{u:.12e}", str(flag)]))
    return ("\n".join(lines) + "\n").encode("utf-8")


def test_csv_determinism(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    traj1, _ = run_intro(dt=1e-3)
    traj2, _ = run_intro(dt=1e-3)
    emit_csv(traj1, a)
    emit_csv(traj2, b)
    assert a.read_bytes() == b.read_bytes()
    # the one-format-per-row writer matches cell-by-cell formatting, also
    # on signed zeros, on the pendulum's four states and on event flags
    assert a.read_bytes() == _csv_by_fields(traj1)
    traj3, _ = simulate(get_scenario("pendulum"), (-2.0, 1.0, -1.0, 0.5), IntegratorConfig(dt=1e-2, t_max=50.0))
    traj3.states_x[0] = (-0.0, 0.0, -1e-300, 1e300)
    emit_csv(traj3, b)
    assert set(traj3.flags) >= {0, 1, 2}
    assert b.read_bytes() == _csv_by_fields(traj3)


def _adversarial_cells() -> np.ndarray:
    """Floats on which a digit computation other than Python's correctly
    rounded %.12e is most likely to slip."""
    rng = np.random.default_rng(19)
    powers = np.array([float(f"1e{k}") for k in range(-323, 309)])
    mantissas = rng.integers(10**12, 10**13, 4000).tolist()
    exponents = rng.integers(-320, 296, 4000).tolist()
    # d.dddddddddddd5·10^e: exactly halfway between two 13-digit mantissas
    # in decimal, never exactly in binary
    ties = np.array([float(f"{m}5e{e - 13}") for m, e in zip(mantissas, exponents)])
    # 9.9999999999995·10^e rounds up into the next exponent, or not
    carries = np.array([float(f"9.9999999999995e{k}") for k in range(-320, 308)])
    cuts = np.array([1e-280, 1e280])
    special = [0.0, -0.0, math.nan, -math.nan, math.inf, -math.inf, 5e-324, 2.2250738585072014e-308, 1.7976931348623157e308]
    near = [np.nextafter(c, side) for c in (powers, ties, carries, cuts) for side in (-math.inf, math.inf)]
    bit_patterns = rng.integers(0, 2**64, 20_000, dtype=np.uint64).view(np.float64)
    cells = np.concatenate([bit_patterns, special, powers, ties, carries, cuts, *near])
    return np.concatenate([cells, -cells])


def _trajectory_of_cells(cells, n=3) -> Trajectory:
    # the cells fill t, x1..xn, z1..zn, u of as many rows as they need
    width = 2 * n + 2
    rows = np.resize(cells, (-(-len(cells) // width), width))
    flags = [i % 4 for i in range(len(rows))]
    xs, zs = rows[:, 1 : n + 1], rows[:, n + 1 : 2 * n + 1]
    return Trajectory(rows[:, 0].tolist(), xs, zs, rows[:, -1].tolist(), flags, [])


def test_emit_csv_cells_are_percent_e_bytes(tmp_path):
    # the numpy digits agree with Python's %.12e on every cell, from the
    # rounding ties and exponent carries to nan, signed zeros, subnormals
    # and the cells either side of the 1e-280 and 1e280 cuts
    cells = _adversarial_cells()
    subnormal = (0 < np.abs(cells)) & (np.abs(cells) < 2.2250738585072014e-308)
    assert np.isnan(cells).any() and np.isinf(cells).any() and subnormal.sum() > 100
    traj = _trajectory_of_cells(cells)
    path = tmp_path / "cells.csv"
    emit_csv(traj, path)
    assert path.read_bytes() == _csv_by_fields(traj)
    assert re.search(rb",[-]?\d\.\d{12}e[+-]\d{3},", path.read_bytes())


@given(v=st.floats(width=64))
@settings(max_examples=300, deadline=None)
def test_emit_csv_single_cell_matches_percent_e(v, tmp_path_factory):
    path = tmp_path_factory.getbasetemp() / "one-cell.csv"
    emit_csv(Trajectory([v], [(v,)], [(v,)], [v], [2], []), path)
    cell = "%.12e" % v
    assert path.read_text() == f"t,x1,z1,u,event\n{cell},{cell},{cell},{cell},2\n"


@pytest.mark.parametrize("flag", [-1, 10, 12, 2.5, math.nan])
def test_emit_csv_refuses_a_flag_that_is_not_one_digit(tmp_path, flag):
    traj, _ = run_intro(dt=1e-3)
    traj.flags[3] = flag
    path = tmp_path / "traj.csv"
    with pytest.raises(ValueError, match=re.escape(repr(flag))):
        emit_csv(traj, path)
    assert not path.exists()


def test_emit_csv_bad_path():
    traj, _ = run_intro(dt=1e-3)
    with pytest.raises(OSError):
        emit_csv(traj, "/nonexistent-dir/x/traj.csv")


# --- JSON ---


def test_emit_json_file(tmp_path):
    _, summary = run_intro(dt=1e-3)
    path = tmp_path / "summary.json"
    emit_json(summary, path)
    d = json.loads(path.read_text())
    assert d["T_total"] == summary.T_total
    assert d["schema_version"] == 1


@pytest.mark.parametrize("field, value", [("T_total", math.inf), ("hold_residuals", [0.0, math.nan])])
def test_emit_json_refuses_a_non_finite_field(tmp_path, field, value):
    # strict JSON, as theta, gramian and probe print it: no NaN or Infinity
    # token, and no partial file
    _, summary = run_intro(dt=1e-3)
    path = tmp_path / "summary.json"
    with pytest.raises(ValueError):
        emit_json(dataclasses.replace(summary, **{field: value}), path)
    assert not path.exists()


# --- SVG ---


def test_emit_svg_structure(tmp_path):
    traj, _ = run_intro(dt=1e-3)
    path = tmp_path / "p.svg"
    emit_svg(traj, (1, 2), path)
    text = path.read_text()
    assert text.startswith("<svg ")
    assert text.rstrip().endswith("</svg>")
    assert "<polyline" in text
    assert text.count("<circle") >= 1  # event markers
    view = re.search(r'viewBox="([^"]+)"', text).group(1).split()
    assert len(view) == 4
    assert float(view[2]) > 0 and float(view[3]) > 0


def test_emit_svg_stride_cap(tmp_path):
    m = 10_000
    times = [i * 1e-3 for i in range(m)]
    states = [(math.sin(0.01 * i), math.cos(0.01 * i)) for i in range(m)]
    flags = [0] * m
    flags[1234] = 2
    flags[7777] = 1
    traj = Trajectory(times, states, states, [0.0] * m, flags, [])
    path = tmp_path / "big.svg"
    emit_svg(traj, (1, 2), path)
    text = path.read_text()
    pts = re.search(r'points="([^"]*)"', text).group(1).split()
    assert len(pts) <= 4000 + 3  # strided samples plus events and endpoint
    assert text.count("<circle") == 2
    # the flagged samples survive the striding
    kept = f"{math.sin(0.01 * 1234):.6g}"
    assert kept in text


def test_emit_svg_validation(tmp_path):
    traj, _ = run_intro(dt=1e-3)
    with pytest.raises(ValueError):
        emit_svg(traj, (0, 1), tmp_path / "bad.svg")
    with pytest.raises(ValueError):
        emit_svg(traj, (1, 5), tmp_path / "bad.svg")


def test_emit_svg_empty(tmp_path):
    path = tmp_path / "e.svg"
    emit_svg(Trajectory([], [], [], [], [], []), (1, 2), path)
    assert "<svg " in path.read_text()


def test_default_projections():
    assert default_projections(4) == [(1, 2), (3, 4)]
    assert default_projections(3) == [(1, 2), (2, 3)]
    assert default_projections(2) == [(1, 2)]


def test_bundled_runs_import_no_scipy():
    # scipy serves only brentq (custom example51 f1/f2, theta_of at k >= 2)
    # and quad (pendulum w2 past |z3| > 7); no bundled run takes those paths
    script = """
import sys
from stepsynth import IntegratorConfig, get_scenario, simulate
for name, x0 in (
    ("intro2d", (1.0, 1.0)),
    ("example51", (0.5, 0.1, -0.3)),
    ("polyodd:3", (0.5, -0.3, 0.2)),
    ("pendulum", (-2.0, 1.0, -1.0, 0.5)),
):
    simulate(get_scenario(name), x0, IntegratorConfig(dt=1e-3, t_max=50.0))
print(sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
"""
    src = str(Path(__file__).resolve().parent.parent / "src")
    proc = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": src},
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip().splitlines()[-1] == "[]"
