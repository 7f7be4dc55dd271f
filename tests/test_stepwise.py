"""Step policies, the stage integrator, and the multi-step orchestration.

The synthetic fixture used throughout: two scalar blocks with channels
H = (u^3 - u/4, u).  Controls u = +-1/2 are roots of the first channel, so
step 2 holds block 1 exactly; every time below is hand-computable.
"""

import math
import time
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stepsynth import (
    BlockPartition,
    BlockSystem,
    ConstSign,
    CurveSwitch,
    HoldViolation,
    IntegratorConfig,
    LinearSynth,
    NonFinite,
    Recorder,
    RootBracketFailure,
    StepTimeout,
    ThetaSwitch,
    Timeout,
    arrival_curve,
    example51,
    get_scenario,
    gram_n1,
    orchestrate,
    rk4_step,
    run_stage,
    simulate,
    step_done,
    theta_of,
)
from stepsynth import engine, stepwise
from stepsynth.ctrl_fn import THETA_MIN
from stepsynth.engine import EVENT_TOL, FLAG_COMPLETE, FLAG_SWITCH, ROWS
from stepsynth.pendulum import NoRealRoot, PendulumParams, _branch_root
from stepsynth.stepwise import StepPolicy

from paper_oracles import DomainError, audit_theta_switch, eval_control

G1 = gram_n1(1)


def two_scalar_fixture():
    blocks = BlockPartition(sizes=(1, 1))
    system = BlockSystem(blocks=blocks, H=lambda z, u: (u**3 - u / 4.0, u))
    s1 = LinearSynth(gram=G1, a0=9.0 / 16.0, d=0.75)
    s2 = LinearSynth(gram=G1, a0=1.0 / 4.0, d=0.5)
    policies = [
        ThetaSwitch(synth=s1, u_plus=lambda z: 1.0, u_minus=lambda z: -1.0, u_zero=lambda z: 0.0),
        ThetaSwitch(synth=s2, u_plus=lambda z: 0.5, u_minus=lambda z: -0.5, u_zero=lambda z: 0.0),
    ]
    return system, policies


# --- BlockPartition ---


def test_partition_accessors():
    b = BlockPartition(sizes=(2, 3, 1))
    assert b.m == 3 and b.n == 6
    assert b.bounds(1) == (0, 2)
    assert b.bounds(2) == (2, 5)
    assert b.bounds(3) == (5, 6)


def test_partition_validation():
    with pytest.raises(ValueError):
        BlockPartition(sizes=())
    with pytest.raises(ValueError):
        BlockPartition(sizes=(2, 0))
    with pytest.raises(ValueError):
        BlockPartition(sizes=(1.0, 2))
    b = BlockPartition(sizes=(2, 2))
    with pytest.raises(ValueError):
        b.bounds(0)
    with pytest.raises(ValueError):
        b.bounds(3)


# --- step_done ---


def test_step_done_cases():
    b = BlockPartition(sizes=(2, 2))
    assert step_done((0.0, 0.0, 0.0, 0.0), b, 1)
    assert step_done((0.0, 0.0, 1e-12, 0.3), b, 1, 1e-8)
    assert not step_done((1e-3, 0.0, 0.0, 0.0), b, 1, 1e-8)
    assert step_done((0.5, 0.5, 1e-9, 1e-10), b, 2, 1e-8)


# --- eval_control branch selection ---


def test_theta_switch_branches():
    b = BlockPartition(sizes=(1,))
    s = LinearSynth(gram=G1, a0=1.0, d=1.0)
    pol = ThetaSwitch(synth=s, u_plus=lambda z: 7.0, u_minus=lambda z: -7.0, u_zero=lambda z: 0.25)
    # sigma has the sign of the coordinate for a scalar block
    assert eval_control(pol, (0.8,), b, 1) == -7.0
    assert eval_control(pol, (-0.8,), b, 1) == 7.0
    # inside the THETA_MIN hold band the zero branch applies
    assert eval_control(pol, (1e-12,), b, 1) == 0.25


def test_theta_switch_surface_band_at_k2():
    # x = N(1) e1 with a0 = N(1)_11 / 2 gives Theta = 1 and w = e1, so
    # sigma = w_2 = 0: the zero branch.  A state moved off the surface but
    # inside the band 1e-9 max|w| takes it as well; one past the band does not
    g2 = gram_n1(2)
    s = LinearSynth(gram=g2, a0=g2.n1[0, 0] / 2.0, d=1.0)
    pol = ThetaSwitch(synth=s, u_plus=lambda z: 1.0, u_minus=lambda z: -1.0, u_zero=lambda z: 0.0)
    x = tuple(g2.n1[:, 0].tolist())
    ev = theta_of(s, x)
    assert ev.theta == pytest.approx(1.0, rel=1e-12) and ev.sigma == 0.0
    assert pol.branch(x, (0, 2)) == 0
    for eps in (1e-10, -1e-10):
        near = (x[0], x[1] + eps)
        ev = theta_of(s, near)
        assert 0.0 < abs(ev.sigma) <= 1e-9 * float(np.max(np.abs(ev.w)))
        assert pol.branch(near, (0, 2)) == 0
    assert pol.branch((x[0], x[1] + 3e-10), (0, 2)) == -1


def test_theta_switch_dimension_mismatch():
    b = BlockPartition(sizes=(2,))
    s = LinearSynth(gram=G1, a0=1.0, d=1.0)  # k=1 synth on a 2-block
    pol = ThetaSwitch(synth=s, u_plus=lambda z: 1.0, u_minus=lambda z: -1.0, u_zero=lambda z: 0.0)
    with pytest.raises((ValueError, DomainError)):
        eval_control(pol, (1.0, 0.0), b, 1)


def test_curve_switch_branches():
    b = BlockPartition(sizes=(2,))
    w = lambda p: -np.copysign(np.sqrt(2.0 * np.abs(p)), p)
    pol = CurveSwitch(w=w, u_plus=lambda z: 1.0, u_minus=lambda z: -1.0)
    # below the curve -> u_plus, above -> u_minus
    assert eval_control(pol, (1.0, w(1.0) - 0.1), b, 1) == 1.0
    assert eval_control(pol, (1.0, w(1.0) + 0.1), b, 1) == -1.0
    # on the curve the position sign decides, nonnegative -> u_plus
    assert eval_control(pol, (1.0, w(1.0)), b, 1) == 1.0
    assert eval_control(pol, (-1.0, w(-1.0)), b, 1) == -1.0
    assert eval_control(pol, (0.0, 0.0), b, 1) == 1.0


def test_const_sign_branches():
    b = BlockPartition(sizes=(1, 1))
    pol1 = ConstSign(level=math.pi / 2.0)
    assert eval_control(pol1, (3.0, 5.0), b, 1) == -math.pi / 2.0
    pol2 = ConstSign(level=math.pi)
    assert eval_control(pol2, (0.0, -2.0), b, 2) == math.pi
    assert eval_control(pol2, (0.0, 0.0), b, 2) == 0.0


def test_eval_control_wraps_callback_errors():
    b = BlockPartition(sizes=(1,))
    s = LinearSynth(gram=G1, a0=1.0, d=1.0)

    def bad(z):
        raise ValueError("outside the admissible set")

    pol = ThetaSwitch(synth=s, u_plus=bad, u_minus=bad, u_zero=bad)
    with pytest.raises(DomainError):
        eval_control(pol, (1.0,), b, 1)


# --- arrival_curve ---


def _counted(accel):
    """accel, and the list of the arguments it was read at."""
    reads = []

    def counted(*args):
        reads.append(args)
        return accel(*args)

    return counted, reads


def test_arrival_curve_constant_rate():
    # unit deceleration: E = |pos|, so w = -+sqrt(2 |pos|)
    w = arrival_curve(lambda pos, vel, side: float(side))
    assert w(0.0) == 0.0
    for s in np.linspace(1e-3, 10.0, 1001):
        s = float(s)
        assert abs(w(s) + math.sqrt(2.0 * s)) <= 1e-12
        assert w(-s) == -w(s)
    assert abs(w(300.5) + math.sqrt(601.0)) <= 1e-12


def test_arrival_curve_velocity_dependent_rate():
    # |dv/dt| = 1 + 0.1 v^2 gives dE/ds = 1 + 0.2 E: E = 5 (exp(0.2 s) - 1)
    w = arrival_curve(lambda pos, vel, side: side * (1.0 + 0.1 * vel * vel))
    for s in np.linspace(1e-3, 25.0, 2001):
        s = float(s)
        assert abs(0.5 * w(s) ** 2 - 5.0 * math.expm1(0.2 * s)) <= 1e-7
        assert w(s) < 0.0 and w(-s) == -w(s)


def test_arrival_curve_rejects_a_branch_that_does_not_slow_the_block():
    # the rate 1 - |pos| stops slowing the block at |pos| = 1: the curve
    # builds, reads short of that position, and raises once a read reaches it
    w = arrival_curve(lambda pos, vel, side: side * (1.0 - abs(pos)))
    assert w(0.5) < 0.0 < w(-0.5)
    with pytest.raises(ValueError, match="does not slow the block"):
        w(1.5)
    with pytest.raises(ValueError, match="does not slow the block"):
        w(np.array([-0.5, -1.5]))


def test_arrival_curve_builds_the_rows_a_read_needs():
    h = stepwise._ArrivalCurve.h
    accel, reads = _counted(lambda pos, vel, side: side * (1.0 + 0.1 * vel * vel))
    w = arrival_curve(accel)
    assert reads == []
    # a read at s builds its side's rows 0..int(s / h): the start slope,
    # then a midpoint and an end slope per row
    slopes = lambda s: 1 + 2 * (int(s / h) + 1)
    w(10.0)
    assert len(reads) == slopes(10.0)
    assert {side for *_, side in reads} == {+1}
    w(np.array([3.0, -1.0, 0.0, 9.0]))
    assert len(reads) == slopes(10.0) + slopes(1.0)
    # a row does not depend on how far its table has grown
    fresh = arrival_curve(lambda pos, vel, side: side * (1.0 + 0.1 * vel * vel))
    grid = np.linspace(-10.0, 10.0, 4001)
    assert w(grid).tolist() == fresh(grid).tolist() == [fresh(float(s)) for s in grid]


@pytest.mark.parametrize("pos", [1e9, -1e9, math.inf, -math.inf, math.nan, stepwise.CURVE_ROWS * 7.0 / 1024.0])
def test_arrival_curve_refuses_a_position_past_its_rows(pos):
    # the table stops at CURVE_ROWS intervals a side (|pos| < 448); a
    # position past that, or not finite, raises before any row is built,
    # and a column names its first such position
    accel, reads = _counted(lambda pos, vel, side: float(side))
    w = arrival_curve(accel)
    with pytest.raises(RootBracketFailure, match=f"position {pos}$"):
        w(pos)
    with pytest.raises(RootBracketFailure, match=f"position {pos}$"):
        w(np.array([1.0, pos, -1e300, -2.0]))
    assert reads == []


# --- BlockSystem.rhs chaining ---


def test_block_system_rhs_order():
    b = BlockPartition(sizes=(2, 2))
    sys22 = BlockSystem(blocks=b, H=lambda z, u: (10.0 + u, 20.0 + u))
    assert sys22.rhs((1.0, 2.0, 3.0, 4.0), 0.5) == (2.0, 10.5, 4.0, 20.5)
    b12 = BlockPartition(sizes=(1, 2))
    sys12 = BlockSystem(blocks=b12, H=lambda z, u: (u, -u))
    assert sys12.rhs((1.0, 2.0, 3.0), 0.25) == (0.25, 3.0, -0.25)


# --- rk4 exactness and the stage loop ---


def test_rk4_step_linear_field_exact():
    # constant-coefficient linear fields of nilpotency <= 4 are integrated exactly
    f = lambda z: (z[1], 0.0)
    z = rk4_step(f, (0.0, 2.0), 0.25)
    assert z == (0.5, 2.0)


def test_orchestrate_two_scalar_blocks():
    system, policies = two_scalar_fixture()
    cfg = IntegratorConfig(dt=1e-3, t_max=10.0)
    run, rec = orchestrate(system, (1.0, 1.0), policies, cfg)

    # step 1: dz1 = -3/4 from 1 -> T1 = 4/3; meanwhile dz2 = -1
    # step 2: z2 = 1 - 4/3 = -1/3, dz2 = +1/2 -> 2/3 more
    assert run.step_times[0] == pytest.approx(4.0 / 3.0, abs=1e-6)
    assert run.T_total == pytest.approx(2.0, abs=1e-6)
    assert run.theta_bounds[0] == pytest.approx(4.0 / 3.0, rel=1e-9)
    assert run.theta_bounds[1] == pytest.approx(2.0 / 3.0, rel=1e-6)

    # per-step time never exceeds its theta bound (1% slack)
    t_prev = 0.0
    for t_end, bound in zip(run.step_times, run.theta_bounds):
        assert t_end - t_prev <= bound * 1.01
        t_prev = t_end

    assert all(r <= 10 * run.done_tol for r in run.hold_residuals)
    final = rec.states[-1]
    assert max(abs(v) for v in final) <= 10 * run.done_tol


def test_orchestrate_z0_zero_is_instant():
    system, policies = two_scalar_fixture()
    cfg = IntegratorConfig(dt=1e-3, t_max=10.0)
    run, _ = orchestrate(system, (0.0, 0.0), policies, cfg)
    assert run.T_total == 0.0
    assert run.step_times == [0.0, 0.0]


def test_orchestrate_validation():
    system, policies = two_scalar_fixture()
    cfg = IntegratorConfig(dt=1e-3)
    with pytest.raises(ValueError):
        orchestrate(system, (1.0,), policies, cfg)
    with pytest.raises(ValueError):
        orchestrate(system, (1.0, 1.0), policies[:1], cfg)
    with pytest.raises(ValueError):
        orchestrate(system, (1.0, 1.0), policies, cfg, done_tol=0.0)


def test_theta_descent_along_step():
    system, policies = two_scalar_fixture()
    cfg = IntegratorConfig(dt=1e-3, t_max=10.0)
    rec = Recorder()
    run, _ = orchestrate(system, (1.0, 1.0), policies, cfg, recorder=rec)
    s1 = policies[0].synth
    t1 = run.step_times[0]
    prev = None
    for t, z in zip(rec.times, rec.states):
        if t > t1 - 1e-6:
            break
        th = theta_of(s1, [z[0]]).theta
        if prev is not None and th > 10 * THETA_MIN:
            slope = (th - prev[1]) / (t - prev[0])
            assert slope <= -1.0 + 1e-2
        prev = (t, th)


def test_step_timeout_on_bad_policy():
    blocks = BlockPartition(sizes=(1,))
    system = BlockSystem(blocks=blocks, H=lambda z, u: (u,))
    s = LinearSynth(gram=G1, a0=1.0, d=1.0)
    # inverted signs: the control pushes away from the origin
    bad = ThetaSwitch(synth=s, u_plus=lambda z: -1.0, u_minus=lambda z: 1.0, u_zero=lambda z: 0.0)
    cfg = IntegratorConfig(dt=1e-3, t_max=50.0)
    with pytest.raises(StepTimeout):
        orchestrate(system, (1.0,), [bad], cfg)


def test_hold_violation_detected():
    blocks = BlockPartition(sizes=(1, 1))
    # the second channel's control leaks into channel 1, so the pinned
    # block drifts as soon as step 2 starts
    system = BlockSystem(blocks=blocks, H=lambda z, u: (u, u))
    s = LinearSynth(gram=G1, a0=1.0, d=1.0)
    pol1 = ThetaSwitch(synth=s, u_plus=lambda z: 1.0, u_minus=lambda z: -1.0, u_zero=lambda z: 0.0)
    pol2 = ConstSign(level=1.0)
    cfg = IntegratorConfig(dt=1e-3, t_max=10.0)
    with pytest.raises(HoldViolation):
        orchestrate(system, (0.5, 0.8), [pol1, pol2], cfg)


def test_timeout_when_done_unreachable():
    blocks = BlockPartition(sizes=(1,))
    system = BlockSystem(blocks=blocks, H=lambda z, u: (0.0,))  # never moves
    pol = ConstSign(level=1.0)
    cfg = IntegratorConfig(dt=1e-2, t_max=0.5)
    with pytest.raises(Timeout):
        orchestrate(system, (1.0,), [pol], cfg)


def test_nonfinite_state_detected():
    blocks = BlockPartition(sizes=(1,))
    # cubic growth overflows to inf within a few steps at this step size
    system = BlockSystem(blocks=blocks, H=lambda z, u: (z[0] * z[0] * z[0],))
    pol = ConstSign(level=1.0)
    cfg = IntegratorConfig(dt=0.5, t_max=50.0)
    with pytest.raises(NonFinite):
        orchestrate(system, (4.0,), [pol], cfg)


def test_event_localization_accuracy():
    blocks = BlockPartition(sizes=(1,))
    system = BlockSystem(blocks=blocks, H=lambda z, u: (u,))
    pol = ConstSign(level=1.0)
    cfg = IntegratorConfig(dt=1e-3, t_max=10.0)
    run, rec = orchestrate(system, (1.0,), [pol], cfg)
    # completion is the entry into the 1e-8 ball around 0, at t = 1 - 1e-8
    assert run.T_total == pytest.approx(1.0, abs=1e-6)
    assert run.T_total < 1.0 + 1e-10
    assert rec.events[-1].kind == "step-complete"


def test_recorder_monotone_and_flagged():
    system, policies = two_scalar_fixture()
    cfg = IntegratorConfig(dt=1e-3, t_max=10.0)
    rec = Recorder()
    orchestrate(system, (1.0, 1.0), policies, cfg, recorder=rec)
    times = np.array(rec.times)
    assert np.all(np.diff(times) > 0)
    assert set(rec.flags) <= {0, 1, 2, 3}
    assert len(rec.times) == len(rec.states) == len(rec.controls) == len(rec.flags)
    kinds = {e.kind for e in rec.events}
    assert kinds <= {"branch-switch", "step-complete", "surface-slide"}
    assert sum(1 for e in rec.events if e.kind == "step-complete") == 2


def test_orchestrate_deterministic():
    system, policies = two_scalar_fixture()
    cfg = IntegratorConfig(dt=1e-3, t_max=10.0)
    r1, rec1 = orchestrate(system, (1.0, 1.0), policies, cfg)
    r2, rec2 = orchestrate(system, (1.0, 1.0), policies, cfg)
    assert r1.T_total == r2.T_total
    assert r1.step_times == r2.step_times
    assert r1.hold_residuals == r2.hold_residuals
    assert rec1.times.tolist() == rec2.times.tolist()
    assert rec1.states.tolist() == rec2.states.tolist()
    assert rec1.controls.tolist() == rec2.controls.tolist()
    assert rec1.flags.tolist() == rec2.flags.tolist()


def test_audit_theta_switch():
    system, policies = two_scalar_fixture()
    pol = policies[0]
    h1 = lambda z, u: u**3 - u / 4.0
    rng = np.random.default_rng(5)
    states = [tuple(rng.uniform(-2, 2, size=2)) for _ in range(1000)]
    lo, hi = audit_theta_switch(pol, h1, states)
    assert lo >= pol.synth.d - 1e-9
    assert hi <= -pol.synth.d + 1e-9


def test_curve_switch_rides_to_origin():
    # double integrator under u = +-1 with the time-optimal switching curve;
    # from (1, 0): u=-1 down to the curve at (1/2, -1) in time 1, then u=+1
    # along the braking parabola through the origin for 1 more: T = 2
    blocks = BlockPartition(sizes=(2,))
    system = BlockSystem(blocks=blocks, H=lambda z, u: (u,))
    w = lambda p: -np.copysign(np.sqrt(2.0 * np.abs(p)), p)
    pol = CurveSwitch(w=w, u_plus=lambda z: 1.0, u_minus=lambda z: -1.0)
    cfg = IntegratorConfig(dt=1e-4, t_max=20.0)
    run, rec = orchestrate(system, (1.0, 0.0), policies=[pol], cfg=cfg)
    assert run.T_total == pytest.approx(2.0, abs=2e-3)
    final = rec.states[-1]
    assert max(abs(v) for v in final) <= 1e-7
    switches = [e for e in rec.events if e.kind == "branch-switch"]
    assert len(switches) == 1
    assert switches[0].t == pytest.approx(1.0, abs=2e-3)


def _counter(calls: dict, name: str, fn):
    def wrapper(*args):
        calls[name] += 1
        return fn(*args)
    return wrapper


class _StateRows:
    """Rows of a fake stage, read by its per-state methods done(s),
    arrive(s), residual(s) and control(b, s), each called once per row."""

    def __init__(self, stage, t: list, y: np.ndarray):
        self.t, self.y = t, y
        self.stage = stage
        self.s = s = [tuple(x) for x in y.tolist()]
        self.done = np.array([stage.done(x) for x in s], dtype=bool)
        self.arrive = np.array([stage.arrive(x) for x in s], dtype=float)

    def residuals(self) -> np.ndarray:
        return np.array([self.stage.residual(x) for x in self.s], dtype=float)

    def controls(self, branch: int) -> np.ndarray:
        return np.array([self.stage.control(branch, x) for x in self.s], dtype=float)


def _stage(**methods):
    """A run_stage stage from per-state methods, read in batches of at most
    ROWS rows: no deadline, no finished block to hold, and no arrival
    unless given."""
    defaults = {"deadline": math.inf, "arrive": lambda s: 1.0, "hold": lambda rows, lo, hi: None}
    stage = SimpleNamespace(**{**defaults, **methods})
    stage.rows = lambda t, y: _StateRows(stage, t, y)
    return stage


def test_run_stage_work_per_step():
    # dz = u on a scalar state that never reaches the done band, so every
    # sample is plain until t_max: per sample the stage makes one switch
    # residual and one done test, plus one of each at the start state; the
    # control is solved once per recorded sample and six times per
    # integrator step, and a constant field needs few steps
    calls = {"control": 0, "residual": 0, "done": 0}
    control = _counter(calls, "control", lambda b, s: float(b))
    rec = Recorder()
    with pytest.raises(Timeout):
        run_stage(
            step_index=1,
            t0=0.0,
            z0=(1.0,),
            stage=_stage(
                field=lambda b: lambda s: (control(b, s),),
                branch=lambda s: -1,
                control=control,
                residual=_counter(calls, "residual", lambda s: s[0] + 1.0),
                slide_branch=lambda s: 0,
                done=_counter(calls, "done", lambda s: abs(s[0]) <= 1e-8),
            ),
            cfg=IntegratorConfig(dt=1e-2, t_max=0.5),
            recorder=rec,
        )
    steps = len(rec.times) - 1
    assert steps >= 49 and not rec.events
    assert {k: calls[k] for k in ("residual", "done")} == {"residual": steps + 1, "done": steps + 1}
    assert calls["control"] < 2 * steps


def _orchestrate_work(monkeypatch, blocks, z0, policy):
    """Calls through the module-level routes orchestrate's stage takes, over
    a run that meets no event before t_max; returns them and the step count."""
    calls = {"control": 0, "residual": 0, "done": 0}
    for name, attr in (("control", "_control_of"), ("residual", "_switch_residual"), ("done", "step_done")):
        monkeypatch.setattr(stepwise, attr, _counter(calls, name, getattr(stepwise, attr)))
    system = BlockSystem(blocks=BlockPartition(sizes=blocks), H=lambda z, u: (u,))
    rec = Recorder()
    with pytest.raises(Timeout):
        orchestrate(system, z0, [policy], IntegratorConfig(dt=1e-2, t_max=0.5), recorder=rec)
    assert not rec.events
    return calls, len(rec.times) - 1


# The done band is tested once per batch of rows, on all of them at once,
# and once at the start row.  Over 50 rows and no event the flow runs its
# integrator steps ahead of the next sample up to t_max (1, 10 and 39 rows,
# the third cut at t_max), so the 50 rows are one batch.
DONE_TESTS = 1 + 1


def test_orchestrate_work_per_step(monkeypatch):
    # a constant-sign policy reads its residual as a column and records its
    # constant control: no call per row
    calls, steps = _orchestrate_work(monkeypatch, (1,), (1.0,), ConstSign(level=1.0))
    assert steps == 50
    assert calls == {"control": 0, "residual": 0, "done": DONE_TESTS}


def test_orchestrate_work_per_step_curve_switch(monkeypatch):
    # a curve-switch policy reads its residual as a column, one call per
    # batch and none per row; its field solves the control at each
    # integrator stage, shared by every sample the step covers; the double
    # integrator accelerates below the curve w = 10
    pol = CurveSwitch(w=lambda p: 10.0, u_plus=lambda z: 1.0, u_minus=lambda z: -1.0)
    calls, steps = _orchestrate_work(monkeypatch, (2,), (1.0, 0.0), pol)
    assert steps == 50
    assert {k: calls[k] for k in ("residual", "done")} == {"residual": 0, "done": DONE_TESTS}
    assert calls["control"] < 2 * steps


def test_run_stage_harmonic_oscillator_on_the_sample_grid():
    # z'' = -z from (1, 0): every sample over [0, 20] lies on (cos t, -sin t);
    # fixed-step RK4 at dt would make 4 field evaluations per sample (80,000)
    calls = {"field": 0}
    field = _counter(calls, "field", lambda s: (s[1], -s[0]))
    rec = Recorder()
    with pytest.raises(Timeout):
        run_stage(
            step_index=1,
            t0=0.0,
            z0=(1.0, 0.0),
            stage=_stage(
                field=lambda b: field,
                branch=lambda s: 1,
                control=lambda b, s: 0.0,
                residual=lambda s: 1.0,
                slide_branch=lambda s: 0,
                done=lambda s: False,
            ),
            cfg=IntegratorConfig(dt=1e-3, t_max=20.0),
            recorder=rec,
        )
    assert len(rec.times) == 20_001 and rec.times[-1] == 20.0
    err = max(max(abs(z[0] - math.cos(t)), abs(z[1] + math.sin(t))) for t, z in zip(rec.times, rec.states))
    assert err <= 1e-10
    assert calls["field"] <= 8_000


def test_run_stage_integrates_no_further_than_the_row_where_the_field_ends():
    # the field is defined only up to s = 0.01, just past the arrival at s = 0
    # (t = 1); integrator steps that reach beyond the next sample and meet an
    # undefined state are retried within it, so the stage completes
    def field(s):
        if s[0] > 0.01:
            raise ValueError(f"no control at {s[0]}")
        return (1.0,)

    rec = Recorder()
    t_end, z_end = run_stage(
        step_index=1,
        t0=0.0,
        z0=(-1.0,),
        stage=_stage(
            field=lambda b: field,
            branch=lambda s: 1,
            control=lambda b, s: 1.0,
            residual=lambda s: 1.0,
            slide_branch=lambda s: 0,
            arrive=lambda s: s[0],
            done=lambda s: abs(s[0]) <= 1e-8,
        ),
        cfg=IntegratorConfig(dt=1e-2, t_max=5.0),
        recorder=rec,
    )
    assert t_end == pytest.approx(1.0, abs=1e-7)
    assert abs(z_end[0]) <= 1e-8
    assert len(rec.times) == 101


def test_run_stage_raises_the_field_error_of_a_step_the_next_sample_needs():
    # dz = 1 from z = 0 with the field undefined past z = 0.5: the sample
    # after t = 0.499 lies at 0.5 + 2.2e-16 (the repeated addition of dt),
    # so the step that must reach it meets an undefined state inside the
    # interval it has to cover.  That error is the run's own: it reaches the
    # caller, and the record ends at t = 0.499, 500 rows
    def field(s):
        if s[0] > 0.5:
            raise ValueError(f"no field at {s[0]}")
        return (1.0,)

    rec = Recorder()
    with pytest.raises(ValueError, match="no field at"):
        run_stage(
            step_index=1,
            t0=0.0,
            z0=(0.0,),
            stage=_stage(
                field=lambda b: field,
                branch=lambda s: 1,
                control=lambda b, s: 1.0,
                residual=lambda s: 1.0,
                slide_branch=lambda s: 0,
                done=lambda s: False,
            ),
            cfg=IntegratorConfig(dt=1e-3, t_max=5.0),
            recorder=rec,
        )
    assert len(rec.times) == 500
    assert rec.times[-1] == pytest.approx(0.499, abs=1e-12)


def _simulated(monkeypatch, ahead: int, name: str, x0: tuple, cfg: IntegratorConfig, x0_chart: str):
    """simulate's record, events and step times with engine.AHEAD = ahead,
    and the number of batches of more than one row it read."""
    monkeypatch.setattr(engine, "AHEAD", ahead)
    batches = []
    rows = engine._Flow.rows
    monkeypatch.setattr(engine._Flow, "rows", lambda flow, times: batches.append(len(times)) or rows(flow, times))
    traj, summary = simulate(get_scenario(name), x0, cfg, x0_chart=x0_chart)
    record = [a.tobytes() for a in (traj.times, traj.states_x, traj.states_z, traj.controls, traj.flags)]
    return (record, traj.events, summary.step_times), sum(n > 1 for n in batches)


@pytest.mark.parametrize(
    "name, x0, cfg, x0_chart",
    [
        ("pendulum", (-2.0, 1.0, -1.0, 0.5), IntegratorConfig(dt=1e-3), "x"),
        ("intro2d", (1.0, 1.0), IntegratorConfig(dt=1e-4, t_max=20.0), "x"),
        ("polyodd:3", (1.0, 1.0, 1.0), IntegratorConfig(dt=1e-3, t_max=50.0), "z"),
    ],
    ids=["pendulum", "intro2d", "polyodd:3"],
)
def test_running_ahead_leaves_the_run_bit_identical(monkeypatch, name, x0, cfg, x0_chart):
    # a flow's steps come from its error controller alone, so running up to
    # AHEAD steps past the next sample changes how the rows are batched,
    # and nothing that is recorded
    default, default_batches = _simulated(monkeypatch, engine.AHEAD, name, x0, cfg, x0_chart)
    no_ahead, no_ahead_batches = _simulated(monkeypatch, 0, name, x0, cfg, x0_chart)
    assert default == no_ahead
    assert default_batches < no_ahead_batches


@pytest.mark.parametrize("kind", ["raises", "collapses"])
def test_running_ahead_past_an_arrival_wastes_a_bounded_count_of_steps(monkeypatch, kind):
    # dz = 1 + sin(20 z)/2 crosses the arrival z = 0; past z = 0.05 the
    # field raises, or gains a term (1e3 (z - 0.05))^2 under which z escapes
    # in about 1.6e-3 and the step size collapses.  The steps a flow runs
    # ahead past the arrival are the only extra work: at most AHEAD
    # attempts of 6 field evaluations each (7 as the bound); an uncapped
    # run-ahead into the collapsing field makes thousands
    def run(ahead):
        monkeypatch.setattr(engine, "AHEAD", ahead)
        calls = []

        def field(s):
            calls.append(s)
            x = s[0]
            rate = 1.0 + 0.5 * math.sin(20.0 * x)
            if x <= 0.05:
                return (rate,)
            if kind == "raises":
                raise ValueError(f"no control at {x}")
            return (rate + (1e3 * (x - 0.05)) ** 2,)

        rec = Recorder()
        end = run_stage(
            step_index=1,
            t0=0.0,
            z0=(-1.0,),
            stage=_stage(
                field=lambda b: field,
                branch=lambda s: 1,
                control=lambda b, s: 1.0,
                residual=lambda s: 1.0,
                slide_branch=lambda s: 0,
                arrive=lambda s: s[0],
                done=lambda s: abs(s[0]) <= 1e-8,
            ),
            cfg=IntegratorConfig(dt=1e-3, t_max=5.0),
            recorder=rec,
        )
        return (end, _records(rec)), len(calls)

    ahead = engine.AHEAD
    default, default_calls = run(ahead)
    no_ahead, no_ahead_calls = run(0)
    assert default == no_ahead
    assert abs(default[0][1][0]) <= 1e-8
    assert no_ahead_calls <= default_calls <= no_ahead_calls + 7 * ahead


def _sample_times(t0: float, dt: float, t_max: float, count: int | None = None) -> list:
    """t0 and the sample times after it, by the stage's repeated addition:
    through t_max, or count of them."""
    out = [t0]
    while out[-1] < t_max and (count is None or len(out) <= count):
        out.append(out[-1] + min(dt, t_max - out[-1]))
    return out


def _line(**methods):
    """A stage moving a scalar state at unit rate, with no events."""
    return _stage(
        **{
            "field": lambda b: lambda s: (1.0,),
            "branch": lambda s: 1,
            "control": lambda b, s: 1.0,
            "residual": lambda s: 1.0,
            "slide_branch": lambda s: 0,
            "done": lambda s: False,
            **methods,
        }
    )


def _run_line(stage, dt: float = 1e-3, t_max: float = 1.0, error=Timeout):
    rec = Recorder()
    with pytest.raises(error) as err:
        run_stage(step_index=2, t0=0.0, z0=(0.0,), stage=stage,
                  cfg=IntegratorConfig(dt=dt, t_max=t_max), recorder=rec)
    return rec, str(err.value)


# t_max is m + frac sample spacings past t0, so the last step is short.
# The integrator's steps grow tenfold from dt, so the batches hold 1, 10,
# 100 and 1000 rows, each ending at the end of the covered steps, then
# ROWS rows: the short step falls inside the first batches (m small),
# inside the batch of ROWS rows, or past it.
@given(
    t0=st.one_of(st.just(0.0), st.floats(0.0, 1e6)),
    dt=st.one_of(st.sampled_from([1e-3, 0.1, 1.0 / 3.0]), st.floats(1e-4, 1.0)),
    m=st.one_of(st.integers(0, 60), st.integers(ROWS - 20, ROWS + 1300)),
    frac=st.floats(0.01, 0.99),
    cut=st.one_of(st.none(), st.floats(0.0, 1.0)),
)
@settings(max_examples=40, deadline=None)
def test_run_stage_sample_times_are_the_repeated_addition(t0, dt, m, frac, cut):
    # each recorded time is the float that adding dt one row at a time
    # gives, through the short step at t_max or the first row past a
    # deadline cut somewhere in the run
    t_max = t0 + (m + frac) * dt
    stage = _line(deadline_error=lambda t: StepTimeout(f"late at t={t!r}"))
    want = _sample_times(t0, dt, t_max)
    if cut is not None:
        stage.deadline = t0 + cut * (t_max - t0)
        late = [i for i, tk in enumerate(want) if tk > stage.deadline]
        want = want[: late[0] + 1] if late else want
    rec = Recorder()
    with pytest.raises((Timeout, StepTimeout)):
        run_stage(step_index=2, t0=t0, z0=(0.0,), stage=stage,
                  cfg=IntegratorConfig(dt=dt, t_max=t_max), recorder=rec)
    assert rec.times.tolist() == want


# Rows are read and tested in batches, so events are placed between every
# pair of the first 150 samples: those include the first and the last row
# of a batch and rows of later integrator steps, whatever the batch layout.
EDGE_ROWS = range(1, 150)


def test_run_stage_switch_at_each_row():
    # dz = 1 up to the surface z = c, halfway between rows r - 1 and r, then
    # dz = 2: one switch at t = c, plain rows on the dt grid before it and
    # on the grid from the switch after it
    dt = 1e-3
    for r in EDGE_ROWS:
        c = (r - 0.5) * dt
        rec, _ = _run_line(_line(
            field=lambda b: (lambda s: (1.0,)) if b > 0 else (lambda s: (2.0,)),
            branch=lambda s, c=c: 1 if s[0] < c else -1,
            control=lambda b, s: float(b),
            residual=lambda s, c=c: s[0] - c,
        ), dt, t_max=(r + 80) * dt)
        assert [e.kind for e in rec.events] == ["branch-switch"]
        te = rec.events[0].t
        assert abs(te - c) <= 1e-9
        assert rec.times[:r].tolist() == _sample_times(0.0, dt, 1.0, r - 1)
        assert rec.times[r:].tolist() == _sample_times(te, dt, (r + 80) * dt)
        assert rec.flags.tolist() == [0] * r + [FLAG_SWITCH] + [0] * (len(rec.flags) - r - 1)
        assert rec.controls.tolist() == [1.0] * r + [-1.0] * (len(rec.times) - r)
        assert all(abs(z[0] - t) <= 1e-12 for t, z in zip(rec.times[:r], rec.states))
        assert all(abs(z[0] - (2.0 * t - te)) <= 1e-9 for t, z in zip(rec.times[r:], rec.states[r:]))


def test_run_stage_completes_at_each_row():
    # the arrive coordinate crosses zero halfway between rows r - 1 and r,
    # inside the done band: the stage ends there, after r plain rows
    dt = 1e-3
    for r in EDGE_ROWS:
        c = (r - 0.5) * dt
        rec = Recorder()
        t_end, _ = run_stage(
            step_index=1, t0=0.0, z0=(0.0,),
            stage=_line(arrive=lambda s, c=c: s[0] - c, done=lambda s, c=c: abs(s[0] - c) <= 1e-8),
            cfg=IntegratorConfig(dt=dt, t_max=1.0), recorder=rec,
        )
        assert [e.kind for e in rec.events] == ["step-complete"]
        assert abs(t_end - c) <= 1e-9
        assert rec.times.tolist() == _sample_times(0.0, dt, 1.0, r - 1) + [t_end]
        assert rec.flags.tolist() == [0] * r + [FLAG_COMPLETE]


def test_run_stage_arrive_crossing_outside_done_is_a_plain_row():
    # arrive changes sign mid-batch but done fails at the crossing: the
    # crossing is tested and the row stays plain
    dt = 1e-3
    for r in EDGE_ROWS[::7]:
        c = (r - 0.5) * dt
        probes = []
        rec, _ = _run_line(_line(
            arrive=lambda s, c=c: s[0] - c,
            done=lambda s: probes.append(s[0]) and False,
        ), dt, t_max=0.2)
        assert not rec.events and set(rec.flags) == {0}
        assert rec.times.tolist() == _sample_times(0.0, dt, 0.2)
        assert any(abs(p - c) <= 1e-9 for p in probes)


# Each failure below is raised at the row where a row-by-row run raises
# it, with the same message, after recording the same rows before it.


def test_run_stage_timeout_row():
    rec, msg = _run_line(_line(), t_max=0.1234)
    assert msg == "t_max=0.1234 reached in step 2"
    assert rec.times.tolist() == _sample_times(0.0, 1e-3, 0.1234) and len(rec.times) == 125


def test_run_stage_deadline_row():
    # the first row past the deadline is recorded, then the stage fails
    stage = _line(deadline_error=lambda t: StepTimeout(f"late at t={t!r}"))
    stage.deadline = 0.0505
    rec, msg = _run_line(stage, error=StepTimeout)
    assert msg == "late at t=0.05100000000000004"
    assert rec.times.tolist() == _sample_times(0.0, 1e-3, 1.0, 51)


def test_run_stage_step_size_underflow():
    # dz = z^2 from z = 1 escapes at t = 1: the rejected steps shrink until
    # a smaller one rounds to the same end time, and the stage fails there
    # instead of retrying that step forever
    rec = Recorder()
    start = time.perf_counter()
    with pytest.raises(NonFinite) as err:
        run_stage(step_index=2, t0=0.0, z0=(1.0,), stage=_line(field=lambda b: lambda s: (s[0] * s[0],)),
                  cfg=IntegratorConfig(dt=0.1, t_max=5.0), recorder=rec)
    assert time.perf_counter() - start < 1.0
    assert str(err.value).startswith("step size underflow at t=1 in step 2")
    assert rec.times.tolist() == _sample_times(0.0, 0.1, 1.0, 9)


def test_run_stage_that_starts_done_flags_the_last_row_in_place():
    # a stage that starts inside its done band records no row of its own:
    # the last recorded row, the one it starts on, takes the completion flag
    rec, _ = _run_line(_line(), t_max=0.01)
    times, states = rec.times.tolist(), rec.states.tolist()
    t_end, _ = run_stage(step_index=3, t0=times[-1], z0=tuple(states[-1]), stage=_line(done=lambda s: True),
                       cfg=IntegratorConfig(dt=1e-3, t_max=1.0), recorder=rec)
    assert t_end == times[-1]
    assert [e.kind for e in rec.events] == ["step-complete"]
    assert (rec.times.tolist(), rec.states.tolist()) == (times, states)
    assert rec.flags.tolist() == [0] * (len(times) - 1) + [FLAG_COMPLETE]
    assert len(rec) == len(rec.controls) == len(times)


@pytest.mark.parametrize(
    "kwargs",
    [{"dt": 0.0}, {"dt": -1e-3}, {"dt": EVENT_TOL}, {"dt": 0.5 * EVENT_TOL}, {"t_max": 0.0}, {"t_max": -1.0},
     {"dt": math.inf}, {"t_max": math.inf}],
)
def test_integrator_config_rejects(kwargs):
    with pytest.raises(ValueError):
        IntegratorConfig(**kwargs)


def test_run_stage_nonfinite_row():
    # the field is infinite past z = 0.0505: the rows up to t = 0.05 are
    # integrated, and no step reaches the row at 0.051
    rec, msg = _run_line(_line(field=lambda b: lambda s: (1.0 if s[0] < 0.0505 else math.inf,)), error=NonFinite)
    assert msg == "non-finite state at t=0.051 in step 2"
    assert rec.times.tolist() == _sample_times(0.0, 1e-3, 1.0, 50)


class _Drain(StepPolicy):
    """Drains the block z2 at unit rate: its field reads the control -1.
    It records the control u(z) and switches on the residual g(z), each
    read on one state or on the columns of a batch."""

    def __init__(self, g, u=lambda z: -1.0):
        self.g, self.u = g, u

    def field(self, branch: int, rhs, control):
        return lambda s: rhs(s, -1.0)

    def control(self, branch: int, z) -> float:
        return self.u(z)

    def residual(self, z, span: tuple) -> float:
        return self.g(z)


def _fails_below(level: float):
    """The residual z2, which raises at the first row below level."""

    def g(z):
        for v in np.atleast_1d(z[1]).tolist():
            if v < level:
                raise ValueError(f"no residual at {v}")
        return z[1]

    return g


def _channel_root(z):
    # the pendulum's branch root of alpha u^3 - u + c (alpha = 1/9) at the
    # forcing c = 25 (1 - z2): it has no positive root once c > 2/sqrt(3)
    return _branch_root(PendulumParams(), 25.0 * (1.0 - z[1]), +1)


@pytest.mark.parametrize(
    "drain, error, msg, rows",
    [
        # the hold breaks at t = 0.05, five rows before the residual raises
        pytest.param(_Drain(_fails_below(0.945)), HoldViolation,
                     "block 1 drifted to 1.000e-07 > 1.000e-07 at t=0.05", 49,
                     id="0.945-HoldViolation-block 1 drifted to 1.000e-07 > 1.000e-07 at t=0.05-49"),
        # the residual raises at t = 0.046, before the hold breaks
        pytest.param(_Drain(_fails_below(0.955)), ValueError, "no residual at 0.954", 45,
                     id="0.955-ValueError-no residual at 0.954-45"),
        # the recorded control's cubic has no root on its branch at t = 0.047
        pytest.param(_Drain(lambda z: z[1], _channel_root), NoRealRoot,
                     "extreme root -3.47085 for forcing 1.175 has the wrong sign", 46,
                     id="channel-root-NoRealRoot-46"),
    ],
)
def test_first_failing_row_wins(drain, error, msg, rows):
    # block 1 starts done; step 2 leaks 2e-6 u into it, so it leaves the
    # 10 delta band at t = 0.05, in the batch that also holds the row where
    # the residual or the recorded control raises
    system = BlockSystem(blocks=BlockPartition(sizes=(1, 1)), H=lambda z, u: (2e-6 * u, u))
    rec = Recorder()
    with pytest.raises(error) as err:
        orchestrate(system, (0.0, 1.0), [ConstSign(level=1.0), drain],
                    IntegratorConfig(dt=1e-3, t_max=10.0), recorder=rec)
    assert str(err.value) == msg
    assert rec.times.tolist() == _sample_times(0.0, 1e-3, 1.0, rows)
    # step 1 completes on the start row without adding one: that row takes
    # the completion flag in place
    assert (rec.events[0].kind, rec.events[0].t) == ("step-complete", 0.0)
    assert rec.flags.tolist() == [FLAG_COMPLETE] + [0] * rows


def test_a_run_past_z2_32_grows_the_curve_table():
    # example51 with a custom f2 from z2 = 31.9: the block coasts out to
    # z2 = 32.33 before it turns, and its curve table grows with it, one
    # row per interval the run reaches (a table fixed at |z2| <= 32 ended
    # this run at z2 = 32)
    scn = example51(f2=lambda v: v + 0.2 * math.sin(v))
    rec = Recorder()
    run, _ = orchestrate(scn.system, (0.0, 31.9, 1.0), scn.policies, IntegratorConfig(dt=1e-3, t_max=50.0),
                         recorder=rec)
    assert run.step_times == pytest.approx([0.0, 12.209062412797078], abs=1e-9)
    reach = float(np.max(rec.states[:, 1]))
    assert 32.3 < reach < 32.4
    assert scn.policies[1].w.built[+1] == int(reach / stepwise._ArrivalCurve.h) + 1


def _mapped_line(z_of, rec: Recorder, dt: float = 1e-3):
    """orchestrate on dz = 1 from z = -1, completing at t = 1, integrated
    in a chart that is z itself but mapped to z through z_of."""
    system = BlockSystem(blocks=BlockPartition(sizes=(1,)), H=lambda z, u: (u,))
    run, _ = orchestrate(system, (-1.0,), [ConstSign(level=1.0)], IntegratorConfig(dt=dt, t_max=2.0),
                         recorder=rec, chart=(lambda x, u: (u,), z_of))
    return run


def test_chart_map_reads_a_batch_per_call():
    # z_of maps a batch of sample rows in one call on its columns, in
    # batches of up to ROWS rows that grow with the integrator's steps;
    # one-state calls are the start, the end and the probes of the
    # completion's bisection
    sizes = []

    def z_of(x):
        sizes.append(np.size(x[0]))
        return x

    rec = Recorder()
    _mapped_line(z_of, rec, dt=1e-4)
    batches = [n for n in sizes if n > 1]
    assert len(rec.times) > 2 * ROWS
    assert max(batches) == ROWS and len(batches) < 10
    assert len(sizes) < 50


@pytest.mark.parametrize("row", [1, 2, 11, 12, 75, 76, 300])
def test_chart_map_failure_ends_the_run_at_its_row(row):
    # the map raises from halfway before the given row on: every row before
    # it is recorded, and the error is the map's own
    edge = -1.0 + (row - 0.5) * 1e-3

    def z_of(x):
        # x is one state or the columns of a batch: raise if any row is past
        if np.any(np.asarray(x[0]) > edge):
            raise ValueError(f"no chart past {edge}")
        return x

    rec = Recorder()
    with pytest.raises(ValueError) as err:
        _mapped_line(z_of, rec)
    assert str(err.value) == f"no chart past {edge}"
    assert rec.times.tolist() == _sample_times(0.0, 1e-3, 2.0, row - 1)


def test_chart_map_failure_past_the_completion_row():
    # the map raises only on rows past the arrival at z = 0, which the
    # batch that holds the completion row also reads: the step ends as if
    # the map never raised
    raised = []

    def z_of(x):
        if np.any(np.asarray(x[0]) > 1e-6):
            raised.append(x[0])
            raise ValueError(f"no chart at {x[0]}")
        return x

    rec, clean = Recorder(), Recorder()
    run = _mapped_line(z_of, rec)
    clean_run = _mapped_line(lambda x: x, clean)
    assert raised
    assert run.step_times == clean_run.step_times
    assert rec.times.tolist() == clean.times.tolist()
    assert rec.states.tolist() == clean.states.tolist()
    assert rec.flags.tolist() == clean.flags.tolist()


# A batch gives its residuals and its recorded controls for every row, so
# it also reads them on the rows past an event in the same batch.  Where
# those raise, the batch is read again one row at a time up to the event:
# the run records what a run whose callback never raises records.  The
# event sits between rows r - 1 and r; rows 11 to 110 are one batch.


def _records(rec: Recorder) -> tuple:
    return rec.times.tolist(), rec.states.tolist(), rec.controls.tolist(), rec.flags.tolist()


def test_residual_failure_past_the_completion_row():
    dt = 1e-3
    for r in (2, 11, 12, 50, 109):
        c = (r - 0.5) * dt

        def run(residual):
            rec = Recorder()
            run_stage(step_index=1, t0=0.0, z0=(0.0,),
                      stage=_line(residual=residual, arrive=lambda s: s[0] - c, done=lambda s: abs(s[0] - c) <= 1e-8),
                      cfg=IntegratorConfig(dt=dt, t_max=1.0), recorder=rec)
            return rec

        def residual(s):
            if s[0] > c + 0.75 * dt:
                raise ValueError(f"no residual at {s[0]}")
            return 1.0

        rec, clean = run(residual), run(lambda s: 1.0)
        assert [e.kind for e in rec.events] == ["step-complete"]
        assert _records(rec) == _records(clean)


def test_control_failure_past_the_switch_row():
    dt = 1e-3
    for r in (2, 11, 12, 50, 109):
        c = (r - 0.5) * dt

        def run(control):
            rec, _ = _run_line(_line(
                field=lambda b: (lambda s: (1.0,)) if b > 0 else (lambda s: (2.0,)),
                branch=lambda s: 1 if s[0] < c else -1,
                control=control,
                residual=lambda s: s[0] - c,
            ), dt, t_max=0.2)
            return rec

        def control(b, s):
            # the first branch has no control past the switch row
            if b > 0 and s[0] > c + 0.75 * dt:
                raise ValueError(f"no control at {s[0]}")
            return float(b)

        rec, clean = run(control), run(lambda b, s: float(b))
        assert [e.kind for e in rec.events] == ["branch-switch"]
        assert _records(rec) == _records(clean)


def test_batches_after_a_failed_batch_and_a_switch_are_full_size():
    # the state moves along z1 up to the surface z1 = c, then along z2; the
    # done test raises on the rows past the surface that the batch holding
    # the switch row reads from the first branch's flow.  The batches read
    # after the switch are the same as in a run whose done test never raises
    dt = 1e-3
    c = 49.5 * dt

    def run(done):
        sizes = []  # (events so far, rows) of each batch read
        rec = Recorder()
        stage = _stage(
            field=lambda b: (lambda s: (1.0, 0.0)) if b > 0 else (lambda s: (0.0, 1.0)),
            branch=lambda s: 1 if s[0] < c else -1,
            control=lambda b, s: float(b),
            residual=lambda s: s[0] - c,
            slide_branch=lambda s: 0,
            done=done,
        )
        rows = stage.rows
        stage.rows = lambda t, y: sizes.append((len(rec.events), len(t))) or rows(t, y)
        with pytest.raises(Timeout):
            run_stage(step_index=1, t0=0.0, z0=(0.0, 0.0), stage=stage,
                      cfg=IntegratorConfig(dt=dt, t_max=0.3), recorder=rec)
        return rec, [n for events, n in sizes if events == 1]

    raised = []

    def done(s):
        if s[0] > c + 0.75 * dt:
            raised.append(s[0])
            raise ValueError(f"no done test at {s[0]}")
        return False

    rec, after = run(done)
    clean, clean_after = run(lambda s: False)
    assert raised and [e.kind for e in rec.events] == ["branch-switch"]
    assert rec.times.tolist() == clean.times.tolist()
    assert rec.states.tolist() == clean.states.tolist()
    assert rec.controls.tolist() == clean.controls.tolist()
    assert after == clean_after and max(after) > 1


def test_flow_rows_match_the_scalar_interpolant():
    # the batch read of the dense output, over several steps, is the scalar
    # formula, bit for bit
    from stepsynth.engine import _Flow

    flow = _Flow(lambda s: (s[1], -s[0]), 0.0, (1.0, 0.0), 0.3, 10.0, 1)
    flow.cover(0.0, 2.0)
    # a time at the end of a step reads that step, not the next
    times = sorted({k / 64.0 for k in range(1, 129)} | {tb for _, tb, _ in flow.pieces[:-1]})

    def scalar(t):
        for ta, tb, coef in flow.pieces:
            if t <= tb:
                break
        s = (t - ta) / (tb - ta)
        s1 = 1.0 - s
        return tuple(a + s * (b + s1 * (c + s * (d + s1 * e))) for a, b, c, d, e in coef.T.tolist())

    assert len(flow.pieces) > 3
    y = flow.rows(np.array(times))
    # (rows, n), component-major: each component's column is contiguous
    assert y.shape == (len(times), 2) and y.T.flags.c_contiguous
    assert y.tolist() == [list(scalar(t)) for t in times]


def test_flow_rows_read_a_step_end_from_that_step():
    # each step's extension is shifted by its index, so the two steps that
    # share an end give different states there: a batch and a one-row read
    # (as event bisection makes them) both take the earlier step's
    from stepsynth.engine import _Flow

    flow = _Flow(lambda s: (s[1], -s[0]), 0.0, (1.0, 0.0), 0.3, 10.0, 1)
    flow.cover(0.0, 2.0)
    flow.pieces[:] = [(ta, tb, coef + [[j], [0], [0], [0], [0]]) for j, (ta, tb, coef) in enumerate(flow.pieces)]
    # at s = 1 the extension is a + b
    want = [(coef[0] + coef[1]).tolist() for _, _, coef in flow.pieces[:-1]]
    ends = [tb for _, tb, _ in flow.pieces[:-1]]
    assert len(ends) > 3
    assert flow.rows(np.array(ends)).tolist() == want
    assert [flow.rows(np.array([t])).tolist()[0] for t in ends] == want


def _chatter_stage(slide_rate: float, t_max: float):
    """run_stage on a scalar state whose branches point at each other across
    x=0; the slide branch moves at slide_rate.  Forces the chattering path."""
    rec = Recorder()
    cfg = IntegratorConfig(dt=1e-3, t_max=t_max)
    rhs = {
        +1: lambda s: (1.0,),
        -1: lambda s: (-1.0,),
        0: lambda s: (slide_rate,),
    }
    with pytest.raises(Timeout):
        run_stage(
            step_index=1,
            t0=0.0,
            z0=(0.3452,),
            stage=_stage(
                field=lambda b: rhs[b],
                branch=lambda s: -1 if s[0] > 0 else +1,
                control=lambda b, s: float(b),
                residual=lambda s: s[0],
                slide_branch=lambda s: 0,
                done=lambda s: abs(s[0]) <= 1e-14,
            ),
            cfg=cfg,
            recorder=rec,
        )
    return rec


def test_slide_regime_engages_on_chattering():
    # invariant surface: the slide branch freezes the state, so after the
    # second crossing inside 4 dt the run stays in the slide regime
    rec = _chatter_stage(slide_rate=0.0, t_max=1.0)
    kinds = [e.kind for e in rec.events]
    assert kinds.count("branch-switch") == 1
    enters = [e for e in rec.events if e.kind == "surface-slide" and e.detail == "enter"]
    assert len(enters) == 1
    # no further switching after the slide engages
    assert kinds[-1] == "surface-slide"
    assert 3 in rec.flags


def test_slide_hysteresis_bounds_event_rate():
    # a drifting slide branch forces release/re-entry cycles; hysteresis
    # keeps the event count far below the one-per-step chattering rate
    rec = _chatter_stage(slide_rate=0.01, t_max=1.0)
    kinds = [e.kind for e in rec.events]
    assert kinds.count("surface-slide") >= 2  # at least one release + re-entry
    assert len(rec.events) < 50  # pure chattering would be ~650


def test_orchestrate_curve_switch_chatters_into_the_slide_regime(monkeypatch):
    # H = u with the curve w = 0: the velocity is driven to 0 and then
    # chatters across it while the position rests at 1, so the run slides
    # on the branch of the position's sign (_Stage.slide_branch, u = +1),
    # releases as that branch drifts off the curve, and re-enters, until
    # t_max
    calls = []
    slide = stepwise._Stage.slide_branch
    monkeypatch.setattr(stepwise._Stage, "slide_branch", lambda stage, s: calls.append(s) or slide(stage, s))
    system = BlockSystem(blocks=BlockPartition(sizes=(2,)), H=lambda z, u: (u,))
    pol = CurveSwitch(w=lambda pos: 0.0 * pos, u_plus=lambda z: 1.0, u_minus=lambda z: -1.0)
    rec = Recorder()
    with pytest.raises(Timeout):
        orchestrate(system, (1.0, 0.5), [pol], IntegratorConfig(dt=1e-3, t_max=2.0), recorder=rec)
    slides = [e.detail for e in rec.events if e.kind == "surface-slide"]
    enters = slides.count("enter")
    assert enters >= 2 and slides.count("release") == enters
    assert len(calls) >= enters and all(pol.slide_branch(s, (0, 2)) == +1 for s in calls)
    assert 3 in rec.flags
