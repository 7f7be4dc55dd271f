"""Step policies, the stage integrator, and the multi-step orchestration.

The synthetic fixture used throughout: two scalar blocks with channels
H = (u^3 - u/4, u).  Controls u = +-1/2 are roots of the first channel, so
step 2 holds block 1 exactly; every time below is hand-computable.
"""

import math
from types import SimpleNamespace

import numpy as np
import pytest

from stepsynth import (
    BlockPartition,
    BlockSystem,
    ConstSign,
    CurveSwitch,
    DomainError,
    HoldViolation,
    IntegratorConfig,
    LinearSynth,
    NonFinite,
    Recorder,
    StepTimeout,
    ThetaSwitch,
    Timeout,
    audit_theta_switch,
    eval_control,
    gram_n1,
    orchestrate,
    rk4_step,
    run_stage,
    step_done,
    theta_of,
)
from stepsynth import stepwise

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
    assert np.array_equal(b.extract((1, 2, 3, 4, 5, 6), 2), [3, 4, 5])


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
    # inside the theta_min hold band the zero branch applies
    assert eval_control(pol, (1e-12,), b, 1) == 0.25


def test_theta_switch_midpoint_fallback():
    b = BlockPartition(sizes=(1,))
    s = LinearSynth(gram=G1, a0=1.0, d=1.0)
    pol = ThetaSwitch(synth=s, u_plus=lambda z: 3.0, u_minus=lambda z: -1.0)
    assert eval_control(pol, (0.0,), b, 1) == 1.0  # midpoint of 3 and -1


def test_theta_switch_dimension_mismatch():
    b = BlockPartition(sizes=(2,))
    s = LinearSynth(gram=G1, a0=1.0, d=1.0)  # k=1 synth on a 2-block
    pol = ThetaSwitch(synth=s, u_plus=lambda z: 1.0, u_minus=lambda z: -1.0)
    with pytest.raises((ValueError, DomainError)):
        eval_control(pol, (1.0, 0.0), b, 1)


def test_curve_switch_branches():
    b = BlockPartition(sizes=(2,))
    w = lambda p: -math.copysign(math.sqrt(2.0 * abs(p)), p)
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
    pol_abs = ConstSign(level=2.0, coord=0)
    assert eval_control(pol_abs, (-1.0, 9.0), b, 2) == 2.0


def test_eval_control_wraps_callback_errors():
    b = BlockPartition(sizes=(1,))
    s = LinearSynth(gram=G1, a0=1.0, d=1.0)

    def bad(z):
        raise ValueError("outside the admissible set")

    pol = ThetaSwitch(synth=s, u_plus=bad, u_minus=bad)
    with pytest.raises(DomainError):
        eval_control(pol, (1.0,), b, 1)


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
    for rec_step, bound in zip(run.steps, run.theta_bounds):
        assert rec_step.t_end - t_prev <= bound * 1.01
        t_prev = rec_step.t_end

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
        if prev is not None and th > 10 * s1.theta_min:
            slope = (th - prev[1]) / (t - prev[0])
            assert slope <= -1.0 + 1e-2
        prev = (t, th)


def test_step_timeout_on_bad_policy():
    blocks = BlockPartition(sizes=(1,))
    system = BlockSystem(blocks=blocks, H=lambda z, u: (u,))
    s = LinearSynth(gram=G1, a0=1.0, d=1.0)
    # inverted signs: the control pushes away from the origin
    bad = ThetaSwitch(synth=s, u_plus=lambda z: -1.0, u_minus=lambda z: 1.0)
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
    pol2 = ConstSign(level=1.0, coord=1)
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
    assert rec1.times == rec2.times
    assert rec1.states == rec2.states
    assert rec1.controls == rec2.controls


def test_run_json_shape():
    system, policies = two_scalar_fixture()
    cfg = IntegratorConfig(dt=1e-3, t_max=10.0)
    run, _ = orchestrate(system, (1.0, 1.0), policies, cfg)
    d = run.to_json_dict()
    assert set(d) == {"steps", "T_total", "hold_residuals"}
    assert [s["i"] for s in d["steps"]] == [1, 2]
    for s in d["steps"]:
        assert set(s) == {"i", "T_start", "T_end", "theta_bound", "policy"}
        assert s["policy"] == "ThetaSwitch"
    assert d["T_total"] == run.T_total


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
    w = lambda p: -math.copysign(math.sqrt(2.0 * abs(p)), p)
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


def _stage(**methods):
    """A run_stage stage from the given methods: no deadline, no arrival."""
    return SimpleNamespace(deadline=None, arrive=lambda s: 1.0, **methods)


def test_run_stage_work_per_step():
    # dz = u on a scalar state that never reaches the done band, so every
    # step is plain until t_max: per accepted step the stage makes four
    # control solves (the recorded one serves the next k1), one switch
    # residual and one done test, plus one of each at the start state
    from stepsynth.engine import reuse_last

    calls = {"control": 0, "residual": 0, "done": 0}
    control = reuse_last(_counter(calls, "control", lambda b, s: float(b)))
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
    assert calls == {"control": 4 * steps + 1, "residual": steps + 1, "done": steps + 1}


def test_reuse_last_keys_on_the_state_object():
    from stepsynth.engine import reuse_last

    calls = {"map": 0, "control": 0}
    zmap = reuse_last(_counter(calls, "map", lambda s: (2.0 * s[0],)))
    control = reuse_last(_counter(calls, "control", lambda b, s: b * s[0]))
    a, b = (1.0,), tuple([1.0])  # equal states, two objects
    assert zmap(a) is zmap(a) and calls["map"] == 1
    assert zmap(b) == zmap(a) and calls["map"] == 3  # equality is not reuse
    assert control(1, a) == control(1, a) == 1.0 and calls["control"] == 1
    assert control(-1, a) == -1.0 and calls["control"] == 2  # a new branch solves
    assert control(1, a) == 1.0 and calls["control"] == 3  # one entry only


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


def test_orchestrate_work_per_step(monkeypatch):
    # a constant-sign field binds its control: only the recorded ones solve
    calls, steps = _orchestrate_work(monkeypatch, (1,), (1.0,), ConstSign(level=1.0))
    assert steps >= 49
    assert calls == {"control": steps + 1, "residual": steps + 1, "done": steps + 1}


def test_orchestrate_work_per_step_curve_switch(monkeypatch):
    # a curve-switch field solves at its RK4 stages, k1 reusing the recorded
    # solve; the double integrator accelerates below the curve w = 10
    pol = CurveSwitch(w=lambda p: 10.0, u_plus=lambda z: 1.0, u_minus=lambda z: -1.0)
    calls, steps = _orchestrate_work(monkeypatch, (2,), (1.0, 0.0), pol)
    assert steps >= 49
    assert calls == {"control": 4 * steps + 1, "residual": steps + 1, "done": steps + 1}


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
