"""Two-link pendulum scenario: channels, branch roots, curves, step-1 times."""

import importlib
import math
import sys

import numpy as np
import pytest
from scipy.integrate import simpson

from stepsynth import (
    CurveSwitch,
    IntegratorConfig,
    NoRealRoot,
    PendulumParams,
    pendulum,
    pendulum_H,
    pendulum_T1_analytic,
    pendulum_u1pm,
    pendulum_u2pm,
    pendulum_w1,
    pendulum_w2,
    orchestrate,
    rk4_step,
    simulate,
    stepwise,
)
from stepsynth.pendulum import _branch_root

from paper_oracles import pendulum_energy

P = PendulumParams()


# --- params ---


def test_params_defaults():
    assert P.m1 == P.m2 == P.l1 == P.l2 == P.g == 1.0
    assert P.alpha == pytest.approx(1.0 / 9.0)
    assert (P.eps1p, P.eps1m) == (20.0, 10.0)


def test_params_validation():
    with pytest.raises(ValueError):
        PendulumParams(m1=-1.0)
    with pytest.raises(ValueError):
        PendulumParams(l2=0.0)
    with pytest.raises(ValueError):
        PendulumParams(eps1p=0.0)
    with pytest.raises(ValueError):
        PendulumParams(alpha=0.0)
    # cap is (4/27) l1^2 / g^2; 1/9 sits below it, 0.15 above
    with pytest.raises(ValueError):
        PendulumParams(alpha=0.15)
    PendulumParams(alpha=4.0 / 27.0)  # boundary admissible
    PendulumParams(alpha=0.15, l1=2.0)  # cap scales with l1^2


def test_alpha_cap_past_the_float_range():
    # the cap (4/27) (l1/g)^2 overflows to inf, or underflows to 0, rather
    # than raise before the named check
    PendulumParams(g=1e-200)
    PendulumParams(l1=1e200)
    with pytest.raises(ValueError, match="alpha"):
        PendulumParams(g=1e200)


@pytest.mark.parametrize("name", ["m1", "m2", "l1", "l2", "g", "eps1p", "eps1m"])
def test_params_must_be_finite(name):
    # an infinite mass, length or margin is refused by name, as a
    # non-positive one is, rather than make the first step non-finite
    with pytest.raises(ValueError, match=f"{name} must be positive and finite"):
        PendulumParams(**{name: math.inf})


# --- channels ---


@pytest.mark.parametrize(
    "c", [1e154, -1e154, 1e200, -1e200, 1e300, -1e300, 1.7e308, -1.7e308, sys.float_info.max, -sys.float_info.max]
)
def test_branch_root_of_a_huge_forcing(c):
    # alpha u^3 - u + c has one real root, of the sign opposite to c's: the
    # branch on that side gets it, the other raises NoRealRoot, alone and on
    # a column
    side = -1 if c > 0.0 else +1
    u = _branch_root(P, c, side)
    assert math.isfinite(u) and (u > 0.0) == (side > 0)
    assert _branch_root(P, np.array([c]), side).tolist() == [u]
    with pytest.raises(NoRealRoot, match="wrong sign"):
        _branch_root(P, c, -side)
    with pytest.raises(NoRealRoot, match="wrong sign"):
        _branch_root(P, np.array([c]), -side)


def test_H_rest_point():
    assert pendulum_H(P, (0.0, 0.0, 0.0, 0.0), 0.0) == (0.0, 0.0)


def test_H_plane_form():
    # with the relative coordinates at zero the channels collapse to
    # H1 = alpha u^3 - u - (g/l1) sin z3 and H2 = u
    rng = np.random.default_rng(3)
    for _ in range(25):
        z3, z4, u = rng.uniform(-3, 3, size=3)
        h1, h2 = pendulum_H(P, (0.0, 0.0, z3, z4), u)
        assert h1 == pytest.approx(P.alpha * u**3 - u - math.sin(z3), abs=1e-12)
        assert h2 == pytest.approx(u, abs=1e-12)


def test_H_matches_acceleration_difference():
    # the block channels and the original-chart accelerations are coded
    # independently; (H1, H2) must equal (b1 - b2, b2) through the chart
    from stepsynth.pendulum import _beta

    scn = pendulum()
    rng = np.random.default_rng(7)
    for _ in range(25):
        z = tuple(rng.uniform(-2, 2, size=4))
        u = float(rng.uniform(-5, 5))
        b1, b2 = _beta(P, scn.from_z(z), u)
        h1, h2 = pendulum_H(P, z, u)
        scale = max(1.0, abs(b1), abs(b2))
        assert abs(h1 - (b1 - b2)) <= 1e-9 * scale
        assert abs(h2 - b2) <= 1e-9 * scale


# --- step-1 branch roots ---


def test_u1pm_values_at_origin():
    up = pendulum_u1pm(P, (0.0, 0.0, 0.0, 0.0), +1)
    um = pendulum_u1pm(P, (0.0, 0.0, 0.0, 0.0), -1)
    assert up == pytest.approx(6.176123115575650, rel=1e-12)
    assert um == pytest.approx(-5.146584047301351, rel=1e-12)
    assert up**3 / 9.0 - up - 20.0 == pytest.approx(0.0, abs=1e-10)
    assert um**3 / 9.0 - um + 10.0 == pytest.approx(0.0, abs=1e-10)


def test_u1pm_defining_residual():
    rng = np.random.default_rng(12)
    for _ in range(40):
        z = tuple(rng.uniform(-1, 1, size=4))
        up = pendulum_u1pm(P, z, +1)
        um = pendulum_u1pm(P, z, -1)
        h1p = pendulum_H(P, z, up)[0]
        h1m = pendulum_H(P, z, um)[0]
        scale = max(1.0, abs(h1p), abs(h1m), P.eps1p)
        assert abs(h1p - P.eps1p) <= 1e-10 * scale
        assert abs(h1m + P.eps1m) <= 1e-10 * scale
        assert up > 0.0 > um


def test_u1pm_no_root_on_branch():
    # drift overwhelms the margin: the cubic has no root on the asked side
    assert issubclass(NoRealRoot, RuntimeError)
    with pytest.raises(NoRealRoot):
        pendulum_u1pm(P, (-0.5, -4.0, -1.0, -4.0), +1)
    with pytest.raises(NoRealRoot):
        pendulum_u1pm(P, (0.5, 4.0, 1.0, 4.0), -1)


def test_w1_values():
    assert pendulum_w1(P, 0.0) == 0.0
    assert pendulum_w1(P, 0.1) == pytest.approx(-2.0, rel=1e-14)
    assert pendulum_w1(P, -1.0) == pytest.approx(math.sqrt(20.0), rel=1e-14)


# --- step-2 branch roots and curve ---


def test_u2pm_at_zero():
    assert pendulum_u2pm(P, 0.0, +1) == pytest.approx(3.0, rel=1e-12)
    assert pendulum_u2pm(P, 0.0, -1) == pytest.approx(-3.0, rel=1e-12)


def test_u2pm_frozen_value():
    assert pendulum_u2pm(P, -math.pi / 2.0, +1) == pytest.approx(
        2.226681596905678, rel=1e-12
    )


def test_u2pm_sign_bounds_and_residual():
    for z3 in np.linspace(-math.pi, math.pi, 101):
        up = pendulum_u2pm(P, float(z3), +1)
        um = pendulum_u2pm(P, float(z3), -1)
        assert up > 0.0 > um
        assert abs(P.alpha * up**3 - up - math.sin(z3)) <= 1e-10
        assert abs(P.alpha * um**3 - um - math.sin(z3)) <= 1e-10


def test_u2pm_odd_symmetry():
    for z3 in (0.3, 1.1, 2.5):
        assert pendulum_u2pm(P, -z3, -1) == pytest.approx(
            -pendulum_u2pm(P, z3, +1), rel=1e-11
        )


def simpson_w2(z3, points=4097):
    """Independent composite-Simpson evaluation of the curve integral."""
    if z3 == 0.0:
        return 0.0
    if z3 > 0.0:
        xs = np.linspace(0.0, z3, points)
        ys = [pendulum_u2pm(P, float(x), +1) for x in xs]
        return -math.sqrt(2.0 * simpson(ys, x=xs))
    xs = np.linspace(z3, 0.0, points)
    ys = [pendulum_u2pm(P, float(x), -1) for x in xs]
    return math.sqrt(-2.0 * simpson(ys, x=xs))


def test_w2_matches_simpson_oracle():
    for z3 in (-3.0, -2.0, -1.0, -0.4, -0.05, 0.05, 0.4, 1.0, 2.0, 3.0):
        assert abs(pendulum_w2(P, z3) - simpson_w2(z3)) <= 1e-8


def test_w2_shape():
    assert pendulum_w2(P, 0.0) == 0.0
    vals = [pendulum_w2(P, z3) for z3 in (0.5, 1.0, 2.0, 4.0)]
    assert all(v < 0.0 for v in vals)
    assert all(b < a for a, b in zip(vals, vals[1:]))  # decreasing
    # odd forcing makes the curve odd
    assert pendulum_w2(P, -1.3) == pytest.approx(-pendulum_w2(P, 1.3), rel=1e-9)


def test_w2_table_matches_quadrature():
    w_fast = pendulum().policies[1].w
    assert w_fast(0.0) == 0.0
    for z3 in np.linspace(-6.5, 6.5, 27):
        assert abs(w_fast(float(z3)) - pendulum_w2(P, float(z3))) <= 1e-8
    # the table grows past |z3| = 7 as far as a read asks, with no
    # quadrature: it still matches the reference there
    for s in np.linspace(7.0, 60.0, 54):
        for z3 in (float(s), -float(s)):
            assert w_fast(z3) == pytest.approx(pendulum_w2(P, z3), rel=1e-10)


def test_w2_hermite_table_dense_grid(monkeypatch):
    # the package namespace shadows the module with the pendulum() factory
    mod = importlib.import_module("stepsynth.pendulum")
    calls = [0]
    solve = mod.pendulum_u2pm

    def counted(*args):
        calls[0] += 1
        return solve(*args)

    monkeypatch.setattr(mod, "pendulum_u2pm", counted)
    w_fast = mod._w2_table(P)
    assert calls[0] == 0  # building reads no channel root
    w_fast(6.99)
    w_fast(-6.99)
    # rows 0..1022 of each side: the start slope, then two slopes per row
    assert calls[0] == 2 * (1 + 2 * 1023)
    monkeypatch.undo()
    for s in np.linspace(0.005, 6.99, 700):
        s = float(s)
        for z3 in (s, -s):
            assert abs(w_fast(z3) - pendulum_w2(P, z3)) <= 1e-10
        assert abs(w_fast(-s) + w_fast(s)) <= 1e-14  # odd forcing, odd table


def test_released_far_out_the_pendulum_runs_without_quadrature(monkeypatch):
    # from rest at phi = psi = 8, unwrapped: step 2 reads w2 out to |z3| = 8,
    # past where a table fixed at |z3| <= 7 called pendulum_w2 on each read
    mod = importlib.import_module("stepsynth.pendulum")
    calls = [0]

    def counted(*args):
        calls[0] += 1
        return pendulum_w2(*args)

    monkeypatch.setattr(mod, "pendulum_w2", counted)
    scn = pendulum()
    _, summary = simulate(scn, (8.0, 0.0, 8.0, 0.0), IntegratorConfig())
    assert calls[0] == 0
    assert summary.step_times == pytest.approx([0.0, 3.3990531819371053], abs=1e-9)
    # the table holds the rows out to the start's z3 = 8, and no further
    assert scn.policies[1].w.built[+1] == int(8.0 / stepwise._ArrivalCurve.h) + 1


# --- analytic step-1 times ---


def test_T1_analytic_frozen():
    t11, t12, t1 = pendulum_T1_analytic(P, (-1.0, 0.5, -1.0, 0.5))
    assert t11 == pytest.approx(0.158143841465299, rel=1e-12)
    assert t1 == pytest.approx(0.524431524395898, rel=1e-12)
    assert t11 + t12 == pytest.approx(t1, rel=1e-14)


def test_T1_analytic_origin_and_curve():
    assert pendulum_T1_analytic(P, (0.0, 0.0, 3.0, -1.0)) == (0.0, 0.0, 0.0)
    # starting on the curve leaves only the arrival arc
    t11, t12, t1 = pendulum_T1_analytic(P, (0.1, pendulum_w1(P, 0.1), 0.0, 0.0))
    assert t11 == 0.0
    assert t1 == pytest.approx(0.1, rel=1e-12)  # -z2/eps1p = 2/20
    t11, t12, t1 = pendulum_T1_analytic(P, (-1.0, pendulum_w1(P, -1.0), 0.0, 0.0))
    assert t11 == 0.0
    assert t1 == pytest.approx(math.sqrt(20.0) / 10.0, rel=1e-12)


def arcs_land_at_origin(z1, z2):
    """Propagate the two parabolic arcs by the returned times; assert arrival."""
    t11, t12, _ = pendulum_T1_analytic(P, (z1, z2, 0.0, 0.0))
    assert t11 >= 0.0 and t12 >= 0.0
    w = pendulum_w1(P, z1)
    acc1, acc2 = (P.eps1p, -P.eps1m) if z2 < w else (-P.eps1m, P.eps1p)
    z1a = z1 + z2 * t11 + 0.5 * acc1 * t11**2
    z2a = z2 + acc1 * t11
    # the switch lands on the curve
    assert abs(z2a - pendulum_w1(P, z1a)) <= 1e-9 * max(1.0, abs(z2a))
    z1f = z1a + z2a * t12 + 0.5 * acc2 * t12**2
    z2f = z2a + acc2 * t12
    assert abs(z1f) <= 1e-9 and abs(z2f) <= 1e-9


def test_T1_analytic_arc_consistency():
    rng = np.random.default_rng(5)
    count = 0
    while count < 30:
        z1, z2 = rng.uniform(-2, 2, size=2)
        if abs(z2 - pendulum_w1(P, float(z1))) < 1e-3:
            continue
        arcs_land_at_origin(float(z1), float(z2))
        count += 1


# --- scenario assembly ---


def test_scenario_structure():
    scn = pendulum()
    assert scn.n == 4
    assert scn.blocks.sizes == (2, 2)
    assert all(isinstance(pol, CurveSwitch) for pol in scn.policies)
    assert scn.to_z((-2.0, 1.0, -1.0, 0.5)) == (-1.0, 0.5, -1.0, 0.5)
    assert scn.from_z((-1.0, 0.5, -1.0, 0.5)) == (-2.0, 1.0, -1.0, 0.5)
    assert scn.params["alpha"] == pytest.approx(1.0 / 9.0)
    sched = scn.analytic_schedule((-1.0, 0.5, -1.0, 0.5))
    assert sched == pytest.approx([0.524431524395898], rel=1e-12)


def test_scenario_custom_params():
    scn = pendulum(PendulumParams(eps1p=8.0, eps1m=8.0))
    assert scn.params["eps1p"] == 8.0
    # symmetric margins give the symmetric two-arc time from (0, z2)
    t11, _, t1 = pendulum_T1_analytic(
        PendulumParams(eps1p=8.0, eps1m=8.0), (0.0, 1.0, 0.0, 0.0)
    )
    assert t1 == pytest.approx(t11 * (1.0 + math.sqrt(2.0)) / (1 + 1 / math.sqrt(2)), rel=1e-9)


# --- energy ---


def test_energy_reference_values():
    assert pendulum_energy(P, (0.0, 0.0, 0.0, 0.0)) == pytest.approx(-3.0)
    # raising the first link to horizontal removes its potential terms
    assert pendulum_energy(P, (math.pi / 2.0, 0.0, 0.0, 0.0)) == pytest.approx(-1.0)


def test_energy_conserved_without_control():
    scn = pendulum()
    rhs = lambda x: scn.f(x, 0.0)
    x = (0.9, 0.0, -0.4, 0.0)
    e0 = pendulum_energy(P, x)
    h = 1e-5
    for _ in range(100_000):
        x = rk4_step(rhs, x, h)
    assert abs(pendulum_energy(P, x) - e0) <= 1e-6


# --- integration against an independent solver ---


def test_first_branch_segment_matches_dop853(monkeypatch):
    # the samples of the run from the default start up to its first event
    # follow one branch field; scipy's DOP853 at 1e-13 is the oracle.  The
    # whole run makes fewer field evaluations than it records samples (a
    # fixed-step RK4 at dt makes four per sample)
    from scipy.integrate import solve_ivp

    scn = pendulum()
    z0 = scn.to_z((-2.0, 1.0, -1.0, 0.5))
    policy, span = scn.policies[0], scn.blocks.bounds(1)
    branch = policy.branch(z0, span)
    calls = {"rhs": 0}
    rhs = stepwise.BlockSystem.rhs

    def counted(self, z, u):
        calls["rhs"] += 1
        return rhs(self, z, u)

    monkeypatch.setattr(stepwise.BlockSystem, "rhs", counted)
    _, rec = orchestrate(scn.system, z0, scn.policies, IntegratorConfig(dt=1e-3, t_max=10.0))
    assert calls["rhs"] < len(rec.times)
    monkeypatch.undo()
    t_event = rec.events[0].t
    rows = [(t, z) for t, z in zip(rec.times, rec.states) if t < t_event]
    assert len(rows) > 100
    times = [t for t, _ in rows]
    ref = solve_ivp(
        lambda t, z: scn.system.rhs(tuple(z), policy.control(branch, tuple(z))),
        (0.0, times[-1]),
        z0,
        method="DOP853",
        rtol=1e-13,
        atol=1e-13,
        t_eval=times,
    )
    assert ref.success
    err = max(abs(a - b) for k, (_, z) in enumerate(rows) for a, b in zip(z, ref.y[:, k]))
    assert err <= 1e-9


# --- events of the step-2 ride ---


# Halton points 16 and 18 of the pendulum's sample box (angles +-pi, rates
# +-3), mappability.halton_samples(box, 24), by their exact floats
HALTON = {
    16: "-0x1.78fdb9effea46p+1 0x1.1c71c71c71c70p-1 -0x1.21877845a0bfcp+0 -0x1.0a72f0539782ap+0",
    18: "-0x1.5fdbbe9bba775p+0 -0x1.471c71c71c71cp+1 0x1.61de768dfd5c4p+0 0x1.58d0fac687d64p-1",
}


@pytest.mark.parametrize("dt", [1e-3, 1e-4])
@pytest.mark.parametrize("k", sorted(HALTON))
def test_step_two_rides_its_curve_to_rest(k, dt):
    # step 2 reaches its switching curve, an integral curve of one branch:
    # Filippov's test keeps the branch that rides it, whatever the sign of
    # the rounding-level residual, and the run comes to rest with every
    # hold residual inside 10 delta (it ran away past the origin when the
    # branch came from that sign)
    x0 = tuple(float.fromhex(v) for v in HALTON[k].split())
    traj, summary = simulate(pendulum(), x0, IntegratorConfig(dt=dt))
    assert max(summary.hold_residuals) <= 10.0 * summary.delta
    assert summary.final_state_norm <= 1e-6
    assert [e[1] for e in traj.events][-1] == "step-complete"
    assert summary.step_times == pytest.approx({16: [0.670777, 6.476343], 18: [1.112884, 42.361324]}[k], abs=1e-6)


def test_step_times_match_an_event_locating_oracle():
    # scipy's solve_ivp on the pendulum's branch fields (block chart), with
    # event functions for the switching curves and the arrivals at rtol =
    # atol = 1e-12: from the default start, u_plus up to the step-1 curve,
    # the branch that rides it to z2 = 0, then from that state step 2's
    # branch up to its curve and its ride to z4 = 0.  The run's step times
    # agree with the oracle's to 1e-8
    from scipy.integrate import solve_ivp

    scn = pendulum()
    t, z, times = 0.0, np.array(scn.to_z((-2.0, 1.0, -1.0, 0.5))), []
    for i, policy in enumerate(scn.policies, start=1):
        a = scn.blocks.bounds(i)[0]

        def run(branch, event):
            # branch's field from (t, z) up to the first zero of event
            event.terminal = True
            sol = solve_ivp(lambda t_, y: scn.system.rhs(tuple(y), policy.control(branch, tuple(y))),
                            (t, t + 20.0), z, method="DOP853", rtol=1e-12, atol=1e-12, events=event)
            assert sol.status == 1
            return float(sol.t_events[0][0]), sol.y_events[0][0]

        t, z = run(policy.branch(tuple(z), (a, a + 2)), lambda t_, y: y[a + 1] - policy.w(float(y[a])))
        # on the curve, the branch of the position's sign rides it
        t, z = run(+1 if z[a] >= 0.0 else -1, lambda t_, y: y[a + 1])
        times.append(t)
    _, summary = simulate(scn, (-2.0, 1.0, -1.0, 0.5), IntegratorConfig(dt=1e-3))
    assert summary.step_times == pytest.approx(times, abs=1e-8)
