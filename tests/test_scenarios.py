"""Bundled scenarios: charts, channels, policies, and analytic schedules."""

import math
from fractions import Fraction

import numpy as np
import pytest

from stepsynth import (
    IntegratorConfig,
    RootBracketFailure,
    SCENARIO_NAMES,
    ConstSign,
    CurveSwitch,
    ThetaSwitch,
    example51,
    get_scenario,
    intro2d,
    polyodd,
    polyodd_coeffs,
    simulate,
)
from stepsynth import scenarios

from paper_oracles import eval_control

ALL_NAMES = ("intro2d", "example51", "polyodd:3", "pendulum")


def fd_chart_rate(scn, x, u, eps=1e-6):
    """Finite-difference d/dt of to_z along f, for the chart consistency check."""
    x = np.asarray(x, dtype=float)
    fx = np.asarray(scn.f(tuple(x), u), dtype=float)
    zp = np.asarray(scn.to_z(tuple(x + eps * fx)), dtype=float)
    zm = np.asarray(scn.to_z(tuple(x - eps * fx)), dtype=float)
    return (zp - zm) / (2.0 * eps)


# --- registry ---


def test_registry_names_resolve():
    for name in ALL_NAMES:
        scn = get_scenario(name)
        assert scn.n == scn.blocks.n
        assert len(scn.policies) == scn.blocks.m


def test_registry_unknown_and_malformed():
    with pytest.raises(ValueError):
        get_scenario("nosuch")
    with pytest.raises(ValueError):
        get_scenario("polyodd:x")
    with pytest.raises(ValueError):
        get_scenario("polyodd:1")


def test_registry_param_passthrough():
    scn = get_scenario("polyodd:3", alpha=0.9)
    assert scn.params["alpha"] == 0.9
    pend = get_scenario("pendulum", alpha=0.1)
    assert pend.params["alpha"] == 0.1


def test_scenario_names_listing():
    assert "intro2d" in SCENARIO_NAMES
    assert "pendulum" in SCENARIO_NAMES
    assert any(n.startswith("polyodd") for n in SCENARIO_NAMES)
    assert "example51" in SCENARIO_NAMES


# --- intro2d ---


def test_intro2d_channels():
    scn = intro2d()
    assert scn.to_z((0.3, -0.4)) == (0.3, -0.4)
    h = scn.H((1.0, 1.0), math.pi / 2.0)
    assert h[0] == pytest.approx(1.0, abs=1e-15)
    assert h[1] == pytest.approx(-math.pi / 2.0, abs=1e-12)
    # step-2 level pi moves only the second channel
    h2 = scn.H((1.0, 1.0), math.pi)
    assert h2[0] == pytest.approx(0.0, abs=1e-12)
    assert h2[1] == pytest.approx(math.pi, abs=1e-12)


def test_intro2d_policy_values():
    scn = intro2d()
    assert eval_control(scn.policies[0], (3.0, 5.0), scn.blocks, 1) == -math.pi / 2.0
    assert eval_control(scn.policies[1], (0.0, -2.0), scn.blocks, 2) == math.pi


def test_intro2d_schedule():
    scn = intro2d()
    assert scn.analytic_schedule((1.0, 1.0)) == pytest.approx(
        [1.0, 1.8183098861837907], rel=1e-12
    )
    t = scn.analytic_schedule((-2.0, 3.0))
    assert t[0] == 2.0
    assert t[1] == pytest.approx(2.0 + abs(-1.0 + 3.0 / math.pi), rel=1e-12)


# --- polyodd coefficients ---


def test_polyodd_coeffs_exact_values():
    assert polyodd_coeffs(3, 1) == (Fraction(4, 81), Fraction(-5, 9))
    assert polyodd_coeffs(3, 2) == (Fraction(-1, 9),)
    assert polyodd_coeffs(3, 3) == ()
    assert all(isinstance(c, Fraction) for c in polyodd_coeffs(5, 2))


def test_polyodd_coeffs_validation():
    with pytest.raises(ValueError):
        polyodd_coeffs(3, 0)
    with pytest.raises(ValueError):
        polyodd_coeffs(3, 4)


def eval_p(coeffs, u):
    # P(u) = u^(2d+1) + sum c_k u^(2k-1), exact when both are Fractions
    d = len(coeffs)
    acc = u ** (2 * d + 1)
    for k, c in enumerate(coeffs, start=1):
        acc += c * u ** (2 * k - 1)
    return acc


@pytest.mark.parametrize("n", [3, 4, 5])
def test_polyodd_root_nesting_exact(n):
    # every root lam_k of P_(i+1) is a root of P_i as well: pinning is exact
    for i in range(1, n):
        ci = polyodd_coeffs(n, i)
        for k in range(1, n - i + 1):
            lam = Fraction(k, n)
            assert eval_p(ci, lam) == 0
            assert eval_p(ci, -lam) == 0
    # the step-1 level alpha=1 is a root of no P_i, so it moves block 1
    assert eval_p(polyodd_coeffs(n, 1), Fraction(1)) != 0


# --- polyodd scenario ---


def test_polyodd_levels_and_policies():
    scn = polyodd(3)
    assert scn.blocks.sizes == (1, 1, 1)
    levels = [p.level for p in scn.policies]
    assert levels == pytest.approx([1.0, 2.0 / 3.0, 1.0 / 3.0], rel=1e-15)
    assert all(isinstance(p, ConstSign) for p in scn.policies)
    # step 2 pushes against the sign of z2 at its level
    assert eval_control(scn.policies[1], (0.0, -0.4, 0.7), scn.blocks, 2) == pytest.approx(
        2.0 / 3.0, rel=1e-15
    )


def test_polyodd_schedule_frozen_values():
    scn = polyodd(3)
    sched = scn.analytic_schedule((1.0, 1.0, 1.0))
    assert sched == pytest.approx([2.025, 5.625, 9.75], rel=1e-12)


def test_polyodd_schedule_skips_zero_blocks():
    scn = polyodd(3)
    sched = scn.analytic_schedule((0.0, 1.0, 0.0))
    assert sched[0] == 0.0
    assert sched[1] == pytest.approx(4.5, rel=1e-12)  # 1 / P2(2/3) = 1/(2/9)
    assert sched[2] > sched[1]  # block 3 picked up drift during step 2


def test_polyodd_validation():
    with pytest.raises(ValueError):
        polyodd(1)
    with pytest.raises(ValueError):
        polyodd(3, lambdas=(0.5, 0.4))
    with pytest.raises(ValueError):
        polyodd(3, lambdas=(0.5, 1.0))
    with pytest.raises(ValueError):
        polyodd(3, lambdas=(0.5,))
    with pytest.raises(ValueError):
        polyodd(3, alpha=0.0)
    with pytest.raises(ValueError):
        polyodd(3, alpha=1.2)
    # alpha inside the lambda ladder cannot drive block 1 toward zero
    with pytest.raises(ValueError):
        polyodd(3, alpha=0.5)
    with pytest.raises(ValueError):
        polyodd(3, alpha=2.0 / 3.0)


def test_polyodd_chart_roundtrip():
    scn = polyodd(4)
    rng = np.random.default_rng(11)
    for _ in range(20):
        x = tuple(rng.uniform(-2, 2, size=4))
        back = scn.from_z(scn.to_z(x))
        assert np.max(np.abs(np.array(back) - np.array(x))) <= 1e-10


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
@pytest.mark.parametrize("custom", [False, True])
def test_polyodd_maps_bit_identical_to_generator_forms(n, custom):
    # the precomputed-row maps and field sum the same products in the same
    # order as the per-call generator forms below, so every bit agrees
    lambdas = [0.95 * k / (n - 0.5) for k in range(1, n)] if custom else None
    scn = polyodd(n, lambdas=lambdas)
    rows = [tuple(float(c) for c in polyodd_coeffs(n, i, lambdas)) for i in range(1, n + 1)]

    def to_z(x):
        return tuple(
            x[n - i] + sum(cf * x[k] for k, cf in enumerate(rows[i - 1])) for i in range(1, n + 1)
        )

    def from_z(z):
        x = [0.0] * n
        x[0] = z[n - 1]
        for i in range(n - 1, 0, -1):
            x[n - i] = z[i - 1] - sum(cf * x[k] for k, cf in enumerate(rows[i - 1]))
        return tuple(x)

    def f(x, u):
        return tuple(u ** (2 * i + 1) for i in range(n))

    bits = lambda v: [c.hex() for c in v]
    rng = np.random.default_rng(100 + n)
    states = [tuple(float(v) for v in rng.uniform(-2, 2, size=n)) for _ in range(200)]
    states += [(0.0,) * n, (-0.0,) * n, tuple(float(v) for v in rng.uniform(-1e-8, 1e-8, size=n))]
    for s in states:
        assert bits(scn.to_z(s)) == bits(to_z(s))
        assert bits(scn.from_z(s)) == bits(from_z(s))
        u = float(rng.uniform(-1, 1))
        assert bits(scn.f(s, u)) == bits(f(s, u))


@pytest.mark.parametrize(
    "make",
    [
        intro2d,
        lambda: polyodd(2),
        lambda: polyodd(3),
        lambda: polyodd(5, lambdas=[0.95 * k / 4.5 for k in range(1, 5)]),
        lambda: get_scenario("pendulum"),
        example51,
        lambda: example51(f1=lambda x1, x2, x3, u: 0.4 * x1 + 0.1 * x3),
        lambda: example51(f2=lambda v: v + 0.2 * math.sin(v)),
    ],
    ids=["intro2d", "polyodd:2", "polyodd:3", "polyodd:5-custom", "pendulum", "example51",
         "example51-f1", "example51-f2"],
)
def test_chart_maps_on_columns_equal_the_per_row_maps(make):
    # simulate maps a whole record through from_z on its columns (Z.T):
    # every bundled map gives the floats of one call per row, bit for bit
    scn = make()
    rng = np.random.default_rng(31)
    rows = rng.uniform(-2.0, 2.0, size=(300, scn.n)) * 10.0 ** rng.integers(-8, 3, size=(300, 1))
    rows = np.vstack([rows, np.zeros(scn.n), -np.zeros(scn.n)])
    bits = lambda a: [[float(v).hex() for v in row] for row in a]
    for chart_map in (scn.from_z, scn.to_z):
        by_columns = np.column_stack(chart_map(rows.T))
        by_rows = [chart_map(tuple(r)) for r in rows.tolist()]
        assert bits(by_columns.tolist()) == bits(by_rows)


def _policy_rows(n: int, seed: int) -> np.ndarray:
    """Seeded block-chart states over several magnitudes, with zero and
    -0.0 positions, a tiny and a huge head, and positions at the edges of
    the pendulum's w2 table (|z3| <= 7) and of example51's custom table
    (|z2| <= 32).  Rows 220-279 put the pendulum's step-1 drift G1 around
    eps1p = 20 and -eps1m = -10, where the channel cubic of each branch
    turns from three real roots to one; rows 280-284 overflow the
    pendulum's drifts."""
    rng = np.random.default_rng(seed)
    rows = rng.uniform(-1.0, 1.0, size=(2000, n)) * [np.pi, 6.0, 8.0, 6.0][:n]
    rows[:100] *= 10.0 ** rng.integers(-8, 1, size=(100, 1))
    rows[100:160, 0] = rng.choice([0.0, -0.0, 1e-170, -1e-170, 1e200], size=60)
    edge = [7.0, np.nextafter(7.0, 0.0), np.nextafter(7.0, 8.0), 32.0, np.nextafter(32.0, 33.0), 32.5]
    rows[160:200, 2 if n == 4 else 1] = rng.choice(edge, size=40) * rng.choice([1.0, -1.0], size=40)
    rows[200:220, 2 if n == 4 else 1] = rng.choice([0.0, -0.0], size=20)
    rows[220:280, 0] = np.repeat([-0.5, 0.5], [40, 20])
    rows[220:280, 1] = np.concatenate([rng.uniform(3.6, 4.6, size=40), rng.uniform(2.4, 3.2, size=20)])
    rows[220:280, 2:] = 0.0
    rows[280:285, 1] = 1e155
    return np.vstack([rows, np.zeros(n), -np.zeros(n)])


def _outcome(fn, arg):
    try:
        return fn(arg)
    except Exception as exc:  # the failure a row gives is compared too
        return exc


@pytest.mark.parametrize(
    "make",
    [
        lambda: get_scenario("pendulum"),
        example51,
        lambda: example51(f1=lambda x1, x2, x3, u: 0.4 * x1 + 0.1 * x3),
        lambda: example51(f2=lambda v: v + 0.2 * math.sin(v)),
    ],
    ids=["pendulum", "example51", "example51-f1", "example51-f2"],
)
def test_policy_columns_equal_the_per_row_values(make):
    # the engine reads the switching residuals and recorded controls of a
    # batch of rows in one call on its columns: every bundled CurveSwitch
    # and ThetaSwitch gives the floats of one call per row, bit for bit,
    # and a batch with a failing row raises what that row raises alone
    scn = make()
    rows = _policy_rows(scn.n, 23)
    bits = lambda values: [float(v).hex() for v in values]
    for i, policy in enumerate(scn.policies, start=1):
        span = scn.blocks.bounds(i)
        pairs = [(lambda Z: policy.residuals(Z, span), lambda z: policy.residual(z, span))]
        for b in (+1, -1, 0) if isinstance(policy, ThetaSwitch) else (+1, -1):
            pairs.append((lambda Z, b=b: policy.controls(b, Z), lambda z, b=b: policy.control(b, z)))
        for by_columns, by_row in pairs:
            per_row = [_outcome(by_row, tuple(r)) for r in rows.tolist()]
            failed = [isinstance(v, Exception) for v in per_row]
            good = rows[~np.array(failed)]
            assert len(good) >= 1500
            assert bits(by_columns(good)) == bits(v for v, bad in zip(per_row, failed) if not bad)
            for j in np.flatnonzero(failed)[:5].tolist():
                batch = np.vstack([good[:5], rows[j], good[5:10]])
                with pytest.raises(type(per_row[j])) as err:
                    by_columns(batch)
                assert str(err.value) == str(per_row[j])


def test_policy_rows_cover_both_pendulum_root_regimes():
    # the sweep above reaches step 1's channel forcings c = G1 - eps1p and
    # G1 + eps1m on both sides of the cubic's three-root boundary, where the
    # root is trigonometric, and beyond it, where it is Cardano's
    from stepsynth.pendulum import PendulumParams, _drifts

    p = PendulumParams()
    with np.errstate(over="ignore", invalid="ignore"):  # the rows that overflow
        g1 = _drifts(p, _policy_rows(4, 23).T)[0]
    three_roots = lambda c: -4.0 * (-1.0 / p.alpha) ** 3 - 27.0 * (c / p.alpha) ** 2 >= 0.0
    for c in (g1 - p.eps1p, g1 + p.eps1m):
        assert 10 <= np.count_nonzero(three_roots(c)) <= len(c) - 10


def test_polyodd_custom_lambdas():
    scn = polyodd(3, lambdas=(0.25, 0.5), alpha=0.75)
    assert [p.level for p in scn.policies] == pytest.approx([0.75, 0.5, 0.25])
    sched = scn.analytic_schedule((1.0, 0.0, 0.0))
    # P1(u) = u(u^2-1/16)(u^2-1/4); rate at -3/4 is -P1(3/4)
    rate = 0.75 * (0.75**2 - 0.0625) * (0.75**2 - 0.25)
    assert sched[0] == pytest.approx(1.0 / rate, rel=1e-12)


# --- example51 ---


def test_example51_step1_controls():
    scn = example51()
    u1p = scn.policies[0].u_plus((0.5, 0.2, -0.3))
    u1m = scn.policies[0].u_minus((0.5, 0.2, -0.3))
    u10 = scn.policies[0].u_zero((0.5, 0.2, -0.3))
    assert 0.7 <= u1p <= 1.1
    assert -1.2 <= u1m <= -0.8
    assert u10 == 0.0
    # the channel is pushed at exactly the +-0.2 levels
    assert u1p**3 - u1p == pytest.approx(0.2, abs=1e-10)
    assert u1m**3 - u1m == pytest.approx(-0.2, abs=1e-10)


def test_example51_synth_saturates_bound():
    scn = example51()
    s = scn.policies[0].synth
    assert s.d == 0.2
    assert s.a0 == pytest.approx(0.04, rel=1e-15)  # a0_max = d^2 for k=1


def test_example51_step2_controls_hold_block1():
    scn = example51()
    z = (0.0, -0.7, 0.4)
    u2p = scn.policies[1].u_plus(z)
    u2m = scn.policies[1].u_minus(z)
    assert u2p == pytest.approx(1.0, abs=1e-12)
    assert u2m == pytest.approx(-1.0, abs=1e-12)
    # both controls are roots of the first channel: block 1 stays pinned
    assert abs(scn.H(z, u2p)[0]) <= 1e-10
    assert abs(scn.H(z, u2m)[0]) <= 1e-10


def test_example51_switch_curve():
    scn = example51()
    w = scn.policies[1].w
    assert w(0.0) == 0.0
    assert w(0.5) == pytest.approx(-1.0, rel=1e-12)
    assert w(-0.5) == pytest.approx(1.0, rel=1e-12)
    assert isinstance(scn.policies[1], CurveSwitch)
    assert isinstance(scn.policies[0], ThetaSwitch)


def test_example51_schedule():
    scn = example51()
    assert scn.analytic_schedule((0.5, 9.0, -2.0)) == pytest.approx([2.5])


def test_example51_chart_roundtrip():
    scn = example51()
    rng = np.random.default_rng(2)
    for _ in range(20):
        x = tuple(rng.uniform(-2, 2, size=3))
        back = scn.from_z(scn.to_z(x))
        assert np.max(np.abs(np.array(back) - np.array(x))) <= 1e-10


def _count_root_solves(monkeypatch):
    calls = {"real_roots": 0, "bracket_root": 0}

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)

        return wrapper

    monkeypatch.setattr(scenarios, "real_roots", counted("real_roots", scenarios.real_roots))
    monkeypatch.setattr(scenarios, "_bracket_root", counted("bracket_root", scenarios._bracket_root))
    return calls


def test_example51_channel_roots_solved_once(monkeypatch):
    scn = get_scenario("example51")
    calls = _count_root_solves(monkeypatch)
    _, summary = simulate(scn, (0.5, 0.1, -0.3), IntegratorConfig(dt=1e-3, t_max=20.0))
    assert summary.final_state_norm <= 1e-6
    assert calls == {"real_roots": 0, "bracket_root": 0}
    monkeypatch.undo()
    # the hoisted controls are the per-z roots of the full first channel
    step1, step2 = scn.policies
    rng = np.random.default_rng(51)
    for _ in range(10):
        z = tuple(float(v) for v in rng.uniform(-2, 2, size=3))
        for control, target, lo, hi in (
            (step1.u_plus, 0.2, 0.7, 1.1),
            (step1.u_minus, -0.2, -1.2, -0.8),
            (step1.u_zero, 0.0, -0.5, 0.5),
        ):
            fresh = scenarios._bracket_root(lambda u: scn.H(z, u)[0] - target, lo, hi)
            assert control(z) == pytest.approx(fresh, abs=1e-12)
        z2 = (0.0, z[1], z[2])
        for control, lo, hi in ((step2.u_plus, 0.9, 1.0), (step2.u_minus, -1.1, -1.0)):
            assert control(z2) == scenarios._bracket_root(lambda u: scn.H(z2, u)[0], lo, hi)


def test_example51_custom_f1(monkeypatch):
    f1 = lambda x1, x2, x3, u: 0.4 * x1 + 0.1 * x3
    scn = example51(f1=f1)
    calls = _count_root_solves(monkeypatch)
    z = (0.5, 0.2, -0.3)
    u1p = scn.policies[0].u_plus(z)
    # the root is found numerically on the full channel
    assert scn.H(z, u1p)[0] == pytest.approx(0.2, abs=1e-10)
    u2p = scn.policies[1].u_plus((0.0, -0.7, 0.4))
    assert abs(scn.H((0.0, -0.7, 0.4), u2p)[0]) <= 1e-10
    # h1 depends on z, so each control call solves afresh
    zb = (-0.4, 0.6, 0.1)
    assert scn.policies[0].u_plus(zb) != u1p
    assert calls == {"real_roots": 0, "bracket_root": 3}


def test_example51_custom_f2():
    f2 = lambda v: v + 0.2 * math.sin(v)
    scn = example51(f2=f2)
    rng = np.random.default_rng(8)
    for _ in range(10):
        x = tuple(rng.uniform(-2, 2, size=3))
        back = scn.from_z(scn.to_z(x))
        assert np.max(np.abs(np.array(back) - np.array(x))) <= 1e-9
    # table-built curve: odd-symmetric, decreasing, through the origin
    w = scn.policies[1].w
    assert abs(w(0.0)) <= 1e-9
    assert w(0.4) < 0.0 < w(-0.4)
    assert w(-0.4) == pytest.approx(-w(0.4), abs=1e-6)
    # the table spans |z2| <= 32
    assert w(-31.9) > 0.0
    with pytest.raises(RootBracketFailure):
        w(32.5)
    with pytest.raises(RootBracketFailure):
        w(-32.5)


def test_example51_custom_f2_inverts_once_per_state(monkeypatch):
    # h1, the channel's f2 slope and the step-2 control's sign test read the
    # same z3 of a state: one inversion of f2 serves them all
    calls = {"inverse": 0, "slope_reads": 0}
    monotone_inverse, curve = scenarios._monotone_inverse, scenarios.arrival_curve

    def counted_inverse(fn):
        inv = monotone_inverse(fn)

        def counted(y):
            calls["inverse"] += 1
            return inv(y)

        return counted

    def counted_curve(accel, span, beyond):
        def counted(*args):
            calls["slope_reads"] += 1
            return accel(*args)

        return curve(counted, span, beyond)

    monkeypatch.setattr(scenarios, "_monotone_inverse", counted_inverse)
    monkeypatch.setattr(scenarios, "arrival_curve", counted_curve)
    scn = example51(f2=lambda v: v + 0.2 * math.sin(v))
    # building: one per slope read of the curve table, plus the step-2 roots
    assert calls["slope_reads"] > 9000
    assert calls["inverse"] <= calls["slope_reads"] + 2
    calls["inverse"] = 0
    rng = np.random.default_rng(12)
    states = [tuple(float(v) for v in rng.uniform(-2, 2, size=3)) for _ in range(200)]
    for z in states:
        scn.H(z, 0.3)
    assert calls["inverse"] <= len(states)


@pytest.mark.parametrize(
    "kw, want",
    [
        ({"f2": lambda v: v + 0.2 * math.sin(v)}, [1.9999999500511982, 8.27071541035261]),
        ({"f1": lambda x1, x2, x3, u: 0.4 * x1 + 0.1 * x3}, [1.9999999500511982, 8.418081537843525]),
    ],
    ids=["f2", "f1"],
)
def test_example51_custom_step_times(kw, want):
    # step times of the custom-curve runs, pinned to 1e-8 across changes of the curve builder
    _, summary = simulate(example51(**kw), (0.5, 0.1, -0.3), IntegratorConfig(dt=1e-3, t_max=50.0))
    assert summary.step_times == pytest.approx(want, abs=1e-8)
    assert summary.final_state_norm <= 1e-6


def test_example51_precondition_errors():
    with pytest.raises(ValueError):
        example51(f1=lambda x1, x2, x3, u: 1.0)
    with pytest.raises(ValueError):
        example51(f2=lambda v: v + 1.0)
    with pytest.raises(ValueError, match="increasing"):
        example51(f2=lambda v: -v)


# --- chart/block consistency across every bundled scenario ---


@pytest.mark.parametrize("name", ALL_NAMES)
def test_block_form_matches_chart_derivative(name):
    scn = get_scenario(name)
    rng = np.random.default_rng(hash(name) % 2**31)
    for _ in range(10):
        x = tuple(rng.uniform(-0.8, 0.8, size=scn.n))
        u = float(rng.uniform(-0.9, 0.9))
        z = scn.to_z(x)
        want = fd_chart_rate(scn, x, u)
        got = np.asarray(scn.system.rhs(tuple(z), u), dtype=float)
        assert np.max(np.abs(got - want)) <= 1e-6 * max(1.0, np.max(np.abs(want)))


@pytest.mark.parametrize("name", ALL_NAMES)
def test_charts_invert_on_box(name):
    scn = get_scenario(name)
    rng = np.random.default_rng(len(name))
    for _ in range(10):
        x = tuple(rng.uniform(-1, 1, size=scn.n))
        z = scn.to_z(x)
        back = scn.from_z(z)
        assert np.max(np.abs(np.array(back) - np.array(x))) <= 1e-10
        there = scn.to_z(back)
        assert np.max(np.abs(np.array(there) - np.array(z))) <= 1e-10
