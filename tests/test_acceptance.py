"""End-to-end acceptance runs for the full pipeline.

Each test covers one headline requirement at its stated tolerance and
prints a single PASS/FAIL line (visible with -s; with -v the test status
line itself serves the same purpose).
"""

import math
import time
from collections import Counter

import numpy as np
from scipy.linalg import expm

from stepsynth import (
    IntegratorConfig,
    PendulumParams,
    ctrl_fn,
    get_scenario,
    mappability,
    pendulum_T1_analytic,
    simulate,
)
from stepsynth.chain_gramian import gram_n1, gram_theta

from paper_oracles import chain_matrices, closed_loop_rhs, dilation_matrix, gram_hat, gram_tilde, v_of


def _finish(label, failures):
    status = "PASS" if not failures else "FAIL"
    print(f"{status}: {label}")
    assert not failures, f"{label}: " + "; ".join(failures)


def _check(failures, ok, msg):
    if not ok:
        failures.append(msg)


# --- pendulum stoppage ---


def test_pendulum_stoppage_times():
    failures = []
    p = PendulumParams()
    z0 = (-1.0, 0.5, -1.0, 0.5)
    t11, _, t1 = pendulum_T1_analytic(p, z0)
    _check(failures, abs(t11 - 0.15814) <= 5e-5, f"analytic first-switch time {t11}")
    _check(failures, abs(t1 - 0.52443) <= 5e-5, f"analytic step-1 time {t1}")

    scn = get_scenario("pendulum")
    start = time.perf_counter()
    traj, summary = simulate(scn, (-2.0, 1.0, -1.0, 0.5), IntegratorConfig(dt=1e-5, t_max=10.0))
    elapsed = time.perf_counter() - start
    _check(failures, elapsed < 30.0, f"runtime {elapsed:.1f}s exceeds 30s")
    _check(
        failures,
        abs(summary.step_times[0] - t1) <= 1e-3,
        f"simulated step-1 time {summary.step_times[0]} vs {t1}",
    )
    _check(
        failures,
        abs(summary.T_total - 3.53471) <= 0.01 * 3.53471,
        f"total time {summary.T_total} not within 1% of 3.53471",
    )
    _check(failures, summary.final_state_norm <= 1e-2, f"final norm {summary.final_state_norm}")
    switches = [t for t, kind, _ in traj.events if kind == "branch-switch" and t > summary.step_times[0]]
    _check(failures, bool(switches), "no branch switch recorded after step 1")
    if switches:
        _check(
            failures,
            abs(switches[0] - 2.64102) <= 0.01 * 2.64102,
            f"step-2 switch at {switches[0]} not within 1% of 2.64102",
        )
    _finish("pendulum stoppage timing", failures)


# --- planar steering example ---


def test_planar_two_step_example():
    failures = []
    scn = get_scenario("intro2d")
    want = 1.0 + abs(0.5 + 1.0 / math.pi)
    start = time.perf_counter()
    _, summary = simulate(scn, (1.0, 1.0), IntegratorConfig(dt=1e-5, t_max=10.0))
    elapsed = time.perf_counter() - start
    _check(failures, elapsed < 5.0, f"runtime {elapsed:.1f}s exceeds 5s")
    _check(
        failures,
        abs(summary.T_total - want) <= 1e-5,
        f"total time {summary.T_total} vs {want}",
    )
    _check(failures, summary.final_state_norm <= 1e-6, f"final norm {summary.final_state_norm}")
    _finish("planar two-step steering time", failures)


# --- feedback-law suite ---


def _dilate(x, s, k):
    return np.array([v * s ** (k - i) for i, v in enumerate(x)])


def _unit_synth(g):
    """The synth for |v| <= 1 at the largest admissible a0."""
    return ctrl_fn.LinearSynth(gram=g, a0=ctrl_fn.a0_max(g, 1.0), d=1.0)


def test_feedback_bound_descent_and_arrival():
    failures = []
    rng = np.random.default_rng(42)

    for k in range(1, 6):
        g = gram_n1(k)
        s = _unit_synth(g)
        worst = 0.0
        for _ in range(10_000):
            x = rng.uniform(-1.0, 1.0, size=k) * 10.0 ** rng.uniform(-2.0, 2.0)
            worst = max(worst, abs(v_of(s, x)))
        _check(failures, worst <= s.d * (1.0 + 1e-9), f"k={k}: |v| reached {worst}")

    for k in range(1, 6):
        g = gram_n1(k)
        s = _unit_synth(g)
        for _ in range(50):
            x = rng.uniform(-2.0, 2.0, size=k)
            ev = ctrl_fn.theta_of(s, x)
            if ev.theta == 0.0:
                continue
            for scale in (0.25, 0.5, 2.0, 4.0):
                evs = ctrl_fn.theta_of(s, _dilate(x, scale, k))
                _check(
                    failures,
                    abs(evs.theta - scale * ev.theta) <= 1e-9 * max(1.0, scale * ev.theta),
                    f"k={k}: theta dilation off at s={scale}",
                )
                _check(
                    failures,
                    abs(evs.v - ev.v) <= 1e-9 * max(1.0, abs(ev.v)),
                    f"k={k}: v not dilation invariant at s={scale}",
                )

    h = 1e-3
    for k in (2, 3):
        g = gram_n1(k)
        s = _unit_synth(g)
        x = np.zeros(k)
        x[0] = 1.0
        theta0 = ctrl_fn.theta_of(s, x).theta
        rhs = lambda z: closed_loop_rhs(s, z)
        t = 0.0
        prev = theta0
        while True:
            k1 = rhs(x)
            k2 = rhs(x + 0.5 * h * k1)
            k3 = rhs(x + 0.5 * h * k2)
            k4 = rhs(x + h * k3)
            x = x + (h / 6.0) * (k1 + 2.0 * (k2 + k3) + k4)
            t += h
            cur = ctrl_fn.theta_of(s, x).theta
            if cur > 0.05 * theta0:
                slope = (cur - prev) / h
                _check(
                    failures,
                    abs(slope + 1.0) <= 1e-3,
                    f"k={k}: theta slope {slope} at t={t:.3f}",
                )
            prev = cur
            # stop on a theta shell well above the step size; the shell value
            # is exactly the remaining time
            if cur <= 1e-2 or t > 2.0 * theta0:
                break
        arrival = t + cur
        _check(
            failures,
            abs(arrival - theta0) <= 5e-3 * theta0,
            f"k={k}: arrival time {arrival} vs theta {theta0}",
        )
    _finish("feedback bound, unit descent, arrival time", failures)


# --- closed-form Gramian identities ---


def _quad_gram(k, theta):
    """32-node Gauss-Legendre evaluation of the weighted chain Gramian."""
    a0, b0 = chain_matrices(k)
    a0 = np.asarray(a0, dtype=float)
    b0 = np.asarray(b0, dtype=float).reshape(-1)
    nodes, weights = np.polynomial.legendre.leggauss(32)
    ts = 0.5 * theta * (nodes + 1.0)
    out = np.zeros((k, k))
    for t, w in zip(ts, weights):
        col = expm(-a0 * t) @ b0
        out += 0.5 * theta * w * (1.0 - t / theta) * np.outer(col, col)
    return out


def test_gramian_identities():
    failures = []
    for k in range(1, 7):
        g = gram_n1(k)
        a0, b0 = chain_matrices(k)
        a0 = np.asarray(a0, dtype=float)
        b0 = np.asarray(b0, dtype=float).reshape(-1, 1)
        n1 = np.array(g.n1, dtype=float)
        _check(
            failures,
            np.max(np.abs(n1 - _quad_gram(k, 1.0))) <= 1e-10,
            f"k={k}: closed form vs quadrature",
        )
        for theta in (0.3, 1.0, 1.3):
            n_th = np.array(gram_theta(g, theta), dtype=float)
            d_th = np.array(dilation_matrix(g, theta), dtype=float)
            _check(
                failures,
                np.max(np.abs(d_th @ n_th @ d_th - n1)) <= 1e-10,
                f"k={k}, theta={theta}: dilation identity",
            )
            n_hat = np.array(gram_hat(g, theta), dtype=float)
            n_til = np.array(gram_tilde(g, theta), dtype=float)
            lyap = a0 @ n_th + n_th @ a0.T - (b0 @ b0.T - n_hat)
            _check(
                failures,
                np.max(np.abs(lyap)) <= 1e-10,
                f"k={k}, theta={theta}: Lyapunov identity",
            )
            _check(
                failures,
                np.max(np.abs(theta * (n_hat - n_til) - n_th)) <= 1e-10,
                f"k={k}, theta={theta}: hat/tilde identity",
            )
    _finish("chain Gramian identities", failures)


# --- odd-polynomial cascade ---


def test_polyodd_cascade_schedule():
    failures = []
    scn = get_scenario("polyodd:3")
    start = time.perf_counter()
    traj, summary = simulate(
        scn,
        (1.0, 1.0, 1.0),
        IntegratorConfig(dt=1e-4, t_max=20.0),
        delta=1e-9,
        x0_chart="z",
    )
    elapsed = time.perf_counter() - start
    _check(failures, elapsed < 5.0, f"runtime {elapsed:.1f}s exceeds 5s")
    for got, want in zip(summary.step_times, (2.025, 5.625, 9.75)):
        _check(failures, abs(got - want) <= 1e-6, f"step time {got} vs {want}")
    t1 = summary.step_times[0]
    drift = max(
        (abs(z[0]) for t, z in zip(traj.times, traj.states_z) if t >= t1), default=0.0
    )
    _check(failures, drift <= 1e-8, f"first coordinate drifts to {drift} after its step")
    _check(failures, summary.final_state_norm <= 1e-8, f"final norm {summary.final_state_norm}")
    _finish("odd-polynomial cascade schedule", failures)


# --- block-structure probe ---


def test_probe_recovers_block_sizes():
    failures = []
    for name, want in (("pendulum", (2, 2)), ("example51", (1, 2))):
        scn = get_scenario(name)
        samples = mappability.halton_samples(((-1.0, 1.0),) * scn.n, 32)
        report = mappability.select_columns(scn.probe.a, scn.probe.bs, samples)
        counts = Counter(i for i, _ in report.kept)
        sizes = tuple(counts[i] for i in sorted(counts))
        _check(failures, sizes == want, f"{name}: recovered {sizes}, expected {want}")
    _finish("block-structure probe", failures)


# --- hold invariance across the bundled runs ---


def test_hold_invariance_across_runs():
    failures = []
    cfg = IntegratorConfig(dt=1e-4, t_max=30.0)
    runs = (
        ("intro2d", (1.0, 1.0), "x"),
        ("example51", (0.5, 0.1, -0.3), "x"),
        ("polyodd:3", (1.0, 1.0, 1.0), "z"),
        ("pendulum", (-2.0, 1.0, -1.0, 0.5), "x"),
    )
    for name, x0, x0_chart in runs:
        scn = get_scenario(name)
        traj, summary = simulate(scn, x0, cfg, x0_chart=x0_chart)
        _check(
            failures,
            max(summary.hold_residuals, default=0.0) <= 1e-7,
            f"{name}: reported hold residuals {summary.hold_residuals}",
        )
        for i in range(1, scn.blocks.m):  # the last block has nothing after it
            t_i = summary.step_times[i - 1]
            lo, hi = scn.blocks.bounds(i)
            drift = max(
                (
                    max(abs(v) for v in z[lo:hi])
                    for t, z in zip(traj.times, traj.states_z)
                    if t >= t_i
                ),
                default=0.0,
            )
            _check(failures, drift <= 1e-7, f"{name}: block {i} drifts to {drift}")
    _finish("hold invariance across bundled runs", failures)
