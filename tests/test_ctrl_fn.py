"""Controllability function Theta(x), feedback v(x), and their invariants.

Theta values are cross-checked against a plain interval-bisection oracle on
the defining scalar equation, and the unit-decay / exact-time properties are
exercised by integrating the closed loop with a local RK4.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stepsynth import (
    LinearSynth,
    NonConvergence,
    ThetaEval,
    a0_max,
    gram_n1,
    gram_theta_inv,
    theta_of,
)
from stepsynth.ctrl_fn import ROOT_TOL, THETA_MIN, sigmas

from paper_oracles import closed_loop_rhs, v_of

G1 = gram_n1(1)
G2 = gram_n1(2)
G3 = gram_n1(3)


def synth_for(gram, d: float) -> LinearSynth:
    """The synth at the largest admissible a0 for the bound d."""
    return LinearSynth(gram=gram, a0=a0_max(gram, d), d=d)


def bisect_theta(s: LinearSynth, x, lo=1e-12, hi=1e12, iters=200) -> float:
    """Oracle: bisection on g(T) = 2 a0 T - (N(T)^{-1} x, x), no polynomial rewrite."""
    x = np.asarray(x, dtype=float)

    def g(T):
        return 2.0 * s.a0 * T - float(x @ (gram_theta_inv(s.gram, T) @ x))

    assert g(lo) < 0 < g(hi)
    for _ in range(iters):
        mid = math.sqrt(lo * hi)  # geometric: the root spans many decades
        if g(mid) < 0:
            lo = mid
        else:
            hi = mid
        if hi - lo <= 1e-14 * hi:
            break
    return 0.5 * (lo + hi)


def rk4(f, x, h):
    k1 = f(x)
    k2 = f(x + 0.5 * h * k1)
    k3 = f(x + 0.5 * h * k2)
    k4 = f(x + h * k3)
    return x + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)


# --- a0_max and constructor validation ---


def test_a0_max_values():
    assert a0_max(G1, 1.0) == 1.0
    assert a0_max(G2, math.sqrt(3.0)) == pytest.approx(1.0, abs=1e-15)
    assert a0_max(G2, 3.0) == pytest.approx(3.0, abs=1e-15)


def test_a0_max_rejects_nonpositive_d():
    with pytest.raises(ValueError):
        a0_max(G2, 0.0)
    with pytest.raises(ValueError):
        a0_max(G1, -2.0)


def test_synth_validation():
    with pytest.raises(ValueError):
        LinearSynth(gram=G2, a0=0.0, d=1.0)
    with pytest.raises(ValueError):
        LinearSynth(gram=G2, a0=0.4, d=1.0)  # cap is 1/3 for k=2, d=1


# --- theta_of hand values ---


def test_theta_k1_closed_form():
    # k=1: 2 a0 T = 2 x^2 / T  =>  T = |x| / sqrt(a0)
    s = LinearSynth(gram=G1, a0=1.0, d=1.0)
    ev = theta_of(s, [2.0])
    assert ev.theta == pytest.approx(2.0, rel=1e-12)
    assert ev.v == pytest.approx(-1.0, rel=1e-12)
    s4 = LinearSynth(gram=G1, a0=4.0, d=2.0)
    assert theta_of(s4, [3.0]).theta == pytest.approx(1.5, rel=1e-12)


def test_theta_k1_closed_form_hand_value():
    # example51's step-1 synth: N(1)^{-1} = 2, a0 = 0.04, so Theta = 5 |x|
    s = LinearSynth(gram=G1, a0=0.04, d=0.2)
    ev = theta_of(s, (0.3,))
    assert ev.theta == pytest.approx(1.5, rel=1e-15)
    assert ev.w[0] == pytest.approx(0.4, rel=1e-15)
    assert ev.v == pytest.approx(-0.2, rel=1e-15)
    assert theta_of(s, (-0.3,)).theta == ev.theta


def roots_theta(s: LinearSynth, x) -> float:
    """Oracle: the positive root of 2 a0 T^{2k} - (N(1)^{-1} x, x)_T from np.roots.

    (N(1)^{-1} x, x)_T weighs the term x_i x_j by T^(i+j), 0-based; the
    polynomial has exactly one positive root.
    """
    k = s.gram.k
    coeffs = np.zeros(2 * k + 1)
    coeffs[0] = 2.0 * s.a0
    for i in range(k):
        for j in range(k):
            coeffs[2 * k - (i + j)] -= s.gram.n1_inv[i][j] * x[i] * x[j]
    pos = [z.real for z in np.roots(coeffs) if z.real > 0.0 and abs(z.imag) <= 1e-9 * abs(z)]
    assert len(pos) == 1
    return pos[0]


@pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
def test_theta_matches_polynomial_roots(k):
    s = synth_for(gram_n1(k), d=1.3)
    rng = np.random.default_rng(20 + k)
    for _ in range(40):
        x = rng.uniform(-1, 1, size=k) * 10.0 ** rng.uniform(-6, 3)
        ev = theta_of(s, x)
        th = roots_theta(s, x)
        assert ev.theta == pytest.approx(th, rel=1e-12)
        w = gram_theta_inv(s.gram, th) @ x
        assert np.max(np.abs(ev.w - w)) <= 1e-12 * np.max(np.abs(w))
        assert ev.sigma == ev.w[k - 1]


def test_theta_k2_frozen_value():
    # 2 T^4 = 36 x1^2 + 24 x1 x2 T + 6 x2^2 T^2 at x=(1,0): T = 18^(1/4)
    s = LinearSynth(gram=G2, a0=1.0, d=math.sqrt(3.0))
    ev = theta_of(s, [1.0, 0.0])
    assert ev.theta == pytest.approx(18.0 ** 0.25, rel=1e-12)
    assert ev.theta == pytest.approx(2.0597671439071177, rel=1e-13)
    assert ev.v == pytest.approx(-6.0 / ev.theta ** 2, rel=1e-12)
    assert ev.v == pytest.approx(-1.4142135623730951, rel=1e-12)
    assert ev.sigma == -2.0 * ev.v


def test_theta_matches_bisection_oracle():
    rng = np.random.default_rng(7)
    for gram in (G2, G3):
        s = synth_for(gram, d=1.5)
        for _ in range(25):
            x = rng.uniform(-3, 3, size=gram.k)
            if np.max(np.abs(x)) < 1e-3:
                continue
            ev = theta_of(s, x)
            want = bisect_theta(s, x)
            assert ev.theta == pytest.approx(want, rel=1e-9)


def test_theta_zero_and_denormal():
    s = synth_for(G2, d=1.0)
    ev = theta_of(s, [0.0, 0.0])
    assert ev.theta == 0.0 and ev.v == 0.0 and ev.sigma == 0.0
    tiny = theta_of(s, [5e-324, 0.0])
    assert tiny.theta >= 0.0 and math.isfinite(tiny.theta)


def test_theta_residual_contract():
    s = synth_for(G3, d=2.0)
    x = np.array([0.4, -1.1, 2.3])
    ev = theta_of(s, x)
    resid = abs(2 * s.a0 * ev.theta - float(ev.w @ x))
    assert resid <= ROOT_TOL * max(1.0, 2 * s.a0 * ev.theta)


def test_theta_input_validation():
    s = synth_for(G2, d=1.0)
    with pytest.raises(ValueError):
        theta_of(s, [1.0, 2.0, 3.0])
    with pytest.raises(ValueError):
        theta_of(s, [math.nan, 0.0])
    with pytest.raises(ValueError):
        theta_of(s, [math.inf, 1.0])


# --- feedback properties ---


@pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
def test_v_respects_bound_at_a0_max(k):
    # light sweep; the acceptance suite runs the full-size one
    gram = gram_n1(k)
    d = 1.3
    s = synth_for(gram, d=d)
    rng = np.random.default_rng(100 + k)
    scales = 10.0 ** rng.uniform(-3, 3, size=400)
    for scale in scales:
        x = scale * rng.uniform(-1, 1, size=k)
        assert abs(v_of(s, x)) <= d + 1e-9


@given(
    x1=st.floats(-10, 10, allow_nan=False),
    x2=st.floats(-10, 10, allow_nan=False),
    s_scale=st.sampled_from([0.25, 4.0]),
)
@settings(max_examples=60, deadline=None)
def test_dilation_invariance(x1, x2, s_scale):
    s = synth_for(G2, d=1.0)
    x = np.array([x1, x2])
    if np.max(np.abs(x)) < 1e-6:
        return
    base = theta_of(s, x)
    scaled = theta_of(s, np.array([s_scale ** 2 * x1, s_scale * x2]))
    assert scaled.theta == pytest.approx(s_scale * base.theta, rel=1e-9)
    assert scaled.v == pytest.approx(base.v, abs=1e-9 * max(1.0, abs(base.v)))


@pytest.mark.parametrize("k", [2, 3, 4, 5])
def test_theta_robust_over_scales(k):
    # Theta(lam^k x_1, ..., lam x_k) = lam Theta(x) at x from 1e-12 to 1e8
    s = synth_for(gram_n1(k), d=1.3)
    rng = np.random.default_rng(300 + k)
    for _ in range(400):
        x = rng.uniform(-1, 1, size=k) * 10.0 ** rng.uniform(-12, 8)
        lam = float(rng.choice([0.5, 2.0, 3.0]))
        base = theta_of(s, x).theta
        scaled = theta_of(s, x * lam ** np.arange(k, 0, -1)).theta
        assert base > 0.0
        assert scaled == pytest.approx(lam * base, rel=1e-12)


@pytest.mark.parametrize("k", [2, 3, 4, 5])
def test_theta_dilation_law_over_the_float_range(k):
    # a power of two lam = 2^j dilates x exactly, and Theta(lam^k x_1, ...,
    # lam x_k) = lam Theta(x) holds to the bit, for x from about 1e-270 to
    # 1e270 in each entry
    s = synth_for(gram_n1(k), d=1.3)
    rng = np.random.default_rng(500 + k)
    for _ in range(20):
        x = rng.uniform(-1, 1, size=k)
        base = theta_of(s, x).theta
        for j in range(-900 // k, 900 // k + 1, 30):
            scaled = theta_of(s, [math.ldexp(v, j * (k - i)) for i, v in enumerate(x.tolist())])
            assert scaled.theta == math.ldexp(base, j)


@pytest.mark.parametrize("a0, x1", [(1e-320, 1.0), (1.0, 1e200)])
def test_theta_at_extreme_scales(a0, x1):
    # x on the first axis: 2 a0 Theta^4 = N(1)^{-1}[0][0] x_1^2.  A subnormal
    # a0 puts Theta at 2.06e80, 267 doublings from Theta = 1; at x_1 = 1e200
    # the quadratic form overflows, and by the dilation law with lam = 1e100
    # Theta is 1e100 Theta(1, 0)
    s = LinearSynth(gram=G2, a0=a0, d=2.0)
    ev = theta_of(s, [x1, 0.0])
    assert ev.theta == pytest.approx((G2.n1_inv[0][0] / 2.0) ** 0.25 * math.sqrt(x1) * a0 ** -0.25, rel=1e-12)
    assert ev.theta == pytest.approx(math.sqrt(x1) * theta_of(s, [1.0, 0.0]).theta, rel=1e-12)
    assert math.isfinite(ev.sigma)


def test_theta_k1_at_a_subnormal_a0():
    # N(1)^{-1} / (2 a0) = 1 / a0 overflows below a0 of about 5.6e-309, yet
    # Theta = |x| / sqrt(a0) is finite: 1.0000056e160 at the float nearest
    # 1e-320, and sigma = 2 sqrt(a0) sign(x)
    a0 = 1e-320
    s = LinearSynth(gram=G1, a0=a0, d=1.0)
    ev = theta_of(s, [1.0])
    assert ev.theta == 1.0 / math.sqrt(a0)
    assert ev.sigma == pytest.approx(2.0 * math.sqrt(a0), rel=1e-15)
    assert sigmas(s, np.array([[1.0], [-3.0], [0.0]])).tolist() == [
        ev.sigma, theta_of(s, [-3.0]).sigma, 0.0
    ]


@pytest.mark.parametrize("a0", [1e308, 1.7976931348623157e308])
def test_theta_k1_at_a_huge_a0(a0):
    # 2 a0 overflows above a0 of about 8.99e307, so N(1)^{-1} / (2 a0)
    # reads 0, yet Theta = |x| / sqrt(a0) is a normal float (1e-154 at
    # a0 = 1e308), and sigma = 2 sqrt(a0) sign(x)
    s = LinearSynth(gram=G1, a0=a0, d=1e200)
    ev = theta_of(s, [1.0])
    assert ev.theta == 1.0 / math.sqrt(a0)
    assert ev.sigma == pytest.approx(2.0 * math.sqrt(a0), rel=1e-15)
    assert sigmas(s, np.array([[1.0], [-3.0], [0.0]])).tolist() == [
        ev.sigma, theta_of(s, [-3.0]).sigma, 0.0
    ]


def test_theta_refuses_a_nan_residual():
    # k = 5, a0 = 1e300, x = e_5: the root is 3.87e-150, but the polynomial
    # underflows to 0 below about 6e-63, where the walk stops; there w~_1 is
    # inf and x~_1 = 0, so the residual is NaN, which is no pass
    s = LinearSynth(gram=gram_n1(5), a0=1e300, d=1e300)
    with pytest.raises(NonConvergence, match="nan"):
        theta_of(s, [0.0, 0.0, 0.0, 0.0, 1.0])


def far_states(k: int, rng) -> list:
    """(u, j): a unit-scale state u on each axis and the powers of two j
    that dilate it to x_i = 2^(j(k-i)) u_i (0-based i), an entry between
    about 2^-570 and 2^-994, where its quadratic form underflows to zero.
    On the last axis Theta is about |x_k| and w_1 about |x_k|^-(k-1), which
    overflows from k = 3 on, and at k = 2 at the smallest subnormal x_k."""
    out = []
    for i in range(k):
        u = [0.0] * k
        u[i] = float(rng.uniform(0.5, 1.0) * rng.choice([-1.0, 1.0]))
        out += [(u, e // (k - i)) for e in (-570, -700, -990)]
    if k >= 2:
        out.append(([0.0] * (k - 1) + [-1.0], -1074))
    return out


def dilate(u: list, j: int) -> list:
    return [math.ldexp(v, j * (len(u) - i)) for i, v in enumerate(u)]


@pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
def test_theta_where_the_form_underflows_or_w_overflows(k):
    # only x = 0 is the origin: Theta(lam^k x_1, ..., lam x_k) = lam Theta(x)
    # with lam = 2^j holds to the bit, sigma is unchanged, and each w_i
    # scales by lam^-(k-i) (1-based), to +-inf past the float range
    s = synth_for(gram_n1(k), d=1.3)
    overflowed = 0
    for u, j in far_states(k, np.random.default_rng(700 + k)):
        base = theta_of(s, u)
        ev = theta_of(s, dilate(u, j))
        assert ev.theta > 0.0 and math.isfinite(ev.sigma)
        assert ev.theta == math.ldexp(base.theta, j)
        assert ev.sigma == pytest.approx(base.sigma, rel=1e-12)
        with np.errstate(over="ignore"):
            assert np.array_equal(ev.w, np.ldexp(base.w, [-j * (k - 1 - i) for i in range(k)]))
        overflowed += bool(np.isinf(ev.w).any())
    assert overflowed > 0 or k == 1


def test_theta_w_past_the_float_range():
    # k = 5 at x = 1e-150 e_5: Theta = 1.15e-149 and sigma = 2.6, while w_1
    # and w_2 are about 0.33 2^1992 and 1.56 2^1494
    s = synth_for(gram_n1(5), d=1.3)
    ev = theta_of(s, [0.0, 0.0, 0.0, 0.0, 1e-150])
    assert ev.theta == pytest.approx(1.1538461538461537e-149, rel=1e-14)
    assert ev.sigma == pytest.approx(2.6, rel=1e-14)
    assert ev.w[:2].tolist() == [math.inf, math.inf]
    assert ev.w[2] == pytest.approx(2.187235555555556e300, rel=1e-12)


@pytest.mark.parametrize("k", [1, 2])
def test_sigmas_equal_theta_of_across_the_float_range(k):
    # the k = 1 column path and the per-row path give theta_of's sigma to
    # the bit, 0 only at x = 0
    s = synth_for(gram_n1(k), d=1.3)
    X = [dilate(u, j) for u, j in far_states(k, np.random.default_rng(900 + k))] + [[0.0] * k]
    if k == 1:
        X += [[5e-324], [-1e-170], [1e300]]
    got = sigmas(s, np.array(X))
    assert got.tolist() == [theta_of(s, x).sigma for x in X]
    assert np.all((got == 0.0) == ~np.any(X, axis=1))


def test_sigma_sign_consistency():
    s = synth_for(G2, d=1.0)
    rng = np.random.default_rng(3)
    for _ in range(50):
        ev = theta_of(s, rng.uniform(-2, 2, size=2))
        assert ev.v == pytest.approx(-ev.sigma / 2.0, rel=1e-15)
        if ev.sigma > 0:
            assert ev.v < 0


def test_theta_decay_rate_is_minus_one():
    s = synth_for(G2, d=1.0)
    x = np.array([1.0, 0.0])
    h = 1e-3
    prev = theta_of(s, x).theta
    for _ in range(600):
        x = rk4(lambda y: closed_loop_rhs(s, y), x, h)
        cur = theta_of(s, x).theta
        if cur <= 0.05 * prev or cur <= 10 * THETA_MIN:
            break
        slope = (cur - prev) / h
        assert slope == pytest.approx(-1.0, abs=1e-3)
        prev = cur


@pytest.mark.parametrize("k", [2, 3])
def test_time_to_origin_equals_theta(k):
    gram = gram_n1(k)
    s = synth_for(gram, d=2.0)
    x0 = np.array([0.7, -0.4, 0.9][:k])
    total = theta_of(s, x0).theta
    h = 2e-3
    x = x0.copy()
    t = 0.0
    # stop well above the h-scale where RK4 stops resolving the feedback
    while theta_of(s, x).theta > 5 * h and t < 2 * total:
        x = rk4(lambda y: closed_loop_rhs(s, y), x, h)
        t += h
    # stopped on a theta shell, whose value is exactly the remaining time
    assert t + theta_of(s, x).theta == pytest.approx(total, rel=5e-3)


def test_closed_loop_rhs_values():
    s2 = LinearSynth(gram=G2, a0=1.0, d=math.sqrt(3.0))
    assert np.array_equal(closed_loop_rhs(s2, [0.0, 0.0]), [0.0, 0.0])
    out = closed_loop_rhs(s2, [1.0, 0.0])
    assert out[0] == 0.0
    assert out[1] == pytest.approx(-1.4142135623730951, rel=1e-12)
    s1 = LinearSynth(gram=G1, a0=4.0, d=2.0)
    # k=1 at a0=d^2: v = -d sign(x)
    assert closed_loop_rhs(s1, [0.5])[0] == pytest.approx(-2.0, rel=1e-12)
    assert closed_loop_rhs(s1, [-3.0])[0] == pytest.approx(2.0, rel=1e-12)


def test_v_of_hold_band():
    s = synth_for(G2, d=1.0)
    x = 1e-20 * np.array([1.0, 1.0])
    assert 0.0 < theta_of(s, x).theta < THETA_MIN
    assert theta_of(s, x).v != 0.0
    assert v_of(s, x) == 0.0


def test_theta_eval_is_frozen():
    ev = ThetaEval(theta=1.0, w=np.array([1.0]), v=-0.5, sigma=1.0)
    with pytest.raises(AttributeError):
        ev.theta = 2.0


def test_nonconvergence_is_runtime_error():
    assert issubclass(NonConvergence, RuntimeError)
