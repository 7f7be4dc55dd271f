"""cubic.bracket_root, Brent's method, against scipy.optimize.brentq.

The package's bracketed solves are the controllability function's root
(theta_of at k >= 2) and Example 5.1's custom channel roots and f2
inverse.  Each call they make is recorded and solved again by brentq at
the same xtol and rtol 8.9e-16: the floats must be the same, bit for bit.
"""

import math

import numpy as np
import pytest
from scipy.optimize import brentq

from stepsynth import LinearSynth, RootBracketFailure, a0_max, ctrl_fn, example51, gram_n1, scenarios, theta_of
from stepsynth.cubic import bracket_root


def _recorder(monkeypatch, module, name):
    """Route module.name through bracket_root, keeping each (q, lo, hi, xtol)."""
    calls = []

    def record(q, lo, hi, xtol=1e-14):
        calls.append((q, lo, hi, xtol))
        return bracket_root(q, lo, hi, xtol)

    monkeypatch.setattr(module, name, record)
    return calls


def _assert_brentq_floats(calls):
    assert calls
    for q, lo, hi, xtol in calls:
        ours = bracket_root(q, lo, hi, xtol)
        theirs = brentq(q, lo, hi, xtol=xtol, rtol=8.9e-16)
        assert ours.hex() == float(theirs).hex(), (lo, hi, xtol)


@pytest.mark.parametrize("k", [2, 3, 4, 5])
def test_theta_roots_equal_brentq(monkeypatch, k):
    # xtol = 1e-14 times the bracket's upper end, over random states
    # dilated by lam^(k-i+1) for lam across twelve decades
    calls = _recorder(monkeypatch, ctrl_fn, "bracket_root")
    gram = gram_n1(k)
    s = LinearSynth(gram=gram, a0=a0_max(gram, 1.0), d=1.0)
    rng = np.random.default_rng(100 + k)
    for _ in range(50):
        lam = 10.0 ** rng.uniform(-6.0, 6.0)
        x = rng.standard_normal(k) * lam ** np.arange(k, 0, -1)
        theta_of(s, x)
    assert len(calls) == 50
    _assert_brentq_floats(calls)


def test_example51_custom_f1_roots_equal_brentq(monkeypatch):
    # the channel roots of both steps, absolute xtol = 1e-14
    scn = example51(f1=lambda x1, x2, x3, u: 0.4 * x1 + 0.1 * x3)
    calls = _recorder(monkeypatch, scenarios, "_bracket_root")
    step1, step2 = scn.policies
    rng = np.random.default_rng(51)
    for _ in range(20):
        z = tuple(rng.uniform(-2.0, 2.0, size=3).tolist())
        for control in (step1.u_plus, step1.u_minus, step1.u_zero):
            control(z)
        for control in (step2.u_plus, step2.u_minus):
            control((0.0, z[1], z[2]))
    assert len(calls) == 100
    _assert_brentq_floats(calls)


def test_example51_f2_inverse_equals_brentq(monkeypatch):
    scn = example51(f2=lambda v: v + 0.2 * math.sin(v))
    calls = _recorder(monkeypatch, scenarios, "_bracket_root")
    rng = np.random.default_rng(52)
    for z3 in (rng.uniform(-3.0, 3.0, size=40) * 10.0 ** rng.integers(-6, 3, size=40)).tolist():
        scn.from_z((0.1, -0.2, z3))
    assert len(calls) == 40
    _assert_brentq_floats(calls)


@pytest.mark.parametrize(
    "q, lo, hi",
    [
        (lambda x: math.cos(x) - x, 0.0, 1.5),
        (lambda x: x**3 - 2.0 * x - 5.0, 2.0, 3.0),
        (lambda x: math.exp(x) - 3.0, -1.0, 4.0),
        (lambda x: math.tanh(50.0 * (x - 0.3)), -1.0, 2.0),
        (lambda x: math.atan(x - 0.7), -5.0, 3.0),
        (lambda x: x * abs(x) - 0.1, -0.5, 1.0),
        (lambda x: math.copysign(1.0, x - 0.123456789), -2.0, 3.0),
        (lambda x: 1e-30 * (x - 1e-3), -1e3, 1e3),
    ],
    ids=["cos", "cubic", "exp", "steep-tanh", "atan", "signed-square", "step", "flat"],
)
@pytest.mark.parametrize("relative", [False, True], ids=["abs-xtol", "rel-xtol"])
def test_generic_roots_equal_brentq(q, lo, hi, relative):
    xtol = 1e-14 * hi if relative else 1e-14
    assert bracket_root(q, lo, hi, xtol).hex() == float(brentq(q, lo, hi, xtol=xtol, rtol=8.9e-16)).hex()


def test_endpoint_zero_is_returned():
    q = lambda x: x - 1.0
    assert bracket_root(q, 1.0, 2.0) == 1.0
    assert bracket_root(q, 0.0, 1.0) == 1.0
    # example51's set-up roots: u^3 - u is exactly zero at +-1
    assert bracket_root(lambda u: u**3 - u, 0.9, 1.0) == 1.0
    assert bracket_root(lambda u: u**3 - u, -1.1, -1.0) == -1.0


def test_same_sign_bracket_raises():
    with pytest.raises(RootBracketFailure, match="no sign change"):
        bracket_root(lambda x: x * x + 1.0, -1.0, 1.0)
    with pytest.raises(RootBracketFailure):
        bracket_root(lambda x: -1.0, 0.0, 1.0)


def test_no_convergence_raises_after_100_iterations():
    # a sign step at 0 on [-1e300, 1e300]: bisection would need about
    # 2,000 halvings to reach xtol = 1e-300
    evals = []

    def step(x):
        evals.append(x)
        return 1.0 if x > 0.0 else -1.0

    with pytest.raises(RuntimeError, match="100 iterations"):
        bracket_root(step, -1e300, 1e300, xtol=1e-300)
    assert len(evals) == 2 + 100
    with pytest.raises(RuntimeError, match="100 iterations"):
        brentq(step, -1e300, 1e300, xtol=1e-300, rtol=8.9e-16)


def test_nan_value_raises():
    # finite at the ends, NaN inside: ValueError, as brentq raises
    q = lambda x: -1.0 if x == 0.0 else (1.0 if x == 2.0 else math.nan)
    with pytest.raises(ValueError, match="NaN"):
        bracket_root(q, 0.0, 2.0)
    with pytest.raises(ValueError, match="NaN"):
        brentq(q, 0.0, 2.0, xtol=1e-14, rtol=8.9e-16)
