"""Real cubic root finder vs numpy.roots and hand-built factorizations."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from stepsynth import extreme_root, real_roots

coeff = st.floats(-50, 50, allow_nan=False, allow_infinity=False)


def numpy_real_roots(c3, c2, c1, c0, imag_tol=1e-7):
    rts = np.roots([c3, c2, c1, c0])
    real = sorted(float(r.real) for r in rts if abs(r.imag) <= imag_tol * max(1.0, abs(r)))
    return real


def test_three_distinct_roots():
    # (u-1)(u-2)(u-3) = u^3 - 6u^2 + 11u - 6
    roots = real_roots(1.0, -6.0, 11.0, -6.0)
    assert len(roots) == 3
    assert roots == pytest.approx((1.0, 2.0, 3.0), abs=1e-12)


def test_single_real_root():
    # (u-1)(u^2+1) = u^3 - u^2 + u - 1
    roots = real_roots(1.0, -1.0, 1.0, -1.0)
    assert len(roots) == 1
    assert roots[0] == pytest.approx(1.0, abs=1e-12)


def test_double_root_reported_twice():
    # (u-2)^2 (u+1) = u^3 - 3u^2 + 4
    roots = real_roots(1.0, -3.0, 0.0, 4.0)
    assert len(roots) == 3
    assert roots[0] == pytest.approx(-1.0, abs=1e-7)
    assert roots[1] == pytest.approx(2.0, abs=1e-6)
    assert roots[2] == pytest.approx(2.0, abs=1e-6)


def test_triple_root():
    # (u+0.5)^3
    roots = real_roots(1.0, 1.5, 0.75, 0.125)
    assert len(roots) == 3
    for r in roots:
        assert r == pytest.approx(-0.5, abs=1e-5)


def test_pure_depressed_triple_zero():
    roots = real_roots(2.0, 0.0, 0.0, 0.0)
    assert roots == (0.0, 0.0, 0.0)


def test_quadratic_degeneration():
    assert real_roots(0.0, 1.0, -3.0, 2.0) == pytest.approx((1.0, 2.0))
    assert real_roots(0.0, 1.0, 0.0, 1.0) == ()  # u^2 + 1
    assert real_roots(0.0, -2.0, 0.0, 8.0) == pytest.approx((-2.0, 2.0))
    assert real_roots(0.0, 3.0, 0.0, 0.0) == (0.0, 0.0)  # q = 0: double root


def test_quadratic_small_root_without_cancellation():
    # c1^2 >> |4 c2 c0|: the textbook formula loses the small root to -0.0
    c3, c2, c1, c0 = 0.0, -3e-6, 2.8e5, -1.5
    roots = real_roots(c3, c2, c1, c0)
    assert len(roots) == 2
    assert roots[0] == pytest.approx(5.357142857142857e-06, rel=1e-12)
    for u in roots:
        a = abs(u)
        val = ((c3 * u + c2) * u + c1) * u + c0
        assert abs(val) <= 1e-9 * (((abs(c3) * a + abs(c2)) * a + abs(c1)) * a + abs(c0))


def test_linear_degeneration():
    assert real_roots(0.0, 0.0, 4.0, -2.0) == (0.5,)


def test_all_zero_leading_raises():
    with pytest.raises(ValueError):
        real_roots(0.0, 0.0, 0.0, 1.0)


def test_control_channel_cubic():
    # alpha u^3 - u = c for alpha = 1/9 keeps three real roots while |c| is small
    alpha = 1.0 / 9.0
    roots = real_roots(alpha, 0.0, -1.0, 0.0)
    assert roots == pytest.approx((-3.0, 0.0, 3.0), abs=1e-12)
    roots = real_roots(alpha, 0.0, -1.0, -0.5)
    assert len(roots) == 3
    for r in roots:
        assert alpha * r**3 - r == pytest.approx(0.5, abs=1e-10)


def test_extreme_root():
    assert extreme_root(1.0, -6.0, 11.0, -6.0, +1) == pytest.approx(3.0, abs=1e-12)
    assert extreme_root(1.0, -6.0, 11.0, -6.0, -1) == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(ValueError):
        extreme_root(0.0, 1.0, 0.0, 1.0, +1)


def test_extreme_root_is_the_extreme_of_real_roots():
    # extreme_root solves and polishes one root only; it must be the very
    # float real_roots reports at that end: on the pendulum's channel cubic
    # alpha u^3 - u + c over c in [-40, 40], including the double roots at
    # c = +-2/sqrt(3) where the trigonometric roots n = 0, 1 and n = 1, 2
    # meet, and on seeded random cubics with coefficients up to 50
    import random

    alpha = 1.0 / 9.0
    cases = [(alpha, 0.0, -1.0, -40.0 + 80.0 * k / 20000) for k in range(20001)]
    for c in (2.0 / math.sqrt(3.0), -2.0 / math.sqrt(3.0)):
        cases += [(alpha, 0.0, -1.0, c + k * 1e-12) for k in range(-500, 501)]
    rng = random.Random(20261018)
    cases += [tuple(rng.uniform(-50.0, 50.0) for _ in range(4)) for _ in range(20000)]
    for cs in cases:
        roots = real_roots(*cs)
        assert extreme_root(*cs, +1) == roots[-1], cs
        assert extreme_root(*cs, -1) == roots[0], cs


@given(c3=coeff, c2=coeff, c1=coeff, c0=coeff)
@settings(max_examples=400, deadline=None)
# c3 tiny against c2: the depressed form loses the two small roots
@example(c3=1e-05, c2=28.0, c1=0.5, c0=0.0)
@example(c3=1e-05, c2=30.0, c1=0.5, c0=0.0)
def test_roots_satisfy_polynomial(c3, c2, c1, c0):
    if abs(c3) < 1e-6 and abs(c2) < 1e-6 and abs(c1) < 1e-6:
        return
    # tiny-but-nonzero leading coefficients give astronomically large roots
    # whose residuals overflow; that regime is out of scope here
    if any(0.0 < abs(c) < 1e-6 for c in (c3, c2, c1, c0)):
        return
    roots = real_roots(c3, c2, c1, c0)
    scale = max(abs(c3), abs(c2), abs(c1), abs(c0))
    for u in roots:
        val = ((c3 * u + c2) * u + c1) * u + c0
        assert abs(val) <= 1e-6 * scale * max(1.0, abs(u)) ** 3
    assert list(roots) == sorted(roots)


@given(r1=coeff, r2=coeff, r3=coeff, lead=st.floats(0.1, 10))
@settings(max_examples=300, deadline=None)
def test_factored_cubics_recovered(r1, r2, r3, lead):
    rs = sorted([r1, r2, r3])
    # keep roots separated so the comparison tolerance is meaningful
    if rs[1] - rs[0] < 1e-2 or rs[2] - rs[1] < 1e-2:
        return
    c3 = lead
    c2 = -lead * (r1 + r2 + r3)
    c1 = lead * (r1 * r2 + r1 * r3 + r2 * r3)
    c0 = -lead * r1 * r2 * r3
    got = real_roots(c3, c2, c1, c0)
    assert len(got) == 3
    span = max(1.0, max(abs(r) for r in rs))
    for g, w in zip(got, rs):
        assert abs(g - w) <= 1e-6 * span


def test_matches_numpy_on_random_sweep():
    rng = np.random.default_rng(42)
    for _ in range(300):
        c3, c2, c1, c0 = rng.uniform(-5, 5, size=4)
        if abs(c3) < 1e-3:
            continue
        got = real_roots(c3, c2, c1, c0)
        want = numpy_real_roots(c3, c2, c1, c0)
        if len(got) != len(want):
            # near-multiple roots can legitimately differ in count between
            # the two backends; require value agreement only
            continue
        for g, w in zip(got, want):
            assert g == pytest.approx(w, abs=1e-6 * max(1.0, abs(w)))
