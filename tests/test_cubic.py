"""Channel cubic root finder vs numpy.roots and hand-built factorizations.

The cubic is c3 u^3 + c1 u + c0 with c3 != 0: a factorization of it has
roots that sum to zero.
"""

import math
import sys
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from stepsynth import extreme_root, real_roots
from stepsynth.cubic import COLUMN, FLOAT

coeff = st.floats(-50, 50, allow_nan=False, allow_infinity=False)


def numpy_real_roots(c3, c1, c0, imag_tol=1e-7):
    rts = np.roots([c3, 0.0, c1, c0])
    real = sorted(float(r.real) for r in rts if abs(r.imag) <= imag_tol * max(1.0, abs(r)))
    return real


def test_three_distinct_roots():
    # (u-1)(u-2)(u+3) = u^3 - 7u + 6
    roots = real_roots(1.0, -7.0, 6.0)
    assert len(roots) == 3
    assert roots == pytest.approx((-3.0, 1.0, 2.0), abs=1e-12)


def test_single_real_root():
    # (u-1)(u^2+u+2) = u^3 + u - 2
    roots = real_roots(1.0, 1.0, -2.0)
    assert len(roots) == 1
    assert roots[0] == pytest.approx(1.0, abs=1e-12)


def test_double_root_reported_twice():
    # (u-1)^2 (u+2) = u^3 - 3u + 2
    roots = real_roots(1.0, -3.0, 2.0)
    assert len(roots) == 3
    assert roots[0] == pytest.approx(-2.0, abs=1e-7)
    assert roots[1] == pytest.approx(1.0, abs=1e-6)
    assert roots[2] == pytest.approx(1.0, abs=1e-6)


def test_triple_root():
    # the roots sum to zero, so a triple root is 0: c3 u^3 for either sign
    # of c3, by real_roots and by both extremes, alone and on a column
    for c3 in (-0.5, 1e-3, 7.0):
        assert real_roots(c3, 0.0, 0.0) == (0.0, 0.0, 0.0)
        for sign in (+1, -1):
            assert extreme_root(c3, 0.0, 0.0, sign) == 0.0
            assert extreme_root(c3, 0.0, np.zeros(3), sign).tolist() == [0.0, 0.0, 0.0]


def test_pure_depressed_triple_zero():
    roots = real_roots(2.0, 0.0, 0.0)
    assert roots == (0.0, 0.0, 0.0)


def test_zero_leading_coefficient_raises():
    # c3 = 0 is not a channel cubic: refused by name, for a float c0 and a column
    with pytest.raises(ValueError, match="c3"):
        real_roots(0.0, -1.0, 0.5)
    for sign in (+1, -1):
        with pytest.raises(ValueError, match="c3"):
            extreme_root(0.0, -1.0, 0.5, sign)
        with pytest.raises(ValueError, match="c3"):
            extreme_root(0.0, -1.0, np.array([0.5, -0.5]), sign)


def test_control_channel_cubic():
    # alpha u^3 - u = c for alpha = 1/9 keeps three real roots while |c| is small
    alpha = 1.0 / 9.0
    roots = real_roots(alpha, -1.0, 0.0)
    assert roots == pytest.approx((-3.0, 0.0, 3.0), abs=1e-12)
    roots = real_roots(alpha, -1.0, -0.5)
    assert len(roots) == 3
    for r in roots:
        assert alpha * r**3 - r == pytest.approx(0.5, abs=1e-10)


def test_extreme_root():
    assert extreme_root(1.0, -7.0, 6.0, +1) == pytest.approx(2.0, abs=1e-12)
    assert extreme_root(1.0, -7.0, 6.0, -1) == pytest.approx(-3.0, abs=1e-12)


def test_extreme_root_is_the_extreme_of_real_roots():
    # extreme_root solves and polishes one root only; it must be the very
    # float real_roots reports at that end: on the pendulum's channel cubic
    # alpha u^3 - u + c over c in [-40, 40], including the double roots at
    # c = +-2/sqrt(3) where the trigonometric roots n = 0, 1 and n = 1, 2
    # meet, and on seeded random cubics with coefficients up to 50
    import random

    alpha = 1.0 / 9.0
    cases = [(alpha, -1.0, -40.0 + 80.0 * k / 20000) for k in range(20001)]
    for c in (2.0 / math.sqrt(3.0), -2.0 / math.sqrt(3.0)):
        cases += [(alpha, -1.0, c + k * 1e-12) for k in range(-500, 501)]
    rng = random.Random(20261018)
    cases += [tuple(rng.uniform(-50.0, 50.0) for _ in range(3)) for _ in range(20000)]
    for cs in cases:
        roots = real_roots(*cs)
        assert extreme_root(*cs, +1) == roots[-1], cs
        assert extreme_root(*cs, -1) == roots[0], cs


def test_extreme_root_on_a_column_of_constant_terms():
    # a column c0 gives the floats of one call per element: on the
    # pendulum's channel cubic across both double roots (trigonometric and
    # Cardano roots), and on seeded cubics
    rng = np.random.default_rng(20261019)
    alpha = 1.0 / 9.0
    near = np.arange(-500, 501) * 1e-12
    groups = [((alpha, -1.0), np.concatenate([np.linspace(-40.0, 40.0, 20001),
                                              2.0 / math.sqrt(3.0) + near, -2.0 / math.sqrt(3.0) + near]))]
    groups += [(tuple(rng.uniform(-50.0, 50.0, size=2)), rng.uniform(-50.0, 50.0, size=100)) for _ in range(200)]
    for (c3, c1), c0 in groups:
        for sign in (+1, -1):
            by_column = extreme_root(c3, c1, c0, sign)
            by_element = [extreme_root(c3, c1, v, sign) for v in c0.tolist()]
            assert [float(v).hex() for v in by_column] == [v.hex() for v in by_element], (c3, c1)


@pytest.mark.parametrize(
    "c", [1e154, -1e154, 1e200, -1e200, 1e300, -1e300, 1.7e308, -1.7e308, sys.float_info.max, -sys.float_info.max]
)
def test_huge_forcing_gives_its_finite_root(c):
    # past |c0 / c3| ~ 1.3e154 Cardano's q q overflows, and past the largest
    # float c0 / c3 itself: the cubic of u / 2^j gives the one real root,
    # the same floats alone and on a column, with no numpy warning
    alpha = 1.0 / 9.0
    for sign in (+1, -1):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            u = extreme_root(alpha, -1.0, c, sign)
            by_column = extreme_root(alpha, -1.0, np.array([c, 0.5, c]), sign)
        small = extreme_root(alpha, -1.0, 0.5, sign)
        assert [float(v).hex() for v in by_column] == [u.hex(), small.hex(), u.hex()]
        assert math.isfinite(u) and (u < 0.0) == (c > 0.0)
        assert abs((alpha * u * u - 1.0) * u + c) <= 1e-10 * abs(c)


@pytest.mark.parametrize("alpha", [1e-110, 1e-200])
def test_tiny_alpha_gives_its_finite_root(alpha):
    # past |c1 / c3| ~ 5.6e102, p^3 overflowed (OverflowError from the float
    # power): the cubic of u / 2^j, j also from c1's exponent, gives the
    # extreme root, about +-sqrt(1 / alpha) for a small forcing, the same
    # floats alone and on a column
    for sign in (+1, -1):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            by_column = extreme_root(alpha, -1.0, np.array([0.5, -3.0, 0.5]), sign)
            u = [extreme_root(alpha, -1.0, c, sign) for c in (0.5, -3.0, 0.5)]
        assert [float(v).hex() for v in by_column] == [v.hex() for v in u]
        assert all(math.isfinite(v) and (v > 0.0) == (sign > 0) for v in u)
    if alpha == 1e-110:
        assert extreme_root(alpha, -1.0, 0.5, +1) == pytest.approx(1e55, rel=1e-12)
        assert extreme_root(alpha, -1.0, 0.5, -1) == pytest.approx(-1e55, rel=1e-12)


@given(c3=coeff, c1=coeff, c0=coeff)
@settings(max_examples=400, deadline=None)
# a double root: the trigonometric roots n = 0 and n = 1 meet
@example(c3=1.0, c1=-3.0, c0=2.0)
def test_roots_satisfy_polynomial(c3, c1, c0):
    if c3 == 0.0:
        return
    # tiny-but-nonzero coefficients give astronomically large roots whose
    # residuals overflow; that regime is out of scope here
    if any(0.0 < abs(c) < 1e-6 for c in (c3, c1, c0)):
        return
    roots = real_roots(c3, c1, c0)
    scale = max(abs(c3), abs(c1), abs(c0))
    for u in roots:
        val = (c3 * u * u + c1) * u + c0
        assert abs(val) <= 1e-6 * scale * max(1.0, abs(u)) ** 3
    assert list(roots) == sorted(roots)


@given(r1=coeff, r2=coeff, lead=st.floats(0.1, 10))
@settings(max_examples=300, deadline=None)
def test_factored_cubics_recovered(r1, r2, lead):
    # no u^2 term: the three roots sum to zero
    r3 = -(r1 + r2)
    rs = sorted([r1, r2, r3])
    # keep roots separated so the comparison tolerance is meaningful
    if rs[1] - rs[0] < 1e-2 or rs[2] - rs[1] < 1e-2:
        return
    c3 = lead
    c1 = lead * (r1 * r2 + r1 * r3 + r2 * r3)
    c0 = -lead * r1 * r2 * r3
    got = real_roots(c3, c1, c0)
    assert len(got) == 3
    span = max(1.0, max(abs(r) for r in rs))
    for g, w in zip(got, rs):
        assert abs(g - w) <= 1e-6 * span


def test_matches_numpy_on_random_sweep():
    rng = np.random.default_rng(42)
    for _ in range(300):
        c3, c1, c0 = rng.uniform(-5, 5, size=3)
        if abs(c3) < 1e-3:
            continue
        got = real_roots(c3, c1, c0)
        want = numpy_real_roots(c3, c1, c0)
        if len(got) != len(want):
            # near-multiple roots can legitimately differ in count between
            # the two backends; require value agreement only
            continue
        for g, w in zip(got, want):
            assert g == pytest.approx(w, abs=1e-6 * max(1.0, abs(w)))


_ADVERSARIAL = [0.0, -0.0, 5e-324, -5e-324, 1e-300, -1e-300, 1.0, -1.0, 1e300, -1e300, math.inf, -math.inf, math.nan]


def _hexes(v, n):
    return [float(e).hex() for e in np.broadcast_to(v, n)]


def test_float_and_column_steps_give_the_same_floats():
    # each FLOAT step and its COLUMN twin on the same adversarial floats:
    # equal float.hex element by element, NaN and signed zeros included.
    # sqrt and acos get their domain only (math's raise outside it, and
    # the formulas never go there); sin and cos raise at an infinity either way
    rng = np.random.default_rng(20261020)
    drawn = rng.standard_normal(400) * 10.0 ** rng.uniform(-320.0, 300.0, 400)
    x = np.array(_ADVERSARIAL + drawn.tolist() + rng.uniform(-1.0, 1.0, 200).tolist())
    domains = {
        "sqrt": ~(x < 0.0),
        "sin": ~np.isinf(x),
        "cos": ~np.isinf(x),
        "acos": ~(np.abs(x) > 1.0),
        "cbrt": np.ones(len(x), dtype=bool),
    }
    for name, inside in domains.items():
        v = x[inside]
        by_column = getattr(COLUMN, name)(v)
        assert _hexes(by_column, len(v)) == [getattr(FLOAT, name)(e).hex() for e in v.tolist()], name
    for name in ("sin", "cos"):
        for e in (math.inf, -math.inf):
            with pytest.raises(ValueError):
                getattr(FLOAT, name)(e)
            with pytest.raises(ValueError):
                getattr(COLUMN, name)(np.array([0.5, e]))
    assert COLUMN.exponent(x).tolist() == [FLOAT.exponent(e) for e in x.tolist()]
    for j in (np.arange(-900, 0), np.arange(-900, 600), rng.integers(-900, 600, 100)):
        assert _hexes(COLUMN.scale(j), len(j)) == [FLOAT.scale(e).hex() for e in j.tolist()]
    # every pair of the adversarial floats, and random pairs
    a = np.concatenate([np.repeat(_ADVERSARIAL, len(_ADVERSARIAL)), rng.permutation(x)])
    b = np.concatenate([np.tile(_ADVERSARIAL, len(_ADVERSARIAL)), x])
    cond = (a < b) | rng.integers(0, 2, len(a)).astype(bool)
    pairs = list(zip(cond.tolist(), a.tolist(), b.tolist()))
    assert _hexes(COLUMN.div(a, b), len(a)) == [FLOAT.div(e, f).hex() for _, e, f in pairs]
    assert _hexes(COLUMN.select(cond, a, b), len(a)) == [FLOAT.select(c, e, f).hex() for c, e, f in pairs]
    assert _hexes(COLUMN.select(cond, a, -0.0), len(a)) == [FLOAT.select(c, e, -0.0).hex() for c, e, _ in pairs]

    # split: yes where the mask holds, no elsewhere; arrays are cut, floats passed whole
    def yes(v, c):
        return v * c

    def no(v, c):
        return v - c

    for mask in (cond, np.zeros(len(a), dtype=bool), np.ones(len(a), dtype=bool), False):
        by_column = COLUMN.split(mask, yes, no, a, 3.0)
        flags = np.broadcast_to(mask, len(a)).tolist()
        assert _hexes(by_column, len(a)) == [FLOAT.split(m, yes, no, e, 3.0).hex() for m, e in zip(flags, a.tolist())]
