"""Finite-difference Lie brackets, column selection, and gradient conditions."""

import numpy as np
import pytest

from stepsynth import (
    CapExceeded,
    RankDeficient,
    RegularityViolation,
    halton_samples,
    lie_bracket,
    select_columns,
    verify_phi_conditions,
)
from stepsynth import example51, get_scenario, pendulum


def const(vec):
    v = np.asarray(vec, dtype=float)
    return lambda x: v


# --- lie_bracket ---


def test_bracket_with_zero_drift_of_constant_is_zero():
    a = const([0.0, 0.0])
    b = const([1.0, 0.0])
    out = lie_bracket(a, b, [0.3, -0.7])
    assert np.max(np.abs(out)) == 0.0


def test_bracket_shift_field():
    a = lambda x: np.array([x[1], 0.0])
    b = const([0.0, 1.0])
    out = lie_bracket(a, b, [2.0, 5.0])
    assert out == pytest.approx([-1.0, 0.0], abs=1e-9)


def test_bracket_four_dim_double_shift():
    a = lambda x: np.array([x[1], 0.0, x[3], 0.0])
    b1 = const([0.0, 1.0, 0.0, 0.0])
    b2 = const([0.0, 0.0, 0.0, 1.0])
    assert lie_bracket(a, b1, [0.1, 0.2, 0.3, 0.4]) == pytest.approx([-1.0, 0, 0, 0], abs=1e-9)
    assert lie_bracket(a, b2, [0.1, 0.2, 0.3, 0.4]) == pytest.approx([0, 0, -1.0, 0], abs=1e-9)


def test_bracket_polynomial_hand_value():
    a = lambda x: np.array([x[0] ** 2, x[0] * x[1]])
    b = lambda x: np.array([x[1] ** 2, x[0]])
    out = lie_bracket(a, b, [1.3, 0.7], h=1e-5)
    # Jb a - Ja b = (1.274, 1.69) - (1.274, 2.033)
    assert out == pytest.approx([0.0, -0.343], abs=1e-8)


def test_bracket_second_order_convergence():
    # cubic fields have a nonvanishing third derivative, so the central
    # difference error scales as h^2
    a = lambda x: np.array([x[1] ** 3, 0.0])
    b = lambda x: np.array([0.0, x[0] ** 3])
    x = np.array([1.2, 0.8])
    exact = np.array([-3 * x[1] ** 2 * x[0] ** 3, 3 * x[0] ** 2 * x[1] ** 3])
    e1 = np.max(np.abs(lie_bracket(a, b, x, h=2e-2) - exact))
    e2 = np.max(np.abs(lie_bracket(a, b, x, h=1e-2) - exact))
    assert e1 > 0 and e2 > 0
    assert e1 / e2 == pytest.approx(4.0, rel=0.25)


# --- halton_samples ---


def test_halton_shape_bounds_determinism():
    box = ((-1.0, 1.0), (0.0, 3.0))
    s1 = halton_samples(box, 32)
    s2 = halton_samples(box, 32)
    assert s1.shape == (32, 2)
    assert np.array_equal(s1, s2)
    assert np.all(s1[:, 0] >= -1.0) and np.all(s1[:, 0] <= 1.0)
    assert np.all(s1[:, 1] >= 0.0) and np.all(s1[:, 1] <= 3.0)


@pytest.mark.parametrize("d", [1, 2, 3, 4, 5, 6])
@pytest.mark.parametrize("count", [32, 100])
def test_halton_matches_scipy(d, count):
    from scipy.stats import qmc

    want = qmc.Halton(d=d, scramble=False).random(count)
    assert np.array_equal(halton_samples(((0.0, 1.0),) * d, count), want)


def test_halton_box_validation():
    with pytest.raises(ValueError):
        halton_samples(((1.0, -1.0),), 8)
    for box in (((0.0, np.inf),), ((-np.inf, 0.0),), ((0.0, 1.0), (0.0, np.inf))):
        with pytest.raises(ValueError, match="finite"):
            halton_samples(box, 8)


@pytest.mark.parametrize("count", [0, -3])
def test_halton_count_validation(count):
    with pytest.raises(ValueError, match="at least 1"):
        halton_samples(((0.0, 1.0),), count)


# --- select_columns ---


def test_select_constant_single_field():
    a = const([0.0])
    report = select_columns(a, [const([1.0])], [[0.0], [0.5]])
    assert report.indices == (1,)
    assert report.kept == ((1, 0),)


def test_select_chain_three():
    a = lambda x: np.array([x[1], x[2], 0.0])
    b = const([0.0, 0.0, 1.0])
    samples = halton_samples(((-1, 1),) * 3, 8)
    report = select_columns(a, [b], samples)
    assert report.indices == (3,)
    assert report.kept == ((1, 0), (1, 1), (1, 2))
    assert report.rank_history[-1] == 3


def test_select_pendulum_fields():
    scn = pendulum()
    samples = halton_samples(scn.probe.box, 32)
    report = select_columns(scn.probe.a, scn.probe.bs, samples)
    assert report.indices == (2, 2)
    assert set(report.kept) == {(1, 0), (1, 1), (2, 0), (2, 1)}
    assert report.indices == scn.blocks.sizes


def test_select_example51_fields():
    scn = example51()
    samples = halton_samples(scn.probe.box, 32)
    report = select_columns(scn.probe.a, scn.probe.bs, samples)
    assert report.indices == (1, 2)
    assert set(report.kept) == {(1, 0), (2, 0), (2, 1)}
    assert report.indices == scn.blocks.sizes


@pytest.mark.parametrize("make", [pendulum, example51], ids=["pendulum", "example51"])
def test_select_evaluates_each_column_once_per_sample(make, monkeypatch):
    # every order-1 column is one bracket per sample: the pendulum keeps
    # both, example51 keeps one and deletes the other.  A kept column is
    # appended to the basis from its rank vote, not evaluated again
    import stepsynth.mappability as mappability

    calls = []
    bracket = mappability.lie_bracket

    def counted(*args, **kwargs):
        calls.append(args)
        return bracket(*args, **kwargs)

    monkeypatch.setattr(mappability, "lie_bracket", counted)
    scn = make()
    samples = halton_samples(scn.probe.box, 32)
    report = select_columns(scn.probe.a, scn.probe.bs, samples)
    assert report.indices == scn.blocks.sizes
    assert len(calls) == 2 * len(samples)


# --- ad_a^k b columns kept in the report ---


def test_ad_pow_zero_is_field_value():
    # order 0 is the field's own value at each sample
    b = lambda x: np.array([x[0], 2.0])
    report = select_columns(const([0.0, 0.0]), [b, const([0.0, 1.0])], [[3.0, 1.0]])
    assert np.array_equal(report.columns[(1, 0)], [[3.0, 2.0]])


def test_ad_pow_chain():
    # a 3-chain keeps ad_a b and ad_a^2 b, one row per sample
    a = lambda x: np.array([x[1], x[2], 0.0])
    x = np.array([0.4, -0.2, 0.9])
    report = select_columns(a, [const([0.0, 0.0, 1.0])], [x])
    assert set(report.columns) == set(report.kept)
    assert report.columns[(1, 1)].shape == (1, 3)
    assert report.columns[(1, 1)][0] == pytest.approx([0.0, -1.0, 0.0], abs=1e-8)
    # nesting compounds finite-difference roundoff, so the tolerance is looser
    assert report.columns[(1, 2)][0] == pytest.approx([1.0, 0.0, 0.0], abs=1e-5)


def test_select_permutation_invariant():
    scn = pendulum()
    samples = halton_samples(scn.probe.box, 16)
    r1 = select_columns(scn.probe.a, scn.probe.bs, samples)
    r2 = select_columns(scn.probe.a, scn.probe.bs, samples[::-1])
    assert r1.kept == r2.kept
    assert r1.indices == r2.indices


def test_select_regularity_violation():
    a = const([0.0, 0.0])
    b1 = const([1.0, 0.0])
    b2 = lambda x: np.array([0.0, x[0]])
    # b2 vanishes at the first sample but not the second
    with pytest.raises(RegularityViolation):
        select_columns(a, [b1, b2], [[0.0, 0.0], [1.0, 0.0]])


def test_select_rank_deficient():
    a = const([0.0, 0.0])
    with pytest.raises(RankDeficient):
        select_columns(a, [const([1.0, 0.0])], [[0.2, 0.4]])


def test_select_cap_exceeded():
    # a 5-chain from a single input needs bracket order 4, above the cap
    a = lambda x: np.array([x[1], x[2], x[3], x[4], 0.0])
    b = const([0.0, 0.0, 0.0, 0.0, 1.0])
    samples = halton_samples(((-1, 1),) * 5, 4)
    with pytest.raises(CapExceeded):
        select_columns(a, [b], samples)


def test_select_requires_fields():
    with pytest.raises(ValueError):
        select_columns(const([0.0]), [], [[0.0]])


def test_select_requires_samples():
    # with no samples, every column would "raise the rank at every sample"
    with pytest.raises(ValueError, match="sample"):
        select_columns(const([0.0, 0.0]), [const([1.0, 0.0])], np.empty((0, 2)))


# --- verify_phi_conditions ---


def test_phi_conditions_pendulum():
    scn = pendulum()
    samples = halton_samples(scn.probe.box, 16)
    report = select_columns(scn.probe.a, scn.probe.bs, samples)
    res = verify_phi_conditions(scn.to_z, report)
    assert res and all(res.values())
    assert ("nonvanish", 1, 0, 0) in res
    assert ("nonvanish", 2, 0, 0) in res


def test_phi_conditions_example51():
    scn = example51()
    samples = halton_samples(scn.probe.box, 16)
    report = select_columns(scn.probe.a, scn.probe.bs, samples)
    res = verify_phi_conditions(scn.to_z, report)
    assert res and all(res.values())


def test_phi_conditions_zero_gradient_fails_nonvanish():
    # a chart whose block-1 head is constant has a zero gradient there
    scn = pendulum()
    samples = halton_samples(scn.probe.box, 8)
    report = select_columns(scn.probe.a, scn.probe.bs, samples)
    res = verify_phi_conditions(lambda x: (0.0,) + tuple(scn.to_z(x))[1:], report)
    assert res[("nonvanish", 1, 0, 0)] is False
    assert res[("nonvanish", 2, 0, 0)] is True


@pytest.mark.parametrize("name", ["pendulum", "example51", "polyodd:3", "intro2d"])
def test_phi_conditions_do_not_depend_on_the_gradient_scale(name):
    # both tests are relative to |gradient| |column|: a scaled chart gives
    # the unscaled verdicts, and a constant chart fails every nonvanish test
    scn = get_scenario(name)
    report = select_columns(scn.probe.a, scn.probe.bs, halton_samples(scn.probe.box, 16))
    want = verify_phi_conditions(scn.to_z, report)
    assert want and all(want.values())
    for scale in (1e-7, 1e7):
        assert verify_phi_conditions(lambda x: scale * np.asarray(scn.to_z(x)), report) == want
    res = verify_phi_conditions(lambda x: np.zeros(scn.n), report)
    assert [ok for (kind, *_), ok in res.items() if kind == "nonvanish"] == [False] * scn.blocks.m


def test_phi_conditions_field_without_column():
    # the third field lies in the span of the first two and keeps no column
    bs = [const([1.0, 0.0]), const([0.0, 1.0]), const([1.0, 1.0])]
    report = select_columns(const([0.0, 0.0]), bs, [[0.1, 0.2]])
    assert report.indices == (1, 1, 0)
    with pytest.raises(ValueError, match="field 3"):
        verify_phi_conditions(lambda x: x, report)


def test_polyodd_probe_matches_blocks():
    scn = get_scenario("polyodd:3")
    samples = halton_samples(scn.probe.box, 16)
    report = select_columns(scn.probe.a, scn.probe.bs, samples)
    assert report.indices == scn.blocks.sizes
    res = verify_phi_conditions(scn.to_z, report)
    assert all(res.values())
