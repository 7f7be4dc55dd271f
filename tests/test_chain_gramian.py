"""Gramian family of the integrator chain.

The closed forms are checked against an independent Gauss-Legendre
quadrature of the defining integral (with scipy's expm, not the package's
own chain exponential), and the three structural identities are checked
entrywise over a grid of dimensions and horizons.
"""

import math
from fractions import Fraction

import numpy as np
import pytest
from scipy.linalg import expm

from stepsynth import (
    GramianConditionError,
    gram_n1,
    gram_theta,
    gram_theta_inv,
)
from stepsynth.chain_gramian import _invert_fractions

from paper_oracles import chain_matrices, dilation_matrix, expm_chain_b, gram_hat, gram_tilde


def quad_gram(k: int, theta: float, with_weight: bool = True) -> np.ndarray:
    """Gauss-Legendre oracle for int_0^theta (1 - t/theta) e^{-A0 t} b0 b0* e^{-A0* t} dt.

    The integrand is polynomial of degree <= 2k-1, so 32 nodes are exact to
    roundoff for every k under test.
    """
    a0 = np.diag(np.ones(k - 1), 1) if k > 1 else np.zeros((1, 1))
    b0 = np.zeros(k)
    b0[k - 1] = 1.0
    nodes, weights = np.polynomial.legendre.leggauss(32)
    total = np.zeros((k, k))
    for xi, wi in zip(nodes, weights):
        t = 0.5 * theta * (xi + 1.0)
        col = expm(-a0 * t) @ b0
        factor = (1.0 - t / theta) if with_weight else 1.0
        total += wi * factor * np.outer(col, col)
    return 0.5 * theta * total


# --- chain matrices and the exponential column ---


def test_chain_matrices_shapes():
    a0, b0 = chain_matrices(3)
    assert a0.shape == (3, 3)
    assert np.array_equal(a0, [[0, 1, 0], [0, 0, 1], [0, 0, 0]])
    assert np.array_equal(b0, [0, 0, 1])


def test_expm_chain_b_hand_values():
    assert np.array_equal(expm_chain_b(1, 5.0), [1.0])
    assert np.array_equal(expm_chain_b(2, 1.0), [-1.0, 1.0])
    assert np.array_equal(expm_chain_b(3, 2.0), [2.0, -2.0, 1.0])


@pytest.mark.parametrize("k", [1, 2, 3, 4, 6])
@pytest.mark.parametrize("t", [0.0, 0.3, 1.0, 4.7])
def test_expm_chain_b_matches_scipy(k, t):
    a0, b0 = chain_matrices(k)
    want = expm(-a0 * t) @ b0
    got = expm_chain_b(k, t)
    assert np.max(np.abs(got - want)) <= 1e-12 * max(1.0, np.max(np.abs(want)))


# --- N(1) closed form ---


def test_n1_hand_values_k1():
    g = gram_n1(1)
    assert g.n1_exact == ((Fraction(1, 2),),)
    assert g.n1_inv_exact == ((Fraction(2),),)


def test_n1_hand_values_k2():
    g = gram_n1(2)
    assert g.n1_exact == (
        (Fraction(1, 12), Fraction(-1, 6)),
        (Fraction(-1, 6), Fraction(1, 2)),
    )
    assert g.n1_inv_exact == (
        (Fraction(36), Fraction(12)),
        (Fraction(12), Fraction(6)),
    )


def test_n1_inv_b_b_inner_products():
    # (N^{-1}(1) b0, b0) is the lower-right entry of the inverse
    assert gram_n1(1).n1_inv_exact[0][0] == 2
    assert gram_n1(2).n1_inv_exact[1][1] == 6


@pytest.mark.parametrize("k", [1, 2, 3, 4, 5, 6])
def test_n1_matches_quadrature_oracle(k):
    g = gram_n1(k)
    oracle = quad_gram(k, 1.0)
    err = np.max(np.abs(g.n1 - oracle) / np.maximum(1.0, np.abs(oracle)))
    assert err <= 1e-10


@pytest.mark.parametrize("k", range(1, 9))
def test_n1_positive_definite(k):
    exact = gram_n1(k).n1_exact
    # leading principal minors, computed exactly
    for m in range(1, k + 1):
        sub = [list(row[:m]) for row in exact[:m]]
        det = _fraction_det(sub)
        assert det > 0


def _fraction_det(m):
    n = len(m)
    m = [row[:] for row in m]
    det = Fraction(1)
    for c in range(n):
        piv = next((r for r in range(c, n) if m[r][c] != 0), None)
        if piv is None:
            return Fraction(0)
        if piv != c:
            m[c], m[piv] = m[piv], m[c]
            det = -det
        det *= m[c][c]
        for r in range(c + 1, n):
            f = m[r][c] / m[c][c]
            m[r] = [x - f * y for x, y in zip(m[r], m[c])]
    return det


def test_n1_symmetric_and_inverse_consistent():
    for k in (1, 2, 3, 5, 8):
        g = gram_n1(k)
        assert np.array_equal(g.n1, g.n1.T)
        resid = np.max(np.abs(g.n1 @ g.n1_inv - np.eye(k)))
        assert resid <= 1e-10 * max(1.0, np.max(np.abs(g.n1_inv)))


def test_dilation_exponents():
    g = gram_n1(4)
    assert np.array_equal(g.dil, [3.5, 2.5, 1.5, 0.5])
    assert np.all(np.diff(g.dil) == -1.0)


# --- scaled family ---


def test_gram_theta_hand_values():
    g1 = gram_n1(1)
    assert np.allclose(gram_theta(g1, 4.0), [[2.0]], rtol=0, atol=1e-15)
    g2 = gram_n1(2)
    assert np.array_equal(gram_theta(g2, 1.0), g2.n1)
    want = [[8.0 / 12.0, -4.0 / 6.0], [-4.0 / 6.0, 1.0]]
    assert np.allclose(gram_theta(g2, 2.0), want, rtol=0, atol=1e-15)


def test_gram_hat_tilde_hand_values():
    g1 = gram_n1(1)
    assert np.array_equal(gram_hat(g1, 1.0), [[1.0]])
    assert np.array_equal(gram_tilde(g1, 1.0), [[0.5]])
    g2 = gram_n1(2)
    want_hat = [[1.0 / 3.0, -1.0 / 2.0], [-1.0 / 2.0, 1.0]]
    assert np.allclose(gram_hat(g2, 1.0), want_hat, rtol=0, atol=1e-15)


@pytest.mark.parametrize("k", [2, 3, 5])
@pytest.mark.parametrize("theta", [0.5, 2.0])
def test_gram_theta_matches_quadrature(k, theta):
    g = gram_n1(k)
    oracle = quad_gram(k, theta)
    err = np.max(np.abs(gram_theta(g, theta) - oracle) / np.maximum(1.0, np.abs(oracle)))
    assert err <= 1e-10


@pytest.mark.parametrize("k", range(1, 9))
@pytest.mark.parametrize("theta", [0.1, 1.0, 7.0])
def test_identities(k, theta):
    g = gram_n1(k)
    n = gram_theta(g, theta)
    d = dilation_matrix(g, theta)
    a0, b0 = chain_matrices(k)

    assert np.max(np.abs(d @ n @ d - g.n1)) <= 1e-10

    nhat = gram_hat(g, theta)
    lyap = a0 @ n + n @ a0.T - (np.outer(b0, b0) - nhat)
    assert np.max(np.abs(lyap)) <= 1e-10 * max(1.0, np.max(np.abs(nhat)))

    ntil = gram_tilde(g, theta)
    assert np.max(np.abs(theta * (nhat - ntil) - n)) <= 1e-12 * max(1.0, np.max(np.abs(n)))


@pytest.mark.parametrize("k", [2, 4])
@pytest.mark.parametrize("theta", [0.3, 1.7])
def test_gram_theta_inv_is_inverse(k, theta):
    g = gram_n1(k)
    prod = gram_theta(g, theta) @ gram_theta_inv(g, theta)
    scale = max(1.0, np.max(np.abs(gram_theta_inv(g, theta))))
    assert np.max(np.abs(prod - np.eye(k))) <= 1e-10 * scale


# --- validation ---


@pytest.mark.parametrize("bad", [0, -1, 17, 2.0, "3", True])
def test_k_validation(bad):
    with pytest.raises(ValueError):
        gram_n1(bad)


def test_k_cap_boundary():
    g = gram_n1(16)
    assert g.k == 16


@pytest.mark.parametrize("fn", [gram_theta, gram_theta_inv, dilation_matrix, gram_hat, gram_tilde])
def test_theta_must_be_positive(fn):
    g = gram_n1(2)
    with pytest.raises(ValueError):
        fn(g, 0.0)
    with pytest.raises(ValueError):
        fn(g, -1.0)


@pytest.mark.parametrize("fn", [gram_theta, gram_theta_inv])
def test_theta_must_be_finite(fn):
    # Theta^-p would read 0 and Theta^p inf: neither is a Gramian
    with pytest.raises(ValueError, match="finite"):
        fn(gram_n1(2), math.inf)


def test_singular_inversion_raises():
    singular = [
        [Fraction(1), Fraction(2)],
        [Fraction(2), Fraction(4)],
    ]
    with pytest.raises(GramianConditionError):
        _invert_fractions(singular)
