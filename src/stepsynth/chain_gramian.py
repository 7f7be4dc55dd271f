"""Controllability Gramians of a single-input chain of integrators.

The chain (A0, b0) has ones on the first superdiagonal of A0 and b0 = e_k.
Everything here follows from the closed form of the matrix exponential
applied to b0,

    (e^{-A0 t} b0)_i = (-t)^(k-i) / (k-i)!,

which makes the finite-horizon Gramian

    N(T) = integral_0^T (1 - t/T) e^{-A0 t} b0 b0* e^{-A0* t} dt

a matrix of rationals at T=1 and a power-scaled copy of N(1) otherwise:
N(T)[i][j] = T^(2k-i-j+1) N(1)[i][j] (1-based indices).  N(1) and its
inverse are computed in exact rational arithmetic; no quadrature is used
outside the test oracles.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

K_CAP = 16


class GramianConditionError(RuntimeError):
    """Inversion residual above the acceptance gate: N(1) numerically unusable."""


def _check_k(k: int) -> None:
    if not isinstance(k, int) or isinstance(k, bool):
        raise ValueError(f"chain dimension must be an int, got {k!r}")
    if k < 1 or k > K_CAP:
        raise ValueError(f"chain dimension must satisfy 1 <= k <= {K_CAP}, got {k}")


@dataclass(frozen=True)
class GramSet:
    """N(1), its inverse, and the dilation exponents for one chain dimension.

    n1 and n1_inv are float renderings of the exact rational matrices, which
    are retained in n1_exact / n1_inv_exact.  dil[j] = (2k-2j+1)/2 are the
    exponents of the dilation that rescales N(Theta) back to N(1); they
    decrease by exactly 1 along the diagonal.
    """

    k: int
    n1: np.ndarray
    n1_inv: np.ndarray
    dil: np.ndarray
    n1_exact: tuple
    n1_inv_exact: tuple


def _n1_fractions(k: int) -> list[list[Fraction]]:
    rows = []
    for i in range(1, k + 1):
        row = []
        for j in range(1, k + 1):
            p, q = k - i, k - j
            val = Fraction((-1) ** (p + q), math.factorial(p) * math.factorial(q)) * (
                Fraction(1, p + q + 1) - Fraction(1, p + q + 2)
            )
            row.append(val)
        rows.append(row)
    return rows


def _invert_fractions(m: list[list[Fraction]]) -> list[list[Fraction]]:
    # Gauss-Jordan with partial pivoting; exact, so pivoting only guards
    # against a structurally zero pivot.
    k = len(m)
    aug = [row[:] + [Fraction(int(i == j)) for j in range(k)] for i, row in enumerate(m)]
    for c in range(k):
        piv = max(range(c, k), key=lambda r: abs(aug[r][c]))
        if aug[piv][c] == 0:
            raise GramianConditionError(f"singular N(1) pivot at column {c} (k={k})")
        aug[c], aug[piv] = aug[piv], aug[c]
        inv_pivot = 1 / aug[c][c]
        aug[c] = [x * inv_pivot for x in aug[c]]
        for r in range(k):
            if r != c and aug[r][c] != 0:
                f = aug[r][c]
                aug[r] = [x - f * y for x, y in zip(aug[r], aug[c])]
    return [row[k:] for row in aug]


def gram_n1(k: int) -> GramSet:
    """Build N(1), N(1)^{-1} and dilation exponents for chain dimension k.

    Raises GramianConditionError if the float rendering fails the scaled
    backward-error gate |N(1) N(1)^{-1} - I| / max(1, |N(1)^{-1}|) <= 1e-10.
    """
    _check_k(k)
    exact = _n1_fractions(k)
    exact_inv = _invert_fractions(exact)
    n1 = np.array([[float(x) for x in row] for row in exact], dtype=float)
    n1_inv = np.array([[float(x) for x in row] for row in exact_inv], dtype=float)
    if not (np.all(np.isfinite(n1)) and np.all(np.isfinite(n1_inv))):
        raise GramianConditionError(f"N(1) entries overflow float64 at k={k}")
    scale = max(1.0, float(np.max(np.abs(n1_inv))))
    residual = float(np.max(np.abs(n1 @ n1_inv - np.eye(k)))) / scale
    if residual > 1e-10:
        raise GramianConditionError(
            f"inversion residual {residual:.3e} exceeds 1e-10 at k={k}"
        )
    dil = np.array([(2 * k - 2 * j + 1) / 2 for j in range(1, k + 1)])
    return GramSet(
        k=k,
        n1=n1,
        n1_inv=n1_inv,
        dil=dil,
        n1_exact=tuple(tuple(r) for r in exact),
        n1_inv_exact=tuple(tuple(r) for r in exact_inv),
    )


def _power_scale(g: GramSet, theta: float, base: np.ndarray, sign: int) -> np.ndarray:
    if not (theta > 0 and math.isfinite(theta)):
        raise ValueError(f"theta must be finite and positive, got {theta}")
    k = g.k
    out = np.empty((k, k))
    for i in range(1, k + 1):
        for j in range(1, k + 1):
            out[i - 1][j - 1] = base[i - 1][j - 1] * theta ** (sign * (2 * k - i - j + 1))
    return out


def gram_theta(g: GramSet, theta: float) -> np.ndarray:
    """N(Theta): entry (i,j) is Theta^(2k-i-j+1) N(1)[i][j]."""
    return _power_scale(g, theta, g.n1, +1)


def gram_theta_inv(g: GramSet, theta: float) -> np.ndarray:
    """N(Theta)^{-1}: entry (i,j) is Theta^{-(2k-i-j+1)} N(1)^{-1}[i][j]."""
    return _power_scale(g, theta, g.n1_inv, -1)
