"""Numeric probe for reducibility to a block chain-of-integrators form.

Builds the bracket columns q_{k m + j} = ad_a^k b_j at sampled states,
selects the columns that raise numeric rank at every sample (left to
right, with deletion of (j, k) propagating to (j, k+s)), and checks the
Phi-gradient conditions that the block transform must satisfy on the
columns the selection kept, so every bracket is built once.  `stepsynth
probe` runs both and prints the conditions as phi_conditions.
Fields are plain callables x -> R^n.  Jacobians are central finite
differences with the step default_step; rank decisions use the SVD
threshold SVD_TOL relative to the largest singular value, and the
gradient conditions the tolerances PHI_TOL (= 0) and SVD_TOL (!= 0)
relative to the sizes of the gradient and the column.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

AD_CAP = 3
SVD_TOL = 1e-6  # rank threshold, relative to the largest singular value; nonvanish threshold
PHI_TOL = 1e-5  # orthogonality tolerance of the gradient conditions (relative)
_EPS_CBRT = float(np.cbrt(np.finfo(float).eps))


class CapExceeded(RuntimeError):
    """Requested bracket order above the finite-difference noise cap."""


class RegularityViolation(RuntimeError):
    """Column rank contributions differ between samples."""


class RankDeficient(RuntimeError):
    """Kept columns span less than the full state dimension at the samples."""


def default_step(x: np.ndarray) -> float:
    """Central-difference step: cbrt(eps) * max(1, |x|)."""
    return _EPS_CBRT * max(1.0, float(np.linalg.norm(x)))


def _jacobian(f: Callable, x: np.ndarray, h: float) -> np.ndarray:
    n = len(x)
    fx0 = np.asarray(f(x), dtype=float)
    jac = np.empty((len(fx0), n))
    for j in range(n):
        e = np.zeros(n)
        e[j] = h
        jac[:, j] = (np.asarray(f(x + e), dtype=float) - np.asarray(f(x - e), dtype=float)) / (2.0 * h)
    return jac


def lie_bracket(a: Callable, b: Callable, x: np.ndarray, h: float | None = None) -> np.ndarray:
    """[a, b](x) = Jb(x) a(x) - Ja(x) b(x) with central-difference Jacobians."""
    x = np.asarray(x, dtype=float)
    if h is None:
        h = default_step(x)
    return _jacobian(b, x, h) @ np.asarray(a(x), dtype=float) - _jacobian(a, x, h) @ np.asarray(b(x), dtype=float)


def _first_primes(d: int) -> list:
    primes: list = []
    n = 2
    while len(primes) < d:
        if all(n % p for p in primes if p * p <= n):
            primes.append(n)
        n += 1
    return primes


def _radical_inverse(i: int, base: int) -> float:
    # digits of i in the base, mirrored about the radix point
    x, scale = 0.0, 1.0 / base
    while i > 0:
        i, digit = divmod(i, base)
        x += digit * scale
        scale /= base
    return x


def halton_samples(box: Sequence[tuple], count: int = 32) -> np.ndarray:
    """Deterministic low-discrepancy samples in the box [(lo, hi), ...].

    Point i (from 0) of the unscrambled Halton sequence: coordinate j is the
    radical inverse of i in the j-th prime.
    """
    if count < 1:
        raise ValueError(f"sample count must be at least 1, got {count}")
    box = list(box)
    lo = np.array([b[0] for b in box], dtype=float)
    hi = np.array([b[1] for b in box], dtype=float)
    if not (np.all(np.isfinite(lo)) and np.all(np.isfinite(hi))):
        raise ValueError("box bounds must be finite in every coordinate")
    if not np.all(lo < hi):
        raise ValueError("box bounds must satisfy lo < hi in every coordinate")
    bases = _first_primes(len(box))
    pts = np.array([[_radical_inverse(i, b) for b in bases] for i in range(count)], dtype=float)
    return lo + pts.reshape(count, len(box)) * (hi - lo)


@dataclass(frozen=True)
class ProbeReport:
    """Outcome of the column-selection scan.

    kept: (field j, order k) pairs that raised rank at every sample,
    1-based fields, field-major order.  indices: per-field kept counts
    (n_1, ..., n_m).  rank_history: rank after each scanned column (shared
    across samples by the regularity check).  columns: (j, k) -> the
    (samples, n) array of ad_a^k b_j at the samples, for each kept pair.
    """

    kept: tuple
    indices: tuple
    rank_history: tuple
    samples: np.ndarray
    columns: dict


def _raises_rank(basis: list, col: np.ndarray) -> bool:
    mat = np.column_stack(basis + [col]) if basis else col.reshape(-1, 1)
    sv = np.linalg.svd(mat, compute_uv=False)
    rank = int(np.sum(sv > SVD_TOL * sv[0])) if sv[0] > 0 else 0
    return rank == len(basis) + 1


def select_columns(
    a: Callable,
    bs: Sequence[Callable],
    samples: np.ndarray,
) -> ProbeReport:
    """Scan columns b_j, ad_a b_j, ... and keep those independent at every sample.

    Columns are visited in order q_{k m + j}; a deleted (j, k) deletes all
    (j, k+s).  A column must raise the numeric rank at either every sample
    or none: a mixed outcome raises RegularityViolation.  If the kept
    columns span less than the state dimension, RankDeficient is raised.
    """
    samples = np.atleast_2d(np.asarray(samples, dtype=float))
    n = samples.shape[1]
    m = len(bs)
    if m == 0:
        raise ValueError("need at least one control field")
    # with no samples, every column would raise the rank "at every sample"
    if samples.size == 0:
        raise ValueError("need at least one sample state")

    bases: list[list] = [[] for _ in samples]
    current: list[Callable | None] = list(bs)  # ad_a^k b_j as callables, None once deleted
    kept: list[tuple] = []
    columns: dict = {}
    counts = [0] * m
    rank_hist: list[int] = []
    rank = 0

    k = -1
    while rank < n:
        k += 1
        if all(fld is None for fld in current):
            break
        if k > AD_CAP:
            raise CapExceeded(
                f"rank {rank} < n = {n} but the next columns need bracket order {k} > {AD_CAP}"
            )
        for j in range(m):
            if rank == n:
                break
            fld = current[j]
            if fld is None:
                continue
            cols = [np.asarray(fld(x), dtype=float) for x in samples]
            votes = [_raises_rank(basis, col) for basis, col in zip(bases, cols)]
            if all(votes):
                for basis, col in zip(bases, cols):
                    basis.append(col)
                kept.append((j + 1, k))
                columns[(j + 1, k)] = np.array(cols)
                counts[j] += 1
                rank += 1
            elif not any(votes):
                current[j] = None  # deletion propagates to higher orders
            else:
                raise RegularityViolation(
                    f"column (field {j + 1}, order {k}) raises rank at "
                    f"{sum(votes)}/{len(votes)} samples"
                )
            rank_hist.append(rank)
        if rank < n:
            # lift the surviving fields one bracket order
            for j in range(m):
                fld = current[j]
                if fld is not None:
                    current[j] = (lambda g: (lambda y: lie_bracket(a, g, y)))(fld)

    if rank < n:
        raise RankDeficient(f"kept columns span rank {rank} < n = {n}")

    kept.sort()
    return ProbeReport(
        kept=tuple(kept),
        indices=tuple(counts),
        rank_history=tuple(rank_hist),
        samples=samples,
        columns=columns,
    )


def verify_phi_conditions(phi_grads: Sequence[Callable], report: ProbeReport) -> dict:
    """Check the transform-gradient conditions on the probe's kept columns.

    For block i with index n_i:  (phi_i)_x ad_a^k b_j = 0 for all j and
    k <= min(n_i - 2, n_j - 1), and (phi_i)_x ad_a^(n_i - 1) b_i != 0, at
    every sample.  Both tests are relative to |(phi_i)_x| |column|: a
    condition = 0 holds within PHI_TOL of it, and one != 0 above SVD_TOL of
    it, so no verdict depends on how a gradient is scaled, and a zero
    gradient fails != 0.  Every column these read is one that
    select_columns kept, so report.columns holds it; each gradient is
    evaluated once per sample.  Returns {(kind, i, j, k): bool} with kind
    'orthogonal' or 'nonvanish' (j, k = 0 for the latter).  Raises ValueError for a block whose field
    kept no column.
    """
    idx = report.indices
    cols = report.columns
    out: dict = {}
    for i, grad_i in enumerate(phi_grads, start=1):
        n_i = idx[i - 1]
        if n_i < 1:
            raise ValueError(f"field {i} kept no column, so block {i} has no Phi-gradient conditions")
        grads = [np.asarray(grad_i(x), dtype=float) for x in report.samples]
        norms = [float(np.linalg.norm(g)) for g in grads]

        def cosines(j, k):
            # |g . col| against |g| |col|: the verdicts do not depend on how
            # a gradient or a column is scaled
            return [(abs(float(g @ col)), gn * float(np.linalg.norm(col)))
                    for g, gn, col in zip(grads, norms, cols[(j, k)])]

        for j in range(1, len(idx) + 1):
            for k in range(0, min(n_i - 2, idx[j - 1] - 1) + 1):
                out[("orthogonal", i, j, k)] = all(dot <= PHI_TOL * size for dot, size in cosines(j, k))
        out[("nonvanish", i, 0, 0)] = all(dot > SVD_TOL * size for dot, size in cosines(i, n_i - 1))
    return out
