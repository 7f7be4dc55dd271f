"""Closed forms and reference maps of the paper that only the tests read.

The package computes N(Theta) and its inverse from N(1) by power scaling,
drives a block through its policy's control on sample rows, and never
evaluates the pendulum's energy.  The oracles here restate the paper's
other formulas (the chain matrices, e^{-A0 t} b0, the dilation D(Theta),
N^ and N~ of the Lyapunov identity, the closed-loop feedback v(x), the
channel audit of a Theta step's controls and the energy of the free
pendulum) so the tests can check the package against them.
"""

from __future__ import annotations

import math
from typing import Callable, Sequence

import numpy as np

from stepsynth.chain_gramian import GramSet, _check_k
from stepsynth.ctrl_fn import THETA_MIN, LinearSynth, theta_of
from stepsynth.pendulum import PendulumParams
from stepsynth.stepwise import BlockPartition, StepPolicy, ThetaSwitch


# --- chain Gramians ---


def chain_matrices(k: int) -> tuple[np.ndarray, np.ndarray]:
    """Return (A0, b0) for the k-chain: upshift matrix and last basis vector."""
    _check_k(k)
    a0 = np.diag(np.ones(k - 1), 1) if k > 1 else np.zeros((1, 1))
    b0 = np.zeros(k)
    b0[k - 1] = 1.0
    return a0, b0


def expm_chain_b(k: int, t: float) -> np.ndarray:
    """e^{-A0 t} b0 componentwise: entry i is (-t)^(k-i)/(k-i)! (1-based i)."""
    _check_k(k)
    out = np.empty(k)
    for i in range(1, k + 1):
        p = k - i
        out[i - 1] = (-t) ** p / math.factorial(p)
    return out


def dilation_matrix(g: GramSet, theta: float) -> np.ndarray:
    """D(Theta) = diag(Theta^{-(2k-2j+1)/2}); satisfies D N(Theta) D = N(1)."""
    if not theta > 0:
        raise ValueError(f"theta must be positive, got {theta}")
    return np.diag(theta ** (-g.dil))


def gram_hat(g: GramSet, theta: float) -> np.ndarray:
    """N^(Theta) from the Lyapunov identity A0 N + N A0* = b0 b0* - N^(Theta).

    Entry (i,j) is (-1)^(p+q) Theta^(p+q) / (p! q! (p+q+1)) with p=k-i, q=k-j.
    """
    if not theta > 0:
        raise ValueError(f"theta must be positive, got {theta}")
    k = g.k
    out = np.empty((k, k))
    for i in range(1, k + 1):
        for j in range(1, k + 1):
            p, q = k - i, k - j
            out[i - 1][j - 1] = (
                (-1) ** (p + q) * theta ** (p + q) / (math.factorial(p) * math.factorial(q) * (p + q + 1))
            )
    return out


def gram_tilde(g: GramSet, theta: float) -> np.ndarray:
    """N~(Theta); satisfies Theta (N^ - N~) = N(Theta).

    Entry (i,j) is (-1)^(p+q) Theta^(p+q) / (p! q! (p+q+2)).
    """
    if not theta > 0:
        raise ValueError(f"theta must be positive, got {theta}")
    k = g.k
    out = np.empty((k, k))
    for i in range(1, k + 1):
        for j in range(1, k + 1):
            p, q = k - i, k - j
            out[i - 1][j - 1] = (
                (-1) ** (p + q) * theta ** (p + q) / (math.factorial(p) * math.factorial(q) * (p + q + 2))
            )
    return out


# --- the closed chain ---


def v_of(s: LinearSynth, x: np.ndarray) -> float:
    """Feedback value v(x); 0 below the THETA_MIN hold band."""
    ev = theta_of(s, x)
    if ev.theta < THETA_MIN:
        return 0.0
    return ev.v


def closed_loop_rhs(s: LinearSynth, x: np.ndarray) -> np.ndarray:
    """Right-hand side of the closed chain: (x_2, ..., x_k, v(x))."""
    x = np.asarray(x, dtype=float)
    out = np.empty(s.gram.k)
    out[:-1] = x[1:]
    out[-1] = v_of(s, x)
    return out


# --- step policies ---


class DomainError(RuntimeError):
    """A scenario callback rejected the state it was evaluated at."""


def eval_control(
    policy: StepPolicy, z: Sequence[float], blocks: BlockPartition, i: int
) -> float:
    """Control value at z under the step-i policy (three-branch selection)."""
    zt = tuple(float(v) for v in z)
    try:
        branch = policy.branch(zt, blocks.bounds(i))
        return float(policy.control(branch, zt))
    except (ValueError, ZeroDivisionError, OverflowError) as exc:
        raise DomainError(f"control callback rejected z={zt}: {exc}") from exc


def audit_theta_switch(
    policy: ThetaSwitch,
    h_channel: Callable[[tuple, float], float],
    states: Sequence[tuple],
) -> tuple[float, float]:
    """(min over states of H(z, u_plus), max of H(z, u_minus)) for the audit.

    The step precondition requires the first >= d and the second <= -d up
    to 1e-9 slack.
    """
    lo = min(h_channel(tuple(z), policy.u_plus(tuple(z))) for z in states)
    hi = max(h_channel(tuple(z), policy.u_minus(tuple(z))) for z in states)
    return lo, hi


# --- pendulum ---


def pendulum_energy(p: PendulumParams, x) -> float:
    """Total mechanical energy of the uncontrolled pendulum (u = 0 check)."""
    x1, x2, x3, x4 = x
    return (
        0.5 * (p.m1 + p.m2) * p.l1 ** 2 * x2 * x2
        + 0.5 * p.m2 * p.l2 ** 2 * x4 * x4
        + p.m2 * p.l1 * p.l2 * x2 * x4 * math.cos(x1 - x3)
        - (p.m1 + p.m2) * p.g * p.l1 * math.cos(x1)
        - p.m2 * p.g * p.l2 * math.cos(x3)
    )
