"""The benchmark's workloads: which scenario each one runs, from where.

Seed 0 runs the exact start state of each workload.  Every other seed
draws the start from the box start * (1 + JITTER * U(-1, 1)), one draw
per coordinate, so a seed gives the same start on every machine.  The
box is kept small so that the trajectory length, and with it the solve
time, moves by about 1% between seeds; starts jittered by 10% also run
to rest, so the box sits well inside the scenarios' working range.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

DEFAULT_SEED = 0
JITTER = 0.01

# CLI defaults of `stepsynth simulate`; no workload overrides them
DT = 1e-4
T_MAX = 100.0
DELTA = 1e-8
PROBE_SAMPLES = 32


@dataclass(frozen=True)
class Workload:
    name: str
    scenario: str
    start: tuple
    chart: str  # chart the dynamics are integrated in
    x0_chart: str  # chart the start state is given in
    blocks: tuple  # block sizes the probe must recover


WORKLOADS = {
    w.name: w
    for w in (
        Workload("pendulum", "pendulum", (-2.0, 1.0, -1.0, 0.5), "z", "x", (2, 2)),
        Workload("example51", "example51", (0.5, 0.1, -0.3), "z", "x", (1, 2)),
        Workload("polyodd", "polyodd:3", (1.0, 1.0, 1.0), "z", "z", (1, 1, 1)),
        Workload("polyodd-x", "polyodd:3", (1.0, 1.0, 1.0), "x", "z", (1, 1, 1)),
    )
}


def start_state(workload: Workload, seed: int) -> tuple:
    """Start state of the workload for a seed, in the workload's x0 chart."""
    if seed == DEFAULT_SEED:
        return workload.start
    rng = random.Random(seed)
    return tuple(v * (1.0 + JITTER * rng.uniform(-1.0, 1.0)) for v in workload.start)
