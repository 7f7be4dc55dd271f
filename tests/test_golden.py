"""Golden outputs: the bytes of eight reference runs are pinned.

Each case is one of the benchmark's four workload starts, run in its chart
at dt = 1e-3, and again at the benchmark's dt = 1e-4, where one integrator
step covers thousands of sample rows.
tests/golden.json holds the sha256 of the traj.csv,
summary.json and phase-plane SVGs that `stepsynth simulate` writes for it,
and the step times as float.hex.  A change that moves any output byte fails here; a change
meant to move them regenerates the file with

    PYTHONPATH=src python3 tests/test_golden.py

and says in CHANGES.md why the outputs moved.
"""

import hashlib
import json
import sys
from pathlib import Path

import pytest

from stepsynth import (
    IntegratorConfig,
    default_projections,
    emit_csv,
    emit_json,
    emit_svg,
    get_scenario,
    simulate,
)

GOLDEN = Path(__file__).with_name("golden.json")
CASES = {
    "pendulum": ("pendulum", (-2.0, 1.0, -1.0, 0.5), "z", "x", 1e-3),
    "example51": ("example51", (0.5, 0.1, -0.3), "z", "x", 1e-3),
    "polyodd": ("polyodd:3", (1.0, 1.0, 1.0), "z", "z", 1e-3),
    "polyodd-x": ("polyodd:3", (1.0, 1.0, 1.0), "x", "z", 1e-3),
    "pendulum-dt1e-4": ("pendulum", (-2.0, 1.0, -1.0, 0.5), "z", "x", 1e-4),
    "polyodd-dt1e-4": ("polyodd:3", (1.0, 1.0, 1.0), "z", "z", 1e-4),
    "example51-dt1e-4": ("example51", (0.5, 0.1, -0.3), "z", "x", 1e-4),
    "polyodd-x-dt1e-4": ("polyodd:3", (1.0, 1.0, 1.0), "x", "z", 1e-4),
}
T_MAX, DELTA = 100.0, 1e-8


def run_case(name: str, out: Path) -> dict:
    scenario, start, chart, x0_chart, dt = CASES[name]
    scn = get_scenario(scenario)
    traj, summary = simulate(
        scn,
        start,
        IntegratorConfig(dt=dt, t_max=T_MAX),
        chart=chart,
        delta=DELTA,
        x0_chart=x0_chart,
    )
    emit_csv(traj, out / "traj.csv")
    emit_json(summary, out / "summary.json")
    written = ["traj.csv", "summary.json"]
    for i, j in default_projections(scn.n):
        written.append(f"traj_x{i}x{j}.svg")
        emit_svg(traj, (i, j), out / written[-1])
    return {
        "sha256": {f: hashlib.sha256((out / f).read_bytes()).hexdigest() for f in written},
        "step_times": [float.hex(t) for t in summary.step_times],
    }


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_outputs(name, tmp_path):
    want = json.loads(GOLDEN.read_text(encoding="utf-8"))[name]
    got = run_case(name, tmp_path)
    assert got["step_times"] == want["step_times"]
    assert got["sha256"] == want["sha256"]


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        doc = {name: run_case(name, Path(tmp)) for name in sorted(CASES)}
    GOLDEN.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    sys.exit(0)
