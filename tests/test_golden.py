"""Golden outputs: the bytes of four reference runs are pinned.

Each case is one of the benchmark's workload starts, run at dt = 1e-3 in
its chart.  tests/golden.json holds the sha256 of the traj.csv and
summary.json that `stepsynth simulate` writes for it, and the step times
as float.hex.  A change that moves any output byte fails here; a change
meant to move them regenerates the file with

    PYTHONPATH=src python3 tests/test_golden.py

and says in CHANGES.md why the outputs moved.
"""

import hashlib
import json
import sys
from pathlib import Path

import pytest

from stepsynth import IntegratorConfig, emit_csv, emit_json, get_scenario, simulate

GOLDEN = Path(__file__).with_name("golden.json")
CASES = {
    "pendulum": ("pendulum", (-2.0, 1.0, -1.0, 0.5), "z", "x"),
    "example51": ("example51", (0.5, 0.1, -0.3), "z", "x"),
    "polyodd": ("polyodd:3", (1.0, 1.0, 1.0), "z", "z"),
    "polyodd-x": ("polyodd:3", (1.0, 1.0, 1.0), "x", "z"),
}
DT, T_MAX, DELTA = 1e-3, 100.0, 1e-8


def run_case(name: str, out: Path) -> dict:
    scenario, start, chart, x0_chart = CASES[name]
    traj, summary = simulate(
        get_scenario(scenario),
        start,
        IntegratorConfig(dt=DT, t_max=T_MAX),
        chart=chart,
        delta=DELTA,
        x0_chart=x0_chart,
    )
    emit_csv(traj, out / "traj.csv")
    emit_json(summary, out / "summary.json")
    return {
        "sha256": {
            f: hashlib.sha256((out / f).read_bytes()).hexdigest() for f in ("traj.csv", "summary.json")
        },
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
