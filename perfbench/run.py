"""Scenario benchmark of stepsynth: time to a stopped trajectory.

Run from the repository root:

    python3 perfbench/run.py --workload pendulum --seed 0 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all

Each round is a fresh process (one_round.py) that imports stepsynth from
src/, builds and probes the scenario, simulates it to rest and writes its
files under perfbench/out/<workload>/.  Rounds repeat, one at a time,
until --seconds have passed (at least two).  The first round checks its
outputs; every later one must write the same bytes.  The last line of
standard output is one JSON object: correct, attempted and failed count
rounds, and metrics holds the medians over the rounds of the end-to-end
metrics (--trace 0) or the per-layer metrics of traced rounds (--trace 1).
See README.md for the workloads, metrics and checks.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import DEFAULT_SEED, WORKLOADS

HERE = Path(__file__).resolve().parent
OUT = HERE / "out"
MIN_ROUNDS = 2
SETUP_SAMPLES = 3  # set-up is short and noisy: set-up-only rounds make up the count
DEADLINE_S = 170.0  # a run ends within 180 s: no round starts that would pass this
SETUP_ROOM_S = 10.0
END_TO_END = (
    ("total_s", "s"),
    ("setup_s", "s"),
    ("solve_s", "s"),
    ("write_s", "s"),
    ("peak_rss_mb", "MB"),
)
COUNT_UNITS = ("count", "1/step")


class RoundFailed(RuntimeError):
    """A round exited with an error or printed no result."""


def now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def run_round(workload: str, seed: int, out: Path, deadline: float, *flags: str) -> dict:
    t_spawn = now()
    cmd = [
        sys.executable,
        str(HERE / "one_round.py"),
        "--workload", workload,
        "--seed", str(seed),
        "--out", str(out),
        "--t-spawn", repr(t_spawn),
        *flags,
    ]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=max(1.0, deadline - now()))
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RoundFailed(f"{workload} round exited with {proc.returncode}:\n{proc.stderr.strip()}")
    return json.loads(lines[-1])


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """Rounds of one workload for `seconds`; returns the result object."""
    t0 = now()
    deadline = t0 + DEADLINE_S
    plain, traced = [], []
    while True:
        t_round = now()
        # the first round checks its outputs; later ones must write the same bytes
        flags = ("--check",) if not plain else ()
        plain.append(run_round(workload, seed, OUT / workload / "plain", deadline, *flags))
        if trace:
            traced.append(run_round(workload, seed, OUT / workload / "traced", deadline, "--trace"))
        elapsed = now() - t0
        enough = len(plain) >= (1 if trace else MIN_ROUNDS) and elapsed >= seconds
        if enough or elapsed + (now() - t_round) > DEADLINE_S:
            break
    setups = [r["setup_s"] for r in plain]
    while not trace and len(setups) < SETUP_SAMPLES and now() + SETUP_ROOM_S < deadline:
        setups.append(run_round(workload, seed, OUT / workload / "plain", deadline, "--setup-only")["setup_s"])

    rounds = plain + traced
    failures = sorted({f for r in rounds for f in r["failures"]})
    if len({json.dumps(r["sha256"], sort_keys=True) for r in rounds}) != 1:
        failures.append("rounds of one seed wrote different files")
    for r in plain:
        print(
            f"{workload} seed {seed}: "
            + " ".join(f"{name}={r[name]:.4f}{unit}" for name, unit in END_TO_END),
            flush=True,
        )
    if trace:
        metrics, count_failures = layer_medians(traced)
        failures += count_failures
        overhead = statistics.median(r["total_s"] for r in traced) / statistics.median(
            r["total_s"] for r in plain
        )
        (OUT / workload / "trace.json").write_text(
            json.dumps({"trace_overhead": overhead - 1.0, "metrics": metrics}, indent=1) + "\n",
            encoding="utf-8",
        )
        print(f"{workload}: traced total_s is {overhead:.3f}x the untraced total_s", flush=True)
    else:
        metrics = {
            name: {"value": statistics.median(r[name] for r in plain), "unit": unit}
            for name, unit in END_TO_END
        }
        metrics["setup_s"]["value"] = statistics.median(setups)
    for f in failures:
        print(f"{workload} CHECK FAILED: {f}", file=sys.stderr)
    attempted = len(rounds) + len(setups) - len(plain)
    return {"correct": not failures, "attempted": attempted, "failed": 0, "metrics": metrics}


def layer_medians(traced: list) -> tuple:
    """Per-layer metrics over traced rounds: counts must agree, times take the median."""
    failures = []
    metrics = {}
    for name, (value, unit) in traced[0]["layers"].items():
        values = [r["layers"][name][0] for r in traced]
        if unit in COUNT_UNITS:
            if len(set(values)) != 1:
                failures.append(f"{name} differs between traced rounds: {values}")
        else:
            value = statistics.median(values)
        metrics[name] = {"value": value, "unit": unit}
    return metrics, failures


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    try:
        for name in names:
            results[name] = run_workload(name, args.seed, args.seconds, bool(args.trace))
    except (RoundFailed, subprocess.TimeoutExpired, json.JSONDecodeError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    if args.workload != "all":
        print(json.dumps(results[args.workload]))
        return 0
    for name, res in results.items():
        print(f"{name} {json.dumps(res)}")
    print(
        json.dumps(
            {
                "correct": all(r["correct"] for r in results.values()),
                "attempted": sum(r["attempted"] for r in results.values()),
                "failed": sum(r["failed"] for r in results.values()),
                "metrics": {f"{n}.{m}": v for n, r in results.items() for m, v in r["metrics"].items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
