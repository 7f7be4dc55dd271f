"""One benchmark round, in a fresh process.

Makes the calls `stepsynth simulate --out-dir` makes, plus the
reducibility probe of `stepsynth probe`: import the package, build the
scenario, probe it at 32 Halton samples of its own box, simulate, and
write traj.csv, summary.json and the phase-plane SVGs.  It prints one JSON
line with its timings and the hashes of the files it wrote; with --check
it first checks those files (checks.py).  run.py starts it; --t-spawn is
the CLOCK_MONOTONIC time at which the parent started this process, so
total_s and setup_s include interpreter start-up.  With --trace the layers
are traced (layertrace.py) and the line also carries per-layer metrics.
"""

import argparse
import hashlib
import json
import resource
import sys
import time
from pathlib import Path

from workloads import DELTA, DT, PROBE_SAMPLES, T_MAX, WORKLOADS, start_state


def now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out", type=Path, required=True)
    ap.add_argument("--t-spawn", type=float, required=True)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--check", action="store_true", help="check the outputs after the round")
    ap.add_argument("--setup-only", action="store_true", help="stop after set-up")
    args = ap.parse_args()
    work = WORKLOADS[args.workload]
    start = start_state(work, args.seed)
    out = args.out
    tracer = None
    if args.trace:
        from layertrace import Tracer

        tracer = Tracer(f"{args.workload}/seed{args.seed}/{out.name}")

    src = ROOT / "src"
    sys.path.insert(0, str(src))
    t_import = time.perf_counter()
    import stepsynth

    if tracer:
        tracer.add_span("stepsynth.import", t_import, time.perf_counter())
    if Path(stepsynth.__file__).resolve().parent.parent != src.resolve():
        raise SystemExit(f"stepsynth was imported from {stepsynth.__file__}, not from {src}")
    from stepsynth import engine, mappability, scenarios, sim

    if tracer:
        tracer.install()

    scn = scenarios.get_scenario(work.scenario)
    samples = mappability.halton_samples(scn.probe.box, PROBE_SAMPLES)
    report = mappability.select_columns(scn.probe.a, scn.probe.bs, samples)
    cfg = engine.IntegratorConfig(dt=DT, t_max=T_MAX)
    if tracer:
        scn = tracer.wrap_scenario(scn)
        tracer.phase = "solve"

    t_setup = now()
    if args.setup_only:
        print(json.dumps({"setup_s": t_setup - args.t_spawn}))
        return 0
    traj, summary = sim.simulate(scn, start, cfg, chart=work.chart, delta=DELTA, x0_chart=work.x0_chart)
    t_solved = now()

    if tracer:
        tracer.phase = "write"
    out.mkdir(parents=True, exist_ok=True)
    csv_path = out / "traj.csv"
    written = [csv_path, out / "summary.json"]
    sim.emit_csv(traj, csv_path)
    sim.emit_json(summary, written[1])
    for i, j in sim.default_projections(scn.n):
        written.append(out / f"traj_x{i}x{j}.svg")
        sim.emit_svg(traj, (i, j), written[-1])
    t_written = now()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    # everything below is outside the measured run
    result = {
        "total_s": t_written - args.t_spawn,
        "setup_s": t_setup - args.t_spawn,
        "solve_s": t_solved - t_setup,
        "write_s": t_written - t_solved,
        "peak_rss_mb": peak_rss_mb,
        "sha256": {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in written},
        "failures": [],
    }
    if tracer:
        tracer.write(out / "spans.json")
        result["layers"] = tracer.layer_metrics(len(traj), len(traj.events), csv_path.stat().st_size)
    if args.check:
        import checks

        result["failures"] = checks.run_checks(work, args.seed, start, traj, report, out)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
