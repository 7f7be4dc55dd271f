"""Command-line front end.

Subcommands: simulate, theta, gramian, probe, list-scenarios.  Exit codes:
0 success, 1 validation/usage error, 2 runtime failure (non-convergence,
hold violation, arithmetic overflow, I/O, or a Phi-gradient condition that
probe finds false, after the report is printed).  theta, gramian and
probe print strict JSON on exit 0: a value that is not finite is refused
with exit 1 rather than printed.  A flat `key = value` config file can
preload any flag of its command: its values go through the flag's own
type, a key that names no flag is an error, and explicit flags win.  A
value that neither sets is left to the library's default.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import re
import sys

from . import chain_gramian, ctrl_fn, engine, mappability, scenarios, sim, stepwise


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage problems; the contract wants 1
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # let vector values with a leading minus ("--x0 -2,1,-1,0.5") parse
        # as values rather than unknown flags
        self._negative_number_matcher = re.compile(r"^-(\d|\.\d)")

    def error(self, message):
        raise _UsageError(f"{self.prog}: {message}\n{self.format_usage()}")


# every stepsynth failure class is a RuntimeError; ArithmeticError covers an
# overflow inside a run
_RUNTIME_ERRORS = (RuntimeError, ArithmeticError, OSError)


def _parse_floats(text: str, what: str) -> tuple:
    try:
        return tuple(float(tok) for tok in text.split(",") if tok.strip() != "")
    except ValueError:
        raise ValueError(f"{what} must be comma-separated floats, got {text!r}") from None


def _parse_param(tok: str):
    if "=" not in tok:
        raise ValueError(f"--param needs key=value, got {tok!r}")
    key, val = tok.split("=", 1)
    key = key.strip()
    val = val.strip()
    try:
        if ";" in val:
            return key, [float(v) for v in val.split(";") if v.strip() != ""]
        return key, int(val) if val.lstrip("+-").isdigit() else float(val)
    except ValueError:
        raise ValueError(f"--param {key} must be a number or ;-separated numbers, got {val!r}") from None


def _print_json(out: dict) -> None:
    """Print out as strict JSON, or refuse it naming a field that holds a
    value past the float range."""
    for key, val in out.items():
        try:
            json.dumps(val, allow_nan=False)
        except ValueError:
            raise ValueError(f"{key} is not finite, and strict JSON has no value for it: {val}") from None
    print(json.dumps(out, indent=2, allow_nan=False))


def _load_config(path: str) -> dict:
    out = {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            for ln, line in enumerate(fh, start=1):
                line = line.split("#", 1)[0].strip()
                if not line:
                    continue
                if "=" not in line:
                    raise ValueError(f"{path}:{ln}: expected key = value, got {line!r}")
                key, val = line.split("=", 1)
                out[key.strip().replace("-", "_")] = val.strip()
    except OSError as exc:
        raise ValueError(f"could not read config {path}: {exc}") from None
    return out


def _config_defaults(parser: argparse.ArgumentParser, args) -> None:
    """Make the values of the config file args.config the defaults of the
    command's parser; parsing again converts them with each flag's type."""
    config = _load_config(args.config)
    unknown = sorted(set(config) - (set(vars(args)) - {"command", "fn", "config"}))
    if unknown:
        raise ValueError(f"config {args.config}: no flag named {', '.join(unknown)}")
    if "param" in config:
        tokens = [tok.strip() for tok in config.pop("param").split(",") if tok.strip()]
        if args.param is None:  # an explicit --param replaces the file's list
            config["param"] = tokens
    parser.set_defaults(**config)


def _given(args, **names) -> dict:
    """Keyword arguments for the values a flag or the config file set:
    keyword -> the args attribute that holds it."""
    given = {kw: getattr(args, attr) for kw, attr in names.items()}
    return {kw: val for kw, val in given.items() if val is not None}


def _build_scenario(name: str, param_tokens) -> scenarios.Scenario:
    params = dict(_parse_param(tok) for tok in (param_tokens or []))
    return scenarios.get_scenario(name, **params)


def _cmd_simulate(args) -> int:
    if args.scenario is None:
        raise ValueError("--scenario is required (flag or config)")
    if args.x0 is None:
        raise ValueError("--x0 is required (flag or config)")
    scn = _build_scenario(args.scenario, args.param)
    x0 = _parse_floats(args.x0, "--x0")
    cfg = engine.IntegratorConfig(**_given(args, dt="dt", t_max="tmax"))
    options = _given(args, chart="chart", delta="delta", x0_chart="x0_chart")
    traj, summary = sim.simulate(scn, x0, cfg, **options)

    out_dir = args.out_dir if args.out_dir is not None else "."
    os.makedirs(out_dir, exist_ok=True)
    csv_path = os.path.join(out_dir, "traj.csv")
    json_path = os.path.join(out_dir, "summary.json")
    sim.emit_csv(traj, csv_path)
    sim.emit_json(summary, json_path)
    written = [csv_path, json_path]
    for (i, j) in sim.default_projections(scn.n):
        svg_path = os.path.join(out_dir, f"traj_x{i}x{j}.svg")
        sim.emit_svg(traj, (i, j), svg_path)
        written.append(svg_path)

    print(f"T_total = {summary.T_total:.9g}")
    print(f"step_times = {[round(t, 9) for t in summary.step_times]}")
    print(f"final_state_norm = {summary.final_state_norm:.6e}")
    for path in written:
        print(f"wrote {path}")
    return 0


def _cmd_theta(args) -> int:
    gram = chain_gramian.gram_n1(args.k)
    x = _parse_floats(args.x, "--x")
    if len(x) != args.k:
        raise ValueError(f"--x must have {args.k} entries, got {len(x)}")
    if not (args.a0 > 0 and math.isfinite(args.a0)):
        raise ValueError(f"--a0 must be positive and finite, got {args.a0}")
    q = float(gram.n1_inv[args.k - 1][args.k - 1])
    d = args.d if args.d is not None else math.sqrt(args.a0 * q / 2.0)
    if not math.isfinite(d):
        what = "--d, the control bound," if args.d is not None else f"the control bound derived from --a0 {args.a0}"
        raise ValueError(f"{what} must be finite, got {d}")
    synth = ctrl_fn.LinearSynth(gram=gram, a0=args.a0, d=d)
    ev = ctrl_fn.theta_of(synth, x)
    _print_json(
        {
            "k": args.k,
            "a0": args.a0,
            "d": d,
            "theta": float(ev.theta),
            "w": [float(v) for v in ev.w],
            "v": float(ev.v),
            "sigma": float(ev.sigma),
        }
    )
    return 0


def _cmd_gramian(args) -> int:
    gram = chain_gramian.gram_n1(args.k)
    as_lists = lambda m: [[float(v) for v in row] for row in m]
    out = {
        "k": args.k,
        "n1": as_lists(gram.n1),
        "n1_inv": as_lists(gram.n1_inv),
    }
    if args.theta is not None:
        out["theta"] = args.theta
        out["n_theta"] = as_lists(chain_gramian.gram_theta(gram, args.theta))
    _print_json(out)
    return 0


def _parse_box(text: str, n: int) -> tuple:
    parts = [p for p in text.split(";") if p.strip()]
    if len(parts) not in (1, n):
        raise ValueError(f"--box needs 1 or {n} lo,hi pairs, got {len(parts)}")
    box = tuple(_parse_floats(part, "--box") for part in parts)
    for part, pair in zip(parts, box):
        if len(pair) != 2:
            raise ValueError(f"--box needs lo,hi pairs of two numbers, got {part!r}")
    return box * n if len(box) == 1 else box


def _cmd_probe(args) -> int:
    if args.scenario is None:
        raise ValueError("--scenario is required (flag or config)")
    scn = _build_scenario(args.scenario, args.param)
    box = _parse_box(args.box, scn.n) if args.box is not None else scn.probe.box
    samples = mappability.halton_samples(box, **_given(args, count="samples"))
    report = mappability.select_columns(scn.probe.a, scn.probe.bs, samples)
    conditions = mappability.verify_phi_conditions(scn.to_z, report)
    _print_json(
        {
            "scenario": scn.name,
            "kept": [list(pair) for pair in report.kept],
            "indices": list(report.indices),
            "rank_history": list(report.rank_history),
            "samples": int(samples.shape[0]),
            "svd_tol": mappability.SVD_TOL,
            "phi_conditions": [
                {"kind": kind, "block": i, "field": j, "order": k, "ok": ok}
                for (kind, i, j, k), ok in conditions.items()
            ],
        }
    )
    failed = [key for key, ok in conditions.items() if not ok]
    if failed:
        print(f"runtime error: Phi-gradient conditions fail: {failed}", file=sys.stderr)
        return 2
    return 0


def _cmd_list(args) -> int:
    for name in scenarios.SCENARIO_NAMES:
        print(name)
    return 0


def _make_parser() -> tuple[_Parser, dict]:
    """The top parser and each command's parser by name."""
    top = _Parser(prog="stepsynth", description=__doc__)
    sub = top.add_subparsers(dest="command", required=True)
    commands = {}
    add = lambda name, **kw: commands.setdefault(name, sub.add_parser(name, **kw))

    p = add("simulate", help="run a scenario and write traj.csv/summary.json/SVGs")
    p.add_argument("--scenario")
    p.add_argument("--x0", help="comma-separated initial state (original chart)")
    p.add_argument(
        "--dt",
        type=float,
        help=f"sample spacing of traj.csv (default {engine.IntegratorConfig.dt:g}); "
        "the integrator picks its own steps",
    )
    p.add_argument(
        "--tmax", type=float, help=f"simulated time limit (default {engine.IntegratorConfig.t_max:g})"
    )
    p.add_argument("--out-dir", dest="out_dir")
    p.add_argument("--chart", help="integration chart: z (default) or x")
    p.add_argument(
        "--x0-chart",
        dest="x0_chart",
        help="chart x0 is given in: x (default, the original coordinates) or z",
    )
    p.add_argument("--delta", type=float, help=f"per-block done tolerance (default {stepwise.DONE_TOL:g})")
    p.add_argument("--param", action="append", help="scenario parameter key=value")
    p.add_argument("--config", help="flat key = value file; flags override")
    p.set_defaults(fn=_cmd_simulate)

    p = add("theta", help="evaluate the controllability function at x")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--a0", type=float, required=True)
    p.add_argument("--x", required=True)
    p.add_argument("--d", type=float, help="control bound (default: tight for a0)")
    p.set_defaults(fn=_cmd_theta)

    p = add("gramian", help="print N(1), its inverse, optionally N(theta)")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--theta", type=float)
    p.set_defaults(fn=_cmd_gramian)

    p = add("probe", help="numeric reducibility probe for a scenario")
    p.add_argument("--scenario")
    p.add_argument("--box", help="lo,hi or lo,hi;lo,hi;... sample box")
    p.add_argument("--samples", type=int, help="Halton sample count, at least 1 (default 32)")
    p.add_argument("--param", action="append", help="scenario parameter key=value")
    p.add_argument("--config", help="flat key = value file; flags override")
    p.set_defaults(fn=_cmd_probe)

    p = add("list-scenarios", help="print registered scenario names")
    p.set_defaults(fn=_cmd_list)
    return top, commands


def main(argv=None) -> int:
    parser, commands = _make_parser()
    try:
        args = parser.parse_args(argv)
        if getattr(args, "config", None):
            _config_defaults(commands[args.command], args)
            args = parser.parse_args(argv)
        return args.fn(args)
    except _UsageError as exc:
        print(exc, file=sys.stderr)
        return 1
    except (ValueError, TypeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except _RUNTIME_ERRORS as exc:
        print(f"runtime error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
