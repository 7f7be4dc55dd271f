"""Command-line interface: subcommands, exit codes, outputs, config files."""

import ast
import dataclasses
import json
import math

import pytest

from stepsynth import chain_gramian, ctrl_fn, scenarios
from stepsynth.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def _refuse_constant(name):
    raise ValueError(f"{name} is not JSON")


def strict_json(text: str):
    """json.loads that refuses NaN, Infinity and -Infinity."""
    return json.loads(text, parse_constant=_refuse_constant)


# --- exit codes ---


def test_no_subcommand_is_usage_error(capsys):
    code, _, err = run_cli(capsys)
    assert code == 1
    assert "usage" in err.lower()


def test_unknown_flag_is_usage_error(capsys):
    code, _, err = run_cli(capsys, "simulate", "--bogus", "1")
    assert code == 1


def test_missing_required_flag(capsys):
    code, _, _ = run_cli(capsys, "theta", "--a0", "1", "--x", "1,0")
    assert code == 1


def test_unknown_scenario(capsys):
    code, _, err = run_cli(capsys, "simulate", "--scenario", "nosuch", "--x0", "1,1")
    assert code == 1
    assert "error" in err


def test_bad_x0_tokens(capsys):
    code, _, _ = run_cli(capsys, "simulate", "--scenario", "intro2d", "--x0", "a,b")
    assert code == 1


def test_missing_x0(capsys):
    code, _, _ = run_cli(capsys, "simulate", "--scenario", "intro2d")
    assert code == 1


def test_timeout_is_runtime_error(capsys, tmp_path):
    code, _, err = run_cli(
        capsys,
        "simulate",
        "--scenario",
        "intro2d",
        "--x0",
        "1,1",
        "--dt",
        "1e-3",
        "--tmax",
        "0.5",
        "--out-dir",
        str(tmp_path),
    )
    assert code == 2
    assert "Timeout" in err


def test_overflow_in_a_run_is_runtime_error(capsys, tmp_path):
    # the pendulum's drift overflows to inf, so the run escapes: a failure
    # inside the run, not a usage error
    code, _, err = run_cli(
        capsys,
        "simulate",
        "--scenario",
        "pendulum",
        "--x0",
        "0,1e155,0,0",
        "--dt",
        "1e-3",
        "--out-dir",
        str(tmp_path),
    )
    assert code == 2
    assert err.startswith("runtime error: NonFinite")


def test_pendulum_with_a_tiny_alpha_fails_by_name(capsys, tmp_path):
    # alpha = 1e-110 is admissible and its channel roots (about +-1e55) are
    # finite: the run gets past the channel cubic, which overflowed before,
    # and from this start fails as alpha = 1e-2 ... 1e-100 do, the step-1
    # channel having no root on its branch
    code, _, err = run_cli(
        capsys, "simulate", "--scenario", "pendulum", "--x0", "-2,1,-1,0.5", "--dt", "1e-3",
        "--param", "alpha=1e-110", "--out-dir", str(tmp_path),
    )
    assert code == 2
    assert err.startswith("runtime error: NoRealRoot") and "OverflowError" not in err


def test_arithmetic_error_in_a_run_is_runtime_error(capsys, tmp_path, monkeypatch):
    # a field that raises OverflowError fails the run the same way
    get_scenario = scenarios.get_scenario

    def overflowing(name, **params):
        def H(z, u):
            raise OverflowError("math range error")

        return dataclasses.replace(get_scenario(name, **params), H=H)

    monkeypatch.setattr(scenarios, "get_scenario", overflowing)
    code, _, err = run_cli(
        capsys, "simulate", "--scenario", "intro2d", "--x0", "1,1", "--dt", "1e-3", "--out-dir", str(tmp_path)
    )
    assert code == 2
    assert err.startswith("runtime error: OverflowError: math range error")


# --- list-scenarios ---


def test_list_scenarios(capsys):
    code, out, _ = run_cli(capsys, "list-scenarios")
    assert code == 0
    names = out.split()
    assert len(names) == 4
    for name in ("intro2d", "example51", "pendulum"):
        assert name in names
    assert any(n.startswith("polyodd:") for n in names)


# --- simulate ---


def test_simulate_writes_outputs(capsys, tmp_path):
    code, out, _ = run_cli(
        capsys,
        "simulate",
        "--scenario",
        "intro2d",
        "--x0",
        "1,1",
        "--dt",
        "1e-3",
        "--out-dir",
        str(tmp_path),
    )
    assert code == 0
    assert (tmp_path / "traj.csv").exists()
    assert (tmp_path / "summary.json").exists()
    assert (tmp_path / "traj_x1x2.svg").exists()
    line = next(ln for ln in out.splitlines() if ln.startswith("T_total"))
    assert float(line.split("=")[1]) == pytest.approx(1.8183098861837907, abs=1e-5)
    # step_times are Python floats: numpy 2 would print np.float64(...)
    assert "np.float64" not in out
    line = next(ln for ln in out.splitlines() if ln.startswith("step_times"))
    assert [type(t) for t in ast.literal_eval(line.split("=")[1].strip())] == [float, float]
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert summary["scenario"] == "intro2d"
    assert summary["T_total"] == pytest.approx(1.8183098861837907, abs=1e-5)
    rows = (tmp_path / "traj.csv").read_text().splitlines()
    assert rows[0].startswith("t,x1,x2,")
    assert len(rows) > 100


def test_simulate_negative_x0_value(capsys, tmp_path):
    # vector values with a leading minus must not be mistaken for flags
    code, out, _ = run_cli(
        capsys,
        "simulate",
        "--scenario",
        "intro2d",
        "--x0",
        "-1,1",
        "--dt",
        "1e-3",
        "--out-dir",
        str(tmp_path),
    )
    assert code == 0
    line = next(ln for ln in out.splitlines() if ln.startswith("T_total"))
    want = 1.0 + abs(-0.5 + 1.0 / math.pi)
    assert float(line.split("=")[1]) == pytest.approx(want, abs=1e-5)


def test_simulate_block_chart_start(capsys, tmp_path):
    code, _, _ = run_cli(
        capsys,
        "simulate",
        "--scenario",
        "polyodd:3",
        "--x0",
        "1,1,1",
        "--x0-chart",
        "z",
        "--dt",
        "1e-3",
        "--out-dir",
        str(tmp_path),
    )
    assert code == 0
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert summary["step_times"][0] == pytest.approx(2.025, abs=1e-4)
    assert summary["step_times"][2] == pytest.approx(9.75, abs=1e-4)
    # three-state scenarios get the (1,2) and (2,3) projections
    assert (tmp_path / "traj_x1x2.svg").exists()
    assert (tmp_path / "traj_x2x3.svg").exists()


def test_simulate_scenario_param(capsys, tmp_path):
    code, _, _ = run_cli(
        capsys,
        "simulate",
        "--scenario",
        "polyodd:3",
        "--x0",
        "0.5,0,0",
        "--x0-chart",
        "z",
        "--dt",
        "1e-3",
        "--param",
        "alpha=0.9",
        "--out-dir",
        str(tmp_path),
    )
    assert code == 0
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert summary["params"]["alpha"] == 0.9


def test_simulate_pendulum_near_zero_gravity(capsys, tmp_path):
    # the alpha cap (4/27) (l1/g)^2 overflows to inf at g = 1e-200: the
    # run goes ahead, with no ZeroDivisionError from g ** 2
    argv = ("simulate", "--scenario", "pendulum", "--x0", "-2,1,-1,0.5", "--dt", "1e-3", "--param", "g=1e-200")
    code, _, err = run_cli(capsys, *argv, "--out-dir", str(tmp_path))
    assert code == 0, err
    summary = strict_json((tmp_path / "summary.json").read_text())
    assert summary["params"]["g"] == 1e-200
    assert summary["final_state_norm"] <= 1e-6


def test_simulate_config_file(capsys, tmp_path):
    out_dir = tmp_path / "run"
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "scenario = intro2d\n"
        "x0 = 1,1\n"
        "dt = 2e-3\n"
        "# trailing comment lines are ignored\n"
        f"out-dir = {out_dir}\n"
    )
    code, _, _ = run_cli(capsys, "simulate", "--config", str(cfg))
    assert code == 0
    summary = json.loads((out_dir / "summary.json").read_text())
    assert summary["dt"] == 2e-3

    # explicit flags win over the file
    out2 = tmp_path / "run2"
    code, _, _ = run_cli(
        capsys, "simulate", "--config", str(cfg), "--dt", "1e-3", "--out-dir", str(out2)
    )
    assert code == 0
    summary = json.loads((out2 / "summary.json").read_text())
    assert summary["dt"] == 1e-3


def test_simulate_library_defaults(capsys, tmp_path):
    # values no flag or config sets are the library's own defaults
    code, _, _ = run_cli(
        capsys, "simulate", "--scenario", "intro2d", "--x0", "1,1", "--out-dir", str(tmp_path)
    )
    assert code == 0
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert (summary["dt"], summary["delta"], summary["chart"]) == (1e-4, 1e-8, "z")
    rows = (tmp_path / "traj.csv").read_text().splitlines()
    assert 17000 < len(rows) < 20000


def test_simulate_malformed_config(capsys, tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("scenario intro2d\n")
    code, _, _ = run_cli(capsys, "simulate", "--config", str(cfg))
    assert code == 1
    code, _, _ = run_cli(capsys, "simulate", "--config", str(tmp_path / "absent.cfg"))
    assert code == 1


@pytest.mark.parametrize(
    "line, what",
    [("dt = abc", "--dt"), ("tmax = 1,2", "--tmax"), ("dtt = 1e-3", "dtt"), ("fn = x", "fn")],
)
def test_simulate_config_value_errors(capsys, tmp_path, line, what):
    # each value goes through its flag's type; a key that names no flag is
    # an error, not a silently ignored line
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(f"scenario = intro2d\nx0 = 1,1\n{line}\nout-dir = {tmp_path}\n")
    code, out, err = run_cli(capsys, "simulate", "--config", str(cfg))
    assert code == 1
    assert what in err
    assert out == "" and not (tmp_path / "traj.csv").exists()


def test_simulate_param_list_of_one_value(capsys, tmp_path):
    # one number is a list of one value: polyodd:2 has one lambda
    code, _, err = run_cli(capsys, "simulate", "--scenario", "polyodd:2", "--x0", "1,1", "--param", "lambdas=0.5",
                           "--out-dir", str(tmp_path))
    assert code == 0, err
    assert json.loads((tmp_path / "summary.json").read_text())["params"]["lambdas"] == [0.5]
    # polyodd:3 needs two
    code, _, err = run_cli(capsys, "simulate", "--scenario", "polyodd:3", "--x0", "1,1,1", "--param", "lambdas=0.5",
                           "--out-dir", str(tmp_path / "three"))
    assert code == 1 and "need 2 lambda values, got 1" in err


@pytest.mark.parametrize(
    "argv, what",
    [
        (("--scenario", "pendulum", "--x0", "1,1,1,1", "--param", "m1=abc"), "--param m1"),
        (("--scenario", "polyodd:2", "--x0", "1,1", "--param", "alpha=abc"), "--param alpha"),
        (("--scenario", "polyodd:2", "--x0", "1,1", "--param", "lambdas=0.5;abc"), "--param lambdas"),
    ],
)
def test_simulate_param_not_a_number(capsys, tmp_path, argv, what):
    # no scenario takes a string from the command line: a value that is not
    # a number is refused by key and value before the scenario is built
    code, out, err = run_cli(capsys, "simulate", *argv, "--out-dir", str(tmp_path))
    assert code == 1
    assert what in err and "abc" in err
    assert out == "" and list(tmp_path.iterdir()) == []


def test_simulate_config_param_and_flag(capsys, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"scenario = polyodd:3\nx0 = 0.5,0,0\nparam = alpha=0.9\nout-dir = {tmp_path}\n")
    code, _, _ = run_cli(capsys, "simulate", "--config", str(cfg))
    assert code == 0
    assert json.loads((tmp_path / "summary.json").read_text())["params"]["alpha"] == 0.9
    # an explicit --param replaces the file's list
    code, _, _ = run_cli(capsys, "simulate", "--config", str(cfg), "--param", "alpha=0.8")
    assert code == 0
    assert json.loads((tmp_path / "summary.json").read_text())["params"]["alpha"] == 0.8


@pytest.mark.parametrize(
    "argv, what",
    [
        (("simulate", "--scenario", "intro2d", "--x0", "1,1", "--tmax", "nan", "--delta", "nan"), "t_max"),
        (("simulate", "--scenario", "intro2d", "--x0", "1,1", "--tmax", "nan"), "t_max"),
        (("simulate", "--scenario", "intro2d", "--x0", "1,1", "--dt", "nan"), "dt"),
        (("simulate", "--scenario", "intro2d", "--x0", "1,1", "--delta", "nan"), "done_tol"),
        (("simulate", "--scenario", "pendulum", "--x0", "1,1,1,1", "--param", "m1=nan"), "m1"),
        (("simulate", "--scenario", "polyodd:3", "--x0", "1,1,1", "--param", "lambdas=nan;0.5"), "lambda"),
        (("theta", "--k", "2", "--a0", "1", "--d", "nan", "--x", "1,0"), "control bound"),
        (("gramian", "--k", "2", "--theta", "nan"), "theta"),
        (("probe", "--scenario", "intro2d", "--box", "nan,1"), "box"),
        # an infinite value where it has no meaning would print a token
        # that is not JSON
        (("gramian", "--k", "2", "--theta", "inf"), "theta"),
        (("theta", "--k", "1", "--a0", "1", "--d", "inf", "--x", "1"), "--d"),
        (("probe", "--scenario", "intro2d", "--box", "0,inf"), "box"),
        # an infinite spacing or done band would run and write traj.csv,
        # then fail on summary.json
        (("simulate", "--scenario", "intro2d", "--x0", "1,1", "--dt", "inf"), "dt"),
        (("simulate", "--scenario", "intro2d", "--x0", "1,1", "--delta", "inf"), "done_tol"),
        # a box pair that is not two numbers, and an a0 that is not positive
        # and finite, from which the control bound would be derived
        (("probe", "--scenario", "intro2d", "--box", "1"), "--box needs lo,hi"),
        (("probe", "--scenario", "intro2d", "--box", "1,2,3"), "--box needs lo,hi"),
        (("probe", "--scenario", "intro2d", "--box", "0,1;1"), "--box needs lo,hi"),
        (("theta", "--k", "2", "--a0", "-1", "--x", "1,0"), "--a0"),
        (("theta", "--k", "2", "--a0", "0", "--x", "1,0"), "--a0"),
        (("theta", "--k", "2", "--a0", "nan", "--x", "1,0"), "--a0"),
        (("theta", "--k", "2", "--a0", "inf", "--x", "1,0"), "--a0"),
        # a finite a0 whose derived control bound overflows: the error names
        # --a0, not the --d that was not given
        (("theta", "--k", "2", "--a0", "1e308", "--x", "1,0"), "--a0"),
        # an infinite time limit would switch the timeout off, and an
        # infinite pendulum mass makes the first integrator step non-finite
        (("simulate", "--scenario", "intro2d", "--x0", "1,1", "--tmax", "inf"), "t_max"),
        (("simulate", "--scenario", "pendulum", "--x0", "-2,1,-1,0.5", "--param", "m1=inf"), "m1"),
        # a gravity whose alpha cap (4/27) (l1/g)^2 underflows to 0
        (("simulate", "--scenario", "pendulum", "--x0", "-2,1,-1,0.5", "--param", "g=1e200"), "alpha"),
    ],
)
def test_nan_settings_exit_1(capsys, tmp_path, argv, what):
    # checked before any integration starts: nothing is written
    extra = ("--out-dir", str(tmp_path)) if argv[0] == "simulate" else ()
    code, out, err = run_cli(capsys, *argv, *extra)
    assert code == 1
    assert what in err
    assert out == "" and list(tmp_path.iterdir()) == []


# --- theta ---


def test_theta_json(capsys):
    code, out, _ = run_cli(capsys, "theta", "--k", "2", "--a0", "1", "--x", "1,0")
    assert code == 0
    d = json.loads(out)
    assert d["theta"] == pytest.approx(2.0597671439071177, rel=1e-12)
    assert d["v"] == pytest.approx(-1.4142135623730951, rel=1e-12)
    assert d["d"] == pytest.approx(math.sqrt(3.0), rel=1e-12)  # tight bound for a0=1
    assert abs(d["v"]) <= d["d"] + 1e-9


@pytest.mark.parametrize(
    "argv, theta",
    [
        (("--a0", "1e-320", "--x", "1,0", "--d", "1"), 2.0597729e80),
        (("--a0", "1", "--x", "1e200,0"), 2.0597671439071177e100),
    ],
)
def test_theta_at_extreme_scales(capsys, argv, theta):
    # a subnormal a0, and a state whose quadratic form overflows: Theta is
    # a finite float at both
    code, out, err = run_cli(capsys, "theta", "--k", "2", *argv)
    assert code == 0, err
    assert strict_json(out)["theta"] == pytest.approx(theta, rel=1e-7)


def test_theta_k1_at_a_huge_a0(capsys):
    # 2 a0 overflows at a0 = 1e308, yet Theta = |x| / sqrt(a0) = 1e-154
    code, out, err = run_cli(capsys, "theta", "--k", "1", "--a0", "1e308", "--d", "1e200", "--x", "1")
    assert code == 0, err
    d = strict_json(out)
    assert d["theta"] == pytest.approx(1e-154, rel=1e-15)
    assert d["sigma"] == pytest.approx(2e154, rel=1e-15)


@pytest.mark.parametrize("k", [2, 3])
def test_theta_at_a_huge_a0(capsys, k):
    # 2 a0 overflows at a0 = 1e308, yet on x = e_1 Theta has the closed
    # form (N(1)^{-1}_11 / (2 a0))^(1/(2k)): 2.06e-77 at k = 2
    n11 = float(chain_gramian.gram_n1(k).n1_inv[0][0])
    x = ",".join(["1"] + ["0"] * (k - 1))
    code, out, err = run_cli(capsys, "theta", "--k", str(k), "--a0", "1e308", "--d", "1e200", "--x", x)
    assert code == 0, err
    want = (0.5 * n11) ** (0.5 / k) * 1e308 ** (-0.5 / k)
    assert strict_json(out)["theta"] == pytest.approx(want, rel=1e-12)


def test_theta_underflowing_quadratic_form(capsys):
    # (N(1)^{-1} x, x) underflows at x = (1e-200, 0), yet x is not the
    # origin: Theta is 1e-100 Theta(1, 0) by the dilation law, and sigma is
    # sigma(1, 0)
    code, out, err = run_cli(capsys, "theta", "--k", "2", "--a0", "1", "--x", "1e-200,0")
    assert code == 0, err
    d = strict_json(out)
    assert d["theta"] == pytest.approx(2.0597671439071182e-100, rel=1e-14)
    assert d["sigma"] == pytest.approx(2.8284271247461885, rel=1e-14)


def test_theta_refuses_w_past_the_float_range(capsys):
    # at a tiny Theta the first entries of w = N(Theta)^{-1} x overflow
    # although Theta and sigma are finite: strict JSON has no value for
    # them, so the command exits 1 naming w, with nothing on stdout
    a0 = float(ctrl_fn.a0_max(chain_gramian.gram_n1(5), 1.3))
    code, out, err = run_cli(capsys, "theta", "--k", "5", "--a0", repr(a0), "--d", "1.3", "--x", "0,0,0,0,1e-150")
    assert code == 1
    assert err.startswith("error: w is not finite")
    assert out == ""


def test_theta_explicit_bound(capsys):
    code, out, _ = run_cli(
        capsys, "theta", "--k", "2", "--a0", "1", "--x", "1,0", "--d", "1.9"
    )
    assert code == 0
    assert json.loads(out)["d"] == 1.9


def test_theta_dimension_mismatch(capsys):
    code, _, _ = run_cli(capsys, "theta", "--k", "2", "--a0", "1", "--x", "1,0,0")
    assert code == 1


# --- gramian ---


def test_gramian_json(capsys):
    code, out, _ = run_cli(capsys, "gramian", "--k", "2", "--theta", "2.0")
    assert code == 0
    d = json.loads(out)
    for row, wrow in zip(d["n1_inv"], [[36.0, 12.0], [12.0, 6.0]]):
        assert row == pytest.approx(wrow, rel=1e-12)
    want = chain_gramian.gram_theta(chain_gramian.gram_n1(2), 2.0)
    for row, wrow in zip(d["n_theta"], want):
        assert row == pytest.approx([float(v) for v in wrow], rel=1e-12)


def test_gramian_bad_k(capsys):
    code, _, _ = run_cli(capsys, "gramian", "--k", "0")
    assert code == 1


# --- probe ---


def test_probe_pendulum(capsys):
    code, out, _ = run_cli(capsys, "probe", "--scenario", "pendulum")
    assert code == 0
    d = json.loads(out)
    assert d["samples"] == 32
    assert {tuple(p) for p in d["kept"]} == {(1, 0), (1, 1), (2, 0), (2, 1)}


@pytest.mark.parametrize("name", ["pendulum", "example51", "polyodd:3", "intro2d"])
def test_probe_phi_conditions_hold(capsys, name):
    code, out, err = run_cli(capsys, "probe", "--scenario", name)
    assert code == 0 and err == ""
    d = strict_json(out)
    conditions = d["phi_conditions"]
    assert conditions and all(c["ok"] is True for c in conditions)
    for c in conditions:
        assert set(c) == {"kind", "block", "field", "order", "ok"}
    # one nonvanish condition per block, in block order
    assert [c["block"] for c in conditions if c["kind"] == "nonvanish"] == list(
        range(1, len(d["indices"]) + 1)
    )


def test_probe_failing_phi_condition_exits_2(capsys, monkeypatch):
    # a chart whose block-1 head is constant has a zero gradient there,
    # which cannot satisfy block 1's nonvanish condition
    get_scenario = scenarios.get_scenario

    def broken(name, **params):
        scn = get_scenario(name, **params)
        return dataclasses.replace(scn, to_z=lambda x: (0.0,) + tuple(scn.to_z(x))[1:])

    monkeypatch.setattr(scenarios, "get_scenario", broken)
    code, out, err = run_cli(capsys, "probe", "--scenario", "pendulum")
    assert code == 2
    # the report is printed first, so the failing entry shows
    failed = [c for c in strict_json(out)["phi_conditions"] if not c["ok"]]
    assert failed == [{"kind": "nonvanish", "block": 1, "field": 0, "order": 0, "ok": False}]
    assert err.startswith("runtime error:")


def test_probe_example51(capsys):
    code, out, _ = run_cli(capsys, "probe", "--scenario", "example51")
    assert code == 0
    d = json.loads(out)
    assert {tuple(p) for p in d["kept"]} == {(1, 0), (2, 0), (2, 1)}


def test_probe_overrides(capsys):
    code, out, _ = run_cli(
        capsys, "probe", "--scenario", "pendulum", "--samples", "16", "--box=-0.5,0.5"
    )
    assert code == 0
    assert json.loads(out)["samples"] == 16


def test_probe_config(capsys, tmp_path):
    cfg = tmp_path / "probe.cfg"
    cfg.write_text("scenario = example51\nsamples = 24\n")
    code, out, _ = run_cli(capsys, "probe", "--config", str(cfg))
    assert code == 0
    assert json.loads(out)["samples"] == 24
    cfg.write_text("scenario = example51\nsamples = 8\n")
    code, out, _ = run_cli(capsys, "probe", "--config", str(cfg))
    assert code == 0
    assert json.loads(out)["samples"] == 8
    # an explicit flag wins over the file
    code, out, _ = run_cli(capsys, "probe", "--config", str(cfg), "--samples", "16")
    assert code == 0
    assert json.loads(out)["samples"] == 16


@pytest.mark.parametrize("count", ["0", "-3"])
def test_probe_needs_a_sample(capsys, count):
    code, out, err = run_cli(capsys, "probe", "--scenario", "pendulum", "--samples", count)
    assert code == 1
    assert out == "" and "at least 1" in err


def test_probe_missing_scenario(capsys):
    code, _, _ = run_cli(capsys, "probe")
    assert code == 1
