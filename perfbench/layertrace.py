"""Per-layer tracing of one benchmark round, installed from outside stepsynth.

Each layer's functions are replaced at the module attributes stepsynth
looks them up through, and the scenario's callables through
dataclasses.replace; no file of the program changes.  A timed function
records its calls, its inclusive time and its self time (inclusive time
minus that of the timed functions it calls); a counted function records
calls only.  Figures are kept per phase (setup, solve, write), so the
solve-phase counts leave out the calls that building the scenario makes.

The coarse spans (import, scenario, probe, simulate, orchestrate, stages,
emitters) are kept in memory with their parent span and written out when
the round ends.  Hot-path calls, about a million per round, are kept as
per-name totals only.
"""

from __future__ import annotations

import dataclasses
import json
import time

clock = time.perf_counter


class Tracer:
    def __init__(self, run_id: str):
        self.run_id = run_id
        self.phase = "setup"
        self.stats: dict = {}  # (phase, name) -> [calls, inclusive_s, self_s]
        self.spans: list = []  # [name, phase, start_s, end_s, parent span index]
        self._frames = [[0.0, -1]]  # open timed calls: [child_s, innermost span]

    def _close(self, name: str, t0: float, t1: float, frame: list) -> None:
        dur = t1 - t0
        self._frames[-1][0] += dur
        st = self.stats.get((self.phase, name))
        if st is None:
            st = self.stats[(self.phase, name)] = [0, 0.0, 0.0]
        st[0] += 1
        st[1] += dur
        st[2] += dur - frame[0]

    def timed(self, name: str, fn, span: bool = False):
        frames, spans, close = self._frames, self.spans, self._close

        def wrapper(*args, **kwargs):
            parent = frames[-1][1]
            idx = parent
            if span:
                idx = len(spans)
                spans.append([name, self.phase, 0.0, 0.0, parent])
            frame = [0.0, idx]
            frames.append(frame)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                frames.pop()
                close(name, t0, t1, frame)
                if span:
                    spans[idx][2:4] = [t0, t1]

        return wrapper

    def counted(self, name: str, fn):
        stats = self.stats

        def wrapper(*args, **kwargs):
            st = stats.get((self.phase, name))
            if st is None:
                st = stats[(self.phase, name)] = [0, 0.0, 0.0]
            st[0] += 1
            return fn(*args, **kwargs)

        return wrapper

    def add_span(self, name: str, t0: float, t1: float) -> None:
        """A span measured by the caller, such as the package import."""
        self.spans.append([name, self.phase, t0, t1, self._frames[-1][1]])
        self._close(name, t0, t1, [0.0, -1])

    def install(self) -> None:
        """Wrap every traced function of stepsynth where its callers find it."""
        import importlib

        # stepsynth.pendulum is shadowed by the pendulum() factory in the
        # package namespace, so modules are fetched by their full names
        chain_gramian, ctrl_fn, cubic, engine, mappability, pendulum, scenarios, sim, stepwise = (
            importlib.import_module(f"stepsynth.{name}")
            for name in (
                "chain_gramian", "ctrl_fn", "cubic", "engine", "mappability",
                "pendulum", "scenarios", "sim", "stepwise",
            )
        )

        def patch(wrapped, *sites):
            for module, attr in sites:
                setattr(module, attr, wrapped)

        T, C = self.timed, self.counted
        for mod, attr in (
            (scenarios, "get_scenario"),
            (mappability, "halton_samples"),
            (mappability, "select_columns"),
            (sim, "simulate"),
            (sim, "emit_csv"),
            (sim, "emit_json"),
            (sim, "emit_svg"),
            (stepwise, "orchestrate"),
            (engine, "run_stage"),
        ):
            patch(T(f"{mod.__name__.split('.')[-1]}.{attr}", getattr(mod, attr), span=True), (mod, attr))
        patch(C("mappability.lie_bracket", mappability.lie_bracket), (mappability, "lie_bracket"))
        for attr in ("pendulum_u1pm", "pendulum_u2pm"):
            patch(T("pendulum.u_solve", getattr(pendulum, attr)), (pendulum, attr))
        patch(C("pendulum.w2_fallback", pendulum.pendulum_w2), (pendulum, "pendulum_w2"))
        patch(T("scenarios.bracket_root", scenarios._bracket_root), (scenarios, "_bracket_root"))
        patch(
            T("cubic.real_roots", cubic.real_roots),
            (cubic, "real_roots"),
            (pendulum, "real_roots"),
            (scenarios, "real_roots"),
        )
        patch(T("ctrl_fn.theta_of", ctrl_fn.theta_of), (ctrl_fn, "theta_of"), (stepwise, "theta_of"))
        patch(
            T("chain_gramian.gram_theta_inv", chain_gramian.gram_theta_inv),
            (chain_gramian, "gram_theta_inv"),
            (ctrl_fn, "gram_theta_inv"),
        )
        patch(T("stepwise.rhs", stepwise.BlockSystem.rhs), (stepwise.BlockSystem, "rhs"))
        patch(C("stepwise.control_evals", stepwise._control_of), (stepwise, "_control_of"))
        patch(C("stepwise.residual_evals", stepwise._switch_residual), (stepwise, "_switch_residual"))
        patch(C("stepwise.done_tests", stepwise.step_done), (stepwise, "step_done"))
        patch(T("engine.rk4", engine.rk4_step), (engine, "rk4_step"))

    def wrap_scenario(self, scn):
        """The scenario with its field, channel map and charts traced."""
        return dataclasses.replace(
            scn,
            f=self.timed("scenarios.field", scn.f),
            H=self.timed("scenarios.channel", scn.H),
            to_z=self.timed("scenarios.chart_map", scn.to_z),
            from_z=self.timed("scenarios.chart_map", scn.from_z),
        )

    def layer_metrics(self, samples: int, events: int, csv_bytes: int) -> dict:
        """Per-layer metrics of the round: name -> (value, unit).

        *_calls count calls, *_us are mean microseconds per call (self time
        where the name says so), *_s are totals in seconds.  Ratios per step
        divide by the accepted RK4 steps, one per sample after the first.
        """

        def get(name, phase="solve"):
            return self.stats.get((phase, name), [0, 0.0, 0.0])

        def per_call_us(st, col):
            return 1e6 * st[col] / st[0] if st[0] else 0.0

        steps = samples - 1
        u, br, ch, cm = get("pendulum.u_solve"), get("scenarios.bracket_root"), get("scenarios.channel"), get("scenarios.chart_map")
        rr, th, gi, rhs = get("cubic.real_roots"), get("ctrl_fn.theta_of"), get("chain_gramian.gram_theta_inv"), get("stepwise.rhs")
        rk4 = get("engine.rk4")
        fields = rhs[0] + get("scenarios.field")[0]
        return {
            "stepsynth.import_s": (get("stepsynth.import", "setup")[1], "s"),
            "mappability.halton_samples_s": (get("mappability.halton_samples", "setup")[1], "s"),
            "mappability.select_columns_s": (get("mappability.select_columns", "setup")[1], "s"),
            "mappability.lie_bracket_calls": (get("mappability.lie_bracket", "setup")[0], "count"),
            "scenarios.get_scenario_s": (get("scenarios.get_scenario", "setup")[1], "s"),
            "pendulum.u_solve_calls": (u[0], "count"),
            "pendulum.u_solve_self_us": (per_call_us(u, 2), "us"),
            "pendulum.w2_fallback_calls": (get("pendulum.w2_fallback")[0], "count"),
            "scenarios.bracket_root_calls": (br[0], "count"),
            "scenarios.bracket_root_us": (per_call_us(br, 1), "us"),
            "scenarios.channel_calls": (ch[0], "count"),
            "scenarios.channel_self_us": (per_call_us(ch, 2), "us"),
            "scenarios.chart_map_calls": (cm[0], "count"),
            "scenarios.chart_map_us": (per_call_us(cm, 1), "us"),
            "cubic.real_roots_calls": (rr[0], "count"),
            "cubic.real_roots_us": (per_call_us(rr, 1), "us"),
            "ctrl_fn.theta_of_calls": (th[0], "count"),
            "ctrl_fn.theta_of_self_us": (per_call_us(th, 2), "us"),
            "chain_gramian.gram_theta_inv_calls": (gi[0], "count"),
            "chain_gramian.gram_theta_inv_us": (per_call_us(gi, 1), "us"),
            "stepwise.rhs_calls": (rhs[0], "count"),
            "stepwise.rhs_self_us": (per_call_us(rhs, 2), "us"),
            "stepwise.control_evals_per_step": (get("stepwise.control_evals")[0] / steps, "1/step"),
            "stepwise.residual_evals_per_step": (get("stepwise.residual_evals")[0] / steps, "1/step"),
            "stepwise.done_tests_per_step": (get("stepwise.done_tests")[0] / steps, "1/step"),
            "engine.accepted_steps": (steps, "count"),
            "engine.events": (events, "count"),
            "engine.rk4_calls_per_step": (rk4[0] / steps, "1/step"),
            "engine.field_evals_per_step": (fields / steps, "1/step"),
            "engine.rk4_self_us": (per_call_us(rk4, 2), "us"),
            "engine.run_stage_self_s": (get("engine.run_stage")[2], "s"),
            "sim.samples": (samples, "count"),
            "sim.chart_map_s": (get("sim.simulate")[1] - get("stepwise.orchestrate")[1], "s"),
            "sim.emit_csv_s": (get("sim.emit_csv", "write")[1], "s"),
            "sim.emit_svg_s": (get("sim.emit_svg", "write")[1], "s"),
            "sim.csv_mb": (csv_bytes / 1e6, "MB"),
        }

    def write(self, path) -> None:
        """Spans and per-name totals of the round, as JSON."""
        doc = {
            "run_id": self.run_id,
            "spans": [
                {"id": i, "name": s[0], "phase": s[1], "start_s": s[2], "end_s": s[3], "parent": s[4]}
                for i, s in enumerate(self.spans)
            ],
            "totals": [
                {"phase": ph, "name": name, "calls": st[0], "inclusive_s": st[1], "self_s": st[2]}
                for (ph, name), st in sorted(self.stats.items())
            ],
        }
        path.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
