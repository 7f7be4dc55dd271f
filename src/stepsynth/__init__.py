"""Stepwise bounded-control synthesis for chain-of-integrators systems."""

from .chain_gramian import (
    GramianConditionError,
    GramSet,
    gram_n1,
    gram_theta,
    gram_theta_inv,
)
from .ctrl_fn import (
    LinearSynth,
    NonConvergence,
    ThetaEval,
    a0_max,
    theta_of,
)
from .cubic import extreme_root, real_roots
from .engine import (
    Event,
    IntegratorConfig,
    NonFinite,
    Recorder,
    Timeout,
    rk4_step,
    run_stage,
)
from .mappability import (
    CapExceeded,
    ProbeReport,
    RankDeficient,
    RegularityViolation,
    halton_samples,
    lie_bracket,
    select_columns,
    verify_phi_conditions,
)
from .pendulum import (
    NoRealRoot,
    PendulumParams,
    pendulum,
    pendulum_H,
    pendulum_T1_analytic,
    pendulum_u1pm,
    pendulum_u2pm,
    pendulum_w1,
    pendulum_w2,
)
from .scenarios import (
    ProbeFields,
    RootBracketFailure,
    SCENARIO_NAMES,
    Scenario,
    example51,
    get_scenario,
    intro2d,
    polyodd,
    polyodd_coeffs,
)
from .sim import (
    RunSummary,
    Trajectory,
    default_projections,
    emit_csv,
    emit_json,
    emit_svg,
    simulate,
)
from .stepwise import (
    BlockPartition,
    BlockSystem,
    ConstSign,
    CurveSwitch,
    HoldViolation,
    StepTimeout,
    StepwiseRun,
    ThetaSwitch,
    arrival_curve,
    orchestrate,
    step_done,
)

__version__ = "0.1.0"
