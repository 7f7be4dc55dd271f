"""Stepwise bounded-control synthesis for chain-of-integrators systems."""

from .chain_gramian import (
    GramianConditionError,
    GramSet,
    chain_matrices,
    dilation_matrix,
    expm_chain_b,
    gram_hat,
    gram_n1,
    gram_theta,
    gram_theta_inv,
    gram_tilde,
)
from .ctrl_fn import (
    LinearSynth,
    NonConvergence,
    ThetaEval,
    a0_max,
    closed_loop_rhs,
    theta_of,
    v_of,
)
from .cubic import extreme_root, real_roots
from .engine import (
    Event,
    IntegratorConfig,
    NonFinite,
    Recorder,
    StageResult,
    Timeout,
    rk4_step,
    run_stage,
)
from .mappability import (
    CapExceeded,
    ProbeReport,
    RankDeficient,
    RegularityViolation,
    ad_pow,
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
    pendulum_energy,
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
    DomainError,
    HoldViolation,
    StepTimeout,
    StepwiseRun,
    ThetaSwitch,
    arrival_curve,
    audit_theta_switch,
    eval_control,
    orchestrate,
    step_done,
)

__version__ = "0.1.0"
