"""Scaled underdamped Langevin Monte Carlo.

Samples strongly log-concave targets with an exact per-step Gaussian
kernel, optionally preconditioned so that the iteration count grows
linearly rather than quadratically with the target's condition number.
"""

from .errors import (
    ConfigError,
    InvalidInput,
    MinimizerNotFound,
    NotPositiveDefinite,
    NumericalBlowup,
    SamplingError,
    SingularMatrix,
    TheoremInapplicable,
)
from .metrics import GaussianSummary, SampleCloud, empirical_w2, gaussian_w2, moment_summary
from .oracle import run_kernel_validation
from .sampler import (
    ChainRun,
    ChainState,
    KernelMoments,
    StepCache,
    coupled_pair_run,
    kernel_moments,
    make_step_cache,
    run_chain,
    run_chains,
    step,
)
from .spd import SymMatrix, spd_apply_fn, spd_sqrt
from .targets import (
    InitSpec,
    TargetModel,
    grad_check,
    load_logistic_csv,
    make_gaussian,
    make_logistic_ridge,
    sample_exact_positions,
)
from .tuner import (
    PlanOutput,
    ScalingConfig,
    ThetaEstimate,
    default_theta_probes,
    estimate_theta,
    plan_scaled,
    plan_unscaled,
    scaled_params,
    unscaled_config,
)

__version__ = "0.1.0"

__all__ = [
    "ChainRun",
    "ChainState",
    "ConfigError",
    "GaussianSummary",
    "InitSpec",
    "InvalidInput",
    "KernelMoments",
    "MinimizerNotFound",
    "NotPositiveDefinite",
    "NumericalBlowup",
    "PlanOutput",
    "SampleCloud",
    "SamplingError",
    "ScalingConfig",
    "SingularMatrix",
    "StepCache",
    "SymMatrix",
    "TargetModel",
    "TheoremInapplicable",
    "ThetaEstimate",
    "coupled_pair_run",
    "default_theta_probes",
    "empirical_w2",
    "estimate_theta",
    "gaussian_w2",
    "grad_check",
    "kernel_moments",
    "load_logistic_csv",
    "make_gaussian",
    "make_logistic_ridge",
    "make_step_cache",
    "moment_summary",
    "plan_scaled",
    "plan_unscaled",
    "run_chain",
    "run_chains",
    "run_kernel_validation",
    "sample_exact_positions",
    "scaled_params",
    "spd_apply_fn",
    "spd_sqrt",
    "step",
    "unscaled_config",
]
