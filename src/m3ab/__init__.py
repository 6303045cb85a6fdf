"""Fixed-budget, multi-metric best-treatment identification.

Library + CLI simulator: sequential-halving algorithms driven by relative
variance (SHRVar and friends), analytic validation-pass probabilities,
instance complexity diagnostics, and a reproducible Monte-Carlo harness.
"""

from m3ab.complexity import (
    ComplexityReport,
    ErrorBound,
    error_bound,
    h3,
    h3_prime,
    h3_tilde,
)
from m3ab.core import (
    BAYESIAN,
    NON_BAYESIAN,
    Instance,
    ValidationConfig,
    ZProfile,
    best_treatment,
    joint_pass_probability,
    pass_probability,
    z_profile,
)
from m3ab.errors import (
    DegenerateVarianceError,
    InsufficientBudgetError,
    M3ABError,
    SchemaError,
    TooLargeError,
)
from m3ab.halving import (
    AlgorithmSpec,
    ExplorationResult,
    empirical_z,
    num_stages,
    run_exploration,
)
from m3ab.harness import (
    METRICS,
    SWEEP_PARAMETERS,
    CellReport,
    ExperimentConfig,
    MonteCarloReport,
    run_experiment,
    sweep,
    wilson_interval,
)
from m3ab.instances import (
    FORMAT_VERSION,
    PRESET_NAMES,
    from_z_parameterization,
    load,
    preset,
    save,
    table1,
)
from m3ab.validate import ValidationOutcome, run_validation

__version__ = "0.1.0"

__all__ = [
    "BAYESIAN",
    "NON_BAYESIAN",
    "Instance",
    "ValidationConfig",
    "ZProfile",
    "best_treatment",
    "joint_pass_probability",
    "pass_probability",
    "z_profile",
    "M3ABError",
    "InsufficientBudgetError",
    "TooLargeError",
    "DegenerateVarianceError",
    "SchemaError",
    "AlgorithmSpec",
    "ExplorationResult",
    "empirical_z",
    "num_stages",
    "run_exploration",
    "ValidationOutcome",
    "run_validation",
    "METRICS",
    "SWEEP_PARAMETERS",
    "CellReport",
    "ExperimentConfig",
    "MonteCarloReport",
    "run_experiment",
    "sweep",
    "wilson_interval",
    "ComplexityReport",
    "ErrorBound",
    "h3",
    "h3_prime",
    "h3_tilde",
    "error_bound",
    "FORMAT_VERSION",
    "PRESET_NAMES",
    "from_z_parameterization",
    "preset",
    "table1",
    "load",
    "save",
]
