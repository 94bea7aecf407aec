"""puffercal: noise calibration and verification for Renyi pufferfish privacy.

Calibrates Laplace, Gaussian, and exponential-mechanism noise so a
transport functional over the one-dimensional optimal coupling meets a
divergence budget exactly, and re-verifies the guarantee by direct
numerical divergence computation.
"""

from .calibrate import (
    CalibrationResult,
    baseline_gaussian_rpp,
    baseline_laplace_rpp,
    calibrate_exponential,
    calibrate_gaussian,
    calibrate_grid,
    calibrate_laplace,
    calibrate_over_scenarios,
    calibrate_pair,
    calibrate_scenarios,
    calibrate_winf_laplace,
    feasible_b_sub_unit_alpha,
    laplace_pair_divergence,
    noise_for,
)
from .dist import (
    DiscreteDistribution,
    ExponentialParams,
    GaussianParams,
    LaplaceParams,
    MechanismParams,
    PrivacySpec,
    ScenarioPair,
    ScenarioSet,
    build_empirical,
    noise_log_density,
    noise_variance,
    posterior_log_density,
    scenario_set,
)
from .ingest import (
    ScenarioConfig,
    Table,
    builtin_scenarios,
    conditional_distribution,
    load_distribution,
    load_table,
    save_distribution,
    scenario_pair_from_table,
)
from .transport import Coupling, monotone_coupling, w_infinity
from .verify import (
    VerificationReport,
    chernoff_breach_bound,
    monte_carlo_breach,
    renyi_divergence_discrete,
    renyi_divergence_numeric,
    verify_rpp,
)

__version__ = "0.1.0"

__all__ = [
    "CalibrationResult",
    "Coupling",
    "DiscreteDistribution",
    "ExponentialParams",
    "GaussianParams",
    "LaplaceParams",
    "MechanismParams",
    "PrivacySpec",
    "ScenarioConfig",
    "ScenarioPair",
    "ScenarioSet",
    "Table",
    "VerificationReport",
    "baseline_gaussian_rpp",
    "baseline_laplace_rpp",
    "build_empirical",
    "builtin_scenarios",
    "calibrate_exponential",
    "calibrate_gaussian",
    "calibrate_grid",
    "calibrate_laplace",
    "calibrate_over_scenarios",
    "calibrate_pair",
    "calibrate_scenarios",
    "calibrate_winf_laplace",
    "chernoff_breach_bound",
    "conditional_distribution",
    "feasible_b_sub_unit_alpha",
    "laplace_pair_divergence",
    "load_distribution",
    "load_table",
    "monotone_coupling",
    "monte_carlo_breach",
    "noise_for",
    "noise_log_density",
    "noise_variance",
    "posterior_log_density",
    "renyi_divergence_discrete",
    "renyi_divergence_numeric",
    "save_distribution",
    "scenario_pair_from_table",
    "scenario_set",
    "verify_rpp",
    "w_infinity",
]
