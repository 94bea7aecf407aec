"""puffercal: noise calibration and verification for Renyi pufferfish privacy.

Calibrates Laplace, Gaussian, and exponential-mechanism noise so a
transport functional over the one-dimensional optimal coupling meets a
divergence budget exactly, and re-verifies the guarantee by direct
numerical divergence computation.
"""

from .calibrate import (
    CalibrationResult,
    calibrate_grid,
    calibrate_pair,
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
    noise_variance,
    scenario_set,
)
from .ingest import (
    ScenarioConfig,
    Table,
    builtin_scenarios,
    conditional_distribution,
    load_table,
    scenario_pair_from_table,
)
from .transport import Coupling, monotone_coupling
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
    "build_empirical",
    "builtin_scenarios",
    "calibrate_grid",
    "calibrate_pair",
    "chernoff_breach_bound",
    "conditional_distribution",
    "laplace_pair_divergence",
    "load_table",
    "monotone_coupling",
    "monte_carlo_breach",
    "noise_for",
    "noise_variance",
    "renyi_divergence_discrete",
    "renyi_divergence_numeric",
    "scenario_pair_from_table",
    "scenario_set",
    "verify_rpp",
]
