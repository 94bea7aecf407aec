"""Independent numerical verification of calibrated mechanisms.

Calibration upper-bounds the order-alpha divergence via a transport
functional; the verifier recomputes the divergence itself from the noised
posterior densities, so a passing check confirms the calibration
sufficiency with no shared code path. The verifier is four modules, none
of which imports calibrate:

- certify: certified log-ratio bounds, their branch and bound, and D_inf;
- quadrature: finite-order divergences by Gauss-Legendre bisection;
- breach: Monte Carlo breach estimates against certified intervals;
- verify (this module): the pass rule, verify_rpp, and the Chernoff bound.

This module serves the verifier's public names; the others are loaded
with it, so importing puffercal compiles all four.
"""

import math
from dataclasses import dataclass
from typing import Optional

from .breach import monte_carlo_breach, monte_carlo_breach_steps
from .certify import renyi_divergence_discrete
from .dist import MechanismParams, PrivacySpec, ScenarioSet
from .errors import IntegrationFailure, InvalidValue
from .quadrature import renyi_divergence_both_ways, renyi_divergence_numeric

__all__ = [
    "PASS_SLACK",
    "VerificationReport",
    "chernoff_breach_bound",
    "monte_carlo_breach",
    "monte_carlo_breach_steps",
    "renyi_divergence_both_ways",
    "renyi_divergence_discrete",
    "renyi_divergence_numeric",
    "verify_rpp",
]

PASS_SLACK = 1e-6


@dataclass(frozen=True)
class VerificationReport:
    """Per-pair outcome of a privacy check at one (alpha, epsilon) level."""

    pair_index: int
    pair_label: str
    alpha: float
    epsilon_target: float
    divergence_ij: float
    divergence_ji: float
    slack: float
    passed: Optional[bool]
    inconclusive: bool = False
    chernoff_bound: Optional[float] = None


def chernoff_breach_bound(divergence: float, spec: PrivacySpec) -> float:
    """Upper bound exp((alpha - 1)(divergence - epsilon)) on the breach probability.

    Values above 1 are vacuous; callers should present them as such rather
    than clamping the number itself.
    """
    if not (1.0 < spec.alpha < math.inf):
        raise InvalidValue(f"breach bound needs finite alpha > 1, got {spec.alpha!r}")
    exponent = (spec.alpha - 1.0) * (divergence - spec.epsilon)
    try:
        return math.exp(exponent)
    except OverflowError:
        return math.inf


def verify_rpp(
    scenarios: ScenarioSet, mech: Optional[MechanismParams], spec: PrivacySpec
) -> list[VerificationReport]:
    """Check the divergence bound in both directions for every pair.

    The privacy definition quantifies over ordered pairs; the scenario set
    is treated as unordered and checked both ways. A pair passes when the
    larger direction stays within epsilon plus a 1e-6 numerical slack.
    mech=None is the zero-noise mechanism (see renyi_divergence_both_ways).
    A pair whose
    quadrature fails is inconclusive: nan divergences and passed=None. The
    breach bound is given for 1 < alpha < inf when the larger direction is
    finite.
    """
    reports = []
    for index, pair in enumerate(scenarios.pairs):
        inconclusive = False
        try:
            div_ij, div_ji = renyi_divergence_both_ways(pair.p_i, pair.p_j, mech, spec.alpha)
        except IntegrationFailure:
            div_ij = div_ji = math.nan
            inconclusive = True
        worst = max(div_ij, div_ji)
        reports.append(
            VerificationReport(
                pair_index=index,
                pair_label=scenarios.label(index),
                alpha=spec.alpha,
                epsilon_target=spec.epsilon,
                divergence_ij=div_ij,
                divergence_ji=div_ji,
                slack=spec.epsilon - worst,
                passed=None if inconclusive else worst <= spec.epsilon + PASS_SLACK,
                inconclusive=inconclusive,
                chernoff_bound=(
                    chernoff_breach_bound(worst, spec)
                    if 1.0 < spec.alpha < math.inf and math.isfinite(worst)
                    else None
                ),
            )
        )
    return reports
