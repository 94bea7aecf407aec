"""Independent numerical verification of calibrated mechanisms.

Calibration upper-bounds the order-alpha divergence via a transport
functional; this module recomputes the divergence itself by adaptive
quadrature of the noised posterior densities, so a passing check confirms
the calibration sufficiency with no shared code path.
"""

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np
from scipy.integrate import quad
from scipy.optimize import minimize_scalar

from .calibrate import ScenarioSet
from .dist import (
    DiscreteDistribution,
    ExponentialParams,
    GaussianParams,
    LaplacePosterior,
    MechanismParams,
    PrivacySpec,
    absolute_cost,
    laplace_scale,
    log_sum_exp,
    posterior_log_density_many,
    sample_noise,
    truncation_halfwidth,
)
from .errors import IntegrationFailure, InvalidValue

PASS_SLACK = 1e-6
_GRID_PER_GAP = 4096
_NEGATIVE_FLOOR = -1e-8


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
    mc_breach_estimate: Optional[float] = None
    mc_half_width: Optional[float] = None
    sample_count: int = 0
    seed: Optional[int] = None


def _posterior_logpdf_fn(
    mech: MechanismParams, dist: DiscreteDistribution
) -> Callable[[float], float]:
    """Fast scalar closure for the posterior log density (hot quadrature path).

    Laplace noise looks up the anchored sums of LaplacePosterior, O(log n)
    per point; other noise sums over every atom, O(n).
    """
    scale = laplace_scale(mech)
    if scale is not None:
        return LaplacePosterior(dist, scale).log_density

    atoms = dist.atoms
    log_masses = tuple(math.log(m) for m in dist.masses)

    if isinstance(mech, GaussianParams):
        inv_two_var = 0.5 / mech.sigma**2
        const = -0.5 * math.log(2.0 * math.pi) - math.log(mech.sigma)

        def log_exponents(y: float) -> list[float]:
            return [lm - (y - a) ** 2 * inv_two_var for lm, a in zip(log_masses, atoms)]

    else:
        from .dist import _exponential_norm

        log_norm, _, _, _ = _exponential_norm(mech)
        rate = mech.rate(mech.scale)
        cost = mech.cost
        const = -log_norm

        def log_exponents(y: float) -> list[float]:
            return [lm - rate * cost(y - a) for lm, a in zip(log_masses, atoms)]

    def logpdf(y: float) -> float:
        terms = log_exponents(y)
        peak = max(terms)
        return peak + math.log(math.fsum(math.exp(t - peak) for t in terms)) + const

    return logpdf


def _cross_span(p_i: DiscreteDistribution, p_j: DiscreteDistribution) -> float:
    return max(
        abs(p_i.max_atom - p_j.min_atom), abs(p_j.max_atom - p_i.min_atom)
    )


def renyi_divergence_numeric(
    p_i: DiscreteDistribution,
    p_j: DiscreteDistribution,
    mech: MechanismParams,
    alpha: float,
) -> float:
    """Order-alpha divergence between the noised posteriors of two priors.

    Finite orders integrate exp(alpha log p - (alpha - 1) log q) by
    adaptive quadrature with subdivision points at the atoms (the
    integrand has kinks there for Laplace-type noise); the window is the
    union atom range padded by the noise truncation width plus the
    order-driven shift of the integrand's tail mode. alpha = inf takes
    the supremum of the log ratio (see _sup_log_ratio).
    """
    if math.isnan(alpha) or alpha <= 0.0 or alpha == 1.0:
        raise InvalidValue(f"alpha must lie in (0,1) or (1,inf], got {alpha!r}")
    if math.isinf(alpha):
        return _sup_log_ratio(p_i, p_j, mech)

    log_p = _posterior_logpdf_fn(mech, p_i)
    log_q = _posterior_logpdf_fn(mech, p_j)
    pad = truncation_halfwidth(mech) + abs(alpha - 1.0) * _cross_span(p_i, p_j)
    lo = min(p_i.min_atom, p_j.min_atom) - pad
    hi = max(p_i.max_atom, p_j.max_atom) + pad

    def integrand(y: float) -> float:
        exponent = alpha * log_p(y) - (alpha - 1.0) * log_q(y)
        if exponent > 700.0:
            raise IntegrationFailure(
                f"integrand overflow at y = {y!r}; the density ratio is too extreme"
            )
        return math.exp(exponent)

    points = sorted({a for a in (*p_i.atoms, *p_j.atoms) if lo < a < hi})
    out = quad(
        integrand,
        lo,
        hi,
        points=points,
        limit=max(250, 20 * (len(points) + 2)),
        epsabs=1e-14,
        epsrel=1e-10,
        full_output=1,
    )
    if len(out) > 3:
        raise IntegrationFailure(f"quadrature did not converge: {out[3]}")
    integral = out[0]
    if not (math.isfinite(integral) and integral > 0.0):
        raise IntegrationFailure(f"quadrature returned {integral!r}")
    return _floor_rounding(math.log(integral) / (alpha - 1.0))


def _floor_rounding(value: float) -> float:
    """Divergences are nonnegative: a rounding residue just below 0 reads as 0."""
    return 0.0 if _NEGATIVE_FLOOR < value < 0.0 else value


def _tail_log_ratio_limits(
    p_i: DiscreteDistribution, p_j: DiscreteDistribution, mech: MechanismParams
) -> Optional[list[float]]:
    """Limits of log p(y) - log q(y) as y -> +/- inf, where available in closed form.

    Returns None when no closed form applies (exponential mechanisms with
    a custom cost); limits tending to -inf are omitted since they never
    attain the supremum.
    """
    if isinstance(mech, GaussianParams):
        # Each tail is dominated by the extreme atom; a strictly larger
        # reach makes the ratio diverge.
        limits = []
        if p_i.max_atom > p_j.max_atom:
            limits.append(math.inf)
        elif p_i.max_atom == p_j.max_atom:
            limits.append(math.log(p_i.masses[-1]) - math.log(p_j.masses[-1]))
        if p_i.min_atom < p_j.min_atom:
            limits.append(math.inf)
        elif p_i.min_atom == p_j.min_atom:
            limits.append(math.log(p_i.masses[0]) - math.log(p_j.masses[0]))
        return limits
    scale = laplace_scale(mech)
    if scale is not None:
        rate = 1.0 / scale
    elif isinstance(mech, ExponentialParams) and (
        mech.cost is absolute_cost or mech.cost is abs
    ):
        rate = mech.rate(mech.scale)
    else:
        return None
    log_mi = np.log(np.asarray(p_i.masses))
    log_mj = np.log(np.asarray(p_j.masses))
    atoms_i = np.asarray(p_i.atoms)
    atoms_j = np.asarray(p_j.atoms)
    right = float(log_sum_exp(log_mi + rate * atoms_i) - log_sum_exp(log_mj + rate * atoms_j))
    left = float(log_sum_exp(log_mi - rate * atoms_i) - log_sum_exp(log_mj - rate * atoms_j))
    return [right, left]


def _sup_log_ratio(
    p_i: DiscreteDistribution, p_j: DiscreteDistribution, mech: MechanismParams
) -> float:
    """sup_y of log p(y) - log q(y), floored at 0.

    For Laplace noise the supremum is attained at an atom of either prior
    or in a tail, so it is the largest of the ratios at the atoms and the
    closed-form tail limits: between adjacent atoms each posterior density
    is exp(-y/b) (A + B t) with t = exp(2y/b) and constants A, B >= 0, so
    the ratio (A1 + B1 t) / (A2 + B2 t) is monotone there. Other noise
    takes the maximum over a dense grid with a local refinement, plus the
    tail limits or, without a closed form, far probes.
    """
    knots = sorted(set(p_i.atoms) | set(p_j.atoms))
    if laplace_scale(mech) is not None:
        ys = np.asarray(knots)
        best = float(
            np.max(
                posterior_log_density_many(mech, p_i, ys)
                - posterior_log_density_many(mech, p_j, ys)
            )
        )
    else:
        best = _grid_max_log_ratio(p_i, p_j, mech, knots)

    limits = _tail_log_ratio_limits(p_i, p_j, mech)
    if limits is None:
        # No closed-form tails for this mechanism: probe geometrically far out.
        pad = truncation_halfwidth(mech)
        probes = []
        for k in range(8):
            offset = pad * (2.0**k)
            probes.extend((knots[0] - pad - offset, knots[-1] + pad + offset))
        probe_vals = posterior_log_density_many(
            mech, p_i, np.asarray(probes)
        ) - posterior_log_density_many(mech, p_j, np.asarray(probes))
        best = max(best, float(np.max(probe_vals)))
    else:
        for limit in limits:
            best = max(best, limit)
    return max(best, 0.0)


def _grid_max_log_ratio(
    p_i: DiscreteDistribution,
    p_j: DiscreteDistribution,
    mech: MechanismParams,
    knots: list[float],
) -> float:
    """Max of log p(y) - log q(y) over a dense grid on the padded knot range.

    The grid has _GRID_PER_GAP points per gap between knots; the best grid
    point is then refined by a bounded scalar search between its neighbours.
    """
    pad = truncation_halfwidth(mech)
    edges = [knots[0] - pad, *knots, knots[-1] + pad]
    segments = [
        np.linspace(a, b, _GRID_PER_GAP, endpoint=False)
        for a, b in zip(edges, edges[1:])
    ]
    ys = np.concatenate(segments + [np.asarray([edges[-1]])])
    diffs = posterior_log_density_many(mech, p_i, ys) - posterior_log_density_many(
        mech, p_j, ys
    )
    best_idx = int(np.argmax(diffs))
    best = float(diffs[best_idx])

    log_p = _posterior_logpdf_fn(mech, p_i)
    log_q = _posterior_logpdf_fn(mech, p_j)
    left = float(ys[max(0, best_idx - 1)])
    right = float(ys[min(ys.size - 1, best_idx + 1)])
    if right > left:
        refined = minimize_scalar(
            lambda y: -(log_p(y) - log_q(y)),
            bounds=(left, right),
            method="bounded",
            options={"xatol": 1e-12 * max(1.0, abs(best))},
        )
        best = max(best, float(-refined.fun))
    return best


def renyi_divergence_discrete(
    p_i: DiscreteDistribution, p_j: DiscreteDistribution, alpha: float
) -> float:
    """Order-alpha divergence between two raw discrete distributions (no noise).

    This is the degenerate zero-parameter mechanism: infinite for orders
    above one as soon as the first distribution has an atom the second
    lacks.
    """
    if math.isnan(alpha) or alpha <= 0.0 or alpha == 1.0:
        raise InvalidValue(f"alpha must lie in (0,1) or (1,inf], got {alpha!r}")
    masses_j = dict(zip(p_j.atoms, p_j.masses))
    if math.isinf(alpha):
        worst = -math.inf
        for atom, mass in zip(p_i.atoms, p_i.masses):
            other = masses_j.get(atom, 0.0)
            if other == 0.0:
                return math.inf
            worst = max(worst, math.log(mass) - math.log(other))
        return max(worst, 0.0)
    if alpha > 1.0:
        logs = []
        for atom, mass in zip(p_i.atoms, p_i.masses):
            other = masses_j.get(atom, 0.0)
            if other == 0.0:
                return math.inf
            logs.append(alpha * math.log(mass) - (alpha - 1.0) * math.log(other))
    else:
        logs = [
            alpha * math.log(mass) + (1.0 - alpha) * math.log(masses_j[atom])
            for atom, mass in zip(p_i.atoms, p_i.masses)
            if atom in masses_j
        ]
        if not logs:
            return math.inf
    return _floor_rounding(float(log_sum_exp(np.array(logs))) / (alpha - 1.0))


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
    scenarios: ScenarioSet, mech: MechanismParams, spec: PrivacySpec
) -> list[VerificationReport]:
    """Check the divergence bound in both directions for every pair.

    The privacy definition quantifies over ordered pairs; the scenario set
    is treated as unordered and checked both ways. A pair passes when the
    larger direction stays within epsilon plus a 1e-6 numerical slack.
    """
    reports = []
    for index, pair in enumerate(scenarios.pairs):
        label = scenarios.label(index)
        try:
            div_ij = renyi_divergence_numeric(pair.p_i, pair.p_j, mech, spec.alpha)
            div_ji = renyi_divergence_numeric(pair.p_j, pair.p_i, mech, spec.alpha)
        except IntegrationFailure:
            reports.append(
                VerificationReport(
                    pair_index=index,
                    pair_label=label,
                    alpha=spec.alpha,
                    epsilon_target=spec.epsilon,
                    divergence_ij=math.nan,
                    divergence_ji=math.nan,
                    slack=math.nan,
                    passed=None,
                    inconclusive=True,
                )
            )
            continue
        worst = max(div_ij, div_ji)
        chernoff = (
            chernoff_breach_bound(worst, spec) if 1.0 < spec.alpha < math.inf else None
        )
        reports.append(
            VerificationReport(
                pair_index=index,
                pair_label=label,
                alpha=spec.alpha,
                epsilon_target=spec.epsilon,
                divergence_ij=div_ij,
                divergence_ji=div_ji,
                slack=spec.epsilon - worst,
                passed=worst <= spec.epsilon + PASS_SLACK,
                chernoff_bound=chernoff,
            )
        )
    return reports


def monte_carlo_breach(
    p_i: DiscreteDistribution,
    p_j: DiscreteDistribution,
    mech: MechanismParams,
    epsilon: float,
    n: int,
    seed: int,
) -> tuple[float, float]:
    """Empirical frequency of posterior likelihood ratios exceeding exp(epsilon).

    Draws X from the first prior, adds mechanism noise, and counts how
    often the posterior log-density ratio exceeds epsilon. Returns the
    estimate with a 95% normal-approximation half-width; deterministic for
    a fixed seed.
    """
    if n < 1000:
        raise InvalidValue(f"need at least 1000 samples for a stable estimate, got {n}")
    rng = np.random.default_rng(seed)
    xs = p_i.sample(rng, n)
    ys = xs + sample_noise(mech, rng, n)
    log_ratio = posterior_log_density_many(mech, p_i, ys) - posterior_log_density_many(
        mech, p_j, ys
    )
    estimate = float(np.count_nonzero(log_ratio > epsilon)) / n
    half_width = 1.96 * math.sqrt(estimate * (1.0 - estimate) / n)
    return estimate, half_width
