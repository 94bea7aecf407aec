"""Independent numerical verification of calibrated mechanisms.

Calibration upper-bounds the order-alpha divergence via a transport
functional; this module recomputes the divergence itself by adaptive
quadrature of the noised posterior densities, so a passing check confirms
the calibration sufficiency with no shared code path. Every posterior
density here comes from dist.posterior_log_density_many, which the
quadrature (a vectorized Gauss-Legendre bisection) calls on arrays.
"""

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np
from scipy.optimize import minimize_scalar

from .dist import (
    DiscreteDistribution,
    GaussianParams,
    MechanismParams,
    PrivacySpec,
    ScenarioSet,
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
_MAX_ROUNDS = 60

# The 12-point Gauss-Legendre rule on [-1, 1], as numpy.polynomial.legendre
# .leggauss(12) returns it; a literal table, because computing it at import
# makes a LAPACK call that costs every command about 1 MB of peak memory.
_GL_NODES = np.array([
    -0.9815606342467192, -0.9041172563704748, -0.7699026741943047,
    -0.5873179542866175, -0.3678314989981802, -0.1252334085114689,
    0.1252334085114689, 0.3678314989981802, 0.5873179542866175,
    0.7699026741943047, 0.9041172563704748, 0.9815606342467192,
])
_GL_WEIGHTS = np.array([
    0.04717533638651141, 0.10693932599531907, 0.16007832854334642,
    0.20316742672306573, 0.2334925365383546, 0.2491470458134027,
    0.2491470458134027, 0.2334925365383546, 0.20316742672306573,
    0.16007832854334642, 0.10693932599531907, 0.04717533638651141,
])


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

    Finite orders integrate exp(alpha log p - (alpha - 1) log q) over a
    window, the union atom range padded by the noise truncation width plus
    the order-driven shift of the integrand's tail mode. The window is cut
    at every atom of either prior (the integrand has kinks there for
    Laplace-type noise) and integrated by _bisect_quadrature to
    max(1e-14, 1e-10 |integral|). alpha = inf takes the supremum of the
    log ratio (see _sup_log_ratio). Raises IntegrationFailure when the
    integrand overflows or the quadrature does not converge.
    """
    if math.isnan(alpha) or alpha <= 0.0 or alpha == 1.0:
        raise InvalidValue(f"alpha must lie in (0,1) or (1,inf], got {alpha!r}")
    if math.isinf(alpha):
        return _sup_log_ratio(p_i, p_j, mech)

    pad = truncation_halfwidth(mech) + abs(alpha - 1.0) * _cross_span(p_i, p_j)
    lo = min(p_i.min_atom, p_j.min_atom) - pad
    hi = max(p_i.max_atom, p_j.max_atom) + pad

    def integrand(ys: np.ndarray) -> np.ndarray:
        exponent = alpha * posterior_log_density_many(mech, p_i, ys)
        exponent -= (alpha - 1.0) * posterior_log_density_many(mech, p_j, ys)
        over = exponent > 700.0
        if over.any():
            y = float(ys[np.argmax(over)])
            raise IntegrationFailure(
                f"integrand overflow at y = {y!r}; the density ratio is too extreme"
            )
        return np.exp(exponent, out=exponent)

    points = sorted({a for a in (*p_i.atoms, *p_j.atoms) if lo < a < hi})
    integral = _bisect_quadrature(integrand, np.array([lo, *points, hi]))
    if not (math.isfinite(integral) and integral > 0.0):
        raise IntegrationFailure(f"quadrature returned {integral!r}")
    return _floor_rounding(math.log(integral) / (alpha - 1.0))


def _gauss_legendre(
    integrand: Callable[[np.ndarray], np.ndarray], a: np.ndarray, b: np.ndarray
) -> np.ndarray:
    """The 12-point Gauss-Legendre estimate on each segment [a[k], b[k]], in one call."""
    half = 0.5 * (b - a)
    ys = (0.5 * (a + b))[:, None] + half[:, None] * _GL_NODES
    return half * (integrand(ys.ravel()).reshape(ys.shape) @ _GL_WEIGHTS)


def _bisect_quadrature(
    integrand: Callable[[np.ndarray], np.ndarray], edges: np.ndarray
) -> float:
    """Integral over [edges[0], edges[-1]] of a vectorized integrand, by bisection.

    The segments start as the gaps between consecutive edges. Each round
    applies the 12-point rule to both halves of every open segment, in one
    integrand call, and takes err = |left + right - whole| per segment. It
    stops once the errors, closed segments' included, sum to at most
    tol = max(1e-14, 1e-10 |I|); otherwise it closes each segment whose
    err is at most tol * length / (hi - lo) and at most half its own value
    left + right, and halves the rest. After _MAX_ROUNDS rounds it raises
    IntegrationFailure. The integrand must be nonnegative.

    The second closing condition keeps unresolved segments open: a wide
    segment whose nodes all miss a sharp peak at its end can show an err
    within its share of tol that is nearly its whole value.
    """
    a, b = edges[:-1], edges[1:]
    span = edges[-1] - edges[0]
    whole = _gauss_legendre(integrand, a, b)
    closed = closed_err = 0.0
    for _ in range(_MAX_ROUNDS):
        mid = 0.5 * (a + b)
        halves = _gauss_legendre(integrand, np.concatenate((a, mid)), np.concatenate((mid, b)))
        left, right = halves[: a.size], halves[a.size :]
        both = left + right
        err = np.abs(both - whole)
        total = closed + float(both.sum())
        tol = max(1e-14, 1e-10 * abs(total))
        if closed_err + float(err.sum()) <= tol:
            return total
        done = (err <= tol * (b - a) / span) & (err <= 0.5 * both)
        closed += float(both[done].sum())
        closed_err += float(err[done].sum())
        split = ~done
        a, mid, b = a[split], mid[split], b[split]
        a, b = np.concatenate((a, mid)), np.concatenate((mid, b))
        whole = np.concatenate((left[split], right[split]))
    raise IntegrationFailure(f"quadrature did not converge in {_MAX_ROUNDS} rounds")


def _floor_rounding(value: float) -> float:
    """Divergences are nonnegative: a rounding residue just below 0 reads as 0."""
    return 0.0 if _NEGATIVE_FLOOR < value < 0.0 else value


def _log_ratio(
    p_i: DiscreteDistribution, p_j: DiscreteDistribution, mech: MechanismParams, ys: np.ndarray
) -> np.ndarray:
    """log p(y) - log q(y) at each point of ys."""
    return posterior_log_density_many(mech, p_i, ys) - posterior_log_density_many(mech, p_j, ys)


def _tail_log_ratio_limits(
    p_i: DiscreteDistribution, p_j: DiscreteDistribution, mech: MechanismParams
) -> Optional[list[float]]:
    """Limits of log p(y) - log q(y) as y -> +/- inf for Gaussian noise, else None.

    Each tail is dominated by the extreme atom; a strictly larger reach
    makes the ratio diverge. Limits tending to -inf are omitted since they
    never attain the supremum. (Laplace noise, every |z|-cost exponential
    mechanism included, never gets here: see _sup_log_ratio.)
    """
    if not isinstance(mech, GaussianParams):
        return None
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


def _sup_log_ratio(
    p_i: DiscreteDistribution, p_j: DiscreteDistribution, mech: MechanismParams
) -> float:
    """sup_y of log p(y) - log q(y), floored at 0.

    For Laplace noise the supremum is the largest of the ratios at the
    atoms of either prior: between adjacent atoms each posterior density
    is exp(-y/b) (A + B t) with t = exp(2y/b) and constants A, B >= 0, so
    the ratio (A1 + B1 t) / (A2 + B2 t) is monotone there, and beyond the
    extreme atoms it is constant. Other noise takes the maximum over a
    dense grid with a local refinement, plus the tail limits or, without a
    closed form, far probes.
    """
    knots = sorted(set(p_i.atoms) | set(p_j.atoms))
    if laplace_scale(mech) is not None:
        return max(float(np.max(_log_ratio(p_i, p_j, mech, np.asarray(knots)))), 0.0)

    best = _grid_max_log_ratio(p_i, p_j, mech, knots)
    limits = _tail_log_ratio_limits(p_i, p_j, mech)
    if limits is None:
        # No closed-form tails for this mechanism: probe geometrically far out.
        pad = truncation_halfwidth(mech)
        probes = []
        for k in range(8):
            offset = pad * (2.0**k)
            probes.extend((knots[0] - pad - offset, knots[-1] + pad + offset))
        best = max(best, float(np.max(_log_ratio(p_i, p_j, mech, np.asarray(probes)))))
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
    point is then refined by a bounded scalar search between its neighbours,
    which evaluates the same density kernel on one-point arrays.
    """
    pad = truncation_halfwidth(mech)
    edges = [knots[0] - pad, *knots, knots[-1] + pad]
    segments = [
        np.linspace(a, b, _GRID_PER_GAP, endpoint=False)
        for a, b in zip(edges, edges[1:])
    ]
    ys = np.concatenate(segments + [np.asarray([edges[-1]])])
    diffs = _log_ratio(p_i, p_j, mech, ys)
    best_idx = int(np.argmax(diffs))
    best = float(diffs[best_idx])

    left = float(ys[max(0, best_idx - 1)])
    right = float(ys[min(ys.size - 1, best_idx + 1)])
    if right > left:
        refined = minimize_scalar(
            lambda y: -float(_log_ratio(p_i, p_j, mech, np.array([y]))[0]),
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
    scenarios: ScenarioSet, mech: Optional[MechanismParams], spec: PrivacySpec
) -> list[VerificationReport]:
    """Check the divergence bound in both directions for every pair.

    The privacy definition quantifies over ordered pairs; the scenario set
    is treated as unordered and checked both ways. A pair passes when the
    larger direction stays within epsilon plus a 1e-6 numerical slack.
    mech=None is the zero-noise mechanism, whose divergences are those of
    the raw distributions (renyi_divergence_discrete). A pair whose
    quadrature fails is inconclusive: nan divergences and passed=None. The
    breach bound is given for 1 < alpha < inf when the larger direction is
    finite.
    """
    reports = []
    for index, pair in enumerate(scenarios.pairs):
        inconclusive = False
        try:
            if mech is None:
                div_ij = renyi_divergence_discrete(pair.p_i, pair.p_j, spec.alpha)
                div_ji = renyi_divergence_discrete(pair.p_j, pair.p_i, spec.alpha)
            else:
                div_ij = renyi_divergence_numeric(pair.p_i, pair.p_j, mech, spec.alpha)
                div_ji = renyi_divergence_numeric(pair.p_j, pair.p_i, mech, spec.alpha)
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
    log_ratio = _log_ratio(p_i, p_j, mech, ys)
    estimate = float(np.count_nonzero(log_ratio > epsilon)) / n
    half_width = 1.96 * math.sqrt(estimate * (1.0 - estimate) / n)
    return estimate, half_width
