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

from .dist import (
    DiscreteDistribution,
    GaussianParams,
    MechanismParams,
    PrivacySpec,
    ScenarioSet,
    gaussian_tilted_log_sum,
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
# Monte Carlo breach classification (see _breach_intervals).
_CLASSIFY_ROUNDS = 64
_MIN_WIDTH = 2.0**-30
_MARGIN_ULPS = 64.0

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
        # Imported here: only Gaussian and custom-cost alpha = inf refine.
        from scipy.optimize import minimize_scalar

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
    mech: Optional[MechanismParams],
    epsilon: float,
    n: int,
    seed: int,
) -> tuple[float, float]:
    """Empirical frequency of posterior likelihood ratios exceeding exp(epsilon).

    Draws X from the first prior, adds mechanism noise, and counts how
    often the posterior log-density ratio log p(y) - log q(y) exceeds
    epsilon. Returns the estimate with a 95% normal-approximation
    half-width; deterministic for a fixed seed. mech=None is zero noise:
    a draw x breaches when log m_i(x) - log m_j(x) > epsilon, and an atom
    missing from the second prior always breaches.

    The count is the one that evaluating the log ratio at every draw
    gives, but for Laplace and Gaussian noise the ratio is evaluated only
    where interval bounds cannot decide (see _breach_intervals): the draws
    are sorted once, and those strictly inside an interval certified above
    or below epsilon are counted by a binary search of its edges. Draws in
    undecided intervals, draws exactly on an interval edge, and every draw
    of a custom-cost mechanism take the log ratio itself.
    """
    if n < 1000:
        raise InvalidValue(f"need at least 1000 samples for a stable estimate, got {n}")
    rng = np.random.default_rng(seed)
    xs = p_i.sample(rng, n)
    if mech is None:
        count = _count_raw_breaches(p_i, p_j, epsilon, xs)
    else:
        ys = sample_noise(mech, rng, n)
        ys += xs
        del xs
        count = _count_breaches(p_i, p_j, mech, epsilon, ys)
    estimate = float(count) / n
    half_width = 1.96 * math.sqrt(estimate * (1.0 - estimate) / n)
    return estimate, half_width


def _count_raw_breaches(
    p_i: DiscreteDistribution, p_j: DiscreteDistribution, epsilon: float, xs: np.ndarray
) -> int:
    """Zero-noise breaches: draws x of p_i with log m_i(x) - log m_j(x) > epsilon."""
    masses_j = dict(zip(p_j.atoms, p_j.masses))
    breaches = np.array([
        atom not in masses_j or math.log(mass) - math.log(masses_j[atom]) > epsilon
        for atom, mass in zip(p_i.atoms, p_i.masses)
    ])
    return int(np.count_nonzero(breaches[np.searchsorted(np.asarray(p_i.atoms), xs)]))


def _count_breaches(
    p_i: DiscreteDistribution,
    p_j: DiscreteDistribution,
    mech: MechanismParams,
    epsilon: float,
    ys: np.ndarray,
) -> int:
    """The number of draws ys with _log_ratio(ys) > epsilon, by interval classification.

    The draws are sorted once, in place; a certified interval's draws
    strictly inside it are a slice found by binary search of its edges,
    and every other draw (on an edge, or outside the certified intervals)
    takes _log_ratio.
    """
    if laplace_scale(mech) is None and not isinstance(mech, GaussianParams):
        return int(np.count_nonzero(_log_ratio(p_i, p_j, mech, ys) > epsilon))
    ys.sort()
    starts, ends, above = _breach_intervals(p_i, p_j, mech, epsilon, ys)
    first = np.searchsorted(ys, starts, side="right")
    last = np.searchsorted(ys, ends, side="left")
    certain = int(np.sum(last - first, where=above))
    rest = np.concatenate([
        ys[i:j] for i, j in zip((0, *last.tolist()), (*first.tolist(), ys.size))
    ])
    return certain + int(np.count_nonzero(_log_ratio(p_i, p_j, mech, rest) > epsilon))


def _breach_intervals(
    p_i: DiscreteDistribution,
    p_j: DiscreteDistribution,
    mech: MechanismParams,
    epsilon: float,
    ys: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Disjoint intervals of the draw range where log p - log q is certified against epsilon.

    A branch and bound on r(y) = log p(y) - log q(y) for Laplace or
    Gaussian noise; ys are the sorted draws. The draw range is first cut
    at every atom of either prior. Each round drops the intervals with no
    draw strictly inside, bounds r on the others (_log_ratio_bounds), and
        - certifies an interval above epsilon when the lower bound exceeds
          epsilon + margin, and below when the upper bound is under
          epsilon - margin;
        - leaves it undecided when both bounds lie within the margin of
          epsilon, where no narrower interval can decide either (a Laplace
          tail constant at epsilon is one), or when it is narrower than
          2^-30 max(1, |y|);
        - halves it otherwise.
    After _CLASSIFY_ROUNDS rounds, or once more than four times the
    initial intervals plus 64 are open, the open ones stay undecided. The
    margin covers the rounding of both the bound and _log_ratio, so a draw
    in a certified interval has _log_ratio > epsilon exactly when the
    interval is certified above. Returns (starts, ends, above) sorted by
    start; undecided intervals are not returned.

    For Gaussian noise, r - epsilon has at most as many zeros as the
    coefficients m_k - e^epsilon m'_k along the merged atoms have sign
    changes (Laguerre's rule of signs, Polya & Szego, Part V, problem 77),
    so only the intervals near those few crossings stay open for long.
    """
    knots = np.array(sorted(set(p_i.atoms) | set(p_j.atoms)))
    lo, hi = float(ys[0]), float(ys[-1])
    edges = np.concatenate(([lo], knots[(knots > lo) & (knots < hi)], [hi]))
    a, b = edges[:-1], edges[1:]
    most_open = 4 * a.size + 64
    starts, ends, above = [np.empty(0)], [np.empty(0)], [np.empty(0, dtype=bool)]
    for _ in range(_CLASSIFY_ROUNDS):
        occupied = np.searchsorted(ys, b, side="left") > np.searchsorted(ys, a, side="right")
        a, b = a[occupied], b[occupied]
        if a.size == 0 or a.size > most_open:
            break
        lower, upper, margin = _log_ratio_bounds(p_i, p_j, mech, a, b)
        high = lower > epsilon + margin
        certified = high | (upper < epsilon - margin)
        starts.append(a[certified])
        ends.append(b[certified])
        above.append(high[certified])
        banded = (lower >= epsilon - margin) & (upper <= epsilon + margin)
        narrow = b - a <= _MIN_WIDTH * np.maximum(1.0, np.maximum(np.abs(a), np.abs(b)))
        split = ~(certified | banded | narrow)
        a, b = a[split], b[split]
        mid = 0.5 * (a + b)
        a, b = np.concatenate((a, mid)), np.concatenate((mid, b))
    starts, ends, above = (np.concatenate(v) for v in (starts, ends, above))
    order = np.argsort(starts)
    return starts[order], ends[order], above[order]


def _log_ratio_bounds(
    p_i: DiscreteDistribution,
    p_j: DiscreteDistribution,
    mech: MechanismParams,
    a: np.ndarray,
    b: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Lower and upper bounds on log p - log q over each [a[k], b[k]], and a rounding margin.

    The intervals hold no atom of either prior inside.
    - Laplace noise: between adjacent atoms the ratio is monotone, and
      beyond the extreme atoms constant (see _sup_log_ratio), so the
      bounds are the smaller and larger of its two endpoint values.
    - Gaussian noise: log p - log q = G^p_c - G^q_c, convex functions of
      y tilted about the midpoint c (dist.gaussian_tilted_log_sum). A
      convex function lies under its chord and above its tangent, so
      chord(G^p) - tangent(G^q) bounds the ratio from above and
      tangent(G^p) - chord(G^q) from below; both are affine, so their
      extremes are at the endpoints.

    The margin is 64 u (M + L + n + |log s| + 3), u = 2^-53, where M is the
    largest exponent magnitude on the interval, D/s for Laplace(s) noise
    and (D/s)^2 for Gaussian(s), with D the largest distance from a point
    of the interval to an atom of either prior; L = max(-log mass) and n
    the two priors' atom count together. Each term bounds a rounding: of
    the exponents, of the logged masses and anchored sums, of the n-term
    sums, and of the noise's normalizer. Gaussian margins are further
    scaled by 1 + w D / s^2 for an interval of width w, since a rounding
    of the tangent's slope grows with the distance from c.
    """
    reach = np.maximum(
        b - min(p_i.min_atom, p_j.min_atom), max(p_i.max_atom, p_j.max_atom) - a
    )
    scale = laplace_scale(mech)
    if scale is not None:
        values = _log_ratio(p_i, p_j, mech, np.concatenate((a, b)))
        at_a, at_b = values[: a.size], values[a.size :]
        lower, upper = np.minimum(at_a, at_b), np.maximum(at_a, at_b)
        exponent = reach / scale
        spread = 1.0
    else:
        scale = mech.sigma
        c = 0.5 * (a + b)
        offsets = np.stack((a - c, np.zeros_like(c), b - c), axis=1)
        gp, slope_p = gaussian_tilted_log_sum(p_i, scale, c, offsets)
        gq, slope_q = gaussian_tilted_log_sum(p_j, scale, c, offsets)
        t_a, t_b = offsets[:, 0], offsets[:, 2]
        upper = np.maximum(
            gp[:, 0] - (gq[:, 1] + slope_q * t_a), gp[:, 2] - (gq[:, 1] + slope_q * t_b)
        )
        lower = np.minimum(
            gp[:, 1] + slope_p * t_a - gq[:, 0], gp[:, 1] + slope_p * t_b - gq[:, 2]
        )
        exponent = np.square(reach / scale)
        spread = 1.0 + (b - a) * reach / scale**2
    fixed = (
        3.0 - math.log(min(p_i.masses + p_j.masses))
        + len(p_i.atoms) + len(p_j.atoms) + abs(math.log(scale))
    )
    margin = _MARGIN_ULPS * 2.0**-53 * (fixed + exponent) * spread
    return lower, upper, margin
