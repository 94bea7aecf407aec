"""Independent numerical verification of calibrated mechanisms.

Calibration upper-bounds the order-alpha divergence via a transport
functional; this module recomputes the divergence itself by adaptive
quadrature of the noised posterior densities, so a passing check confirms
the calibration sufficiency with no shared code path. Every posterior
density here comes from dist.posterior_log_density_many, which the
quadrature (a vectorized Gauss-Legendre bisection) calls on arrays; the
two directions of a finite-order divergence share those calls and one set
of segments.
"""

import math
from dataclasses import dataclass
from typing import Callable, Generator, Optional

import numpy as np

from .dist import (
    DiscreteDistribution,
    GaussianParams,
    MechanismParams,
    PrivacySpec,
    ScenarioSet,
    _prior_arrays,
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
# Relative tolerance of the Gaussian alpha = inf supremum (see _gaussian_sup).
_SUP_RTOL = 1e-12
# Draws per step of monte_carlo_breach_steps: its index, noise and sum
# buffers, the settled-interval mask, and the sort buffer of the draws left
# after it.
_DRAW_CHUNK = 2**16

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
    mech: Optional[MechanismParams],
    alpha: float,
) -> float:
    """Order-alpha divergence D(p_i || p_j) between the noised posteriors of two priors.

    The first element of renyi_divergence_both_ways: both directions are
    integrated together, and this raises IntegrationFailure when either
    one fails.
    """
    return renyi_divergence_both_ways(p_i, p_j, mech, alpha)[0]


def renyi_divergence_both_ways(
    p_i: DiscreteDistribution,
    p_j: DiscreteDistribution,
    mech: Optional[MechanismParams],
    alpha: float,
) -> tuple[float, float]:
    """D(p_i || p_j) and D(p_j || p_i) from one set of posterior densities.

    Finite orders integrate f = exp(alpha log p - (alpha - 1) log q) for
    both directions in one _bisect_quadrature, to 1e-10 |I| each, in the
    log domain: I = e^shift sum, so D = (shift + log sum) / (alpha - 1) is
    finite for any (alpha - 1) D. The window and its cuts are symmetric
    in the priors, so swapping them swaps the results bit for bit.

    - Laplace-type noise (laplace_scale(mech) = b): past the extreme atom
      A of either prior both posteriors are one exponential in y with
      rate 1/b, so f is too, and its tail beyond A is exactly b f(A). The
      window is the atom hull, cut at every atom (f has kinks there), and
      the two tails b (f(hull_lo) + f(hull_hi)) are added in closed form;
      the tolerance is taken on hull plus tails. Scales too narrow for
      the float spacing at the atoms raise IntegrationFailure: the nodes'
      rounding would read the peaks wrong.
    - Other noise: the window is the union atom range padded by the noise
      truncation width plus the order-driven shift of the integrand's
      tail mode. Custom costs cut it at every atom. Gaussian integrands
      are analytic, with log-curvature at most about (2 alpha - 1) /
      sigma^2, so the window is cut by _cuts at the scale h = sigma /
      sqrt(max(1, 2 alpha - 1)): atoms closer together than h share a
      segment. The divergence then differs from the one on every-atom
      cuts by at most the quadrature's tolerance carried to D, 1e-10 /
      |alpha - 1|.
    - A gap between atoms too wide for the first round to see its peaks
      is also cut at 40 b (Laplace-type) or 12 sigma (Gaussian) inside
      each end that is an atom (_cut_wide_gaps).

    mech=None is the zero-noise mechanism: both directions are those of
    the raw distributions (renyi_divergence_discrete). alpha = inf takes
    the supremum of the log ratio, one direction at a time (see
    _sup_log_ratio). Raises IntegrationFailure when the log integrand is
    nan or +inf (a posterior density underflows to 0), the quadrature does
    not converge or returns 0, or D plus the quadrature's tolerance
    carried to D is still below 0 by more than 1e-8 (D >= 0 exactly, so
    the nodes missed part of the integrand).
    """
    if math.isnan(alpha) or alpha <= 0.0 or alpha == 1.0:
        raise InvalidValue(f"alpha must lie in (0,1) or (1,inf], got {alpha!r}")
    if mech is None:
        return renyi_divergence_discrete(p_i, p_j, alpha), renyi_divergence_discrete(p_j, p_i, alpha)
    if p_i == p_j:
        # Identical priors have identical posteriors; quadrature would
        # leave a rounding residue of a few ulps in place of the exact 0.
        return 0.0, 0.0
    if math.isinf(alpha):
        return _sup_log_ratio(p_i, p_j, mech), _sup_log_ratio(p_j, p_i, mech)

    lo = min(p_i.min_atom, p_j.min_atom)
    hi = max(p_i.max_atom, p_j.max_atom)
    tail_scale = laplace_scale(mech)
    if tail_scale is None:
        pad = truncation_halfwidth(mech) + abs(alpha - 1.0) * _cross_span(p_i, p_j)
        lo -= pad
        hi += pad
    _require_midpoints(lo, hi)

    def densities(ys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        return (
            posterior_log_density_many(mech, p_i, ys),
            posterior_log_density_many(mech, p_j, ys),
        )

    def log_integrand_ij(ys: np.ndarray, log_p: np.ndarray, log_q: np.ndarray) -> np.ndarray:
        # A density underflowed to 0: nan (both) or +inf (q alone), past any shift.
        with np.errstate(over="ignore", invalid="ignore"):
            exponent = alpha * log_p
            exponent -= (alpha - 1.0) * log_q
        bad = ~(exponent < math.inf)
        if bad.any():
            k = int(np.argmax(bad))
            raise IntegrationFailure(f"log integrand is {exponent[k]} at y = {ys[k]}; a density underflows")
        return exponent

    def log_integrand_ji(ys: np.ndarray, log_q: np.ndarray, log_p: np.ndarray) -> np.ndarray:
        return log_integrand_ij(ys, log_p, log_q)

    atoms = np.array(sorted({*p_i.atoms, *p_j.atoms}))
    points = atoms[(lo < atoms) & (atoms < hi)]
    # Gaussian integrands are analytic; other noise has kinks at the atoms.
    if isinstance(mech, GaussianParams):
        width = mech.sigma / math.sqrt(max(1.0, 2.0 * alpha - 1.0))
        peak_scale = mech.sigma
    else:
        width, peak_scale = 0.0, tail_scale
    edges = _cuts(points, lo, hi, width)
    if tail_scale is not None:
        # Rounding moves a node y by up to about u |y|, and log f by up to
        # (alpha + |alpha - 1|) / b times that; past 1e-8 the halvings stop
        # lowering the errors at the atoms' peaks, and the ones that still
        # close read the peaks wrong.
        if (alpha + abs(alpha - 1.0)) * 2.0**-53 * max(abs(lo), abs(hi)) > 1e-8 * tail_scale:
            raise IntegrationFailure(
                f"Laplace scale {tail_scale!r} is too narrow for the float spacing at the atoms"
            )
    if peak_scale is not None:
        edges = _cut_wide_gaps(edges, atoms, peak_scale, truncation_halfwidth(mech))
    divergences = []
    integrals = _bisect_quadrature(densities, [log_integrand_ij, log_integrand_ji], edges, tail_scale)
    for integral, shift in integrals:
        if not (math.isfinite(integral) and integral > 0.0):
            raise IntegrationFailure(f"quadrature returned {integral!r}")
        divergence = (shift + math.log(integral)) / (alpha - 1.0)
        # D >= 0. When even D plus the quadrature's tolerance carried to D
        # lies below the rounding floor, the nodes missed part of the integrand.
        if divergence + 1e-10 / abs(alpha - 1.0) < _NEGATIVE_FLOOR:
            raise IntegrationFailure(f"quadrature gave a negative divergence {divergence!r}")
        divergences.append(_floor_rounding(divergence))
    return divergences[0], divergences[1]


def _cut_wide_gaps(edges: np.ndarray, knots: np.ndarray, scale: float, reach: float) -> np.ndarray:
    """The sorted edges, with every gap too wide for its peaks also cut at reach inside each knot end.

    The integrand peaks at the atoms (the knots), falling within a few
    noise scales b (sigma for Gaussian noise) of each. The first round's
    halves of a gap g put their outermost nodes (1 - x_12) g / 4 = 0.0046
    g inside its ends; past about 23 b no error estimate sees the peaks,
    and the gap closes without them (Laplace noise on atoms 0 and 1 read
    D = 0.3285 for 1.0217 from b = 1e-4 down). A gap whose outermost
    nodes lie more than 10 b inside is cut at reach =
    truncation_halfwidth(mech) (40 b, or 12 sigma) from each end that is
    a knot, where the peaks have fallen past the noise truncation. The
    padded Gaussian window's own ends are not cut: the extreme
    order-shifted mode sits exactly 12 sigma inside them. Narrower gaps
    keep their edges, and their integrals every bit.
    """
    wide = (1.0 - _GL_NODES[-1]) / 4.0 * np.diff(edges) > 10.0 * scale
    if not wide.any():
        return edges
    at_knot = np.isin(edges, knots)
    inner = (edges[:-1][wide & at_knot[:-1]] + reach, edges[1:][wide & at_knot[1:]] - reach)
    return np.sort(np.concatenate((edges, *inner)))


def _cuts(knots: np.ndarray, lo: float, hi: float, h: float) -> np.ndarray:
    """Edges [lo, *kept knots, hi] that cut the window (lo, hi) at the sorted knots inside it.

    A knot is kept when it lies at least h past the last kept cut (lo at
    first), or when the next knot (hi after the last) lies at least h past
    it. A dropped knot is within h of the cut before it and of the one
    after, so every segment with a knot inside is narrower than 2h; a gap
    of at least h between knots stays a segment of its own. h = 0 keeps
    every knot.
    """
    wide_after = (np.append(knots[1:], hi) - knots >= h).tolist()
    kept = [lo]
    for knot, wide in zip(knots.tolist(), wide_after):
        if wide or knot - kept[-1] >= h:
            kept.append(knot)
    kept.append(hi)
    return np.array(kept)


_Integrand = Callable[..., np.ndarray]
_Segments = tuple[np.ndarray, np.ndarray]


def _gauss_legendre(
    densities: Callable[[np.ndarray], tuple[np.ndarray, ...]],
    integrands: list[_Integrand],
    segments: list[_Segments],
    shifts: list[float],
    points: Optional[np.ndarray] = None,
) -> tuple[list[list[np.ndarray]], list[float]]:
    """The 12-point Gauss-Legendre estimates of each integrand on each segment set, and its shift.

    Each set is a pair (a, b) of arrays standing for the segments
    [a[i], b[i]]. Integrand k returns log values t = integrands[k](ys,
    *densities(ys)) and gets one array of estimates of exp(t - s) per set
    (with points, one more array holds exp(t - s) there). s is its new
    shift, the largest of shifts[k] and every t: -inf while every t so far
    is, and then the estimates are 0. One densities call serves every set, on
    their nodes concatenated. The densities are elementwise in ys, and
    each set is evaluated and reduced on its own, at the shape it has
    alone (a concatenated matmul is not bit for bit the same), so each
    estimate is the one a call on that set's nodes alone gives at the
    same shift.
    """
    groups = [_nodes(a, b) for a, b in segments]
    if points is not None:
        groups.append((None, points))
    flat = [ys for _, ys in groups]
    values = densities(flat[0] if len(flat) == 1 else np.concatenate(flat))
    stops = np.cumsum([ys.size for ys in flat]).tolist()
    estimates, new_shifts = [], []
    for integrand, shift in zip(integrands, shifts):
        logs = [integrand(ys, *(v[stop - ys.size : stop] for v in values))
                for ys, stop in zip(flat, stops)]
        shift = max([shift] + [float(t.max()) for t in logs])
        out = []
        for (half, _), t in zip(groups, logs):
            if shift > -math.inf:
                t -= shift
            f = np.exp(t, out=t)
            if half is not None:
                f = half * (f.reshape(half.size, _GL_NODES.size) @ _GL_WEIGHTS)
            out.append(f)
        estimates.append(out)
        new_shifts.append(shift)
    return estimates, new_shifts


def _nodes(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Half-lengths of the segments [a[k], b[k]] and their 12 nodes each, flattened."""
    half = 0.5 * (b - a)
    return half, ((0.5 * (a + b))[:, None] + half[:, None] * _GL_NODES).ravel()


def _bisect_quadrature(
    densities: Callable[[np.ndarray], tuple[np.ndarray, ...]],
    integrands: list[_Integrand],
    edges: np.ndarray,
    tail_scale: Optional[float] = None,
) -> list[tuple[float, float]]:
    """Integrals over [edges[0], edges[-1]] of the exponentials of vectorized log integrands.

    Each integrand is called as t = f(ys, *densities(ys)) and returns the
    log of its values, below +inf. Its integral I comes back as (sum,
    shift), I = e^shift sum: the sums are of exp(t - shift), where shift
    starts at -inf and is the largest t seen so far (_gauss_legendre), so
    no node's value overflows or, at the peak, underflows, at any scale of
    t. When it rises from s to s', all that was summed at s (closed sums
    and errors, tails, the last whole-segment estimates) is rescaled by
    exp(s - s').

    The integrands share one set of open segments, which starts as the
    gaps between consecutive edges. Each round applies the 12-point rule
    to both halves of every open segment, in one densities call for all
    integrands still open (see _gauss_legendre), and each of them takes
    err = |left + right - whole| per segment. An integrand stops once its
    errors, closed segments' included, sum to at most its own tol = 1e-10
    sum, and is not called again. A segment closes when, for every
    integrand still open, its err is at most tol * length / (edges[-1] -
    edges[0]) and at most half its own value left + right; each integrand
    then adds its estimate and err there to its own closed sums. The other
    segments are halved. After _MAX_ROUNDS rounds, or once more than 16
    times the starting segments plus 1024 would be open, it raises
    IntegrationFailure: the errors have met a rounding floor that no
    halving lowers, and the open segments would double every round until
    memory runs out. (Over the tests and the commands of
    scripts/compare_stdout.py, at most 23 times the starting segments, and
    never more than 828, were open.) It raises it too when every segment
    closes while an integrand's errors, summed under earlier rounds'
    tolerances, still exceed its own: halving has reached the float
    spacing, and no segment is left to halve.

    Integrands that read the same densities, like the two directions of a
    divergence, share every densities call, and each meets its own
    tolerance on segments at least as fine as it would close alone.

    With tail_scale b, I also holds the tails b (f(edges[0]) +
    f(edges[-1])), which is the exact integral past the edges of an f
    that decays like exp(-|y|/b) there (Laplace-type noise past the atom
    hull); the tolerance is taken on that whole I.

    The first round takes the whole segments, their halves and, with
    tail_scale, the two edges in one densities call, each reduced on its
    own as a separate round would, so the integrals are bit for bit those
    of a separate first round. Segments that converge in their first
    halving (as Laplace-type hulls cut at every atom usually do) then cost
    one density call in all: on the benchmark's verify-grid scenario a
    Laplace-type divergence makes one density call per prior, and a
    Gaussian one 3.1 on average.

    The second closing condition keeps unresolved segments open: a wide
    segment whose nodes all miss a sharp peak at its end can show an err
    within its share of tol that is nearly its whole value.
    """
    a, b = edges[:-1], edges[1:]
    span = edges[-1] - edges[0]
    most_open = 16 * a.size + 1024
    closed = [0.0] * len(integrands)
    closed_err = [0.0] * len(integrands)
    shifts = [-math.inf] * len(integrands)
    values: list[Optional[tuple[float, float]]] = [None] * len(integrands)
    wholes: list[np.ndarray] = []
    ends = None if tail_scale is None else edges[[0, -1]]
    for round_index in range(_MAX_ROUNDS):
        live = [k for k, value in enumerate(values) if value is None]
        mid = 0.5 * (a + b)
        halves = (np.concatenate((a, mid)), np.concatenate((mid, b)))
        first = round_index == 0
        estimates, new_shifts = _gauss_legendre(
            densities, [integrands[k] for k in live],
            [(a, b), halves] if first else [halves], [shifts[k] for k in live],
            ends if first else None,
        )
        for j, (k, shift) in enumerate(zip(live, new_shifts)):
            if shift != shifts[k]:
                rescale = math.exp(shifts[k] - shift)
                closed[k] *= rescale
                closed_err[k] *= rescale
                if wholes:
                    wholes[j] *= rescale
                shifts[k] = shift
        if first:
            # Every integrand is live: the whole segments' estimates, then
            # the tails from the values at the two edges.
            wholes = [estimate.pop(0) for estimate in estimates]
            if ends is not None:
                for k, estimate in enumerate(estimates):
                    f_lo, f_hi = estimate.pop().tolist()
                    closed[k] = tail_scale * (f_lo + f_hi)
        done = np.ones(a.size, dtype=bool)
        open_parts = []
        for k, whole, (on_halves,) in zip(live, wholes, estimates):
            left, right = on_halves[: a.size], on_halves[a.size :]
            both = left + right
            err = np.abs(both - whole)
            total = closed[k] + float(both.sum())
            tol = 1e-10 * total
            if closed_err[k] + float(err.sum()) <= tol:
                values[k] = (total, shifts[k])
                continue
            # The share (b - a) / span first: tol (b - a) overflows once
            # sigma passes about 1e160.
            done &= (err <= tol * ((b - a) / span)) & (err <= 0.5 * both)
            open_parts.append((k, left, right, both, err))
        if not open_parts:
            return values
        split = ~done
        wholes = []
        for k, left, right, both, err in open_parts:
            closed[k] += float(both[done].sum())
            closed_err[k] += float(err[done].sum())
            wholes.append(np.concatenate((left[split], right[split])))
        a, b = a[split], b[split]
        if not 0 < 2 * a.size <= most_open:
            raise IntegrationFailure(
                f"quadrature did not converge: {2 * a.size} segments open in round {round_index + 2}"
            )
        mid = 0.5 * (a + b)
        a, b = np.concatenate((a, mid)), np.concatenate((mid, b))
    raise IntegrationFailure(f"quadrature did not converge in {_MAX_ROUNDS} rounds")


def _floor_rounding(value: float) -> float:
    """Divergences are nonnegative: a rounding residue just below 0 reads as 0."""
    return 0.0 if _NEGATIVE_FLOOR < value < 0.0 else value


def _log_ratio(
    p_i: DiscreteDistribution, p_j: DiscreteDistribution, mech: MechanismParams, ys: np.ndarray
) -> np.ndarray:
    """log p(y) - log q(y) at each point of ys."""
    return posterior_log_density_many(mech, p_i, ys) - posterior_log_density_many(mech, p_j, ys)


def _sup_log_ratio(p: DiscreteDistribution, q: DiscreteDistribution, mech: MechanismParams) -> float:
    """sup_y of log p(y) - log q(y), floored at 0; for Gaussian noise an upper bound on it.

    For Laplace noise the supremum is the largest of the ratios at the
    atoms of either prior: between adjacent atoms each posterior density
    is exp(-y/b) (A + B t) with t = exp(2y/b) and constants A, B >= 0, so
    the ratio (A1 + B1 t) / (A2 + B2 t) is monotone there, and beyond the
    extreme atoms it is constant. Gaussian noise takes the bound of
    _gaussian_sup's branch and bound, certified on the whole line, so a
    row is judged on an upper bound of D_inf: the largest value found can
    fall short of it where rounding hides the ratio (at sigma = 1e-9 on
    atoms 2 apart it reads 0 where D_inf is log(4/3)). Custom costs take
    the maximum over a dense grid with a local refinement, plus far
    probes.
    """
    knots = sorted(set(p.atoms) | set(q.atoms))
    if laplace_scale(mech) is not None:
        return max(float(np.max(_log_ratio(p, q, mech, np.asarray(knots)))), 0.0)
    if isinstance(mech, GaussianParams):
        return _gaussian_sup(p, q, mech)[1]

    grid = _dense_grid(mech, knots)
    # No closed-form tails for a custom cost: probe geometrically far out.
    pad = truncation_halfwidth(mech)
    probes = []
    for k in range(8):
        offset = pad * (2.0**k)
        probes.extend((knots[0] - pad - offset, knots[-1] + pad + offset))
    return max(
        _grid_max_log_ratio(p, q, mech, grid, _log_ratio(p, q, mech, grid)),
        float(np.max(_log_ratio(p, q, mech, np.asarray(probes)))),
        0.0,
    )


def _gaussian_sup(
    p: DiscreteDistribution, q: DiscreteDistribution, mech: GaussianParams
) -> tuple[float, float]:
    """(sup, bound) for r = log p - log q under Gaussian noise.

    sup is the largest value of r found, floored at 0, and bound a
    certified upper bound on r over the whole line: the largest upper
    bound plus rounding margin of the intervals and tails that settled,
    capped at s + 64 u _fixed_rounding for s = max_a log(m_p(a) / m_q(a)),
    the discrete supremum: p(y) <= e^s q(y) term by term. Unless the
    search reaches _refine's cap on open intervals, bound <= sup +
    _sup_tolerance(sup) + margin. Both are +inf when p has an atom past
    q's extreme one on either side.

    - Window: _breach_intervals' (_window), the atom range padded by
      12 sigma and cut at the noise scale, bounded by _log_ratio_bounds.
      Each round (_refine) bounds r on the open intervals and evaluates
      it at their midpoints; the largest value so far is the incumbent,
      which starts at 0 and the tail limits. An interval whose upper bound
      plus margin is below the incumbent is pruned, one whose upper bound
      is within _sup_tolerance(incumbent) of it is settled, and the rest
      are halved. (Settling within the margin instead would let the
      incumbent stop up to the margin, often 1e-11, short of the maximum.)
    - Tails: past the window each half-line is bounded by a constant
      (_gaussian_tail_bound) that falls to the limit of r there,
      log(m_p / m_q) at equal extreme atoms, or to -inf. Until that
      constant is within the tolerance plus its margin of the incumbent
      (0 or the tail limits), the window is widened geometrically
      (_tail_doublings): the segment from reach e to 2e past the extreme
      knot joins the search, and the tail starts at 2e. _log_ratio_bounds
      bounds the window and these segments alike.

    Where r stays just below the incumbent over a long stretch (nearly
    equal priors, or r creeping up to its limit along a tail, where its
    gap to the limit shrinks like e^-2t and the bounds' slack like
    e^-t w^2), every interval there stays open until very narrow. Each
    open interval is ranked by its upper bound plus margin, so at
    _refine's cap the ones that bound r highest are halved, and the
    bounds of every interval _refine returns join the certificate as
    they are. sup is still the largest value found, and bound is then
    looser than the tolerance. Raises IntegrationFailure when a tail does
    not settle (_tail_doublings).
    """
    if p.max_atom > q.max_atom or p.min_atom < q.min_atom:
        return math.inf, math.inf
    # r tends to log(m_p / m_q) past equal extreme atoms, and sup r >= 0.
    best = max([0.0] + [
        math.log(p.masses[k]) - math.log(q.masses[k])
        for k in (0, -1) if p.atoms[k] == q.atoms[k]
    ])
    knots, a, b = _window(p, q, mech)
    pad = truncation_halfwidth(mech)
    bound = -math.inf
    far_a, far_b = [], []
    for edge, side in ((float(knots[0]), -1.0), (float(knots[-1]), 1.0)):
        doublings, tail = _tail_doublings(p, q, mech.sigma, side, pad, best)
        bound = max(bound, tail)
        # Segment k spans reach pad 2^k to pad 2^(k+1) past the extreme knot.
        for k in range(doublings):
            inner, outer = edge + side * pad * 2.0**k, edge + side * pad * 2.0 ** (k + 1)
            far_a.append(min(inner, outer))
            far_b.append(max(inner, outer))
    a = np.concatenate((a, far_a))
    b = np.concatenate((b, far_b))

    def ceiling(upper, margin):
        # At a vanishing sigma an upper bound of -inf can meet an inf
        # margin: the nan prunes nothing, and certify reads it as inf.
        with np.errstate(invalid="ignore"):
            return upper + margin

    def certify(up):
        nonlocal bound
        if up.size:
            worst = float(np.max(up))
            bound = math.inf if math.isnan(worst) else max(bound, worst)

    def settle(a, b, lower, upper, margin, _, values):
        nonlocal best
        best = max(best, float(np.fmax.reduce(values)))
        up = ceiling(upper, margin)
        pruned = up < best
        settled = ~pruned & (upper <= best + _sup_tolerance(best))
        certify(up[settled])
        return np.where(pruned | settled, -math.inf, up)

    a, b = _refine(a, b, lambda a, b: _log_ratio_bounds(p, q, mech, a, b), settle)
    if a.size:
        _, upper, margin, _, _ = _log_ratio_bounds(p, q, mech, a, b)
        certify(ceiling(upper, margin))
    cap_margin = _MARGIN_ULPS * 2.0**-53 * _fixed_rounding(p, q, mech.sigma)
    return best, max(best, min(bound, renyi_divergence_discrete(p, q, math.inf) + cap_margin))


def _sup_tolerance(best: float) -> float:
    return _SUP_RTOL * max(1.0, abs(best))


def _tail_doublings(
    p: DiscreteDistribution,
    q: DiscreteDistribution,
    sigma: float,
    side: float,
    pad: float,
    incumbent: float,
) -> tuple[int, float]:
    """(k, bound): past reach pad 2^k of q's extreme atom on side, r is within tolerance of the incumbent.

    k is the fewest doublings of the reach after which _gaussian_tail_bound
    is within _sup_tolerance(incumbent) plus its margin of the incumbent,
    and bound is that bound plus its margin. The bound falls to the limit
    of r on that side as the reach grows, and the incumbent is at least
    that limit, so k is finite: about log2(sigma / d) plus a few, for d
    the distance from the extreme atom to p's nearest other one. Raises
    IntegrationFailure when the reach, in units of sigma, leaves the
    float range first, as it does for a sigma near 1e154 or more against
    atoms a unit apart, or for atoms 5e-324 apart at sigma 1e-12.
    """
    reach, k = pad, 0
    while math.isfinite(reach / sigma):
        tail, margin = _gaussian_tail_bound(p, q, sigma, side, reach)
        if tail <= incumbent + _sup_tolerance(incumbent) + margin:
            return k, tail + margin
        reach *= 2.0
        k += 1
    raise IntegrationFailure("alpha = inf tail bound does not settle within the float range")


def _gaussian_tail_bound(
    p: DiscreteDistribution, q: DiscreteDistribution, sigma: float, side: float, reach: float
) -> tuple[float, float]:
    """A bound on log p - log q for Gaussian noise past q's extreme atom on side, and its margin.

    side = 1 takes y >= B + reach with B = q's largest atom, side = -1
    y <= B - reach with B its smallest; p has no atom past B. With
    d_i = |a_i - B| for p's atoms and t = |y - B| >= reach,
    (y - a_i)^2 - (y - B)^2 = d_i (2 t + d_i), and q(y) >= m^q_B phi(y - B),
    so
        log p(y) - log q(y) <= log sum_i m_i exp(-d_i (2 reach + d_i) / 2 sigma^2) - log m^q_B.
    This is p's tilted sum at the window edge B + reach less the extreme
    term of q's, with the common (y - B)^2 / 2 sigma^2 taken out exactly:
    every exponent is at most 0. As the reach grows it falls to
    log(m^p_B / m^q_B) when p has an atom at B, and to -inf otherwise.
    The margin is _log_ratio_bounds' with M the smallest exponent
    magnitude: the rounding of a term e^-x below the largest one is
    damped by that factor.
    """
    atoms, log_masses = _prior_arrays(p)
    k = -1 if side > 0.0 else 0
    # In units of sigma, so that no sigma^2 or 2 reach leaves the float
    # range at extreme scales (an inf there would read as a settled tail);
    # a distance d past the float range, in units of sigma, is one whose
    # term is exactly 0.
    with np.errstate(over="ignore"):
        d = side * (q.atoms[k] - atoms) / sigma
        x = d * (reach / sigma) + 0.5 * d * d
    value = float(log_sum_exp(log_masses - x)) - math.log(q.masses[k])
    return value, _MARGIN_ULPS * 2.0**-53 * (_fixed_rounding(p, q, sigma) + float(x.min()))


def _dense_grid(mech: MechanismParams, knots: list[float]) -> np.ndarray:
    """_GRID_PER_GAP points per gap between knots, on the knot range padded by the noise width."""
    pad = truncation_halfwidth(mech)
    edges = [knots[0] - pad, *knots, knots[-1] + pad]
    segments = [
        np.linspace(a, b, _GRID_PER_GAP, endpoint=False)
        for a, b in zip(edges, edges[1:])
    ]
    return np.concatenate(segments + [np.asarray([edges[-1]])])


def _grid_max_log_ratio(
    p_i: DiscreteDistribution,
    p_j: DiscreteDistribution,
    mech: MechanismParams,
    ys: np.ndarray,
    diffs: np.ndarray,
) -> float:
    """Max of log p(y) - log q(y), given its values diffs on the grid ys (_dense_grid).

    The best grid point is refined by a golden-section search between its
    neighbours (_golden_section_max, to xatol = 1e-12 max(1, |best|)),
    which evaluates the same density kernel on one-point arrays; the
    result is never below the grid's own maximum.
    """
    best_idx = int(np.argmax(diffs))
    best = float(diffs[best_idx])

    left = float(ys[max(0, best_idx - 1)])
    right = float(ys[min(ys.size - 1, best_idx + 1)])
    if right > left:
        refined = _golden_section_max(
            lambda y: float(_log_ratio(p_i, p_j, mech, np.array([y]))[0]),
            left, right, 1e-12 * max(1.0, abs(best)),
        )
        best = max(best, refined)
    return best


_INV_PHI = 0.5 * (math.sqrt(5.0) - 1.0)


def _golden_section_max(f: Callable[[float], float], lo: float, hi: float, xatol: float) -> float:
    """The largest value of f seen by a golden-section search for its maximum on [lo, hi].

    The bracket shrinks by 1/phi per evaluation until it is at most xatol
    wide, or until its inner points no longer lie strictly inside it (at
    the float spacing of the bracket). Each step keeps the side of the
    larger inner value, so for f unimodal on [lo, hi] the maximizer stays
    in the bracket (Kiefer 1953).
    """
    x1 = hi - _INV_PHI * (hi - lo)
    x2 = lo + _INV_PHI * (hi - lo)
    f1, f2 = f(x1), f(x2)
    best = max(f1, f2)
    while hi - lo > xatol and lo < x1 < x2 < hi:
        if f1 >= f2:
            hi, x2, f2 = x2, x1, f1
            x1 = hi - _INV_PHI * (hi - lo)
            f1 = f(x1)
            best = max(best, f1)
        else:
            lo, x1, f1 = x1, x2, f2
            x2 = lo + _INV_PHI * (hi - lo)
            f2 = f(x2)
            best = max(best, f2)
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


_Intervals = tuple[np.ndarray, np.ndarray, np.ndarray]


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
    missing from the second prior always breaches. Raises MemoryError
    when n indices do not fit in memory. It runs the steps of
    monte_carlo_breach_steps, which says how the draws are made and
    counted, one after another.
    """
    steps = monte_carlo_breach_steps(p_i, p_j, mech, epsilon, n, seed)
    try:
        while True:
            next(steps)
    except StopIteration as stop:
        return stop.value


def monte_carlo_breach_steps(
    p_i: DiscreteDistribution,
    p_j: DiscreteDistribution,
    mech: Optional[MechanismParams],
    epsilon: float,
    n: int,
    seed: int,
) -> Generator[None, None, tuple[float, float]]:
    """monte_carlo_breach as a coroutine that yields before each chunk of draws.

    Its first step sets up: it checks n, classifies the pair, and
    allocates, untouched, a buffer for n indices
    (DiscreteDistribution.index_buffer), so that an n whose indices do not
    fit raises MemoryError as when they were held at once. Each further
    step draws and counts one chunk of _DRAW_CHUNK draws, and the last
    returns (estimate, half_width). A caller can interleave the steps of
    many pairs (cli._concurrent_outcomes); every chunk reads only its
    pair's own generators.

    The draws are those of atoms[p_i.sample_indices(rng, n)] followed by
    one sample_noise(mech, rng, n) on rng = default_rng(seed), but no
    n-sized array is ever held. Each chunk draws its atom indices from a
    second default_rng(seed), which replays the index stream, and its
    noise from rng advanced past that stream: the n indices read n
    uniforms, one 64-bit PCG64 output each, so rng.bit_generator
    .advance(n) leaves rng where drawing them would. Each chunk gets its
    atoms added and is counted (_count_breaches) against intervals
    classified once for the pair (_breach_intervals): draws inside the
    widest certified interval by two comparisons, the rest sorted and
    binary-searched against the other intervals' edges, so the count is
    the one that evaluating the log ratio at every draw gives. Draws
    outside the certified intervals' interiors, and every draw of a
    custom-cost mechanism, take the log ratio itself.

    When a draw's class depends on its atom alone, each chunk's indices
    are looked up in a per-atom breach table instead, and no noise is
    drawn: the noise is the last use of the generator, so the count is
    unchanged. Zero noise always has such a table (_raw_breach_table).
    Laplace-type noise has one when every atom's draws land strictly
    inside a single certified interval (_settled_breach_table): numpy's
    draws reach at most 53 ln 2 b from their atom, inside the 40 b
    padding of the classifier's window, so at the calibrated scales of
    the breach-mc pairs one interval across the window settles every
    draw. Gaussian draws reach about 13.7 sigma, past the 12 sigma
    window, and always take the noise.

    When that table gives every atom the same class, nothing is drawn, no
    generator is made and there is no further step: the count is n or 0
    whatever the draws, so the estimate is the same for every seed. The
    classification never reads the generator, so the table is built
    first.
    """
    if n < 1000:
        raise InvalidValue(f"need at least 1000 samples for a stable estimate, got {n}")
    intervals = table = None
    if mech is None:
        table = _raw_breach_table(p_i, p_j, epsilon)
    elif laplace_scale(mech) is not None or isinstance(mech, GaussianParams):
        intervals = _breach_intervals(p_i, p_j, mech, epsilon, n)
        table = _settled_breach_table(p_i, mech, intervals)
    p_i.index_buffer(n)  # the n indices must fit, as when they were held at once
    if table is not None and (table.all() or not table.any()):
        count = n if table[0] else 0
    else:
        index_rng = np.random.default_rng(seed)
        if table is None:
            noise_rng = np.random.default_rng(seed)
            noise_rng.bit_generator.advance(n)
            atoms = _prior_arrays(p_i)[0]
        count = 0
        for start in range(0, n, _DRAW_CHUNK):
            yield
            chunk = p_i.sample_indices(index_rng, min(_DRAW_CHUNK, n - start))
            if table is not None:
                count += int(np.count_nonzero(table[chunk]))
            else:
                ys = sample_noise(mech, noise_rng, chunk.size)
                ys += atoms[chunk]
                count += _count_breaches(p_i, p_j, mech, epsilon, intervals, ys)
                del ys
            del chunk  # no chunk buffer is held while other pairs take their steps
    estimate = float(count) / n
    half_width = 1.96 * math.sqrt(estimate * (1.0 - estimate) / n)
    return estimate, half_width


def _raw_breach_table(
    p_i: DiscreteDistribution, p_j: DiscreteDistribution, epsilon: float
) -> np.ndarray:
    """Zero-noise breach flags per atom x of p_i: log m_i(x) - log m_j(x) > epsilon, or x not in p_j."""
    masses_j = dict(zip(p_j.atoms, p_j.masses))
    return np.array([
        atom not in masses_j or math.log(mass) - math.log(masses_j[atom]) > epsilon
        for atom, mass in zip(p_i.atoms, p_i.masses)
    ])


# numpy's Generator.laplace(0, b) draws U = k 2^-53 with 0 < k < 2^53 and
# returns b log(2U) or -b log((2 - U) - U), so no draw exceeds 53 ln 2 b in
# magnitude (U = 1 - 2^-53 reaches it; tests/test_verify.py pins both ends).
_LAPLACE_REACH = 53.0 * math.log(2.0) * (1.0 + 1e-12)


def _settled_breach_table(
    p_i: DiscreteDistribution, mech: MechanismParams, intervals: _Intervals
) -> Optional[np.ndarray]:
    """Breach flags per atom of p_i whose draws all land inside one certified interval, else None.

    For Laplace-type noise of scale b, a draw from atom a is fl(a + z)
    with |z| = fl(b |L|) <= fl(b _LAPLACE_REACH) = R, L the computed log
    of sample_noise. Rounding is monotone, so the draw lies in [fl(a - R),
    fl(a + R)]; when fl(a - R) > start and fl(a + R) < end of a certified
    interval, every draw from a is strictly inside it and _count_breaches
    gives it that interval's class. Returns those classes when every atom
    of p_i has such an interval, and None when one does not or the noise
    is not Laplace-type.
    """
    scale = laplace_scale(mech)
    starts, ends, above = intervals
    if scale is None or starts.size == 0:
        return None
    reach = _LAPLACE_REACH * scale
    atoms = np.asarray(p_i.atoms)
    with np.errstate(over="ignore"):
        # The certified interval that can hold a's draws: the last one starting below fl(a - R).
        k = np.searchsorted(starts, atoms - reach, side="left") - 1
        if k.min() < 0 or not np.all(atoms + reach < ends[k]):
            return None
    return above[k]


def _count_breaches(
    p_i: DiscreteDistribution,
    p_j: DiscreteDistribution,
    mech: MechanismParams,
    epsilon: float,
    intervals: Optional[_Intervals],
    ys: np.ndarray,
) -> int:
    """The number of draws ys with _log_ratio(ys) > epsilon, given _breach_intervals' intervals.

    The draws strictly inside one certified interval, _settled_interval's,
    are settled by two comparisons each; on the breach-mc pairs that
    interval usually spans the whole window. The remaining draws are
    sorted; those strictly inside the certified interval k are the slice
    [first[k], last[k]) found by binary search of its edges (empty for the
    settled interval), and every other draw (on an edge, or outside the
    certified intervals) takes _log_ratio. The slices are disjoint and in
    order, so the sorted draws fall into alternating runs, outside and
    inside, whose lengths are the differences of 0, first[0], last[0],
    first[1], ..., ys.size; one mask repeated from those lengths picks the
    leftover draws (a bincount and cumsum depth over the edge indices
    gives the same mask at about ten times the cost per chunk). Settling
    any one interval first leaves the count unchanged, since the intervals'
    interiors are disjoint. intervals=None (custom costs) takes _log_ratio
    at every draw.
    """
    if intervals is None:
        return int(np.count_nonzero(_log_ratio(p_i, p_j, mech, ys) > epsilon))
    starts, ends, above = intervals
    certain = 0
    if starts.size:
        k = _settled_interval(starts, ends)
        outside = (ys <= starts[k]) | (ys >= ends[k])
        if above[k]:
            certain = ys.size - int(np.count_nonzero(outside))
        ys = ys[outside]
    ys.sort()
    first = np.searchsorted(ys, starts, side="right")
    last = np.searchsorted(ys, ends, side="left")
    certain += int(np.sum(last - first, where=above))
    # Run lengths along the sorted draws: outside, inside interval 0, outside, ..., outside.
    runs = np.diff(np.stack((first, last), axis=1).ravel(), prepend=0, append=ys.size)
    rest = ys[np.repeat(np.arange(runs.size) % 2 == 0, runs)]
    if rest.size == 0:
        return certain
    return certain + int(np.count_nonzero(_log_ratio(p_i, p_j, mech, rest) > epsilon))


def _settled_interval(starts: np.ndarray, ends: np.ndarray) -> int:
    """The certified interval whose draws _count_breaches settles unsorted: the widest."""
    return int(np.argmax(ends - starts))


def _breach_intervals(
    p_i: DiscreteDistribution,
    p_j: DiscreteDistribution,
    mech: MechanismParams,
    epsilon: float,
    n: int,
) -> _Intervals:
    """Disjoint intervals where log p - log q is certified against epsilon, for n draws of p_i.

    A branch and bound on r(y) = log p(y) - log q(y) for Laplace or
    Gaussian noise, on a window that needs no draw: the atom range of
    either prior padded by truncation_halfwidth(mech). For Laplace noise,
    whose bounds need intervals with no atom inside, the window is first
    cut at every atom of either prior; Gaussian bounds hold on any
    interval, so there it is cut at the noise scale, by _cuts with
    h = sigma. Each round bounds r on the open intervals
    (_log_ratio_bounds), and
        - certifies an interval above epsilon when the lower bound exceeds
          epsilon + margin, and below when the upper bound is under
          epsilon - margin;
        - leaves it undecided when both bounds lie within the margin of
          epsilon, where no narrower interval can decide either (a Laplace
          tail constant at epsilon is one), when it is narrower than
          2^-30 max(1, |y|), or when fewer than one of the n draws is
          expected in it: n (b - a) times a bound on p_i's posterior
          density on [a, b] below 1;
        - halves it otherwise.
    Open intervals are ranked by log expected draws, so at _refine's cap
    those with the most draws are halved; those it returns stay undecided.
    The margin covers the rounding of both the bound and _log_ratio, so a
    draw in a certified interval has _log_ratio > epsilon exactly when the
    interval is certified above. The bounds hold on the closed interval,
    so two adjacent intervals certified alike are returned as one, whose
    interior holds their shared edge, and two certified differently cannot
    share one: the returned intervals never touch. On the calibrate-grid
    wage pair, 2685 Laplace(0.05) intervals become 78, and each chunk's
    binary search of the edges shrinks as much. Returns (starts, ends,
    above) sorted by start; undecided intervals are not returned, and
    their draws, like those outside the window, take _log_ratio. The
    intervals depend on n only, not on the draws, so one classification
    serves every chunk.

    For Gaussian noise, r - epsilon has at most as many zeros as the
    coefficients m_k - e^epsilon m'_k along the merged atoms have sign
    changes (Laguerre's rule of signs, Polya & Szego, Part V, problem 77),
    so only the intervals near those few crossings stay open for long.
    """
    _, a, b = _window(p_i, p_j, mech)
    log_n = math.log(n)
    starts, ends, above = [np.empty(0)], [np.empty(0)], [np.empty(0, dtype=bool)]

    def settle(a, b, lower, upper, margin, log_density, _):
        with np.errstate(over="ignore"):
            # Past the float range a level is +-inf, and certifies nothing.
            above_level, below_level = epsilon + margin, epsilon - margin
        high = lower > above_level
        # A zero-width interval has no interior to hold a draw.
        certified = (high | (upper < below_level)) & (a < b)
        starts.append(a[certified])
        ends.append(b[certified])
        above.append(high[certified])
        banded = (lower >= below_level) & (upper <= above_level)
        narrow = b - a <= _MIN_WIDTH * np.maximum(1.0, np.maximum(np.abs(a), np.abs(b)))
        with np.errstate(divide="ignore"):
            # A zero-width interval (narrow already) logs to -inf.
            expected = log_n + np.log(b - a) + log_density
        return np.where(certified | banded | narrow | (expected < 0.0), -math.inf, expected)

    _refine(a, b, lambda a, b: _log_ratio_bounds(p_i, p_j, mech, a, b), settle)
    starts, ends, above = (np.concatenate(v) for v in (starts, ends, above))
    order = np.argsort(starts)
    starts, ends, above = starts[order], ends[order], above[order]
    head = np.ones(starts.size, dtype=bool)
    head[1:] = (ends[:-1] != starts[1:]) | (above[:-1] != above[1:])
    return starts[head], ends[np.roll(head, -1)], above[head]


def _window(
    p_i: DiscreteDistribution, p_j: DiscreteDistribution, mech: MechanismParams
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(knots, a, b): the merged atoms, and the intervals [a[k], b[k]] that cut the padded atom range.

    The range is the knots' padded by truncation_halfwidth(mech), cut by
    _cuts at the knots, with h = sigma for Gaussian noise (its bounds hold
    on any interval) and at every knot otherwise.
    """
    knots = np.array(sorted(set(p_i.atoms) | set(p_j.atoms)))
    pad = truncation_halfwidth(mech)
    lo, hi = float(knots[0]) - pad, float(knots[-1]) + pad
    _require_midpoints(lo, hi)
    edges = _cuts(knots, lo, hi, mech.sigma if isinstance(mech, GaussianParams) else 0.0)
    return knots, edges[:-1], edges[1:]


def _require_midpoints(lo: float, hi: float) -> None:
    """Raise IntegrationFailure unless every midpoint and width of points in [lo, hi] is finite.

    They are when 2 max(|lo|, |hi|) is; noise scales near 1e307 pad a
    window past that.
    """
    if not math.isfinite(2.0 * max(abs(lo), abs(hi))):
        raise IntegrationFailure(f"the window [{lo!r}, {hi!r}] reaches past half the float range")


def _refine(
    a: np.ndarray,
    b: np.ndarray,
    bounds: Callable[[np.ndarray, np.ndarray], tuple[np.ndarray, ...]],
    settle: Callable[..., np.ndarray],
) -> tuple[np.ndarray, np.ndarray]:
    """Branch and bound over the intervals [a[k], b[k]]; returns every one it leaves open.

    Each round calls settle(a, b, *bounds(a, b)) on the open intervals
    for a rank per interval, -inf for those it closes, and halves the
    others: the left halves, in order, then the right ones. Once that
    would leave more than most_open = 4 (starting intervals + 1) + 64
    open, only the most_open // 2 highest-ranked (nan highest) are
    halved; the rest leave the search as they are, and are returned with
    those still open after _CLASSIFY_ROUNDS rounds.
    """
    most_open = 4 * (a.size + 1) + 64
    left = []
    for _ in range(_CLASSIFY_ROUNDS):
        if a.size == 0:
            break
        rank = settle(a, b, *bounds(a, b))
        split = rank != -math.inf
        if 2 * np.count_nonzero(split) > most_open:
            rest = np.flatnonzero(split)
            rest = rest[np.argsort(rank[rest], kind="stable")[: -(most_open // 2)]]
            left.append((a[rest], b[rest]))
            split[rest] = False
        a, b = a[split], b[split]
        with np.errstate(over="ignore"):
            # Past about 9e307 the sum is inf; such a half certifies nothing.
            mid = 0.5 * (a + b)
        a, b = np.concatenate((a, mid)), np.concatenate((mid, b))
    return tuple(np.concatenate(ends) for ends in zip(*left, (a, b)))


def _log_ratio_bounds(
    p_i: DiscreteDistribution,
    p_j: DiscreteDistribution,
    mech: MechanismParams,
    a: np.ndarray,
    b: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Bounds on log p - log q over each [a[k], b[k]], a rounding margin, a bound on log p, and a value.

    For every y in [a[k], b[k]], with r(y) the exact log ratio,

        lower[k] - margin[k] <= r(y) <= upper[k] + margin[k].

    - Laplace noise (the intervals hold no atom of either prior inside):
      between adjacent atoms the ratio is monotone, and
      beyond the extreme atoms constant (see _sup_log_ratio), so the
      bounds are the smaller and larger of its two endpoint values.
    - Gaussian noise: r = G^p_c - G^q_c, convex functions of t = y - c
      (dist.gaussian_tilted_log_sum), tilted about the interval's
      midpoint m clamped into the atom range of both priors: c = m inside
      it, and the nearer extreme atom past it. A convex function lies
      under its chord and above its tangent, so chord(G^p) - tangent at m
      of G^q bounds r from above and tangent(G^p) - chord(G^q) from below;
      both are affine, so their extremes are at the endpoints. This holds
      on any interval, and with c at most an atom range away no exponent
      holds (y - a_i)^2 / s^2 however far the interval lies.

    The margin is 64 u (M + L + n + |log s| + 3) S, u = 2^-53, where M is
    the largest exponent magnitude; L = max(-log mass) and n the two
    priors' atom count together. Each term bounds a rounding: of the
    exponents, of the logged masses and anchored sums, of the n-term sums,
    and of the noise's normalizer. The margin covers _log_ratio at any
    point of the interval too, so that _breach_intervals can compare a
    draw's ratio with a certified interval.
    - Laplace(s): M = D / s, for D the largest distance from a point of
      the interval to an atom of either prior, and S = 1.
    - Gaussian(s): with R the farthest atom from c and T the farthest
      point of the interval from c, the tilted exponents are at most
      M = (R / s)^2 / 2 + T R / s^2, plus min(T / s, 12)^2 / 2 for
      _log_ratio's exponents (y - a_i)^2 / 2 s^2 <= (R + T)^2 / 2 s^2
      inside _breach_intervals' window, which ends 12 s past the atoms
      (past it the search of _gaussian_sup compares no draw).
      S = 1 + w R / s^2 for an interval of width w: the tangent's slope
      is a weighted mean of (a_i - c) / s^2, at most R / s^2, so its
      rounding grows by up to w R / s^2 at the ends.

    The fourth array bounds log p over each interval, up to rounding, for
    _breach_intervals' expected-draw floor: for Laplace noise the larger
    of its endpoint values, since between atoms p is a sum of exponentials
    in y and so convex; for Gaussian noise max(G^p_c at the ends) -
    g^2 / 2 s^2 - log(s sqrt(2 pi)), with g the distance from c to the
    interval (0 when c lies in it), since G^p_c is convex and the dropped
    term -t^2 / 2 s^2 is at most -g^2 / 2 s^2 there.

    The last array is log p - log q at a point of each interval, for
    _gaussian_sup's incumbent: at the midpoint, G^p_c - G^q_c
    there, for Gaussian noise, and at a for Laplace noise.
    """
    lo, hi = min(p_i.min_atom, p_j.min_atom), max(p_i.max_atom, p_j.max_atom)
    scale = laplace_scale(mech)
    if scale is not None:
        ends = np.concatenate((a, b))
        log_p = posterior_log_density_many(mech, p_i, ends)
        values = log_p - posterior_log_density_many(mech, p_j, ends)
        at_a, at_b = values[: a.size], values[a.size :]
        lower, upper = np.minimum(at_a, at_b), np.maximum(at_a, at_b)
        log_density = np.maximum(log_p[: a.size], log_p[a.size :])
        value = at_a
        with np.errstate(over="ignore"):
            # Past the float range the margin is inf, and certifies nothing.
            exponent = np.maximum(b - lo, hi - a) / scale
        spread = 1.0
    else:
        scale = mech.sigma
        # At a vanishing scale the sums are inf or nan, and past about
        # 9e307 so is the midpoint; then so is the margin, which certifies
        # nothing.
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            mid = 0.5 * (a + b)
            c = np.clip(mid, lo, hi)
            offsets = np.stack((a - c, mid - c, b - c), axis=1)
            gp, slope_p = gaussian_tilted_log_sum(p_i, scale, c, offsets)
            gq, slope_q = gaussian_tilted_log_sum(p_j, scale, c, offsets)
            # The tangents touch at mid, a - mid and b - mid from the ends.
            to_a, to_b = a - mid, b - mid
            upper = np.maximum(
                gp[:, 0] - (gq[:, 1] + slope_q * to_a), gp[:, 2] - (gq[:, 1] + slope_q * to_b)
            )
            lower = np.minimum(
                gp[:, 1] + slope_p * to_a - gq[:, 0], gp[:, 1] + slope_p * to_b - gq[:, 2]
            )
            gap = np.maximum(0.0, np.maximum(offsets[:, 0], -offsets[:, 2])) / scale
            log_density = (
                np.maximum(gp[:, 0], gp[:, 2]) - 0.5 * np.square(gap)
                - math.log(scale * math.sqrt(2.0 * math.pi))
            )
            value = gp[:, 1] - gq[:, 1]
            far = np.maximum(c - lo, hi - c) / scale
            reach = np.maximum(c - a, b - c) / scale
            window = truncation_halfwidth(mech) / scale
            exponent = far * (0.5 * far + reach) + 0.5 * np.square(np.minimum(reach, window))
            spread = 1.0 + (b - a) / scale * far
    with np.errstate(over="ignore"):
        margin = _MARGIN_ULPS * 2.0**-53 * (_fixed_rounding(p_i, p_j, scale) + exponent) * spread
    return lower, upper, margin, log_density, value


def _fixed_rounding(p_i: DiscreteDistribution, p_j: DiscreteDistribution, scale: float) -> float:
    """The terms L + n + |log s| + 3 of _log_ratio_bounds' margin, which do not depend on y."""
    return (
        3.0 - math.log(min(p_i.masses + p_j.masses))
        + len(p_i.atoms) + len(p_j.atoms) + abs(math.log(scale))
    )
