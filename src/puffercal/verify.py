"""Independent numerical verification of calibrated mechanisms.

Calibration upper-bounds the order-alpha divergence via a transport
functional; this module recomputes the divergence itself by adaptive
quadrature of the noised posterior densities, so a passing check confirms
the calibration sufficiency with no shared code path. Every posterior
density here comes from dist.posterior_log_density_many, which the
quadrature (a vectorized Gauss-Legendre bisection) calls on arrays; the
two directions of a pair share those calls and one set of segments.
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
# Relative tolerance of the Gaussian alpha = inf supremum (see _gaussian_sup_log_ratios).
_SUP_RTOL = 1e-12
# Draws per chunk in monte_carlo_breach: its noise and sum buffers, the
# settled-interval mask, and the sort buffer of the draws left after it.
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
    mech: MechanismParams,
    alpha: float,
) -> float:
    """Order-alpha divergence between the noised posteriors of two priors.

    Finite orders integrate f = exp(alpha log p - (alpha - 1) log q) by
    _bisect_quadrature to max(1e-14, 1e-10 |integral|).

    - Laplace-type noise (laplace_scale(mech) = b): past the extreme atom
      A of either prior both posteriors are one exponential in y with
      rate 1/b, so f is too, and its tail beyond A is exactly b f(A). The
      window is the atom hull, cut at every atom (f has kinks there), and
      the two tails b (f(hull_lo) + f(hull_hi)) are added in closed form;
      the tolerance is taken on hull plus tails. Against the padded
      window cut at every atom this moves D by at most the quadrature's
      tolerance carried to D, 1e-10 / |alpha - 1| absolute; over the
      verify and breach commands of scripts/compare_stdout.py at three
      seeds the largest drift was 5.7e-12 relative.
    - Other noise: the window is the union atom range padded by the noise
      truncation width plus the order-driven shift of the integrand's
      tail mode. Custom costs cut it at every atom. Gaussian integrands
      are analytic, with log-curvature at most about (2 alpha - 1) /
      sigma^2, so the window is cut by _cuts at the scale h = sigma /
      sqrt(max(1, 2 alpha - 1)): atoms closer together than h share a
      segment. The divergence then differs from the one on every-atom
      cuts by at most the quadrature's tolerance carried to D, 1e-10 /
      |alpha - 1|.

    alpha = inf takes the supremum of the log ratio (see
    _sup_log_ratios). Raises IntegrationFailure when the integrand
    overflows or is nan, or the quadrature does not converge.
    """
    (divergence,) = _divergences(p_i, p_j, mech, alpha, both=False)
    return divergence


def renyi_divergence_both_ways(
    p_i: DiscreteDistribution,
    p_j: DiscreteDistribution,
    mech: MechanismParams,
    alpha: float,
) -> tuple[float, float]:
    """D(p_i || p_j) and D(p_j || p_i) from one set of posterior densities.

    The two directions share the window and its cuts (_cross_span is
    symmetric), so one quadrature integrates both integrands over shared
    log p_i and log p_j arrays and one set of open segments, which closes
    a segment only when both directions' tests pass (_bisect_quadrature).
    Each direction meets its own tolerance, so it is within 1e-10 /
    |alpha - 1| of renyi_divergence_numeric, and bit for bit equal to it
    when the directions close the same segments (as Laplace-type hulls
    usually do). alpha = inf reads the second direction's log ratio as
    the first one's negation, bit for bit the two one-way calls. Raises
    IntegrationFailure when either direction fails.
    """
    div_ij, div_ji = _divergences(p_i, p_j, mech, alpha, both=True)
    return div_ij, div_ji


def _divergences(
    p_i: DiscreteDistribution,
    p_j: DiscreteDistribution,
    mech: MechanismParams,
    alpha: float,
    both: bool,
) -> list[float]:
    """[D(p_i || p_j)], or [D(p_i || p_j), D(p_j || p_i)] when both."""
    if math.isnan(alpha) or alpha <= 0.0 or alpha == 1.0:
        raise InvalidValue(f"alpha must lie in (0,1) or (1,inf], got {alpha!r}")
    if p_i == p_j:
        # Identical priors have identical posteriors; quadrature would
        # leave a rounding residue of a few ulps in place of the exact 0.
        return [0.0, 0.0] if both else [0.0]
    if math.isinf(alpha):
        return _sup_log_ratios(p_i, p_j, mech, both)

    lo = min(p_i.min_atom, p_j.min_atom)
    hi = max(p_i.max_atom, p_j.max_atom)
    tail_scale = laplace_scale(mech)
    if tail_scale is None:
        pad = truncation_halfwidth(mech) + abs(alpha - 1.0) * _cross_span(p_i, p_j)
        lo -= pad
        hi += pad

    def densities(ys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        return (
            posterior_log_density_many(mech, p_i, ys),
            posterior_log_density_many(mech, p_j, ys),
        )

    def integrand_ij(ys: np.ndarray, log_p: np.ndarray, log_q: np.ndarray) -> np.ndarray:
        # A nan exponent (both densities underflowed to 0, so -inf + inf)
        # would give nan estimates that never converge; it raises below.
        with np.errstate(invalid="ignore"):
            exponent = alpha * log_p
            exponent -= (alpha - 1.0) * log_q
        bad = ~(exponent <= 700.0)
        if bad.any():
            k = int(np.argmax(bad))
            y = float(ys[k])
            if math.isnan(exponent[k]):
                raise IntegrationFailure(f"integrand is nan at y = {y!r}; both densities underflow")
            raise IntegrationFailure(
                f"integrand overflow at y = {y!r}; the density ratio is too extreme"
            )
        return np.exp(exponent, out=exponent)

    def integrand_ji(ys: np.ndarray, log_q: np.ndarray, log_p: np.ndarray) -> np.ndarray:
        return integrand_ij(ys, log_p, log_q)

    points = np.array(sorted({a for a in (*p_i.atoms, *p_j.atoms) if lo < a < hi}))
    # Gaussian integrands are analytic; other noise has kinks at the atoms.
    if isinstance(mech, GaussianParams):
        width = mech.sigma / math.sqrt(max(1.0, 2.0 * alpha - 1.0))
    else:
        width = 0.0
    integrands = [integrand_ij, integrand_ji] if both else [integrand_ij]
    edges = _cuts(points, lo, hi, width)
    divergences = []
    for integral in _bisect_quadrature(densities, integrands, edges, tail_scale):
        if not (math.isfinite(integral) and integral > 0.0):
            raise IntegrationFailure(f"quadrature returned {integral!r}")
        divergences.append(_floor_rounding(math.log(integral) / (alpha - 1.0)))
    return divergences


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
    points: Optional[np.ndarray] = None,
) -> list[list[np.ndarray]]:
    """The 12-point Gauss-Legendre estimates of each integrand on each segment set.

    Each set is a pair (a, b) of arrays standing for the segments
    [a[i], b[i]], and every integrand is estimated on every set. The
    integrand reads the densities at the nodes, integrands[k](ys,
    *densities(ys)), and gets one array of estimates per set; with
    points, one more array holds its values there. One densities call
    serves every set, on their nodes concatenated. The densities are
    elementwise in ys, and each set is evaluated and reduced on its own,
    at the shape it has alone (a concatenated matmul is not bit for bit
    the same), so each estimate is the one a call on that set's nodes
    alone gives. The integrands are called set by set, in order.
    """
    groups = [_nodes(a, b) for a, b in segments]
    if points is not None:
        groups.append((None, points))
    flat = [ys for _, ys in groups]
    values = densities(flat[0] if len(flat) == 1 else np.concatenate(flat))
    estimates: list[list[np.ndarray]] = [[] for _ in integrands]
    start = 0
    for half, ys in groups:
        stop = start + ys.size
        dens = [v[start:stop] for v in values]
        start = stop
        for integrand, out in zip(integrands, estimates):
            f = integrand(ys, *dens)
            if half is not None:
                f = half * (f.reshape(half.size, _GL_NODES.size) @ _GL_WEIGHTS)
            out.append(f)
    return estimates


def _nodes(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Half-lengths of the segments [a[k], b[k]] and their 12 nodes each, flattened."""
    half = 0.5 * (b - a)
    return half, ((0.5 * (a + b))[:, None] + half[:, None] * _GL_NODES).ravel()


def _bisect_quadrature(
    densities: Callable[[np.ndarray], tuple[np.ndarray, ...]],
    integrands: list[_Integrand],
    edges: np.ndarray,
    tail_scale: Optional[float] = None,
) -> list[float]:
    """Integrals over [edges[0], edges[-1]] of vectorized integrands, by bisection.

    Each integrand f is called as f(ys, *densities(ys)). The integrands
    share one set of open segments, which starts as the gaps between
    consecutive edges. Each round applies the 12-point rule to both
    halves of every open segment, in one densities call for all
    integrands still open (see _gauss_legendre), and each of them takes
    err = |left + right - whole| per segment. An integrand stops once its
    errors, closed segments' included, sum to at most its own tol =
    max(1e-14, 1e-10 |I|), and is not called again. A segment closes when,
    for every integrand still open, its err is at most tol * length /
    (edges[-1] - edges[0]) and at most half its own value left + right;
    each integrand then adds its estimate and err there to its own closed
    sums. The other segments are halved. After _MAX_ROUNDS rounds it
    raises IntegrationFailure. The integrands must be nonnegative.

    Integrands that read the same densities, like the two directions of a
    divergence, share every densities call. Each meets its own tolerance on
    segments at least as fine as a quadrature of it alone closes, and its
    integral is bit for bit the one it gets alone as long as the
    integrands close the same segments; one integrand alone closes exactly
    the segments its own test passes.

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
    Laplace-type divergence makes one density call per prior (four on a
    padded window with a separate first round), and a Gaussian one 3.1 on
    average (4.1).

    The second closing condition keeps unresolved segments open: a wide
    segment whose nodes all miss a sharp peak at its end can show an err
    within its share of tol that is nearly its whole value.
    """
    a, b = edges[:-1], edges[1:]
    span = edges[-1] - edges[0]
    closed = [0.0] * len(integrands)
    closed_err = [0.0] * len(integrands)
    values: list[Optional[float]] = [None] * len(integrands)
    wholes: list[np.ndarray] = []
    ends = None if tail_scale is None else edges[[0, -1]]
    for round_index in range(_MAX_ROUNDS):
        live = [k for k, value in enumerate(values) if value is None]
        mid = 0.5 * (a + b)
        halves = (np.concatenate((a, mid)), np.concatenate((mid, b)))
        first = round_index == 0
        estimates = _gauss_legendre(
            densities, [integrands[k] for k in live],
            [(a, b), halves] if first else [halves], ends if first else None,
        )
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
            tol = max(1e-14, 1e-10 * abs(total))
            if closed_err[k] + float(err.sum()) <= tol:
                values[k] = total
                continue
            done &= (err <= tol * (b - a) / span) & (err <= 0.5 * both)
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


def _sup_log_ratios(
    p_i: DiscreteDistribution, p_j: DiscreteDistribution, mech: MechanismParams, both: bool
) -> list[float]:
    """sup_y of log p(y) - log q(y), floored at 0, for (p, q) = (p_i, p_j), then (p_j, p_i) if both.

    For Laplace noise the supremum is the largest of the ratios at the
    atoms of either prior: between adjacent atoms each posterior density
    is exp(-y/b) (A + B t) with t = exp(2y/b) and constants A, B >= 0, so
    the ratio (A1 + B1 t) / (A2 + B2 t) is monotone there, and beyond the
    extreme atoms it is constant. Gaussian noise takes the branch and
    bound of _gaussian_sup_log_ratios, certified on the whole line. Custom
    costs take the maximum over a dense grid with a local refinement,
    plus far probes.

    The directions share one log-ratio array on the knots, the grid and
    the probes: the second direction's is the first one's negation, which
    is exact, since fl(x - y) = -fl(y - x). The refinement is per
    direction.
    """
    knots = sorted(set(p_i.atoms) | set(p_j.atoms))
    directions = [(p_i, p_j, 1.0), (p_j, p_i, -1.0)] if both else [(p_i, p_j, 1.0)]
    if laplace_scale(mech) is not None:
        ratios = _log_ratio(p_i, p_j, mech, np.asarray(knots))
        return [max(float(np.max(sign * ratios)), 0.0) for _, _, sign in directions]
    if isinstance(mech, GaussianParams):
        return [sup for sup, _ in _gaussian_sup_log_ratios(p_i, p_j, mech, both)]

    grid = _dense_grid(mech, knots)
    ratios = _log_ratio(p_i, p_j, mech, grid)
    # No closed-form tails for a custom cost: probe geometrically far out.
    pad = truncation_halfwidth(mech)
    probes = []
    for k in range(8):
        offset = pad * (2.0**k)
        probes.extend((knots[0] - pad - offset, knots[-1] + pad + offset))
    probe_ratios = _log_ratio(p_i, p_j, mech, np.asarray(probes))
    return [
        max(_grid_max_log_ratio(p, q, mech, grid, sign * ratios),
            float(np.max(sign * probe_ratios)), 0.0)
        for p, q, sign in directions
    ]


def _gaussian_sup_log_ratios(
    p_i: DiscreteDistribution, p_j: DiscreteDistribution, mech: GaussianParams, both: bool
) -> list[tuple[float, float]]:
    """(sup, bound) for r = log p - log q under Gaussian noise, per direction as in _sup_log_ratios.

    sup is the largest value of r found, floored at 0, and bound a
    certified upper bound on r over the whole line: the largest upper
    bound plus rounding margin of the intervals and tails that settled.
    Unless a cap below is reached, bound <= sup + _sup_tolerance(sup) +
    margin. Both are +inf when p has an atom past q's extreme one on
    either side.

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
      (0 or the tail limits), the window
      is widened geometrically (_tail_doublings): the segment from reach e
      to 2e past the extreme knot joins the search, bounded by
      _far_log_ratio_bounds, and the tail starts at 2e.

    The directions share each round's bounds, since the bounds on -r are
    the negated bounds on r. Each prunes, settles and widens on its own
    intervals and incumbent, and the bounds and values of an interval do
    not depend on the others computed with it, so both directions give
    bit for bit what two one-way calls give.

    Where r stays just below the incumbent over a long stretch (nearly
    equal priors, or r creeping up to its limit along a tail, where its
    gap to the limit shrinks like e^-2t and the bounds' slack like
    e^-t w^2), every interval there stays open until very narrow. Once
    halving a direction's open intervals would leave more than
    most_open = four times its starting intervals plus 64, only the
    most_open / 2 with the largest midpoint values are halved, and the
    bounds of the others join its certificate as they are; so do those of
    the intervals still open after _CLASSIFY_ROUNDS rounds. sup is still
    the largest value found, and bound is then looser than the tolerance.
    Raises IntegrationFailure when a tail does not settle
    (_tail_doublings).
    """
    sigma = mech.sigma
    knots, a, b = _window(p_i, p_j, mech)
    pad = truncation_halfwidth(mech)
    directions = [(p_i, p_j, 1.0), (p_j, p_i, -1.0)] if both else [(p_i, p_j, 1.0)]
    best, bound, doublings = [], [], []
    for p, q, _ in directions:
        if p.max_atom > q.max_atom or p.min_atom < q.min_atom:
            best.append(math.inf)
            bound.append(math.inf)
            doublings.append(None)
            continue
        # r tends to log(m_p / m_q) past equal extreme atoms, and sup r >= 0.
        incumbent = max([0.0] + [
            math.log(p.masses[k]) - math.log(q.masses[k])
            for k in (0, -1) if p.atoms[k] == q.atoms[k]
        ])
        tails = [_tail_doublings(p, q, sigma, side, pad, incumbent) for side in (-1.0, 1.0)]
        best.append(incumbent)
        bound.append(max(tail for _, tail in tails))
        doublings.append([n for n, _ in tails])
    # Segment k on a side spans reach pad 2^k to pad 2^(k+1) past the extreme knot.
    counts = [max([0] + [n[s] for n in doublings if n is not None]) for s in (0, 1)]
    lo_edge, hi_edge = float(a[0]), float(b[-1])
    far_a, far_b, far_live = [], [], []
    for s, (edge, side) in enumerate(((float(knots[0]), -1.0), (float(knots[-1]), 1.0))):
        for k in range(counts[s]):
            inner, outer = edge + side * pad * 2.0**k, edge + side * pad * 2.0 ** (k + 1)
            far_a.append(min(inner, outer))
            far_b.append(max(inner, outer))
            far_live.append([n is not None and k < n[s] for n in doublings])
    a = np.concatenate((a, far_a))
    b = np.concatenate((b, far_b))
    finite = [n is not None for n in doublings]
    live = np.array([finite] * (a.size - len(far_a)) + far_live, dtype=bool).T

    def bounds(a, b):
        far = (b <= lo_edge) | (a >= hi_edge)
        out = tuple(np.empty(a.size) for _ in range(5))
        for mask, part in (
            (~far, _log_ratio_bounds(p_i, p_j, mech, a[~far], b[~far])),
            (far, _far_log_ratio_bounds(p_i, p_j, sigma, knots, a[far], b[far])),
        ):
            for o, v in zip(out, part):
                o[mask] = v
        return out

    most_open = [4 * (int(own.sum()) + 1) + 64 for own in live]

    def certify(d, lower, upper, margin, mask):
        up = (upper if directions[d][2] > 0.0 else -lower)[mask] + margin[mask]
        if up.size:
            worst = float(np.max(up))
            bound[d] = math.inf if math.isnan(worst) else max(bound[d], worst)

    def settle(a, b, lower, upper, margin, _, values):
        nonlocal live
        for d, (_, _, sign) in enumerate(directions):
            own = live[d]
            if not own.any():
                continue
            best[d] = max(best[d], float(np.fmax.reduce(sign * values[own])))
            up = upper if sign > 0.0 else -lower
            pruned = up + margin < best[d]
            settled = own & ~pruned & (up <= best[d] + _sup_tolerance(best[d]))
            certify(d, lower, upper, margin, settled)
            live[d] = own & ~pruned & ~settled
            if 2 * np.count_nonzero(live[d]) > most_open[d]:
                # Halve only the intervals with the largest values of r.
                rest = np.flatnonzero(live[d])
                rest = rest[np.argsort(sign * values[rest], kind="stable")[: -(most_open[d] // 2)]]
                dropped = np.zeros_like(own)
                dropped[rest] = True
                certify(d, lower, upper, margin, dropped)
                live[d] &= ~dropped
        split = live.any(axis=0)
        live = np.tile(live[:, split], 2)
        return split

    a, b = _refine(a, b, bounds, settle, math.inf)
    if a.size:
        # Still open after _CLASSIFY_ROUNDS rounds.
        lower, upper, margin, _, _ = bounds(a, b)
        for d in range(len(directions)):
            certify(d, lower, upper, margin, live[d])
    return [(value, max(value, limit)) for value, limit in zip(best, bound)]


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
    IntegrationFailure when the reach leaves the float range first, as
    it does for a sigma near 1e154 or more against atoms a unit apart.
    """
    reach, k = pad, 0
    while math.isfinite(reach):
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
    d = side * (q.atoms[k] - atoms) / sigma
    # In units of sigma, so that no sigma^2 or 2 reach leaves the float
    # range at extreme scales (an inf there would read as a settled tail).
    with np.errstate(over="ignore"):
        x = d * (reach / sigma) + 0.5 * d * d
    value = float(log_sum_exp(log_masses - x)) - math.log(q.masses[k])
    return value, _MARGIN_ULPS * 2.0**-53 * (_fixed_rounding(p, q, sigma) + float(x.min()))


def _far_log_ratio_bounds(
    p_i: DiscreteDistribution,
    p_j: DiscreteDistribution,
    sigma: float,
    knots: np.ndarray,
    a: np.ndarray,
    b: np.ndarray,
) -> tuple[np.ndarray, ...]:
    """_log_ratio_bounds' arrays for intervals past the atom range, with nan for the bound on log p.

    The tilted sums are taken about the nearer extreme knot B, at
    t = y - B (dist.gaussian_tilted_log_sum): about the interval's own
    midpoint, far from every atom, each exponent would hold a square
    (y - a_i)^2 / 2 sigma^2 whose rounding outgrows the ratio itself.
    G(t) is convex, so on [t_a, t_b] with midpoint t_m it lies under the
    chords through its values there, and above the secant through (t_m,
    G_m) and (t_b, G_b) extended to [t_a, t_m] (likewise on the right).
    The differences of these lines are affine on each half, so with
    S_a = G_m - (G_b - G_m) h and S_b = G_m - (G_a - G_m) / h,
    h = (t_m - t_a) / (t_b - t_m),
        r <= max(G^p_a - S^q_a, G^p_m - G^q_m, G^p_b - S^q_b),
        r >= min(S^p_a - G^q_a, G^p_m - G^q_m, S^p_b - G^q_b),
    and both close in on r quadratically as the interval shrinks. Past
    B every exponent's terms share a sign, so each G is off by a few
    ulps of |G| + n + L; the margin, 64 u (L + n + |log s| + 3 + max |G|),
    covers the four of them in each bound.
    """
    anchors = np.where(b <= knots[0], knots[0], knots[-1])
    t_a, t_b = a - anchors, b - anchors
    t_m = t_a + 0.5 * (t_b - t_a)
    offsets = np.stack((t_a, t_m, t_b), axis=1)
    gp, _ = gaussian_tilted_log_sum(p_i, sigma, anchors, offsets)
    gq, _ = gaussian_tilted_log_sum(p_j, sigma, anchors, offsets)
    with np.errstate(divide="ignore", invalid="ignore"):
        # A zero-width half gives nan bounds, which neither prune nor settle.
        h = (t_m - t_a) / (t_b - t_m)

        def secants(g):
            return g[:, 1] - (g[:, 2] - g[:, 1]) * h, g[:, 1] - (g[:, 0] - g[:, 1]) / h

        sp_a, sp_b = secants(gp)
        sq_a, sq_b = secants(gq)
    mid = gp[:, 1] - gq[:, 1]
    upper = np.maximum(np.maximum(gp[:, 0] - sq_a, gp[:, 2] - sq_b), mid)
    lower = np.minimum(np.minimum(sp_a - gq[:, 0], sp_b - gq[:, 2]), mid)
    size = np.maximum(np.abs(gp).max(axis=1), np.abs(gq).max(axis=1))
    margin = _MARGIN_ULPS * 2.0**-53 * (_fixed_rounding(p_i, p_j, sigma) + size)
    return lower, upper, margin, np.full(a.size, math.nan), mid


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

    The draws are those of atoms[p_i.sample_indices(rng, n)] followed by one
    sample_noise(mech, rng, n), but no n-float array is ever held: the
    prior draws are kept as atom indices (DiscreteDistribution
    .sample_indices, 1 byte per draw up to 256 atoms), and the noise is
    drawn _DRAW_CHUNK values at a time from the same generator, which
    gives the same values. Each chunk gets its atoms added and is counted
    (_count_breaches) against intervals classified once for the pair
    (_breach_intervals): draws inside the widest certified interval by
    two comparisons, the rest sorted and binary-searched against the
    other intervals' edges, so the count is the one that evaluating the
    log ratio at every draw gives. Draws outside the certified intervals'
    interiors, and every draw of a custom-cost mechanism, take the log
    ratio itself. Zero noise looks the indices up in a per-atom
    breach table. Raises MemoryError when n indices do not fit in memory.
    """
    if n < 1000:
        raise InvalidValue(f"need at least 1000 samples for a stable estimate, got {n}")
    rng = np.random.default_rng(seed)
    indices = p_i.sample_indices(rng, n)
    if mech is None:
        count = _count_raw_breaches(p_i, p_j, epsilon, indices)
    else:
        classified = laplace_scale(mech) is not None or isinstance(mech, GaussianParams)
        intervals = _breach_intervals(p_i, p_j, mech, epsilon, n) if classified else None
        atoms = np.asarray(p_i.atoms)
        count = 0
        for start in range(0, n, _DRAW_CHUNK):
            chunk = indices[start : start + _DRAW_CHUNK]
            ys = sample_noise(mech, rng, chunk.size)
            ys += atoms[chunk]
            count += _count_breaches(p_i, p_j, mech, epsilon, intervals, ys)
    estimate = float(count) / n
    half_width = 1.96 * math.sqrt(estimate * (1.0 - estimate) / n)
    return estimate, half_width


def _count_raw_breaches(
    p_i: DiscreteDistribution, p_j: DiscreteDistribution, epsilon: float, indices: np.ndarray
) -> int:
    """Zero-noise breaches: draws (atom indices of p_i) with log m_i(x) - log m_j(x) > epsilon."""
    masses_j = dict(zip(p_j.atoms, p_j.masses))
    breaches = np.array([
        atom not in masses_j or math.log(mass) - math.log(masses_j[atom]) > epsilon
        for atom, mass in zip(p_i.atoms, p_i.masses)
    ])
    return int(np.count_nonzero(breaches[indices]))


_Intervals = tuple[np.ndarray, np.ndarray, np.ndarray]


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
    After _CLASSIFY_ROUNDS rounds, or once more than four times the
    atom-cut intervals plus 64 are open, the open ones stay undecided. The
    margin covers the rounding of both the bound and _log_ratio, so a draw
    in a certified interval has _log_ratio > epsilon exactly when the
    interval is certified above. The bounds hold on the closed interval,
    so two adjacent intervals certified alike are returned as one, whose
    interior holds their shared edge, and two certified differently
    cannot share one: the returned intervals never touch. On the
    calibrate-grid wage pair, 2685 Laplace(0.05) intervals become 78, and
    each chunk's binary search of the edges shrinks as much. Returns
    (starts, ends, above) sorted by start; undecided intervals are not
    returned, and their draws, like those outside the window, take
    _log_ratio. The intervals depend on n
    only, not on the draws, so one classification serves every chunk.

    For Gaussian noise, r - epsilon has at most as many zeros as the
    coefficients m_k - e^epsilon m'_k along the merged atoms have sign
    changes (Laguerre's rule of signs, Polya & Szego, Part V, problem 77),
    so only the intervals near those few crossings stay open for long.
    """
    knots, a, b = _window(p_i, p_j, mech)
    log_n = math.log(n)
    starts, ends, above = [np.empty(0)], [np.empty(0)], [np.empty(0, dtype=bool)]

    def settle(a, b, lower, upper, margin, log_density, _):
        high = lower > epsilon + margin
        certified = high | (upper < epsilon - margin)
        starts.append(a[certified])
        ends.append(b[certified])
        above.append(high[certified])
        banded = (lower >= epsilon - margin) & (upper <= epsilon + margin)
        narrow = b - a <= _MIN_WIDTH * np.maximum(1.0, np.maximum(np.abs(a), np.abs(b)))
        with np.errstate(divide="ignore"):
            # A zero-width interval (narrow already) logs to -inf.
            sparse = log_n + np.log(b - a) + log_density < 0.0
        return ~(certified | banded | narrow | sparse)

    _refine(
        a, b, lambda a, b: _log_ratio_bounds(p_i, p_j, mech, a, b), settle,
        4 * (knots.size + 1) + 64,
    )
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
    edges = _cuts(
        knots, float(knots[0]) - pad, float(knots[-1]) + pad,
        mech.sigma if isinstance(mech, GaussianParams) else 0.0,
    )
    return knots, edges[:-1], edges[1:]


def _refine(
    a: np.ndarray,
    b: np.ndarray,
    bounds: Callable[[np.ndarray, np.ndarray], tuple[np.ndarray, ...]],
    settle: Callable[..., np.ndarray],
    most_open: float,
) -> tuple[np.ndarray, np.ndarray]:
    """Branch and bound over the intervals [a[k], b[k]]; returns the ones left open.

    Each round calls settle(a, b, *bounds(a, b)) on the open intervals
    for the mask of those to keep open, and halves those: the left
    halves, in order, then the right ones. It stops when none is open,
    after _CLASSIFY_ROUNDS rounds, or once more than most_open are open.
    """
    for _ in range(_CLASSIFY_ROUNDS):
        if a.size == 0 or a.size > most_open:
            break
        split = settle(a, b, *bounds(a, b))
        a, b = a[split], b[split]
        with np.errstate(over="ignore"):
            # Past about 9e307 the sum is inf; such a half certifies nothing.
            mid = 0.5 * (a + b)
        a, b = np.concatenate((a, mid)), np.concatenate((mid, b))
    return a, b


def _log_ratio_bounds(
    p_i: DiscreteDistribution,
    p_j: DiscreteDistribution,
    mech: MechanismParams,
    a: np.ndarray,
    b: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Bounds on log p - log q over each [a[k], b[k]], a rounding margin, a bound on log p, and a value.

    - Laplace noise (the intervals hold no atom of either prior inside):
      between adjacent atoms the ratio is monotone, and
      beyond the extreme atoms constant (see _sup_log_ratios), so the
      bounds are the smaller and larger of its two endpoint values.
    - Gaussian noise: log p - log q = G^p_c - G^q_c, convex functions of
      y tilted about the midpoint c (dist.gaussian_tilted_log_sum). A
      convex function lies under its chord and above its tangent, so
      chord(G^p) - tangent(G^q) bounds the ratio from above and
      tangent(G^p) - chord(G^q) from below; both are affine, so their
      extremes are at the endpoints. This holds on any interval.

    The margin is 64 u (M + L + n + |log s| + 3), u = 2^-53, where M is the
    largest exponent magnitude on the interval, D/s for Laplace(s) noise
    and (D/s)^2 for Gaussian(s), with D the largest distance from a point
    of the interval to an atom of either prior; L = max(-log mass) and n
    the two priors' atom count together. Each term bounds a rounding: of
    the exponents, of the logged masses and anchored sums, of the n-term
    sums, and of the noise's normalizer. Gaussian margins are further
    scaled by 1 + w D / s^2 for an interval of width w, since a rounding
    of the tangent's slope grows with the distance from c.

    The fourth array bounds log p over each interval, up to rounding, for
    _breach_intervals' expected-draw floor: for Laplace noise the larger
    of its endpoint values, since between atoms p is a sum of exponentials
    in y and so convex; for Gaussian noise max(G^p_c at the ends) -
    log(sigma sqrt(2 pi)), since G^p_c is convex and the dropped term
    -t^2 / 2 sigma^2 is at most 0.

    The last array is log p - log q at a point of each interval, for
    _gaussian_sup_log_ratios' incumbent: at the midpoint, G^p_c(0) -
    G^q_c(0), for Gaussian noise, and at a for Laplace noise.
    """
    reach = np.maximum(
        b - min(p_i.min_atom, p_j.min_atom), max(p_i.max_atom, p_j.max_atom) - a
    )
    scale = laplace_scale(mech)
    if scale is not None:
        ends = np.concatenate((a, b))
        log_p = posterior_log_density_many(mech, p_i, ends)
        values = log_p - posterior_log_density_many(mech, p_j, ends)
        at_a, at_b = values[: a.size], values[a.size :]
        lower, upper = np.minimum(at_a, at_b), np.maximum(at_a, at_b)
        log_density = np.maximum(log_p[: a.size], log_p[a.size :])
        value = at_a
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
        log_density = np.maximum(gp[:, 0], gp[:, 2]) - math.log(scale * math.sqrt(2.0 * math.pi))
        # At a vanishing scale the sums are inf or nan, and so is the
        # margin, which certifies nothing.
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            value = gp[:, 1] - gq[:, 1]
            exponent = np.square(reach / scale)
            spread = 1.0 + (b - a) * reach / np.square(scale)
    with np.errstate(over="ignore"):
        margin = _MARGIN_ULPS * 2.0**-53 * (_fixed_rounding(p_i, p_j, scale) + exponent) * spread
    return lower, upper, margin, log_density, value


def _fixed_rounding(p_i: DiscreteDistribution, p_j: DiscreteDistribution, scale: float) -> float:
    """The terms L + n + |log s| + 3 of _log_ratio_bounds' margin, which do not depend on y."""
    return (
        3.0 - math.log(min(p_i.masses + p_j.masses))
        + len(p_i.atoms) + len(p_j.atoms) + abs(math.log(scale))
    )
