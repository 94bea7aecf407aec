"""Finite-order divergences by vectorized Gauss-Legendre bisection.

renyi_divergence_both_ways integrates both directions of D(p_i || p_j)
together: every posterior density comes from
dist.posterior_log_density_many, which _bisect_quadrature calls on arrays,
and the two directions share those calls and one set of segments. Zero
noise and alpha = inf are handed to certify.
"""

import math
from typing import Callable, Optional

import numpy as np

from .certify import (
    _NEGATIVE_FLOOR,
    _cuts,
    _floor_rounding,
    _require_midpoints,
    _sup_log_ratio,
    renyi_divergence_discrete,
)
from .dist import (
    DiscreteDistribution,
    GaussianParams,
    MechanismParams,
    laplace_scale,
    posterior_log_density_many,
    truncation_halfwidth,
)
from .errors import IntegrationFailure, InvalidValue

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
