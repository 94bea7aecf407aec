"""Certified bounds on the posterior log ratio, and the alpha = inf suprema.

The lowest layer of the verifier. _log_ratio_bounds encloses r = log p -
log q over intervals with a rounding margin; _refine is the branch and
bound that both the Gaussian alpha = inf supremum (_gaussian_sup) and the
Monte Carlo breach classifier (breach._breach_intervals) run on it, over
the padded atom window of _window. _sup_log_ratio takes D_inf for every
noise family, and renyi_divergence_discrete the divergences of the raw
priors (zero noise).
"""

import math
from typing import Callable

import numpy as np

from .dist import (
    DiscreteDistribution,
    GaussianParams,
    MechanismParams,
    _prior_arrays,
    gaussian_tilted_log_sum,
    laplace_scale,
    log_sum_exp,
    posterior_log_density_many,
    truncation_halfwidth,
)
from .errors import IntegrationFailure, InvalidValue

_GRID_PER_GAP = 4096
_NEGATIVE_FLOOR = -1e-8
# Rounds of _refine's branch and bound, and the ulps of _log_ratio_bounds' margin.
_CLASSIFY_ROUNDS = 64
_MARGIN_ULPS = 64.0
# Relative tolerance of the Gaussian alpha = inf supremum (see _gaussian_sup).
_SUP_RTOL = 1e-12


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

    - Window: breach._breach_intervals' (_window), the atom range padded by
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
    point of the interval too, so that breach._breach_intervals can compare a
    draw's ratio with a certified interval.
    - Laplace(s): M = D / s, for D the largest distance from a point of
      the interval to an atom of either prior, and S = 1.
    - Gaussian(s): with R the farthest atom from c and T the farthest
      point of the interval from c, the tilted exponents are at most
      M = (R / s)^2 / 2 + T R / s^2, plus min(T / s, 12)^2 / 2 for
      _log_ratio's exponents (y - a_i)^2 / 2 s^2 <= (R + T)^2 / 2 s^2
      inside breach._breach_intervals' window, which ends 12 s past the atoms
      (past it the search of _gaussian_sup compares no draw).
      S = 1 + w R / s^2 for an interval of width w: the tangent's slope
      is a weighted mean of (a_i - c) / s^2, at most R / s^2, so its
      rounding grows by up to w R / s^2 at the ends.

    The fourth array bounds log p over each interval, up to rounding, for
    breach._breach_intervals' expected-draw floor: for Laplace noise the larger
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
