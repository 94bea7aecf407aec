"""Monte Carlo breach estimates, counted against certified intervals.

monte_carlo_breach_steps draws from the first prior plus noise and counts
the draws whose posterior log ratio exceeds epsilon. _breach_intervals
classifies the window once per pair with certify's branch and bound, so
most draws are settled by comparisons and only the rest take the log
ratio itself.
"""

import math
from typing import Generator, Optional

import numpy as np

from .certify import _log_ratio, _log_ratio_bounds, _refine, _window
from .dist import (
    DiscreteDistribution,
    GaussianParams,
    MechanismParams,
    _prior_arrays,
    laplace_scale,
    sample_noise,
)
from .errors import InvalidValue

# Intervals narrower than this, relative to max(1, |y|), stay undecided (see
# _breach_intervals).
_MIN_WIDTH = 2.0**-30
# Draws per step of monte_carlo_breach_steps: its index and noise buffers,
# the settled-interval mask, and the sort buffer of the draws left after it.
_DRAW_CHUNK = 2**16
# Draws whose atoms are gathered and added to the noise at a time, so that no
# chunk-sized gather (512 KB) is held beside the noise.
_GATHER_SLICE = 2**13

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
    atoms added, _GATHER_SLICE at a time, and is counted (_count_breaches)
    against intervals classified once for the pair (_breach_intervals):
    draws inside the widest certified interval by two comparisons, the
    rest sorted and binary-searched against the other intervals' edges,
    so the count is the one that evaluating the log ratio at every draw
    gives. Draws outside the certified intervals' interiors, and every
    draw of a custom-cost mechanism, take the log ratio itself.

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
                for k in range(0, chunk.size, _GATHER_SLICE):
                    ys[k : k + _GATHER_SLICE] += atoms[chunk[k : k + _GATHER_SLICE]]
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
    interval, so there it is cut at the noise scale, by certify._cuts with
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
