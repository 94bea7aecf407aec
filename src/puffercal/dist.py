"""One-dimensional discrete distributions, noise densities, and convolved posteriors.

The data model is deliberately small: a discrete distribution is a sorted
list of atoms with positive masses, a noise mechanism is one of three
additive-noise families (Laplace, Gaussian, exponential-mechanism), a
scenario set is the secret pairs to protect jointly, and a privacy spec is
an (order, budget) pair. Everything is immutable after construction and
safe to share across workers.
"""

import math
from collections import Counter
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Sequence, Union

import numpy as np

from .errors import EmptySample, InvalidValue, NonNormalizable

# Annotations naming np.random are quoted: evaluating one imports numpy's
# lazy numpy.random package (about 6 MB and 20 ms), which only breach uses.

_MASS_TOL = 1e-12

# Bound on points x atoms in one dense log-sum-exp matrix (16 MB of float64).
_DENSE_CHUNK_ELEMENTS = 2**21

# Guide-table buckets (_guide_table) in DiscreteDistribution.sample_indices:
# a power of two that fits np.uint16.
_GUIDE_BUCKETS = 4096

# Uniforms drawn at a time by DiscreteDistribution.sample_indices.
_INDEX_CHUNK = 2**16

# Deterministic probe points used to spot-check cost-function axioms.
_COST_PROBES = (-3.7, -2.0, -1.3, -0.5, 0.0, 0.4, 1.0, 1.8, 2.6, 4.1)


@dataclass(frozen=True)
class DiscreteDistribution:
    """Empirical probability mass function with strictly increasing atoms."""

    atoms: tuple[float, ...]
    masses: tuple[float, ...]

    def __post_init__(self):
        if len(self.atoms) == 0:
            raise InvalidValue("distribution needs at least one atom")
        if len(self.atoms) != len(self.masses):
            raise InvalidValue(
                f"{len(self.atoms)} atoms but {len(self.masses)} masses"
            )
        for a in self.atoms:
            if not math.isfinite(a):
                raise InvalidValue(f"non-finite atom {a!r}")
        for m in self.masses:
            if not (math.isfinite(m) and m > 0.0):
                raise InvalidValue(f"mass {m!r} is not strictly positive")
        for left, right in zip(self.atoms, self.atoms[1:]):
            if not left < right:
                raise InvalidValue(
                    f"atoms must be strictly increasing, got {left!r} before {right!r}"
                )
        total = math.fsum(self.masses)
        if abs(total - 1.0) > _MASS_TOL:
            raise InvalidValue(f"masses sum to {total!r}, expected 1")
        # Distributions key memoized couplings; hash the two tuples once.
        object.__setattr__(self, "_hash", hash((self.atoms, self.masses)))

    def __hash__(self) -> int:
        return self._hash

    @property
    def min_atom(self) -> float:
        return self.atoms[0]

    @property
    def max_atom(self) -> float:
        return self.atoms[-1]

    def index_buffer(self, n: int) -> np.ndarray:
        """An uninitialised array for n atom indices, in the smallest unsigned dtype.

        Raises MemoryError when n indices do not fit in memory.
        """
        try:
            return np.empty(n, dtype=np.min_scalar_type(len(self.atoms) - 1))
        except (MemoryError, ValueError) as exc:
            raise MemoryError(f"{n} draws do not fit in memory ({exc})") from exc

    def sample_indices(self, rng: "np.random.Generator", n: int) -> np.ndarray:
        """Draw n iid atom indices, in the smallest unsigned dtype that holds them.

        The indices rng.choice(atoms, size=n, p=masses) picks, with the
        generator left in the same state: the same n uniforms u, drawn
        _INDEX_CHUNK at a time (the generator's stream does not depend on
        how it is split), and the same inverse-CDF lookup
        searchsorted(cdf, u, "right"), found by _guide_table's buckets.
        Consecutive calls on one generator therefore draw the indices of
        one call of their total size. The result takes 1 byte per draw
        up to 256 atoms, 2 up to 65536, where the float draws take 8.
        Raises index_buffer's MemoryError when n indices do not fit in memory.
        """
        cdf, first, ambiguous = _guide_table(self)
        indices = self.index_buffer(n)
        for start in range(0, n, _INDEX_CHUNK):
            u = rng.random(min(_INDEX_CHUNK, n - start))
            u *= _GUIDE_BUCKETS
            bucket = u.astype(np.uint16)
            out = indices[start : start + u.size]
            np.take(first, bucket, out=out)
            fix = np.flatnonzero(np.take(ambiguous, bucket))
            out[fix] = cdf.searchsorted(u[fix] / _GUIDE_BUCKETS, "right")
        return indices


@lru_cache(maxsize=64)
def _guide_table(prior: DiscreteDistribution) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(cdf, first, ambiguous): the prior's guide table, built once, as read-only arrays.

    K = _GUIDE_BUCKETS buckets (Chen & Asau 1974; Devroye 1986, III.2.4):
    bucket t holds the u in [t/K, (t+1)/K), and first[t] is the atom index
    that searchsorted(cdf, t/K, "right") looks up. The lookup is
    non-decreasing in u, so a bucket whose two ends look up the same atom
    gives it to every u inside; only the u in ambiguous buckets are
    searched. Scaling by K, a power of two, is exact both ways. Building
    the table takes about 0.1 ms on 70 atoms, a sixth of drawing one Monte
    Carlo chunk's 2^16 indices, which each chunk would otherwise pay.
    """
    cdf = np.cumsum(prior.masses)
    cdf /= cdf[-1]
    edges = np.arange(_GUIDE_BUCKETS + 1) / _GUIDE_BUCKETS
    lo = cdf.searchsorted(edges[:-1], "right")
    ambiguous = lo != cdf.searchsorted(np.nextafter(edges[1:], 0.0), "right")
    first = lo.astype(np.min_scalar_type(len(prior.atoms) - 1))
    for array in (cdf, first, ambiguous):
        array.flags.writeable = False
    return cdf, first, ambiguous


def build_empirical(
    samples: Sequence[float], counts: Sequence[int] | None = None
) -> DiscreteDistribution:
    """Build the empirical distribution of a sample (atom = value, mass = count/total).

    counts[k], when given, is how many times samples[k] occurs; the
    result is that of the sample with each value repeated. Raises
    EmptySample for an empty input and InvalidValue for non-finite
    entries. Sample values are kept exactly; no binning.
    """
    if len(samples) == 0:
        raise EmptySample("cannot build a distribution from zero samples")
    for value in samples:
        if not math.isfinite(value):
            raise InvalidValue(f"non-finite sample value {value!r}")
    if counts is None:
        tally = Counter(map(float, samples))
    else:
        tally = {}
        for value, count in zip(map(float, samples), counts):
            tally[value] = tally.get(value, 0) + count
    total = sum(tally.values())
    atoms = tuple(sorted(tally))
    masses = tuple(tally[a] / total for a in atoms)
    return DiscreteDistribution(atoms=atoms, masses=masses)


@dataclass(frozen=True)
class ScenarioPair:
    """Conditional data distributions for one secret pair under one prior belief."""

    p_i: DiscreteDistribution
    p_j: DiscreteDistribution
    label: str = ""


@dataclass(frozen=True)
class ScenarioSet:
    """All secret pairs (one entry per adversarial prior) to protect jointly."""

    pairs: tuple[ScenarioPair, ...]

    def __post_init__(self):
        if not self.pairs:
            raise InvalidValue("scenario set must contain at least one pair")

    def __len__(self) -> int:
        return len(self.pairs)

    def label(self, index: int) -> str:
        """The pair's label, or pair-<index> when it has none."""
        return self.pairs[index].label or f"pair-{index}"


def scenario_set(pairs: Sequence[tuple[DiscreteDistribution, DiscreteDistribution] | ScenarioPair]) -> ScenarioSet:
    """Build a ScenarioSet from ScenarioPair objects or bare (P, Q) tuples."""
    built = []
    for k, pair in enumerate(pairs):
        if isinstance(pair, ScenarioPair):
            built.append(pair)
        else:
            p, q = pair
            built.append(ScenarioPair(p_i=p, p_j=q, label=f"pair-{k}"))
    return ScenarioSet(pairs=tuple(built))


def _check_positive_scale(value: float, name: str) -> None:
    if not (math.isfinite(value) and value > 0.0):
        raise InvalidValue(f"{name} must be strictly positive, got {value!r}")


@dataclass(frozen=True)
class LaplaceParams:
    """Zero-mean Laplace noise with density exp(-|z|/scale) / (2*scale)."""

    scale: float

    def __post_init__(self):
        _check_positive_scale(self.scale, "Laplace scale")


@dataclass(frozen=True)
class GaussianParams:
    """Zero-mean Gaussian noise with standard deviation sigma."""

    sigma: float

    def __post_init__(self):
        _check_positive_scale(self.sigma, "Gaussian sigma")


def absolute_cost(z: float) -> float:
    return abs(z)


def reciprocal_rate(theta: float) -> float:
    return 1.0 / theta


def check_cost_axioms(cost: Callable[[float], float], *, require_triangle: bool = True) -> None:
    """Spot-check that a cost is nonnegative, symmetric and (optionally) a metric.

    The check runs on a fixed grid of probe points; it cannot prove the
    axioms, only reject obviously unsuitable costs.
    """
    for z in _COST_PROBES:
        value = cost(z)
        if not (math.isfinite(value) and value >= 0.0):
            raise InvalidValue(f"cost({z}) = {value!r} is not finite nonnegative")
        if abs(value - cost(-z)) > 1e-12 * (1.0 + abs(value)):
            raise InvalidValue(f"cost is not symmetric at z = {z}")
    if require_triangle:
        for z in _COST_PROBES:
            for a in _COST_PROBES:
                lhs = cost(z)
                rhs = cost(a) + cost(z - a)
                if lhs > rhs + 1e-9 * (1.0 + abs(rhs)):
                    raise InvalidValue(
                        f"cost violates the triangle inequality at (z={z}, a={a})"
                    )


@dataclass(frozen=True)
class ExponentialParams:
    """Exponential-mechanism noise with density proportional to exp(-rate(scale) * cost(z)).

    Cost |z| with rate r is Laplace(1/r) noise (see laplace_scale). The
    cost must be a metric (nonnegative, symmetric, triangle inequality);
    the axioms are spot-checked on a fixed probe grid at construction.
    """

    scale: float
    cost: Callable[[float], float] = absolute_cost
    rate: Callable[[float], float] = reciprocal_rate

    def __post_init__(self):
        _check_positive_scale(self.scale, "exponential-mechanism scale")
        rate_value = self.rate(self.scale)
        if not (math.isfinite(rate_value) and rate_value > 0.0):
            raise InvalidValue(f"rate({self.scale}) = {rate_value!r} must be positive")
        check_cost_axioms(self.cost)


MechanismParams = Union[LaplaceParams, GaussianParams, ExponentialParams]


def laplace_scale(mech: MechanismParams) -> float | None:
    """The scale b when the noise is Laplace(b), else None.

    Besides LaplaceParams, an exponential mechanism with cost |z|
    (absolute_cost or the builtin abs) has the density exp(-r|z|) r/2 with
    r = rate(scale), which is Laplace(1/r); with the default rate 1/scale
    that is Laplace(scale), taken as is so that 1/(1/scale) need not round
    trip. Every Laplace closed form and kernel reads this, so these
    mechanisms never build a numeric normalizer.
    """
    if isinstance(mech, LaplaceParams):
        return mech.scale
    if isinstance(mech, ExponentialParams) and (mech.cost is absolute_cost or mech.cost is abs):
        if mech.rate is reciprocal_rate:
            return mech.scale
        return 1.0 / mech.rate(mech.scale)
    return None


def _cost_on_grid(cost: Callable[[float], float], grid: np.ndarray) -> np.ndarray:
    """Evaluate a scalar cost on an array, vectorizing when the callable allows."""
    try:
        values = np.asarray(cost(grid), dtype=float)
        if values.shape == grid.shape:
            return values
    except Exception:
        pass
    flat = np.fromiter(
        (cost(float(z)) for z in np.ravel(grid)), dtype=float, count=grid.size
    )
    return flat.reshape(grid.shape)


@lru_cache(maxsize=64)
def _exponential_norm(mech: ExponentialParams):
    """Normalization data for an exponential mechanism: (log Z, halfwidth, grid, pdf).

    The window [-L, L] is doubled until the unnormalized density at the
    edge drops below 1e-18 (the peak is exp(-rate*cost(0)) = 1), then Z is
    computed by composite Simpson (_simpson) on a 100001-point grid. Costs whose
    density never decays are rejected as non-normalizable.
    """
    rate = mech.rate(mech.scale)
    halfwidth = 1.0
    for _ in range(80):
        edge = math.exp(-rate * mech.cost(halfwidth))
        if edge < 1e-18:
            break
        halfwidth *= 2.0
    else:
        raise NonNormalizable(
            f"density exp(-{rate!r} * cost(z)) does not decay; cost is not integrable"
        )
    grid = np.linspace(-halfwidth, halfwidth, 100001)
    pdf_unnorm = np.exp(-rate * _cost_on_grid(mech.cost, grid))
    z_const = _simpson(pdf_unnorm, grid)
    if not (math.isfinite(z_const) and z_const > 0.0):
        raise NonNormalizable(f"normalization integral evaluated to {z_const!r}")
    return math.log(z_const), halfwidth, grid, pdf_unnorm / z_const


def _noise_log_density_into(mech: MechanismParams, z: np.ndarray) -> np.ndarray:
    """Log density of the noise at each point of the float array z, written over z and returned."""
    scale = laplace_scale(mech)
    if scale is not None:
        np.abs(z, out=z)
        np.negative(z, out=z)
        z /= scale
        z -= math.log(2.0 * scale)
        return z
    if isinstance(mech, GaussianParams):
        # Far past a tiny sigma the quotient or its square overflows: the
        # log density is -inf.
        with np.errstate(over="ignore"):
            z /= mech.sigma
            np.square(z, out=z)
        z *= -0.5
        z -= 0.5 * math.log(2.0 * math.pi)
        z -= math.log(mech.sigma)
        return z
    log_norm, _, _, _ = _exponential_norm(mech)
    costs = _cost_on_grid(mech.cost, z)
    costs *= -mech.rate(mech.scale)
    costs -= log_norm
    return costs


def truncation_halfwidth(mech: MechanismParams) -> float:
    """Half-width beyond the atom range where the noise tail mass is negligible.

    Laplace noise uses 40 scales, Gaussian 12 sigmas (tail mass < 1e-15 in
    both cases); an exponential mechanism with a cost other than |z| reuses
    its normalization window. The verifier pads its finite-order windows
    with it for Gaussian noise and custom costs only: Laplace-type
    divergences integrate the atom hull and add the tails past it in
    closed form (verify.renyi_divergence_numeric), so the Laplace width
    serves as the padded window of the tests' oracles. It also pads the
    alpha = inf grid of custom costs, and the window that the Gaussian
    alpha = inf search and the breach classifier start from.
    """
    scale = laplace_scale(mech)
    if scale is not None:
        return 40.0 * scale
    if isinstance(mech, GaussianParams):
        return 12.0 * mech.sigma
    _, halfwidth, _, _ = _exponential_norm(mech)
    return halfwidth


class LaplacePosterior:
    """Exact log density of Y = X + N for a discrete prior X and Laplace(b) noise N.

    The density at y is sum_i m_i exp(-|y - a_i|/b) / 2b. Two sums anchored
    at the atoms a_0 < ... < a_{n-1} are built once, in O(n):

        left[k]  = sum_{i<=k} m_i exp(-(a_k - a_i)/b)
                 = left[k-1] exp(-(a_k - a_{k-1})/b) + m_k,
        right[k] = sum_{i>=k} m_i exp(-(a_i - a_k)/b), the mirror image.

    A point a_k <= y < a_{k+1} then costs one binary search:

        log p(y) = logaddexp(log left[k] - (y - a_k)/b,
                             log right[k+1] - (a_{k+1} - y)/b) - log 2b,

    with the left term absent below a_0 and the right one above a_{n-1}.
    Every exponent is at most 0 and each anchored sum lies in [m_k, 1], so
    there is no overflow and no cancellation however large |a|/b is (a
    plain prefix sum of m_i exp(a_i/b) has both).
    """

    def __init__(self, prior: DiscreteDistribution, scale: float):
        masses = prior.masses
        with np.errstate(over="ignore"):
            # A gap past the float range, in scales, decays to exactly 0.
            decay = np.exp(-np.diff(np.asarray(prior.atoms)) / scale).tolist()
        left = [masses[0]]
        for d, m in zip(decay, masses[1:]):
            left.append(left[-1] * d + m)
        right = [masses[-1]]
        for d, m in zip(reversed(decay), reversed(masses[:-1])):
            right.append(right[-1] * d + m)
        right.reverse()
        # Index j = searchsorted(atoms, y, side="right") selects left[j - 1]
        # and right[j]; the padding at -inf and inf makes the missing term
        # -inf at either end, however far y lies.
        atoms = np.asarray(prior.atoms)
        self.scale = scale
        self.atoms = atoms
        self.log_norm = math.log(2.0 * scale)
        self.left_atoms = np.concatenate(([-math.inf], atoms))
        self.right_atoms = np.concatenate((atoms, [math.inf]))
        self.log_left = np.array([-math.inf, *(math.log(v) for v in left)])
        self.log_right = np.array([*(math.log(v) for v in right), -math.inf])
        for array in (atoms, self.left_atoms, self.right_atoms, self.log_left, self.log_right):
            array.flags.writeable = False

    def log_density_many(self, ys: np.ndarray) -> np.ndarray:
        ys = np.asarray(ys, dtype=float)
        j = np.searchsorted(self.atoms, ys, side="right")
        with np.errstate(over="ignore"):
            # Distances past the float range, in scales, are -inf exponents.
            from_left = self.left_atoms[j] - ys
            from_left /= self.scale
            from_right = ys - self.right_atoms[j]
            from_right /= self.scale
        from_left += self.log_left[j]
        from_right += self.log_right[j]
        out = np.logaddexp(from_left, from_right, out=from_left)
        out -= self.log_norm
        return out


def posterior_log_density_many(
    mech: MechanismParams, prior: DiscreteDistribution, ys: np.ndarray
) -> np.ndarray:
    """Log density of Y = X + N at each point of ys: log sum_x P_N(y - x) P_X(x).

    Laplace noise (see laplace_scale) takes the exact LaplacePosterior
    kernel, O((N + n) log n) for N points and n atoms; other noise takes
    the dense reduction posterior_log_density_dense.
    """
    scale = laplace_scale(mech)
    if scale is not None:
        return laplace_posterior(prior, scale).log_density_many(ys)
    return posterior_log_density_dense(mech, prior, ys)


@lru_cache(maxsize=64)
def laplace_posterior(prior: DiscreteDistribution, scale: float) -> LaplacePosterior:
    """The LaplacePosterior of (prior, scale), built once and shared.

    A divergence's quadrature asks for the same two kernels in every round;
    DiscreteDistribution caches its hash, so a lookup costs one tuple
    comparison on a hit. The kernel's arrays are read-only.
    """
    return LaplacePosterior(prior, scale)


@lru_cache(maxsize=64)
def _prior_arrays(prior: DiscreteDistribution) -> tuple[np.ndarray, np.ndarray]:
    """The prior's atoms and log masses as read-only arrays, built once.

    Converting a tuple of 10^3 floats takes about 70 us, which a Monte
    Carlo chunk's few fallback draws would otherwise pay per call.
    """
    atoms = np.asarray(prior.atoms)
    log_masses = np.log(np.asarray(prior.masses))
    for array in (atoms, log_masses):
        array.flags.writeable = False
    return atoms, log_masses


def posterior_log_density_dense(
    mech: MechanismParams, prior: DiscreteDistribution, ys: np.ndarray
) -> np.ndarray:
    """posterior_log_density_many as a (points x atoms) log-sum-exp, for any noise.

    Chunked so that no matrix holds more than _DENSE_CHUNK_ELEMENTS
    entries; each chunk's matrix is built and reduced in place, and freed
    before the next one is built. Gaussian noise and custom exponential
    costs use it, and the tests use it as the reference for the Laplace
    kernel.
    """
    ys = np.asarray(ys, dtype=float)
    out = np.empty_like(ys)
    atoms, log_masses = _prior_arrays(prior)
    chunk = max(1, _DENSE_CHUNK_ELEMENTS // atoms.size)
    for start in range(0, ys.size, chunk):
        block = ys[start : start + chunk]
        lp = _noise_log_density_into(mech, block[:, None] - atoms[None, :])
        lp += log_masses[None, :]
        out[start : start + chunk] = log_sum_exp(lp)
        del lp
    return out


def gaussian_tilted_log_sum(
    prior: DiscreteDistribution, sigma: float, centers: np.ndarray, offsets: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """The Gaussian posterior's log-sum-exp tilted about each center, and its slope at the middle.

    For Y = X + N(0, sigma^2) and a center c, write y = c + t. Then

        log p(y) = G_c(t) - t^2 / 2 sigma^2 - log(sigma sqrt(2 pi)),
        G_c(t) = log sum_i m_i exp(-(a_i - c)^2 / 2 sigma^2 + t (a_i - c) / sigma^2),

    and G_c is a log-sum-exp of functions affine in t, so it is convex
    (Boyd & Vandenberghe 2004, 3.1.5): for t_a <= t <= t_b and any t_m it
    lies above its tangent at t_m and under its chord on [t_a, t_b],

        G_c(t_m) + G_c'(t_m) (t - t_m) <= G_c(t),
        G_c(t) <= ((t_b - t) G_c(t_a) + (t - t_a) G_c(t_b)) / (t_b - t_a).

    Two priors under the same noise share the other two terms, so
    log p - log q = G^p_c - G^q_c for every t. The exponents hold
    (a_i - c) / sigma and t / sigma, never y a_i / sigma^2, so atoms far
    from 0 lose no digits; each is at most (R / sigma)^2 / 2 + |t| R / sigma^2
    in magnitude, for R the farthest atom from c, so with c inside the
    atom range none holds (y - a_i)^2 / sigma^2 far past it. Returns
    G_c(offsets[k, j]) about centers[k], shape (K, J), and the slope
    G_c'(offsets[k, 1]), the mean of (a_i - c) / sigma^2 weighted by the
    terms there, shape (K,). Chunked like posterior_log_density_dense.
    """
    atoms, log_masses = _prior_arrays(prior)
    values = np.empty(offsets.shape)
    slopes = np.empty(centers.shape)
    chunk = max(1, _DENSE_CHUNK_ELEMENTS // (atoms.size * offsets.shape[1]))
    for start in range(0, centers.size, chunk):
        rows = slice(start, start + chunk)
        reach = atoms[None, :] - centers[rows, None]
        reach /= sigma
        # At a tiny sigma the squares overflow and the results are inf or
        # nan; verify._log_ratio_bounds' margin is then inf, so they certify
        # nothing.
        with np.errstate(over="ignore", invalid="ignore"):
            base = np.square(reach)
            base *= -0.5
            base += log_masses[None, :]
            tilted = base[:, None, :] + (offsets[rows] / sigma)[:, :, None] * reach[:, None, :]
            middle = tilted[:, 1, :]
            weights = np.exp(middle - middle.max(axis=1, keepdims=True))
            slopes[rows] = (weights * reach).sum(axis=1) / (sigma * weights.sum(axis=1))
        values[rows] = log_sum_exp(tilted.reshape(-1, atoms.size)).reshape(-1, offsets.shape[1])
    return values, slopes


def log_sum_exp(a: np.ndarray):
    """log(sum(exp(a))) along the last axis of a 1-D or 2-D array; a is overwritten.

    This is scipy.special.logsumexp's arithmetic (the shifted algorithm of
    Blanchard, Higham & Higham, IMA J. Numer. Anal. 41(4), 2021) without
    its array-API wrapper, so results are bit-identical: count the m
    entries equal to the maximum, sum exp(a - max) over the others, and
    return log1p(s / m) + log(m) + max. 1-D input gives a scalar, 2-D input
    one value per row.
    """
    peak = a.max(axis=-1, keepdims=True)
    at_peak = a == peak
    count = at_peak.sum(axis=-1, dtype=float)
    # An all -inf row has peak -inf and subtracts to nan; masking it to 0
    # leaves s = 0 and the row's result -inf, as in scipy.
    with np.errstate(invalid="ignore", divide="ignore"):
        np.subtract(a, peak, out=a)
        np.exp(a, out=a)
        np.copyto(a, 0.0, where=at_peak)
        s = a.sum(axis=-1)
        return np.log1p(s / count) + np.log(count) + peak[..., 0]


def noise_variance(mech: MechanismParams) -> float:
    """Variance of the noise: 2 scale^2 (Laplace), sigma^2 (Gaussian), numeric otherwise.

    An exponential mechanism with cost |z| is Laplace noise and takes the
    closed form; only other costs are integrated. A closed form past the
    float range is inf (a float's ** raises OverflowError there).
    """
    try:
        if isinstance(mech, GaussianParams):
            return mech.sigma**2
        scale = laplace_scale(mech)
        if scale is not None:
            return 2.0 * scale**2
    except OverflowError:
        return math.inf
    _, _, grid, pdf = _exponential_norm(mech)
    mean = _simpson(grid * pdf, grid)
    return _simpson((grid - mean) ** 2 * pdf, grid)


def _simpson(y: np.ndarray, x: np.ndarray) -> float:
    """Composite Simpson's rule for samples y at the points x, an odd number of them.

    Each pair of steps h0, h1 takes the three-point rule for uneven
    spacing, (h0 + h1)/6 (y0 (2 - h1/h0) + y1 (h0 + h1)^2 / (h0 h1) +
    y2 (2 - h0/h1)), and the panels are summed. The arithmetic is
    scipy.integrate.simpson's for an odd number of points (scipy 1.11 and
    later), operation for operation, so on the same arrays the result is
    bit for bit scipy's.
    """
    h = np.diff(x)
    h0, h1 = h[0::2], h[1::2]
    hsum = h0 + h1
    hprod = h0 * h1
    h0divh1 = h0 / h1
    panels = hsum / 6.0 * (
        y[:-2:2] * (2.0 - 1.0 / h0divh1)
        + y[1::2] * (hsum * (hsum / hprod))
        + y[2::2] * (2.0 - h0divh1)
    )
    return float(np.sum(panels))


def sample_noise(mech: MechanismParams, rng: "np.random.Generator", n: int) -> np.ndarray:
    """Draw n noise values; custom exponential costs use numeric inverse-CDF sampling.

    Each value reads the generator on its own, so n draws in consecutive
    calls of any sizes equal one call's, bit for bit.
    """
    scale = laplace_scale(mech)
    if scale is not None:
        return rng.laplace(0.0, scale, size=n)
    if isinstance(mech, GaussianParams):
        return rng.normal(0.0, mech.sigma, size=n)
    cdf, grid = _noise_inverse_cdf(mech)
    return np.interp(rng.random(n), cdf, grid)


@lru_cache(maxsize=8)
def _noise_inverse_cdf(mech: ExponentialParams) -> tuple[np.ndarray, np.ndarray]:
    """(cdf, grid): the trapezoid CDF of a custom-cost density on its grid, built once."""
    _, _, grid, pdf = _exponential_norm(mech)
    steps = np.diff(grid)
    cdf = np.concatenate(([0.0], np.cumsum(0.5 * (pdf[1:] + pdf[:-1]) * steps)))
    cdf /= cdf[-1]
    return cdf, grid


@dataclass(frozen=True)
class PrivacySpec:
    """Target privacy level: divergence order alpha and budget epsilon.

    alpha = 1 is rejected (the divergence definition degenerates there);
    alpha = inf selects the worst-case-displacement regime.
    """

    alpha: float
    epsilon: float

    def __post_init__(self):
        if not (math.isfinite(self.epsilon) and self.epsilon > 0.0):
            raise InvalidValue(f"epsilon must be strictly positive, got {self.epsilon!r}")
        if self.alpha == 1.0:
            raise InvalidValue("alpha = 1 rejected")
        if math.isnan(self.alpha) or self.alpha <= 0.0:
            raise InvalidValue(f"alpha must lie in (0,1) or (1,inf], got {self.alpha!r}")

    @property
    def is_sub_unit(self) -> bool:
        return self.alpha < 1.0
