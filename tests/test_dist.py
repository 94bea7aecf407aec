import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import quad

from puffercal import (
    DiscreteDistribution,
    ExponentialParams,
    GaussianParams,
    LaplaceParams,
    PrivacySpec,
    build_empirical,
)
from puffercal.dist import (
    _noise_log_density_into,
    noise_variance,
    posterior_log_density_many,
    sample_noise,
    truncation_halfwidth,
)
from puffercal.errors import EmptySample, InvalidValue, NonNormalizable

from conftest import point_mass, sample_atoms


def noise_log_density(mech, z):
    """The noise log density at the one point z, from the array kernel."""
    return float(_noise_log_density_into(mech, np.array([z], dtype=float))[0])


def posterior_log_density(mech, prior, y):
    """The posterior log density at the one point y, from the array kernel."""
    return float(posterior_log_density_many(mech, prior, np.array([y]))[0])


class TestDiscreteDistribution:
    def test_valid_construction(self):
        d = DiscreteDistribution(atoms=(0.0, 1.0), masses=(0.25, 0.75))
        assert d.min_atom == 0.0
        assert d.max_atom == 1.0

    def test_cached_hash_agrees_with_equality(self):
        a = DiscreteDistribution(atoms=(0.0, 1.0), masses=(0.25, 0.75))
        b = DiscreteDistribution(atoms=(0.0, 1.0), masses=(0.25, 0.75))
        c = DiscreteDistribution(atoms=(0.0, 1.0), masses=(0.75, 0.25))
        assert a == b and hash(a) == hash(b) == hash((a.atoms, a.masses))
        assert a != c and len({a, b, c}) == 2

    def test_atoms_must_increase(self):
        with pytest.raises(InvalidValue):
            DiscreteDistribution(atoms=(1.0, 1.0), masses=(0.5, 0.5))
        with pytest.raises(InvalidValue):
            DiscreteDistribution(atoms=(2.0, 1.0), masses=(0.5, 0.5))

    def test_masses_positive_and_normalized(self):
        with pytest.raises(InvalidValue):
            DiscreteDistribution(atoms=(0.0, 1.0), masses=(1.0, 0.0))
        with pytest.raises(InvalidValue):
            DiscreteDistribution(atoms=(0.0, 1.0), masses=(0.5, 0.4))
        with pytest.raises(InvalidValue):
            DiscreteDistribution(atoms=(0.0,), masses=(0.5, 0.5))

    def test_non_finite_atom_rejected(self):
        with pytest.raises(InvalidValue):
            DiscreteDistribution(atoms=(math.inf,), masses=(1.0,))

    def test_sample_deterministic(self):
        d = DiscreteDistribution(atoms=(0.0, 1.0, 3.0), masses=(0.2, 0.3, 0.5))
        a = sample_atoms(d, np.random.default_rng(3), 100)
        b = sample_atoms(d, np.random.default_rng(3), 100)
        assert np.array_equal(a, b)
        assert set(np.unique(a)) <= {0.0, 1.0, 3.0}


def _assert_sample_is_choice(dist, n, seed):
    """atoms[sample_indices] equals rng.choice bit for bit and leaves the generator
    where it does."""
    ours, reference = np.random.default_rng(seed), np.random.default_rng(seed)
    drawn = sample_atoms(dist, ours, n)
    expected = reference.choice(np.asarray(dist.atoms), size=n, p=np.asarray(dist.masses))
    assert drawn.dtype == expected.dtype and drawn.shape == expected.shape
    assert drawn.tobytes() == expected.tobytes()
    assert ours.random() == reference.random()
    return drawn


class TestGuideTableSample:
    """atoms[DiscreteDistribution.sample_indices] must be exactly what rng.choice returns."""

    def test_cdf_on_bucket_edges(self):
        # Masses are multiples of 2^-12, so every cumulative mass is a
        # bucket edge t/4096, and the searchsorted side decides which atom
        # a bucket starting there gets. The 1/4096 atoms own one bucket.
        counts = (1, 1023, 1024, 1, 2047)
        dist = DiscreteDistribution(
            atoms=tuple(float(i) for i in range(len(counts))),
            masses=tuple(c / 4096 for c in counts),
        )
        drawn = _assert_sample_is_choice(dist, 400_000, 12)
        assert set(np.unique(drawn)) == set(dist.atoms)

    def test_one_atom(self):
        drawn = _assert_sample_is_choice(point_mass(-2.5), 5000, 3)
        assert np.all(drawn == -2.5)

    def test_many_atoms_below_a_bucket(self):
        # 5000 atoms, each under 1/4096: nearly every bucket is searched.
        rng = np.random.default_rng(8)
        masses = rng.uniform(0.9, 1.1, 5000)
        masses /= masses.sum()
        assert masses.max() < 1 / 4096
        dist = DiscreteDistribution(
            atoms=tuple(np.arange(5000.0)), masses=tuple(float(m) for m in masses)
        )
        _assert_sample_is_choice(dist, 200_000, 9)

    @pytest.mark.parametrize("offset", [1e-13, -1e-13])
    def test_masses_not_summing_to_one(self, offset):
        masses = (0.1, 0.2, 0.3, 0.4 + offset)
        assert abs(math.fsum(masses) - 1.0) > 5e-14
        dist = DiscreteDistribution(atoms=(-1.0, 0.0, 2.0, 5.0), masses=masses)
        _assert_sample_is_choice(dist, 100_000, 4)

    @settings(deadline=None, max_examples=60)
    @given(
        st.lists(
            st.one_of(st.floats(min_value=1e-9, max_value=1.0), st.integers(1, 64).map(float)),
            min_size=1,
            max_size=40,
        ),
        st.integers(0, 2**32 - 1),
    )
    def test_random_masses(self, weights, seed):
        total = math.fsum(weights)
        dist = DiscreteDistribution(
            atoms=tuple(float(i) for i in range(len(weights))),
            masses=tuple(w / total for w in weights),
        )
        _assert_sample_is_choice(dist, 5000, seed)


class TestSampleIndices:
    """sample_indices draws rng.choice's indices chunk by chunk, in the smallest unsigned dtype."""

    @pytest.mark.parametrize("atoms, dtype", [(256, np.uint8), (65536, np.uint16)])
    @pytest.mark.parametrize("n", [1000, 65536, 65537, 150001])
    def test_indices_are_choice_indices(self, atoms, dtype, n):
        rng = np.random.default_rng(atoms)
        masses = rng.uniform(0.5, 1.5, atoms)
        dist = DiscreteDistribution(
            atoms=tuple(np.arange(float(atoms))), masses=tuple((masses / masses.sum()).tolist())
        )
        ours, reference = np.random.default_rng(n), np.random.default_rng(n)
        indices = dist.sample_indices(ours, n)
        expected = reference.choice(atoms, size=n, p=np.asarray(dist.masses))
        assert indices.dtype == dtype and indices.shape == (n,)
        assert np.array_equal(indices, expected)
        assert ours.random() == reference.random()

    def test_too_many_draws_is_a_memory_error(self):
        # 10^15 one-byte indices exceed the address space, so this fails at once.
        with pytest.raises(MemoryError, match="1000000000000000 draws"):
            point_mass(0.0).sample_indices(np.random.default_rng(0), 10**15)

    def test_guide_table_is_built_once_and_read_only(self):
        # Each Monte Carlo chunk draws its indices with its own call, so the
        # table is cached per prior, like _prior_arrays, and nobody may write it.
        from puffercal.dist import _guide_table

        dist = DiscreteDistribution(atoms=(0.0, 1.0, 3.0), masses=(0.2, 0.3, 0.5))
        tables = _guide_table(dist)
        dist.sample_indices(np.random.default_rng(0), 10)
        assert _guide_table(dist) is tables
        for array in tables:
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 0


@pytest.mark.parametrize("mech", [LaplaceParams(0.7), GaussianParams(1.3)])
def test_noise_in_chunks_is_one_call(mech):
    # Each value reads the generator on its own, so a ragged split of n
    # draws gives the values one call gives, and leaves the same state.
    whole, parts = np.random.default_rng(5), np.random.default_rng(5)
    expected = sample_noise(mech, whole, 150001)
    drawn = np.concatenate([sample_noise(mech, parts, size) for size in (65536, 65536, 18929)])
    assert drawn.tobytes() == expected.tobytes()
    assert whole.random() == parts.random()


class TestBuildEmpirical:
    def test_counting(self):
        d = build_empirical([1, 1, 2])
        assert d.atoms == (1.0, 2.0)
        assert d.masses == pytest.approx((2 / 3, 1 / 3), rel=1e-15)

    def test_point_mass(self):
        d = build_empirical([5])
        assert d.atoms == (5.0,)
        assert d.masses == (1.0,)

    def test_empty_rejected(self):
        with pytest.raises(EmptySample):
            build_empirical([])

    def test_non_finite_rejected(self):
        with pytest.raises(InvalidValue):
            build_empirical([1.0, math.nan])

    def test_fair_coin_law_of_large_numbers(self):
        rng = np.random.default_rng(1234)
        draws = rng.integers(0, 2, size=1000)
        d = build_empirical([float(v) for v in draws])
        assert d.atoms == (0.0, 1.0)
        assert abs(d.masses[0] - 0.5) < 0.05
        assert abs(d.masses[1] - 0.5) < 0.05

    def test_counts_equal_the_repeated_sample(self):
        # Equal values from different entries merge, the first one's sign
        # of zero is kept, and the masses are bit for bit the same.
        values = [2.0, -0.0, 0.5, 2, 0.0, 7.25]
        counts = [3, 1, 2, 1, 4, 1]
        repeated = [v for v, c in zip(values, counts) for _ in range(c)]
        want = build_empirical(repeated)
        got = build_empirical(values, counts)
        assert [a.hex() for a in got.atoms] == [a.hex() for a in want.atoms]
        assert got.atoms[0] == 0.0 and math.copysign(1.0, got.atoms[0]) == -1.0
        assert got.masses == want.masses


class TestMechanismParams:
    def test_positive_scale_required(self):
        with pytest.raises(InvalidValue):
            LaplaceParams(scale=0.0)
        with pytest.raises(InvalidValue):
            GaussianParams(sigma=-1.0)
        with pytest.raises(InvalidValue):
            ExponentialParams(scale=0.0)

    def test_cost_must_be_metric(self):
        # The squared cost violates the triangle inequality.
        with pytest.raises(InvalidValue):
            ExponentialParams(scale=1.0, cost=lambda z: z * z)

    def test_asymmetric_cost_rejected(self):
        with pytest.raises(InvalidValue):
            ExponentialParams(scale=1.0, cost=lambda z: abs(z) + z)


class TestNoiseLogDensity:
    def test_laplace_at_zero(self):
        assert noise_log_density(LaplaceParams(scale=1.0), 0.0) == pytest.approx(
            math.log(0.5), abs=1e-15
        )

    def test_gaussian_at_zero(self):
        assert noise_log_density(GaussianParams(sigma=1.0), 0.0) == pytest.approx(
            -0.5 * math.log(2 * math.pi), abs=1e-15
        )

    def test_exponential_equals_laplace_at_zero(self):
        mech = ExponentialParams(scale=1.0)
        assert noise_log_density(mech, 0.0) == pytest.approx(math.log(0.5), abs=1e-10)

    def test_exponential_matches_laplace_on_grid(self):
        theta = 0.7
        mech = ExponentialParams(scale=theta)
        lap = LaplaceParams(scale=theta)
        for z in np.linspace(-8.0, 8.0, 100):
            assert noise_log_density(mech, float(z)) == pytest.approx(
                noise_log_density(lap, float(z)), abs=1e-10
            )

    def test_non_integrable_cost_rejected(self):
        mech = ExponentialParams(scale=1.0, cost=lambda z: 0.0)
        with pytest.raises(NonNormalizable):
            noise_log_density(mech, 0.0)

    @pytest.mark.parametrize(
        "mech",
        [
            LaplaceParams(scale=2.0),
            GaussianParams(sigma=1.5),
            ExponentialParams(scale=1.3),
            ExponentialParams(scale=1.0, cost=lambda z: 2.0 * abs(z)),
        ],
    )
    def test_density_integrates_to_one(self, mech):
        pad = truncation_halfwidth(mech)
        total, _ = quad(
            lambda z: math.exp(noise_log_density(mech, z)),
            -pad,
            pad,
            points=[0.0],
            limit=200,
        )
        assert total == pytest.approx(1.0, abs=1e-8)


class TestPosterior:
    def test_point_mass_shift(self):
        mech = LaplaceParams(scale=1.0)
        assert posterior_log_density(mech, point_mass(0.0), 0.0) == pytest.approx(
            math.log(0.5), abs=1e-12
        )

    def test_two_atom_gaussian_oracle(self):
        # Direct two-term mixture sum at y = 0 for atoms at -1 and +1.
        prior = DiscreteDistribution(atoms=(-1.0, 1.0), masses=(0.5, 0.5))
        mech = GaussianParams(sigma=1.0)
        phi = lambda z: math.exp(-0.5 * z * z) / math.sqrt(2 * math.pi)
        expected = math.log(0.5 * phi(-1.0) + 0.5 * phi(1.0))
        assert posterior_log_density(mech, prior, 0.0) == pytest.approx(
            expected, abs=1e-12
        )

    @pytest.mark.parametrize(
        "mech", [LaplaceParams(scale=0.8), GaussianParams(sigma=1.1)]
    )
    def test_tail_decays_monotonically(self, mech):
        prior = DiscreteDistribution(atoms=(0.0, 2.0), masses=(0.4, 0.6))
        ys = np.linspace(3.0, 30.0, 50)
        values = [posterior_log_density(mech, prior, float(y)) for y in ys]
        assert all(a > b for a, b in zip(values, values[1:]))

    @pytest.mark.parametrize(
        "mech",
        [
            LaplaceParams(scale=1.2),
            GaussianParams(sigma=0.9),
            ExponentialParams(scale=0.6),
        ],
    )
    def test_posterior_integrates_to_one(self, mech):
        prior = DiscreteDistribution(atoms=(-1.0, 0.5, 2.0), masses=(0.3, 0.45, 0.25))
        pad = truncation_halfwidth(mech)
        total, _ = quad(
            lambda y: math.exp(posterior_log_density(mech, prior, y)),
            prior.min_atom - pad,
            prior.max_atom + pad,
            points=list(prior.atoms),
            limit=300,
        )
        assert total == pytest.approx(1.0, abs=1e-6)


class TestVectorizedDensities:
    def test_scalar_only_cost_on_matrix(self):
        # math.sqrt rejects arrays, forcing the element-wise fallback.
        mech = ExponentialParams(scale=1.0, cost=lambda z: math.sqrt(z * z))
        grid = np.array([[-1.0, 0.0], [0.5, 2.0]])
        values = _noise_log_density_into(mech, grid.copy())
        assert values.shape == grid.shape
        lap = LaplaceParams(scale=1.0)
        for z, v in zip(grid.ravel(), values.ravel()):
            assert v == pytest.approx(noise_log_density(lap, float(z)), abs=1e-10)

    def test_posterior_many_matches_scalar(self):
        prior = DiscreteDistribution(atoms=(-1.0, 0.5), masses=(0.4, 0.6))
        mech = GaussianParams(sigma=0.7)
        ys = np.linspace(-4.0, 4.0, 17)
        many = posterior_log_density_many(mech, prior, ys)
        for y, v in zip(ys, many):
            assert v == pytest.approx(posterior_log_density(mech, prior, float(y)), abs=1e-12)


class TestLaplacePosteriorKernel:
    """The anchored-sum Laplace kernel against the dense reduction.

    Tolerance: |kernel - dense| <= 1e-12 + 1e-12 |dense|. Measured: at most
    1.3e-15 relative on unit-range priors, 7.1e-15 absolute near 1e4 with
    b = 0.01.
    """

    TOL = dict(rtol=1e-12, atol=1e-12)

    @staticmethod
    def _prior(atoms, rng):
        masses = rng.dirichlet(np.ones(len(atoms)))
        return DiscreteDistribution(
            atoms=tuple(float(a) for a in atoms), masses=tuple(float(m) for m in masses)
        )

    def _check(self, prior, scale, ys):
        from puffercal.dist import LaplacePosterior, posterior_log_density_dense

        ys = np.asarray(ys, dtype=float)
        want = posterior_log_density_dense(LaplaceParams(scale), prior, ys)
        kernel = LaplacePosterior(prior, scale)
        np.testing.assert_allclose(kernel.log_density_many(ys), want, **self.TOL)

    def test_one_atom_prior(self):
        ys = np.linspace(-30.0, 30.0, 601)
        self._check(point_mass(1.7), 0.9, ys)

    def test_kernel_built_once_per_prior(self, monkeypatch, rng):
        # A whole alpha = 2 divergence builds each prior's kernel once, and
        # the shared kernel gives the values a fresh build per call gives.
        from puffercal import dist
        from puffercal.verify import renyi_divergence_numeric

        p = self._prior(np.arange(70.0), rng)
        q = self._prior(np.arange(3.0, 73.0), rng)
        mech = LaplaceParams(2.0)
        monkeypatch.setattr(dist, "laplace_posterior", dist.LaplacePosterior)
        fresh = renyi_divergence_numeric(p, q, mech, 2.0)
        monkeypatch.undo()

        builds = []
        init = dist.LaplacePosterior.__init__

        def counting(self, prior, scale):
            builds.append(prior)
            init(self, prior, scale)

        monkeypatch.setattr(dist.LaplacePosterior, "__init__", counting)
        dist.laplace_posterior.cache_clear()
        assert renyi_divergence_numeric(p, q, mech, 2.0) == fresh
        assert builds == [p, q]
        assert renyi_divergence_numeric(p, q, mech, 2.0) == fresh
        assert builds == [p, q]

    def test_points_on_atoms_and_beyond_both_ends(self, rng):
        prior = self._prior(np.sort(rng.uniform(-5.0, 5.0, 12)), rng)
        ys = [*prior.atoms, prior.min_atom - 1e3, prior.min_atom - 0.5,
              prior.max_atom + 0.5, prior.max_atom + 1e3]
        for scale in (0.05, 1.0, 20.0):
            self._check(prior, scale, ys)

    def test_five_thousand_atoms(self, rng):
        atoms = np.sort(rng.choice(np.arange(-20000, 20000), 5000, replace=False)) / 100.0
        prior = self._prior(atoms, rng)
        ys = rng.uniform(-250.0, 250.0, 1500)
        for scale in (0.01, 0.7, 30.0):
            self._check(prior, scale, ys)

    def test_large_atoms_small_scale_stay_accurate(self, rng):
        # Regression for the conditioning of prefix sums: with atoms near
        # 1e4 and b = 0.01, m_i exp(a_i / b) overflows and exp(-a_k / b)
        # times a prefix sum of it loses every digit. The anchored sums
        # never form either product.
        prior = self._prior(1e4 + np.sort(rng.uniform(0.0, 2.0, 50)), rng)
        ys = np.concatenate([np.linspace(1e4 - 1.0, 1e4 + 3.0, 4001), prior.atoms])
        self._check(prior, 0.01, ys)

    def test_default_exponential_mechanism_is_laplace(self):
        from puffercal.dist import _exponential_norm, laplace_scale, posterior_log_density_many

        _exponential_norm.cache_clear()
        prior = DiscreteDistribution(atoms=(-1.0, 0.5, 2.0), masses=(0.3, 0.45, 0.25))
        ys = np.linspace(-10.0, 10.0, 41)
        exp_mech = ExponentialParams(scale=1.3)
        assert laplace_scale(exp_mech) == 1.3
        assert np.array_equal(
            posterior_log_density_many(exp_mech, prior, ys),
            posterior_log_density_many(LaplaceParams(1.3), prior, ys),
        )
        assert truncation_halfwidth(exp_mech) == truncation_halfwidth(LaplaceParams(1.3))
        assert noise_log_density(exp_mech, 0.4) == noise_log_density(LaplaceParams(1.3), 0.4)
        assert _exponential_norm.cache_info().currsize == 0

    @pytest.mark.parametrize(
        "mech",
        [
            GaussianParams(sigma=1.0),
            ExponentialParams(scale=1.0, cost=lambda z: abs(z)),
        ],
    )
    def test_other_noise_has_no_laplace_scale(self, mech):
        from puffercal.dist import laplace_scale

        assert laplace_scale(mech) is None

    def test_custom_rate_abs_cost_is_laplace_noise(self):
        # Cost |z| with any rate r is Laplace(1/r) noise: verify and breach
        # read it exactly as LaplaceParams, and build no numeric normalizer.
        # Atoms near 1e4 are where sums not anchored at the atoms lose digits.
        from puffercal import monte_carlo_breach, scenario_set, verify_rpp
        from puffercal.dist import _exponential_norm, laplace_scale

        _exponential_norm.cache_clear()
        custom = ExponentialParams(1.0, rate=lambda t: 2.0 / t)
        laplace = LaplaceParams(0.5)
        assert laplace_scale(custom) == 0.5
        assert laplace_scale(ExponentialParams(1.3, cost=abs)) == 1.3
        rng = np.random.default_rng(411)

        def prior():
            n = int(rng.integers(2, 12))
            atoms = np.sort(rng.choice(np.arange(10000.0, 10040.0), n, replace=False))
            masses = rng.dirichlet(np.ones(n))
            return DiscreteDistribution(
                tuple(atoms.tolist()), tuple((masses / masses.sum()).tolist())
            )

        scenarios = scenario_set([(prior(), prior()) for _ in range(10)])
        for alpha in (2.0, math.inf):
            spec = PrivacySpec(alpha=alpha, epsilon=1.0)
            assert verify_rpp(scenarios, custom, spec) == verify_rpp(scenarios, laplace, spec)
        for pair in scenarios.pairs:
            assert monte_carlo_breach(pair.p_i, pair.p_j, custom, 1.0, 2000, 5) == (
                monte_carlo_breach(pair.p_i, pair.p_j, laplace, 1.0, 2000, 5)
            )
        assert noise_variance(custom) == noise_variance(laplace)
        assert _exponential_norm.cache_info().currsize == 0


class TestNoiseVarianceAndSampling:
    def test_variances(self):
        assert noise_variance(LaplaceParams(scale=2.0)) == 8.0
        assert noise_variance(GaussianParams(sigma=1.5)) == 2.25
        # Exponential with |z| cost is Laplace: variance 2 theta^2.
        assert noise_variance(ExponentialParams(scale=1.3)) == pytest.approx(
            2 * 1.3**2, rel=1e-6
        )

    @pytest.mark.parametrize(
        "mech",
        [LaplaceParams(scale=1e200), GaussianParams(sigma=1e200), ExponentialParams(scale=1e200)],
        ids=["laplace", "gaussian", "exponential"],
    )
    def test_variance_past_float_range_is_inf(self, mech):
        assert noise_variance(mech) == math.inf

    def test_sampling_deterministic(self):
        mech = ExponentialParams(scale=1.0)
        a = sample_noise(mech, np.random.default_rng(9), 500)
        b = sample_noise(mech, np.random.default_rng(9), 500)
        assert np.array_equal(a, b)

    def test_exponential_sampling_matches_laplace_quantiles(self):
        mech = ExponentialParams(scale=1.0)
        draws = sample_noise(mech, np.random.default_rng(42), 200_000)
        # Median of |Z| for Laplace(1) is ln 2.
        assert np.median(np.abs(draws)) == pytest.approx(math.log(2), abs=0.02)
        assert np.var(draws) == pytest.approx(2.0, rel=0.05)


CUSTOM_COSTS = {
    "half-abs": lambda z: 0.5 * abs(z),
    "sqrt": lambda z: abs(z) ** 0.5,
    "three-quarter-power": lambda z: abs(z) ** 0.75,
}


class TestSimpson:
    """dist._simpson is scipy.integrate.simpson's arithmetic on an odd number of points."""

    @pytest.mark.parametrize("cost", sorted(CUSTOM_COSTS))
    def test_custom_cost_integrals_match_scipy_bit_for_bit(self, cost):
        from scipy.integrate import simpson

        from puffercal.dist import _cost_on_grid, _exponential_norm, _simpson

        mech = ExponentialParams(scale=1.3, cost=CUSTOM_COSTS[cost])
        log_norm, _, grid, pdf = _exponential_norm(mech)
        assert grid.size == 100001
        unnormalized = np.exp(-mech.rate(mech.scale) * _cost_on_grid(mech.cost, grid))
        assert log_norm == math.log(float(simpson(unnormalized, x=grid)))
        mean = float(simpson(grid * pdf, x=grid))
        for y in (unnormalized, pdf, grid * pdf, (grid - mean) ** 2 * pdf):
            assert _simpson(y, grid) == float(simpson(y, x=grid))
        assert noise_variance(mech) == float(simpson((grid - mean) ** 2 * pdf, x=grid))

    def test_uneven_spacing_matches_scipy(self, rng):
        from scipy.integrate import simpson

        from puffercal.dist import _simpson

        x = np.cumsum(rng.uniform(0.1, 1.0, 1001))
        y = np.sin(x) + rng.uniform(0.0, 0.01, x.size)
        assert _simpson(y, x) == float(simpson(y, x=x))


class TestPrivacySpec:
    def test_alpha_one_rejected(self):
        with pytest.raises(InvalidValue, match="alpha = 1 rejected"):
            PrivacySpec(alpha=1.0, epsilon=0.5)

    def test_alpha_ranges(self):
        assert PrivacySpec(alpha=0.5, epsilon=1.0).is_sub_unit
        assert not PrivacySpec(alpha=2.0, epsilon=1.0).is_sub_unit
        assert PrivacySpec(alpha=math.inf, epsilon=1.0).alpha == math.inf
        with pytest.raises(InvalidValue):
            PrivacySpec(alpha=0.0, epsilon=1.0)
        with pytest.raises(InvalidValue):
            PrivacySpec(alpha=-2.0, epsilon=1.0)

    def test_epsilon_positive(self):
        with pytest.raises(InvalidValue):
            PrivacySpec(alpha=2.0, epsilon=0.0)
        with pytest.raises(InvalidValue):
            PrivacySpec(alpha=2.0, epsilon=-1.0)


class TestLogSumExp:
    """log_sum_exp must reproduce scipy.special.logsumexp bit for bit."""

    CASES = (
        [0.3],
        [-1.5, 2.0, 0.25],
        [2.0, 2.0, -1.0, 2.0],  # ties at the max
        [-math.inf, 0.5, -math.inf, -3.0],
        [-math.inf, -math.inf],
        [1.0, math.inf, -2.0],
        [-745.0, -740.0, -800.0],
        [700.0, 709.0, 650.0],
    )

    @staticmethod
    def _same(got, want):
        return np.array_equal(np.asarray(got), np.asarray(want), equal_nan=True)

    def test_one_dimensional_cases(self):
        from scipy.special import logsumexp

        from puffercal.dist import log_sum_exp

        for case in self.CASES:
            a = np.asarray(case, dtype=float)
            assert self._same(log_sum_exp(a.copy()), logsumexp(a)), case

    def test_one_dimensional_random(self, rng):
        from scipy.special import logsumexp

        from puffercal.dist import log_sum_exp

        for n in (1, 2, 7, 8, 9, 127, 128, 129, 1000):
            for _ in range(20):
                a = rng.normal(0.0, 10.0 ** rng.uniform(-3, 3), n)
                assert log_sum_exp(a.copy()) == logsumexp(a)

    def test_rows(self, rng):
        from scipy.special import logsumexp

        from puffercal.dist import log_sum_exp

        for rows, cols in ((1, 1), (5, 1), (40, 3), (17, 200)):
            a = rng.normal(0.0, 30.0, (rows, cols))
            a[0, 0] = -math.inf
            if cols > 1:
                a[-1, :2] = a[-1].max()
            got = log_sum_exp(a.copy())
            assert got.shape == (rows,)
            assert self._same(got, logsumexp(a, axis=1))

    def test_rows_with_infinite_entries(self):
        from scipy.special import logsumexp

        from puffercal.dist import log_sum_exp

        a = np.array([
            [-math.inf, -math.inf, -math.inf],
            [0.0, math.inf, 1.0],
            [2.0, 2.0, 2.0],
            [-math.inf, 3.0, -math.inf],
        ])
        assert self._same(log_sum_exp(a.copy()), logsumexp(a, axis=1))

    @pytest.mark.parametrize(
        "mech",
        [LaplaceParams(scale=0.8), GaussianParams(sigma=1.3), ExponentialParams(scale=0.6)],
    )
    def test_posterior_many_matches_scipy_reduction(self, rng, mech, monkeypatch):
        # The dense reduction is the reference for the Laplace kernel, so it
        # must stay bit-identical to scipy for every mechanism.
        from scipy.special import logsumexp

        import puffercal.dist as dist
        from puffercal.dist import posterior_log_density_dense

        prior = DiscreteDistribution(atoms=(-2.0, 0.1, 0.7, 3.5), masses=(0.1, 0.2, 0.3, 0.4))
        ys = rng.uniform(-40.0, 40.0, 1001)
        atoms = np.asarray(prior.atoms)
        log_masses = np.log(np.asarray(prior.masses))
        want = logsumexp(
            _noise_log_density_into(mech, ys[:, None] - atoms[None, :]) + log_masses[None, :],
            axis=1,
        )
        # Four atoms: 256 points per chunk, so the 1001 points span four chunks.
        monkeypatch.setattr(dist, "_DENSE_CHUNK_ELEMENTS", 256 * 4)
        got = posterior_log_density_dense(mech, prior, ys)
        assert np.array_equal(got, want)


class TestClosedFormExponentialVariance:
    def test_default_mechanism_is_exact_laplace_variance(self):
        from puffercal.dist import _exponential_norm

        _exponential_norm.cache_clear()
        for theta in (0.37, 1.0, 1.3, 25.0):
            assert noise_variance(ExponentialParams(scale=theta)) == 2.0 * theta**2
        assert _exponential_norm.cache_info().currsize == 0

    def test_custom_cost_still_integrated(self):
        from puffercal.dist import _exponential_norm

        _exponential_norm.cache_clear()
        theta = 1.7
        mech = ExponentialParams(scale=theta, cost=lambda z: 2.0 * abs(z))
        # exp(-2|z|/theta) is Laplace noise of scale theta/2.
        assert noise_variance(mech) == pytest.approx(theta**2 / 2.0, rel=1e-9)
        assert _exponential_norm.cache_info().currsize == 1
