"""Property-based checks for the structural invariants."""

import math
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from puffercal import (
    build_empirical,
    monotone_coupling,
)
from puffercal.dist import (
    DiscreteDistribution,
    GaussianParams,
    LaplaceParams,
    posterior_log_density_dense,
)

from conftest import plan_expectation, plan_marginals

finite_samples = st.lists(
    st.floats(min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False),
    min_size=1,
    max_size=200,
)


@st.composite
def distributions(draw, max_atoms=12):
    n = draw(st.integers(min_value=1, max_value=max_atoms))
    atoms = draw(
        st.lists(
            st.floats(min_value=-100.0, max_value=100.0, allow_nan=False),
            min_size=n,
            max_size=n,
            unique=True,
        )
    )
    weights = draw(
        st.lists(
            st.floats(min_value=1e-3, max_value=1.0), min_size=n, max_size=n
        )
    )
    total = math.fsum(weights)
    return DiscreteDistribution(
        atoms=tuple(sorted(atoms)),
        masses=tuple(w / total for w in weights),
    )


@given(finite_samples)
def test_build_empirical_invariants(samples):
    dist = build_empirical(samples)
    assert len(dist.atoms) == len(dist.masses)
    assert all(a < b for a, b in zip(dist.atoms, dist.atoms[1:]))
    assert all(m > 0 for m in dist.masses)
    assert math.fsum(dist.masses) == pytest.approx(1.0, abs=1e-12)
    assert set(dist.atoms) == {float(s) for s in samples}


@settings(deadline=None)
@given(distributions(), distributions())
def test_monotone_coupling_marginals_and_shape(p, q):
    plan = monotone_coupling(p, q)
    first, second = plan_marginals(plan)
    for atom, mass in zip(p.atoms, p.masses):
        assert abs(first[atom] - mass) <= 1e-12
    for atom, mass in zip(q.atoms, q.masses):
        assert abs(second[atom] - mass) <= 1e-12
    xs = [x for x, _, _ in plan.entries]
    x2s = [x2 for _, x2, _ in plan.entries]
    assert xs == sorted(xs)
    assert x2s == sorted(x2s)


@settings(deadline=None)
@given(distributions(), distributions())
def test_w_infinity_dominates_mean_displacement(p, q):
    w1 = plan_expectation(monotone_coupling(p, q), lambda u: u)
    assert monotone_coupling(p, q).max_displacement() >= w1 - 1e-12


def _exact_w_infinity(xs, ys):
    """W_inf of the quantile coupling on exact rational cumulative ladders."""

    def ladder(samples):
        counts = Counter(samples)
        atoms = sorted(counts)
        levels, acc = [], Fraction(0)
        for atom in atoms:
            acc += Fraction(counts[atom], len(samples))
            levels.append(acc)
        return atoms, levels

    atoms_p, cum_p = ladder(xs)
    atoms_q, cum_q = ladder(ys)
    i = j = 0
    worst = 0
    while i < len(cum_p) and j < len(cum_q):
        worst = max(worst, abs(atoms_p[i] - atoms_q[j]))
        level = min(cum_p[i], cum_q[j])
        if cum_p[i] == level:
            i += 1
        if cum_q[j] == level:
            j += 1
    return worst


count_samples = st.lists(st.integers(min_value=0, max_value=12), min_size=1, max_size=40)


@settings(max_examples=400, deadline=None)
@given(count_samples, count_samples)
def test_w_infinity_matches_exact_ladder(xs, ys):
    """Float cumulative sums must not leave rounding slivers in the coupling."""
    p = build_empirical([float(x) for x in xs])
    q = build_empirical([float(y) for y in ys])
    assert monotone_coupling(p, q).max_displacement() == _exact_w_infinity(xs, ys)


@settings(deadline=None, max_examples=60)
@given(
    distributions(max_atoms=6),
    distributions(max_atoms=6),
    st.floats(min_value=0.05, max_value=20.0),
)
def test_laplace_infinite_order_matches_grid_search(p, q, scale):
    # The closed form (the largest ratio at the atoms) against the grid +
    # bounded search it replaced, run on dense-path densities, with the
    # tails read off a dense grid beyond the extreme atoms: it agrees to
    # 1e-12 and never reads below the grid's own maximum, so the verifier
    # cannot under-report.
    import puffercal.verify as verify

    mech = LaplaceParams(scale)
    closed = verify.renyi_divergence_numeric(p, q, mech, math.inf)
    knots = sorted(set(p.atoms) | set(q.atoms))

    def dense_ratios(ys):
        return posterior_log_density_dense(mech, p, ys) - posterior_log_density_dense(
            mech, q, ys
        )

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(verify, "posterior_log_density_many", posterior_log_density_dense)
        ys = verify._dense_grid(mech, knots)
        searched = verify._grid_max_log_ratio(p, q, mech, ys, verify._log_ratio(p, q, mech, ys))
    grid = np.linspace(knots[0] - 40.0 * scale, knots[-1] + 40.0 * scale, 20001)
    grid_max = float(np.max(dense_ratios(grid)))
    tails = np.concatenate([
        np.linspace(knots[0] - 40.0 * scale, knots[0], 201),
        np.linspace(knots[-1], knots[-1] + 40.0 * scale, 201),
    ])
    old = max(searched, float(np.max(dense_ratios(tails))), 0.0)
    assert closed == pytest.approx(old, rel=1e-12, abs=1e-12)
    assert closed >= grid_max - 1e-12 * max(1.0, abs(grid_max))


@st.composite
def lattice_pairs(draw):
    """Two priors of at most 6 atoms on offset + step k, |k| <= 4, so extreme atoms are often shared."""
    offset = draw(st.sampled_from([0.0, 1e4]))
    step = draw(st.floats(min_value=0.05, max_value=3.0))

    def prior():
        ks = draw(st.lists(st.integers(-4, 4), min_size=1, max_size=6, unique=True))
        weights = draw(st.lists(st.floats(1e-3, 1.0), min_size=len(ks), max_size=len(ks)))
        total = math.fsum(weights)
        order = sorted(range(len(ks)), key=ks.__getitem__)
        return DiscreteDistribution(
            atoms=tuple(offset + step * ks[i] for i in order),
            masses=tuple(weights[i] / total for i in order),
        )

    return prior(), prior()


@settings(deadline=None, max_examples=40)
@given(lattice_pairs(), st.floats(min_value=0.01, max_value=20.0))
def test_gaussian_infinite_order_is_certified_against_grid_search(pair, sigma):
    # The branch and bound against the grid search it replaced (the grid
    # maximum, refined, with the tail limits at equal extreme atoms): never
    # more than 1e-12 relative below it, never above its own certified
    # bound, which the grid's value never exceeds either, and infinite
    # exactly where the grid search read inf. The grid's value is itself
    # off by the rounding of its squares ((y - a) / sigma)^2, up to about
    # 8 u z^2 for the nearest atoms of each prior at z sigma from the
    # grid's best point y: at sigma = 1/64 the grid read 6.5e-12 above the
    # true supremum log 5 of (0 vs -12, 0, 3), so that rounding, doubled,
    # is added to the tolerance.
    import puffercal.verify as verify

    p, q = pair
    mech = GaussianParams(sigma)
    for a, b in ((p, q), (q, p)):
        sup, bound = verify._gaussian_sup(a, b, mech)
        if a.max_atom > b.max_atom or a.min_atom < b.min_atom:
            assert sup == bound == math.inf
            continue
        knots = sorted(set(a.atoms) | set(b.atoms))
        ys = verify._dense_grid(mech, knots)
        best = verify._grid_max_log_ratio(a, b, mech, ys, verify._log_ratio(a, b, mech, ys))
        limits = [
            math.log(a.masses[k]) - math.log(b.masses[k])
            for k in (0, -1) if a.atoms[k] == b.atoms[k]
        ]
        grid = max(best, *limits, 0.0)
        y = ys[int(np.argmax(verify._log_ratio(a, b, mech, ys)))]
        z2 = sum(min((y - atom) ** 2 for atom in prior.atoms) for prior in (a, b)) / sigma**2
        tol = 1e-12 * max(1.0, abs(grid)) + 16 * 2.0**-53 * (z2 + 40.0)
        assert math.isfinite(sup)
        assert sup >= grid - tol
        assert sup <= bound
        assert grid <= bound + tol
