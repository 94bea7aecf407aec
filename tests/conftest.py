import math

import numpy as np
import pytest

from puffercal import DiscreteDistribution, calibrate_grid


def random_distribution(
    rng: np.random.Generator,
    max_atoms: int = 20,
    min_atoms: int = 1,
    span: float = 5.0,
    floor_mass: bool = False,
) -> DiscreteDistribution:
    """Random sorted discrete distribution; floor_mass keeps every mass >= 1/(2n)."""
    n = int(rng.integers(min_atoms, max_atoms + 1))
    atoms = np.sort(rng.uniform(-span, span, n))
    masses = rng.dirichlet(np.ones(n))
    if floor_mass:
        masses = 0.5 / n + 0.5 * masses
    masses = masses / masses.sum()
    return DiscreteDistribution(
        atoms=tuple(float(a) for a in atoms),
        masses=tuple(float(m) for m in masses),
    )


def random_pair(rng, max_atoms=20, min_atoms=1, span=5.0, floor_mass=False):
    return (
        random_distribution(rng, max_atoms, min_atoms, span, floor_mass),
        random_distribution(rng, max_atoms, min_atoms, span, floor_mass),
    )


def sample_atoms(dist: DiscreteDistribution, rng: np.random.Generator, n: int) -> np.ndarray:
    """n iid draws of dist's atoms: its atoms at the indices sample_indices draws."""
    return np.asarray(dist.atoms)[dist.sample_indices(rng, n)]


def point_mass(value: float) -> DiscreteDistribution:
    return DiscreteDistribution(atoms=(float(value),), masses=(1.0,))


def benchmark_regime_pair():
    """Benchmark-like pair: mostly diagonal coupling, tiny mass at the worst gap.

    The quantile coupling of these two distributions has displacement
    profile {0: 0.955, 1: 0.03, 2: 0.015}, the regime where the
    transport-functional calibration beats the worst-case baseline.
    """
    atoms = (0.0, 1.0, 2.0, 3.0, 4.0)
    p = DiscreteDistribution(atoms, (0.2, 0.015, 0.385, 0.2, 0.2))
    q = DiscreteDistribution(atoms, (0.17, 0.015, 0.415, 0.2, 0.2))
    return p, q


def one_spec(scenarios, kind, spec, **kwargs):
    """calibrate_grid at one spec: every pair's result, or the first pair's error raised."""
    (results,) = calibrate_grid(scenarios, kind, [spec], **kwargs)
    if isinstance(results, Exception):
        raise results
    return results


def binding_result(scenarios, kind, spec, **kwargs):
    """The binding pair's result of calibrate_grid at one spec (the largest parameter)."""
    results = one_spec(scenarios, kind, spec, **kwargs)
    return results[results[0].binding_pair_index]


def plan_expectation(plan, g):
    """E[g(|x - x'|)] under a transport plan, summed in natural scale."""
    return math.fsum(g(abs(x - x2)) * m for x, x2, m in plan.entries)


def plan_marginals(plan):
    """A transport plan's accumulated (row, column) marginals, keyed by atom."""
    first, second = {}, {}
    for x, x2, m in plan.entries:
        first[x] = first.get(x, 0.0) + m
        second[x2] = second.get(x2, 0.0) + m
    return first, second


@pytest.fixture
def rng():
    return np.random.default_rng(20260810)
