import math

import numpy as np
import pytest
from scipy.optimize import linprog

from puffercal import (
    Coupling,
    DiscreteDistribution,
    monotone_coupling,
)
from puffercal.errors import InvalidValue
from puffercal.transport import coupling_log_expectation

from conftest import plan_expectation, plan_marginals, point_mass, random_distribution


def lp_transport_cost(P, Q, cost):
    """Exact LP oracle: minimum of sum cost(|x - x'|) pi over the transport polytope."""
    n, m = len(P.atoms), len(Q.atoms)
    c = [cost(abs(x - x2)) for x in P.atoms for x2 in Q.atoms]
    a_eq = []
    b_eq = []
    for i in range(n):
        row = [0.0] * (n * m)
        for j in range(m):
            row[i * m + j] = 1.0
        a_eq.append(row)
        b_eq.append(P.masses[i])
    for j in range(m):
        row = [0.0] * (n * m)
        for i in range(n):
            row[i * m + j] = 1.0
        a_eq.append(row)
        b_eq.append(Q.masses[j])
    result = linprog(c, A_eq=a_eq, b_eq=b_eq, bounds=(0, None), method="highs")
    assert result.status == 0, result.message
    return result.fun


class TestMonotoneCoupling:
    def test_identity_coupling(self):
        plan = monotone_coupling(point_mass(3.0), point_mass(3.0))
        assert plan.entries == ((3.0, 3.0, 1.0),)

    def test_quarter_split_example(self):
        P = DiscreteDistribution(atoms=(0.0, 1.0), masses=(0.5, 0.5))
        Q = DiscreteDistribution(atoms=(0.0, 1.0), masses=(0.25, 0.75))
        plan = monotone_coupling(P, Q)
        assert plan.entries == ((0.0, 0.0, 0.25), (0.0, 1.0, 0.25), (1.0, 1.0, 0.5))
        # Brute-force LP over the 2x2 polytope confirms optimality for |x - x'|.
        cost = plan_expectation(plan, lambda u: u)
        assert cost == pytest.approx(lp_transport_cost(P, Q, lambda u: u), abs=1e-12)

    def test_shifted_uniform_example(self):
        P = DiscreteDistribution(atoms=(0.0, 1.0), masses=(0.5, 0.5))
        Q = DiscreteDistribution(atoms=(0.5, 1.5), masses=(0.5, 0.5))
        plan = monotone_coupling(P, Q)
        assert plan.entries == ((0.0, 0.5, 0.5), (1.0, 1.5, 0.5))
        # Exhaustive check over the extreme couplings of the 2x2 polytope:
        # every feasible plan has expected cost >= 0.5 for |x - x'|.
        cost = plan_expectation(plan, lambda u: u)
        for t in np.linspace(0.0, 0.5, 26):
            entries = [
                (0.0, 0.5, t), (0.0, 1.5, 0.5 - t),
                (1.0, 0.5, 0.5 - t), (1.0, 1.5, t),
            ]
            other = math.fsum(abs(x - x2) * m for x, x2, m in entries if m > 0)
            assert cost <= other + 1e-12

    def test_marginals_random(self, rng):
        for _ in range(60):
            P = random_distribution(rng, max_atoms=50)
            Q = random_distribution(rng, max_atoms=50)
            plan = monotone_coupling(P, Q)
            first, second = plan_marginals(plan)
            for atom, mass in zip(P.atoms, P.masses):
                assert first[atom] == pytest.approx(mass, abs=1e-12)
            for atom, mass in zip(Q.atoms, Q.masses):
                assert second[atom] == pytest.approx(mass, abs=1e-12)

    @pytest.mark.parametrize("cost", [lambda u: u, lambda u: u * u])
    def test_optimal_for_convex_costs(self, rng, cost):
        for _ in range(60):
            P = random_distribution(rng, max_atoms=6)
            Q = random_distribution(rng, max_atoms=6)
            mono = plan_expectation(monotone_coupling(P, Q), cost)
            exact = lp_transport_cost(P, Q, cost)
            assert mono == pytest.approx(exact, abs=1e-9)


class TestCouplingValidation:
    def test_mass_must_sum_to_one(self):
        with pytest.raises(InvalidValue):
            Coupling(entries=((0.0, 0.0, 0.5),))

    def test_sorted_and_comonotone_required(self):
        with pytest.raises(InvalidValue):
            Coupling(entries=((1.0, 0.0, 0.5), (0.0, 1.0, 0.5)))
        with pytest.raises(InvalidValue):
            Coupling(entries=((0.0, 2.0, 0.5), (1.0, 1.0, 0.5)))


class TestCouplingExpectation:
    def test_identity_gives_g_zero(self):
        plan = monotone_coupling(point_mass(3.0), point_mass(3.0))
        value = coupling_log_expectation(plan, lambda d: np.log(7.5 - d))
        assert value == pytest.approx(math.log(7.5), rel=1e-15)

    def test_single_displacement(self):
        plan = Coupling(entries=((0.0, 1.0, 1.0),))
        assert coupling_log_expectation(plan, lambda d: 2 * d) == pytest.approx(2.0, rel=1e-15)

    def test_large_exponent_stays_finite(self):
        # exp(1000 (d + 1)) overflows a double; its log-space expectation does not.
        plan = Coupling(entries=((0.0, 1.0, 1.0),))
        value = coupling_log_expectation(plan, lambda d: 1000.0 * (d + 1.0))
        assert value == pytest.approx(2000.0, rel=1e-15)


class TestWassersteinProperties:
    def test_order_monotone_in_exponent(self, rng):
        # (E |x-x'|^a)^(1/a) must be nondecreasing over a in {1, 1.5, 2, 4, 8}.
        for _ in range(40):
            P = random_distribution(rng, max_atoms=12)
            Q = random_distribution(rng, max_atoms=12)
            plan = monotone_coupling(P, Q)
            orders = (1.0, 1.5, 2.0, 4.0, 8.0)
            values = [
                plan_expectation(plan, lambda u, a=a: u**a) ** (1.0 / a)
                for a in orders
            ]
            for left, right in zip(values, values[1:]):
                assert left <= right + 1e-9 * max(1.0, right)

    def test_w_infinity_examples(self):
        assert monotone_coupling(point_mass(1.5), point_mass(1.5)).max_displacement() == 0.0
        assert monotone_coupling(point_mass(0.0), point_mass(2.0)).max_displacement() == 2.0

    def test_w_infinity_shifted_uniform(self):
        P = DiscreteDistribution(atoms=(0.0, 1.0), masses=(0.5, 0.5))
        Q = DiscreteDistribution(atoms=(0.5, 1.5), masses=(0.5, 0.5))
        # Enumerate all couplings of the 2x2 polytope: the worst-case
        # displacement is minimized by the quantile-aligned plan.
        best = math.inf
        for t in np.linspace(0.0, 0.5, 501):
            entries = [
                (0.0, 0.5, t), (0.0, 1.5, 0.5 - t),
                (1.0, 0.5, 0.5 - t), (1.0, 1.5, t),
            ]
            sup = max(abs(x - x2) for x, x2, m in entries if m > 1e-15)
            best = min(best, sup)
        assert best == pytest.approx(0.5, abs=1e-12)
        assert monotone_coupling(P, Q).max_displacement() == pytest.approx(0.5, abs=1e-12)

    def test_w_infinity_dominates_w1(self, rng):
        for _ in range(40):
            P = random_distribution(rng, max_atoms=15)
            Q = random_distribution(rng, max_atoms=15)
            w1 = plan_expectation(monotone_coupling(P, Q), lambda u: u)
            assert monotone_coupling(P, Q).max_displacement() >= w1 - 1e-12

    def test_point_mass_equality(self):
        P, Q = point_mass(0.0), point_mass(3.0)
        w1 = plan_expectation(monotone_coupling(P, Q), lambda u: u)
        assert monotone_coupling(P, Q).max_displacement() == w1 == 3.0


class TestRoundingSlivers:
    def test_sliver_does_not_pair_far_atoms(self):
        # 0.1 + 0.2 rounds to 0.30000000000000004 while the other ladder
        # reads 0.3: the 5.55e-17 gap must not couple atom 1 with atom 100.
        from puffercal import PrivacySpec, calibrate_pair

        P = DiscreteDistribution(atoms=(0.0, 1.0, 100.0), masses=(0.1, 0.2, 0.7))
        Q = DiscreteDistribution(atoms=(0.0, 100.0), masses=(0.3, 0.7))
        plan = monotone_coupling(P, Q)
        assert [(x, x2) for x, x2, _ in plan.entries] == [(0.0, 0.0), (1.0, 0.0), (100.0, 100.0)]
        assert monotone_coupling(P, Q).max_displacement() == 1.0
        assert calibrate_pair((P, Q), "winf", PrivacySpec(math.inf, 1.0)).parameter == 1.0
        # Displacement 1 carries mass 0.2: 0.8 + 0.2 exp(2 / b) = e at alpha = 2.
        b = calibrate_pair((P, Q), "laplace", PrivacySpec(alpha=2.0, epsilon=1.0)).parameter
        assert b == pytest.approx(2.0 / math.log((math.e - 0.8) / 0.2), rel=1e-8)
        assert b == pytest.approx(0.8846, abs=1e-4)

    def test_real_small_mass_is_kept(self):
        # A genuine 1e-9 step is far above the rounding bound and stays paired.
        P = DiscreteDistribution(atoms=(0.0, 5.0), masses=(0.5 + 1e-9, 0.5 - 1e-9))
        Q = DiscreteDistribution(atoms=(0.0, 5.0), masses=(0.5, 0.5))
        plan = monotone_coupling(P, Q)
        assert (0.0, 5.0) in [(x, x2) for x, x2, _ in plan.entries]
        assert monotone_coupling(P, Q).max_displacement() == 5.0
