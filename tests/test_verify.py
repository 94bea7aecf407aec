import math
from decimal import Decimal, getcontext
from pathlib import Path

import numpy as np
import pytest
from scipy.integrate import quad

from puffercal import (
    DiscreteDistribution,
    GaussianParams,
    LaplaceParams,
    ExponentialParams,
    PrivacySpec,
    calibrate_pair,
    chernoff_breach_bound,
    laplace_pair_divergence,
    monte_carlo_breach,
    renyi_divergence_discrete,
    renyi_divergence_numeric,
    scenario_set,
    verify_rpp,
)
from puffercal.certify import _NEGATIVE_FLOOR, _floor_rounding
from puffercal.dist import (
    posterior_log_density_dense,
    posterior_log_density_many,
    truncation_halfwidth,
)
from puffercal.errors import IntegrationFailure, InvalidValue
from puffercal.quadrature import _bisect_quadrature
from puffercal.verify import PASS_SLACK, renyi_divergence_both_ways

from conftest import point_mass, random_pair, sample_atoms


def test_verifier_does_not_import_the_calibrator():
    # The verifier must stay a code path independent of the calibrator:
    # neither verify.py nor any package module it imports, directly or
    # through another, imports calibrate.
    import ast

    import puffercal.verify

    package = Path(puffercal.verify.__file__).parent
    seen, todo = set(), ["verify"]
    while todo:
        name = todo.pop()
        if name in seen:
            continue
        seen.add(name)
        tree = ast.parse((package / f"{name}.py").read_text(encoding="utf-8"))
        imported = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                imported.add("." * node.level + (node.module or ""))
                imported.update(alias.name for alias in node.names)
                if node.level == 1:
                    modules = [node.module] if node.module else [a.name for a in node.names]
                    todo.extend(m for m in modules if (package / f"{m}.py").exists())
            elif isinstance(node, ast.Import):
                imported.update(alias.name for alias in node.names)
        assert not {".calibrate", "calibrate", "puffercal.calibrate"} & imported, (name, imported)
    assert {"verify", "certify", "quadrature", "breach"} <= seen, seen


def test_cli_import_loads_every_verifier_module():
    # The verifier's modules compile when the CLI is imported, not lazily
    # inside a command: a fresh interpreter that only imports puffercal.cli
    # holds all of them.
    import json
    import os
    import subprocess
    import sys

    import puffercal

    src = str(Path(puffercal.__file__).resolve().parents[1])
    path = os.environ.get("PYTHONPATH")
    env = {**os.environ, "PYTHONPATH": src if not path else src + os.pathsep + path}
    script = "import json, sys, puffercal.cli; print(json.dumps(sorted(sys.modules)))"
    run = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True
    )
    verifier = {"puffercal.certify", "puffercal.quadrature", "puffercal.breach", "puffercal.verify"}
    assert verifier <= set(json.loads(run.stdout))


class TestRenyiDivergenceNumeric:
    @pytest.mark.parametrize("alpha", [0.5, 2.0, 5.0, math.inf])
    def test_identical_posteriors_give_zero(self, alpha):
        P = DiscreteDistribution(atoms=(0.0, 1.0), masses=(0.3, 0.7))
        mech = LaplaceParams(scale=1.0)
        assert renyi_divergence_numeric(P, P, mech, alpha) == pytest.approx(
            0.0, abs=1e-9
        )

    def test_gaussian_point_masses_closed_form(self):
        # Two unit-separated Gaussians: divergence alpha * D^2 / (2 sigma^2).
        value = renyi_divergence_numeric(
            point_mass(0.0), point_mass(1.0), GaussianParams(sigma=1.0), 2.0
        )
        assert value == pytest.approx(1.0, abs=1e-8)

    def test_laplace_point_masses_closed_form(self):
        value = renyi_divergence_numeric(
            point_mass(0.0), point_mass(1.0), LaplaceParams(scale=1.0), 2.0
        )
        assert value == pytest.approx(laplace_pair_divergence(1.0, 1.0, 2.0), abs=1e-9)

    def test_laplace_point_masses_monte_carlo_oracle(self):
        # Importance estimate of E_p[(p/q)^(alpha-1)] under the first posterior.
        alpha, scale = 2.0, 1.0
        rng = np.random.default_rng(77)
        ys = rng.laplace(0.0, scale, size=10_000_000)
        weights = np.exp((alpha - 1.0) * (np.abs(ys - 1.0) - np.abs(ys)) / scale)
        estimate = float(np.mean(weights))
        spread = float(np.std(weights)) / math.sqrt(ys.size)
        mc_divergence = math.log(estimate) / (alpha - 1.0)
        value = renyi_divergence_numeric(
            point_mass(0.0), point_mass(1.0), LaplaceParams(scale=scale), alpha
        )
        assert abs(math.exp((alpha - 1.0) * value) - estimate) < 4.0 * spread
        assert value == pytest.approx(mc_divergence, abs=1e-3)

    @pytest.mark.parametrize("alpha", [1.3, 2.7, 4.0])
    def test_laplace_closed_form_matches_quadrature(self, alpha):
        # Two independent routes to the same quantity: the closed-form
        # equal-scale Laplace divergence and the generic quadrature.
        value = renyi_divergence_numeric(
            point_mass(0.3), point_mass(1.8), LaplaceParams(scale=1.1), alpha
        )
        assert value == pytest.approx(
            laplace_pair_divergence(1.5, 1.1, alpha), abs=1e-9
        )

    def test_mixture_priors_monte_carlo_oracle(self):
        # Importance estimate under the first posterior for genuine
        # mixtures, so the multi-atom quadrature path is checked against
        # an independent sampling oracle.
        p = DiscreteDistribution(atoms=(0.0, 1.0, 2.5), masses=(0.5, 0.3, 0.2))
        q = DiscreteDistribution(atoms=(0.5, 2.0), masses=(0.6, 0.4))
        mech = LaplaceParams(scale=1.2)
        alpha = 2.0
        rng = np.random.default_rng(2024)
        n = 2_000_000
        xs = sample_atoms(p, rng, n)
        ys = xs + rng.laplace(0.0, mech.scale, size=n)
        from puffercal.dist import posterior_log_density_many

        log_ratio = posterior_log_density_many(mech, p, ys) - posterior_log_density_many(
            mech, q, ys
        )
        weights = np.exp((alpha - 1.0) * log_ratio)
        estimate = float(np.mean(weights))
        spread = float(np.std(weights)) / math.sqrt(n)
        value = renyi_divergence_numeric(p, q, mech, alpha)
        assert abs(math.exp((alpha - 1.0) * value) - estimate) < 4.0 * spread

    def test_sub_unit_order(self):
        value = renyi_divergence_numeric(
            point_mass(0.0), point_mass(1.0), LaplaceParams(scale=2.0), 0.5
        )
        assert 0.0 <= value <= renyi_divergence_numeric(
            point_mass(0.0), point_mass(1.0), LaplaceParams(scale=2.0), 2.0
        )

    def test_infinite_order_laplace(self):
        # Max log ratio of two unit-separated Laplace posteriors is D / scale.
        value = renyi_divergence_numeric(
            point_mass(0.0), point_mass(1.0), LaplaceParams(scale=2.0), math.inf
        )
        assert value == pytest.approx(0.5, abs=1e-9)

    def test_infinite_order_gaussian_diverges(self):
        value = renyi_divergence_numeric(
            point_mass(0.0), point_mass(1.0), GaussianParams(sigma=1.0), math.inf
        )
        assert value == math.inf

    def test_alpha_one_rejected(self):
        with pytest.raises(InvalidValue):
            renyi_divergence_numeric(
                point_mass(0.0), point_mass(1.0), LaplaceParams(scale=1.0), 1.0
            )

    def test_monotone_in_order(self, rng):
        grid = (1.2, 1.5, 2.0, 3.0, 5.0, math.inf)
        for _ in range(6):
            pair = random_pair(rng, max_atoms=6, min_atoms=1, span=2.0)
            mech = LaplaceParams(scale=float(rng.uniform(0.8, 2.5)))
            values = [renyi_divergence_numeric(*pair, mech, a) for a in grid]
            for left, right in zip(values, values[1:]):
                assert left <= right + 1e-8

    def test_overflowing_ratio_matches_closed_form(self):
        # (alpha - 1) D = 12000: the integrand is past the float range, and
        # the quadrature sums it relative to its largest log value.
        value = renyi_divergence_numeric(
            point_mass(0.0), point_mass(30.0), LaplaceParams(scale=0.01), 5.0
        )
        assert value == pytest.approx(laplace_pair_divergence(30.0, 0.01, 5.0), rel=1e-12)

    def test_integrand_guard_boundary(self, monkeypatch):
        # For point masses at 0 and 1 under Laplace(1) noise the integrand's
        # log peaks at the hull end y = 0 with value alpha - 1 - ln 2 (y = 1
        # for the reverse direction), where the tails evaluate it. Every
        # sum is taken relative to that largest t, whether the peak lies far
        # below 700 (where an overflow guard used to raise), 0.1 either side
        # of it, or far above. All meet the closed form.
        import puffercal.quadrature as quadrature

        shifts = []
        real = quadrature._bisect_quadrature

        def recorded(*args):
            integrals = real(*args)
            shifts.append([shift for _, shift in integrals])
            return integrals

        monkeypatch.setattr(quadrature, "_bisect_quadrature", recorded)
        pair = (point_mass(0.0), point_mass(1.0))
        mech = LaplaceParams(scale=1.0)
        offsets = (-699.0, -0.1, 0.1, 1300.0)
        for offset in offsets:
            alpha = 1.0 + 700.0 + math.log(2.0) + offset
            assert renyi_divergence_numeric(*pair, mech, alpha) == pytest.approx(
                laplace_pair_divergence(1.0, 1.0, alpha), rel=1e-12
            )
        for offset, pair_shifts in zip(offsets, shifts, strict=True):
            assert pair_shifts == [pytest.approx(700.0 + offset, rel=1e-13)] * 2

    @pytest.mark.parametrize("alpha, sigma", [
        (2.0, 1.0), (100.0, math.sqrt(5.0)), (5.0, 0.05), (2.0, 0.02), (30.0, 0.2),
    ])
    def test_gaussian_point_masses_past_the_old_guard(self, alpha, sigma):
        # D = alpha / (2 sigma^2) for unit-separated Gaussians; (alpha - 1) D
        # runs from 1 to 10875, past the 700 where an overflow guard raised.
        # sqrt(5) at alpha = 100 is what calibration returns for epsilon = 10.
        pair = (point_mass(0.0), point_mass(1.0))
        want = alpha / (2.0 * sigma**2)
        got = renyi_divergence_both_ways(*pair, GaussianParams(sigma), alpha)
        assert got == pytest.approx((want, want), rel=1e-12)

    def test_custom_cost_keeps_its_own_tail_limits(self):
        # Regression: a custom exponential cost whose label was left at the
        # default "abs" took the |z| tail limits and read 10, twice the truth.
        pair = (point_mass(-5.0), point_mass(5.0))
        mech = ExponentialParams(scale=1.0, cost=lambda z: 0.5 * abs(z))
        assert renyi_divergence_numeric(*pair, mech, math.inf) == pytest.approx(5.0, rel=1e-9)

    def test_laplace_infinite_order_is_the_largest_knot_ratio(self, rng):
        # Regression: the Laplace tail limits, summed without anchoring at
        # the atoms, read up to 4e-12 above the exact ratios at the extreme
        # atoms (which they equal) for atoms near 1e4 with b = 0.5, and the
        # supremum took the larger value.
        mech = LaplaceParams(scale=0.5)

        def prior():
            n = int(rng.integers(1, 41))
            atoms = np.sort(rng.choice(np.arange(10000, 10040), n, replace=False))
            masses = rng.dirichlet(np.ones(n))
            return DiscreteDistribution(
                atoms=tuple(float(a) for a in atoms), masses=tuple(float(m) for m in masses)
            )

        for _ in range(50):
            p, q = prior(), prior()
            knots = np.asarray(sorted(set(p.atoms) | set(q.atoms)))
            ratios = posterior_log_density_many(mech, p, knots) - posterior_log_density_many(
                mech, q, knots
            )
            want = max(float(np.max(ratios)), 0.0)
            assert renyi_divergence_numeric(p, q, mech, math.inf) == want

    @pytest.mark.parametrize("mech", [LaplaceParams(scale=0.7), ExponentialParams(scale=0.7)])
    def test_laplace_infinite_order_needs_no_search(self, monkeypatch, mech):
        # Laplace alpha = inf is the largest ratio at the atoms: no grid, no
        # bounded scalar search.
        import puffercal.certify as certify

        def forbidden(*args, **kwargs):
            raise AssertionError("grid search called for Laplace alpha = inf")

        monkeypatch.setattr(certify, "_grid_max_log_ratio", forbidden)
        p = DiscreteDistribution(atoms=(0.0, 1.0, 2.5), masses=(0.5, 0.3, 0.2))
        q = DiscreteDistribution(atoms=(0.5, 2.0), masses=(0.6, 0.4))
        for pair in ((p, q), (q, p), (point_mass(0.0), point_mass(1.0))):
            assert renyi_divergence_numeric(*pair, mech, math.inf) > 0.0

    def test_gaussian_infinite_order_needs_no_grid(self, monkeypatch):
        # Gaussian alpha = inf is a branch and bound on certified bounds: no
        # dense grid, no bounded scalar search.
        import puffercal.certify as certify

        def forbidden(*args, **kwargs):
            raise AssertionError("grid search called for Gaussian alpha = inf")

        monkeypatch.setattr(certify, "_dense_grid", forbidden)
        monkeypatch.setattr(certify, "_grid_max_log_ratio", forbidden)
        p = DiscreteDistribution(atoms=(0.0, 1.0, 2.5), masses=(0.5, 0.3, 0.2))
        q = DiscreteDistribution(atoms=(0.0, 2.0, 2.5), masses=(0.6, 0.3, 0.1))
        mech = GaussianParams(0.7)
        assert 0.0 < renyi_divergence_numeric(p, q, mech, math.inf) < math.inf
        assert renyi_divergence_both_ways(p, q, mech, math.inf)[1] > 0.0
        assert renyi_divergence_numeric(point_mass(0.0), point_mass(1.0), mech, math.inf) == math.inf

    @staticmethod
    def _grid_supremum(p, q, mech):
        """The supremum as the grid search found it: grid maximum, refinement, tail limits."""
        import puffercal.certify as certify

        if p.max_atom > q.max_atom or p.min_atom < q.min_atom:
            return math.inf
        knots = sorted(set(p.atoms) | set(q.atoms))
        ys = certify._dense_grid(mech, knots)
        best = certify._grid_max_log_ratio(p, q, mech, ys, certify._log_ratio(p, q, mech, ys))
        limits = [
            math.log(p.masses[k]) - math.log(q.masses[k])
            for k in (0, -1) if p.atoms[k] == q.atoms[k]
        ]
        return max(best, *limits, 0.0)

    def test_gaussian_infinite_order_atoms_near_1e4_small_sigma(self):
        # Conditioning: exponents up to (1 / 0.01)^2 / 2 = 5000 in the window.
        from puffercal.certify import _gaussian_sup

        mech = GaussianParams(0.01)
        p = DiscreteDistribution((1e4, 1e4 + 0.5, 1e4 + 1.0), (0.5, 0.3, 0.2))
        q = DiscreteDistribution((1e4, 1e4 + 0.25, 1e4 + 1.0), (0.3, 0.3, 0.4))
        for a, b in ((p, q), (q, p)):
            sup, bound = _gaussian_sup(a, b, mech)
            want = self._grid_supremum(a, b, mech)
            assert sup >= want - 1e-12 * max(1.0, abs(want))
            assert want <= bound and sup <= bound <= sup + 1e-9 * max(1.0, abs(sup))
        # r peaks near 1e4 + 0.625, where q's terms at 1e4 + 0.25 and 1e4 + 1
        # cross: about (0.375^2 - 0.125^2) / (2 * 0.01^2) = 625 there.
        assert renyi_divergence_numeric(p, q, mech, math.inf) == pytest.approx(625.0, rel=2e-3)

    def test_gaussian_infinite_order_larger_extreme_atom_is_infinite(self):
        from puffercal.certify import _gaussian_sup

        mech = GaussianParams(1.5)
        wide = DiscreteDistribution((-1.0, 0.0, 2.0), (0.2, 0.5, 0.3))
        narrow = DiscreteDistribution((-1.0, 0.0, 1.0), (0.2, 0.5, 0.3))
        up, up_bound = _gaussian_sup(wide, narrow, mech)
        down, down_bound = _gaussian_sup(narrow, wide, mech)
        assert up == up_bound == math.inf
        assert 0.0 < down <= down_bound < math.inf
        left = DiscreteDistribution((-2.0, 0.0, 1.0), (0.2, 0.5, 0.3))
        assert renyi_divergence_numeric(left, narrow, mech, math.inf) == math.inf

    def test_gaussian_supremum_past_the_window(self):
        # Past the equal extreme atom 0, r - log(m_p / m_q) is about
        # exp(-0.05 t) - 100 exp(-0.1 t) for sigma = 1, which peaks near
        # t = 106, far past the 12 sigma window; the grid search read the
        # limit log(50.5) there instead.
        from puffercal.certify import _gaussian_sup

        mech = GaussianParams(1.0)
        p = DiscreteDistribution((-0.05, 0.0), (0.5, 0.5))
        q = DiscreteDistribution((-0.1, 0.0), (100.0 / 101.0, 1.0 / 101.0))
        sup, bound = _gaussian_sup(p, q, mech)
        assert sup > self._grid_supremum(p, q, mech) + 2e-3
        ts = np.linspace(90.0, 120.0, 30001)
        far = posterior_log_density_dense(mech, p, ts) - posterior_log_density_dense(mech, q, ts)
        assert 100.0 < ts[int(np.argmax(far))] < 110.0
        assert sup == pytest.approx(float(np.max(far)), rel=0.0, abs=1e-10)
        assert sup <= bound <= sup + 1e-9

    def test_gaussian_certificate_is_capped_by_the_discrete_supremum(self):
        # r(q || p) creeps up to its tail limit log(8 / 7) with a gap that
        # shrinks like e^-2t, faster than the interval bounds' slack, and
        # the branch and bound's certificate stopped 5.2e-4 above it. r is
        # at most the discrete supremum on the whole line, which caps it.
        from puffercal.certify import _gaussian_sup

        p = DiscreteDistribution((0.0, 1.0, 2.0, 3.0), (0.25,) * 4)
        q = DiscreteDistribution((0.0, 1.0, 2.0, 3.0), tuple(m / 7.0 for m in (2, 2, 1, 2)))
        for a, b in ((p, q), (q, p)):
            sup, bound = _gaussian_sup(a, b, GaussianParams(1.0))
            assert sup <= renyi_divergence_discrete(a, b, math.inf) + 1e-15
            assert sup <= bound <= sup + 1e-12
        assert sup == pytest.approx(math.log(8.0 / 7.0), rel=1e-14)

    def test_gaussian_certificate_where_the_search_reaches_its_cap(self):
        # A 40-atom pair (hours-per-week by sex, 1351 and 649 rows of a
        # synthetic census table), whose search for D(p || q) opens more
        # intervals than _refine's cap. Halving the intervals with the
        # largest values of r, not the largest bounds, left the bound 8.9e-7
        # (sigma 13.6) and 3.1e-6 (sigma 40) relative above the largest
        # value found; ranked by bound, it is within 1e-7 of it.
        from puffercal.certify import _gaussian_sup

        atoms = tuple(float(a) for a in range(25, 65))
        p_counts = (33, 9, 15, 21, 21, 21, 32, 32, 23, 48, 54, 44, 55, 57, 60, 74, 58, 57, 54, 67,
                    60, 50, 63, 55, 50, 27, 32, 32, 26, 19, 20, 19, 13, 17, 9, 4, 6, 2, 6, 6)
        q_counts = (62, 12, 11, 23, 25, 26, 21, 24, 30, 22, 35, 38, 26, 34, 31, 30, 28, 30, 26, 17,
                    20, 13, 9, 13, 9, 2, 6, 5, 4, 2, 3, 3, 1, 1, 1, 2, 1, 1, 1, 1)
        p = DiscreteDistribution(atoms, tuple(c / 1351 for c in p_counts))
        q = DiscreteDistribution(atoms, tuple(c / 649 for c in q_counts))
        for sigma in (13.617368608354166, 40.0):
            sup, bound = _gaussian_sup(p, q, GaussianParams(sigma))
            assert sup == pytest.approx(1.0585918479719467, rel=1e-12)
            assert sup <= bound <= sup * (1.0 + 1e-7)

    def test_gaussian_infinite_order_at_a_vanishing_sigma(self):
        # Below sigma = 1e-150 an interval's upper bound of -inf met a margin
        # of inf, and their sum warned. The nan settles the interval and
        # leaves the certificate at the discrete supremum log 2, its cap.
        from puffercal.certify import _gaussian_sup

        p = point_mass(2.0)
        q = DiscreteDistribution((0.0, 2.0, 3.0), (0.3, 0.5, 0.2))
        for sigma in (1e-160, 1e-300):
            sup, bound = _gaussian_sup(p, q, GaussianParams(sigma))
            assert 0.0 <= sup <= bound and math.log(2.0) <= bound <= math.log(2.0) + 1e-11
            assert renyi_divergence_both_ways(p, q, GaussianParams(sigma), math.inf)[1] == math.inf

    def test_gaussian_infinite_order_at_extreme_sigma(self):
        # With sigma far above the atom spacing the ratio peaks above its
        # tail limit log(0.5 / 0.3) at a distance of order sigma^2, with the
        # same shape at every such scale; the grid search returned the limit.
        # D_inf is the search's certified bound; its largest values found
        # agree to 1e-12 relative, and each bound is within the search's
        # 1e-12 tolerance plus its rounding margin above its own.
        from puffercal.certify import _gaussian_sup

        p = DiscreteDistribution((0.0, 1.0, 2.0), (0.5, 0.3, 0.2))
        q = DiscreteDistribution((0.0, 1.5, 2.0), (0.3, 0.3, 0.4))
        sigmas = (1e50, 1e100, 1e150)
        values = [renyi_divergence_numeric(p, q, GaussianParams(s), math.inf) for s in sigmas]
        found = [_gaussian_sup(p, q, GaussianParams(s))[0] for s in sigmas]
        assert found == pytest.approx([found[0]] * 3, rel=1e-12)
        assert all(sup <= value <= sup + 1e-11 for sup, value in zip(found, values))
        assert values[0] > math.log(0.5 / 0.3) + 0.01
        # Past about 1e154 the reach the tails need leaves the float range:
        # the pair is inconclusive rather than given the limit unchecked.
        with pytest.raises(IntegrationFailure, match="float range"):
            renyi_divergence_numeric(p, q, GaussianParams(1e300), math.inf)
        (report,) = verify_rpp(scenario_set([(p, q)]), GaussianParams(1e300),
                               PrivacySpec(math.inf, 1.0))
        assert report.inconclusive and report.passed is None
        # At a vanishing sigma the exponents overflow, with no warning.
        assert renyi_divergence_numeric(p, q, GaussianParams(1e-300), math.inf) == math.inf
        # The breach classifier's margin took sigma**2 as a Python float,
        # which raised OverflowError past sigma = 1.3e154.
        assert monte_carlo_breach(p, q, GaussianParams(1e160), 1.0, 1000, 0) == (0.0, 0.0)

    def test_golden_section_refinement_matches_bounded_search(self, rng):
        # The golden-section refinement against scipy's bounded search at
        # the same xatol, on custom-cost pairs. Tolerance 1e-12 relative; on
        # these pairs they agree exactly, and neither reads below the grid.
        from scipy.optimize import minimize_scalar

        import puffercal.certify as certify

        costs = [lambda z: 0.5 * abs(z), lambda z: abs(z) ** 0.5, lambda z: abs(z) ** 0.75]
        for cost in costs:
            for _ in range(2):
                p, q = random_pair(rng, max_atoms=5, span=2.0)
                mech = ExponentialParams(scale=float(rng.uniform(0.5, 2.0)), cost=cost)
                ys = certify._dense_grid(mech, sorted(set(p.atoms) | set(q.atoms)))
                ratios = certify._log_ratio(p, q, mech, ys)
                for a, b, diffs in ((p, q, ratios), (q, p, -ratios)):
                    k = int(np.argmax(diffs))
                    grid_max = float(diffs[k])
                    searched = minimize_scalar(
                        lambda y: -float(certify._log_ratio(a, b, mech, np.array([y]))[0]),
                        bounds=(float(ys[max(0, k - 1)]), float(ys[min(ys.size - 1, k + 1)])),
                        method="bounded",
                        options={"xatol": 1e-12 * max(1.0, abs(grid_max))},
                    )
                    want = max(grid_max, float(-searched.fun))
                    got = certify._grid_max_log_ratio(a, b, mech, ys, diffs)
                    assert got >= grid_max
                    assert got == pytest.approx(want, rel=1e-12, abs=1e-12)

    def test_golden_section_finds_an_interior_maximum(self):
        from puffercal.certify import _golden_section_max

        best = _golden_section_max(lambda y: -((y - 0.3) ** 2), 0.0, 1.0, 1e-12)
        assert -1e-20 <= best <= 0.0
        # The bracket stops at the float spacing when xatol is below it.
        assert _golden_section_max(lambda y: -abs(y - 1e4), 1e4 - 1.0, 1e4 + 1.0, 1e-15) > -1e-11

    def test_default_exponential_builds_no_normalizer(self):
        from puffercal.dist import _exponential_norm

        _exponential_norm.cache_clear()
        pair = (point_mass(0.0), point_mass(1.0))
        mech = ExponentialParams(scale=1.0)
        for alpha in (0.5, 2.0, math.inf):
            assert renyi_divergence_numeric(*pair, mech, alpha) == pytest.approx(
                renyi_divergence_numeric(*pair, LaplaceParams(1.0), alpha), rel=1e-12
            )
        monte_carlo_breach(*pair, mech, 0.3, 5_000, 9)
        assert _exponential_norm.cache_info().currsize == 0

    def test_negative_floor_boundary(self):
        # A rounding residue just above the floor reads as zero; a larger
        # negative value is reported as it is.
        assert _floor_rounding(0.5 * _NEGATIVE_FLOOR) == 0.0
        assert _floor_rounding(2.0 * _NEGATIVE_FLOOR) == 2.0 * _NEGATIVE_FLOOR
        assert _floor_rounding(1e-300) == 1e-300


class TestBisectQuadrature:
    """The Gauss-Legendre bisection in renyi_divergence_numeric.

    The oracle is QUADPACK (scipy's quad) over the one-point dense
    density, on the same window and breakpoints, at epsrel = 1e-12.
    Tolerance: 1e-10 relative on the divergence. Measured on these pairs,
    one-way and both directions alike: at most 1.9e-13 (Laplace), 3.7e-13
    (Gaussian) and 1.4e-12 (custom cost); the worst seen on wider random trials was 6.7e-12 (Gaussian,
    alpha = 50), where quadrature's own 1e-10 on the integral allows
    1e-10 / (alpha - 1).
    """

    @staticmethod
    def _quadpack(p, q, mech, alpha):
        span = max(abs(p.max_atom - q.min_atom), abs(q.max_atom - p.min_atom))
        pad = truncation_halfwidth(mech) + abs(alpha - 1.0) * span
        lo = min(p.min_atom, q.min_atom) - pad
        hi = max(p.max_atom, q.max_atom) + pad

        def log_density(prior, y):
            return float(posterior_log_density_dense(mech, prior, np.array([y]))[0])

        def integrand(y):
            return math.exp(alpha * log_density(p, y) - (alpha - 1.0) * log_density(q, y))

        points = sorted({a for a in (*p.atoms, *q.atoms) if lo < a < hi})
        value, _ = quad(
            integrand, lo, hi, points=points, limit=max(250, 20 * (len(points) + 2)),
            epsabs=1e-14, epsrel=1e-12,
        )
        return math.log(value) / (alpha - 1.0)

    @pytest.mark.parametrize(
        "make_mech",
        [
            lambda b: LaplaceParams(scale=b),
            lambda b: GaussianParams(sigma=1.5 * b),
            lambda b: ExponentialParams(scale=b, cost=lambda z: 0.5 * abs(z)),
        ],
        ids=["laplace", "gaussian", "custom-cost"],
    )
    def test_matches_quadpack(self, rng, make_mech):
        for _ in range(3):
            p, q = random_pair(rng, max_atoms=6, span=1.0)
            mech = make_mech(float(rng.uniform(1.0, 2.0)))
            for alpha in (1.2, 2.0, 5.0, 50.0):
                want = (self._quadpack(p, q, mech, alpha), self._quadpack(q, p, mech, alpha))
                assert renyi_divergence_numeric(p, q, mech, alpha) == pytest.approx(
                    want[0], rel=1e-10, abs=0.0
                )
                # Both directions on one shared set of segments.
                assert renyi_divergence_both_ways(p, q, mech, alpha) == pytest.approx(
                    want, rel=1e-10, abs=0.0
                )

    def test_round_cap_raises_and_marks_pair_inconclusive(self, monkeypatch):
        import puffercal.quadrature as quadrature

        # This pair converges in the first round, so only a cap of 0 forces it.
        monkeypatch.setattr(quadrature, "_MAX_ROUNDS", 0)
        p = DiscreteDistribution(atoms=(0.0, 1.0, 2.5), masses=(0.5, 0.3, 0.2))
        q = DiscreteDistribution(atoms=(0.5, 2.0), masses=(0.6, 0.4))
        mech = LaplaceParams(scale=0.7)
        with pytest.raises(IntegrationFailure, match="did not converge"):
            renyi_divergence_numeric(p, q, mech, 2.0)
        (report,) = verify_rpp(scenario_set([(p, q)]), mech, PrivacySpec(2.0, 1.0))
        assert report.inconclusive and report.passed is None
        assert report.chernoff_bound is None

    def test_node_table_is_leggauss(self):
        import puffercal.quadrature as quadrature

        nodes, weights = np.polynomial.legendre.leggauss(12)
        np.testing.assert_allclose(quadrature._GL_NODES, nodes, rtol=0.0, atol=2e-16)
        np.testing.assert_allclose(quadrature._GL_WEIGHTS, weights, rtol=0.0, atol=2e-16)

    @pytest.mark.parametrize(
        "mech",
        [
            LaplaceParams(scale=0.9),
            GaussianParams(sigma=1.1),
            ExponentialParams(scale=0.9, cost=lambda z: 0.5 * abs(z)),
        ],
        ids=["laplace", "gaussian", "custom-cost"],
    )
    def test_finite_orders_take_only_the_vector_kernel(self, monkeypatch, mech):
        import puffercal.quadrature as quadrature

        real = quadrature.posterior_log_density_many

        def vector_only(mech, prior, ys):
            assert np.size(ys) > 1, "one-point posterior density call"
            return real(mech, prior, ys)

        monkeypatch.setattr(quadrature, "posterior_log_density_many", vector_only)
        p = DiscreteDistribution(atoms=(0.0, 1.0, 2.5), masses=(0.5, 0.3, 0.2))
        q = DiscreteDistribution(atoms=(0.5, 2.0), masses=(0.6, 0.4))
        for alpha in (0.5, 2.0):
            (report,) = verify_rpp(scenario_set([(p, q)]), mech, PrivacySpec(alpha, 1.0))
            assert not report.inconclusive



def _bits(values):
    return [float(v).hex() for v in values]


class TestBothWays:
    """renyi_divergence_both_ways, the two directions from one set of densities."""

    @pytest.mark.parametrize("alpha", [0.5, 2.0, math.inf])
    def test_zero_noise_is_the_discrete_divergence(self, alpha):
        p = DiscreteDistribution(atoms=(0.0, 1.0), masses=(0.5, 0.5))
        q = DiscreteDistribution(atoms=(0.0, 1.0, 2.0), masses=(0.25, 0.5, 0.25))
        for a, b in ((p, q), (p, p)):
            assert renyi_divergence_both_ways(a, b, None, alpha) == (
                renyi_divergence_discrete(a, b, alpha), renyi_divergence_discrete(b, a, alpha)
            )
        assert renyi_divergence_numeric(p, q, None, alpha) == renyi_divergence_discrete(p, q, alpha)

    MECHS = {
        "laplace": LaplaceParams(scale=0.8),
        "gaussian": GaussianParams(sigma=1.1),
        "custom-cost": ExponentialParams(scale=0.9, cost=lambda z: abs(z) ** 0.5 + abs(z)),
    }

    @staticmethod
    def _pairs():
        rng = np.random.default_rng(20261018)
        wide = DiscreteDistribution(atoms=(-1.0, 0.5, 3.0), masses=(0.2, 0.5, 0.3))
        return [
            random_pair(rng, max_atoms=5, span=2.0),
            random_pair(rng, max_atoms=5, span=2.0),
            (point_mass(0.5), wide),
        ]

    @pytest.mark.parametrize("alpha", [0.5, 2.0, math.inf])
    @pytest.mark.parametrize("kind", sorted(MECHS))
    def test_equals_two_one_way_calls_bit_for_bit(self, kind, alpha):
        # renyi_divergence_numeric is the first direction, and swapping the
        # priors swaps the directions bit for bit: the window, the cuts and
        # every closing test are symmetric in them.
        mech = self.MECHS[kind]
        for p, q in self._pairs():
            want = (
                renyi_divergence_numeric(p, q, mech, alpha),
                renyi_divergence_numeric(q, p, mech, alpha),
            )
            got = renyi_divergence_both_ways(p, q, mech, alpha)
            assert _bits(got) == _bits(want)

    @pytest.mark.parametrize("mech", [LaplaceParams(0.1), GaussianParams(1.0)],
                             ids=["laplace", "gaussian"])
    def test_only_reverse_direction_overflows(self, mech):
        # D(P || Q) stays near log 2, while (Q/P)^9 at y near 10 is past the
        # float range. At alpha = 10, Q^10 P^-9 expands binomially into
        # 2^-10 sum_k C(10, k) n(y - 10)^k n(y)^(1 - k) for the noise density
        # n, and each term integrates to exp((k - 1) D_k) with D_k the
        # order-k divergence between two noise densities 10 apart: a closed
        # form for D(Q || P).
        p = point_mass(0.0)
        q = DiscreteDistribution(atoms=(0.0, 10.0), masses=(0.5, 0.5))
        logs = []
        for k in range(11):
            if isinstance(mech, GaussianParams):
                exponent = k * (k - 1) * 100.0 / (2.0 * mech.sigma**2)
            else:
                exponent = (k - 1) * laplace_pair_divergence(10.0, mech.scale, k) if k > 1 else 0.0
            logs.append(math.log(math.comb(10, k)) + exponent)
        top = max(logs)
        reverse = (top + math.log(sum(math.exp(t - top) for t in logs)) - 10.0 * math.log(2.0)) / 9.0
        forward, backward = renyi_divergence_both_ways(p, q, mech, 10.0)
        assert forward == pytest.approx(math.log(2.0), rel=1e-6)
        assert backward == pytest.approx(reverse, rel=1e-12)
        assert renyi_divergence_numeric(q, p, mech, 10.0) == backward
        (report,) = verify_rpp(scenario_set([(p, q)]), mech, PrivacySpec(10.0, 1.0))
        assert not report.inconclusive and report.passed is False
        assert (report.divergence_ij, report.divergence_ji) == (forward, backward)

    @pytest.mark.parametrize("mech", [LaplaceParams(0.8), GaussianParams(1.1)],
                             ids=["laplace", "gaussian"])
    def test_one_density_call_per_prior_and_round(self, monkeypatch, mech):
        # Both directions share each round's densities call, which reads
        # each prior once, so the calls alternate between the priors;
        # verify_rpp on the golden scenario makes no call beyond one
        # renyi_divergence_both_ways per pair.
        import puffercal.quadrature as quadrature
        from puffercal.cli import _resolve_scenarios

        calls = []
        real = quadrature.posterior_log_density_many

        def counting(*args):
            calls.append(args[1])
            return real(*args)

        def count(run, *args):
            del calls[:]
            run(*args)
            return len(calls)

        monkeypatch.setattr(quadrature, "posterior_log_density_many", counting)
        golden = _resolve_scenarios(
            str(Path(__file__).parent / "data" / "golden_scenario.json"), Path(".")
        )
        for alpha in (0.5, 2.0, 4.0):
            for p, q in [*self._pairs(), *((pair.p_i, pair.p_j) for pair in golden.pairs)]:
                rounds = count(renyi_divergence_both_ways, p, q, mech, alpha) // 2
                assert [id(prior) for prior in calls] == [id(p), id(q)] * rounds
                assert count(renyi_divergence_numeric, p, q, mech, alpha) == 2 * rounds
            per_pair = sum(
                count(renyi_divergence_both_ways, pair.p_i, pair.p_j, mech, alpha)
                for pair in golden.pairs
            )
            assert count(verify_rpp, golden, mech, PrivacySpec(alpha, 1.0)) == per_pair

    def test_integrands_with_different_peaks_share_one_partition(self):
        # Peaks of widths 0.1 and 0.001 at different places: each integrand
        # alone halves around its own peak, and together they refine one
        # set of segments. Each integral still meets its closed form, and
        # the shared rounds take no more density nodes than the two lone
        # quadratures together.
        nodes = []

        def densities(ys):
            nodes.append(ys.size)
            return (ys,)

        peaks = [(-1.5, 1e-2), (1.3, 1e-6)]
        integrands = [
            lambda ys, y, y0=y0, c=c: -np.log(c + np.square(y - y0)) for y0, c in peaks
        ]
        edges = np.array([-3.0, 0.0, 3.0])
        for f in integrands:
            _bisect_quadrature(densities, [f], edges)
        alone = sum(nodes)
        del nodes[:]
        together = _bisect_quadrature(densities, integrands, edges)
        assert sum(nodes) <= alone
        for (value, shift), (y0, c) in zip(together, peaks):
            root = math.sqrt(c)
            exact = (math.atan((3.0 - y0) / root) - math.atan((-3.0 - y0) / root)) / root
            assert value * math.exp(shift) == pytest.approx(exact, rel=1e-12, abs=0.0)


def _shared_support_pair(rng, offset):
    """Two priors on the same 2-8 random atoms near offset, masses at least 0.3 / n."""
    n = int(rng.integers(2, 9))
    atoms = tuple(float(offset + a) for a in np.sort(rng.uniform(-1.0, 1.0, n)))
    priors = []
    for _ in range(2):
        masses = rng.dirichlet(np.ones(n)) + 0.3 / n
        priors.append(DiscreteDistribution(atoms, tuple((masses / masses.sum()).tolist())))
    return tuple(priors)


class TestCuts:
    """certify._cuts: Gaussian windows are cut at the noise scale, other noise at every atom."""

    @staticmethod
    def _assert_cut_rule(knots, lo, hi, h, edges):
        assert edges[0] == lo and edges[-1] == hi
        assert np.all(np.diff(edges) > 0.0)
        assert set(edges[1:-1].tolist()) <= set(knots.tolist())
        for a, b in zip(edges, edges[1:]):
            if np.any((knots > a) & (knots < b)):
                assert b - a < 2.0 * h, (a, b, h)
        for a, b in zip(knots, knots[1:]):
            if b - a >= h:
                k = int(np.searchsorted(edges, a))
                assert edges[k] == a and edges[k + 1] == b, (a, b, h)

    def test_clustered_atoms_before_a_wide_gap(self, rng):
        from puffercal.certify import _cuts

        knots = np.concatenate((np.linspace(0.0, 1.0, 41), [6.0, 6.1, 9.0]))
        edges = _cuts(knots, -5.0, 15.0, 0.3)
        self._assert_cut_rule(knots, -5.0, 15.0, 0.3, edges)
        assert edges.size < knots.size / 2
        assert {1.0, 6.0, 9.0} <= set(edges.tolist())
        for _ in range(200):
            clusters = rng.uniform(-10.0, 10.0, int(rng.integers(1, 5)))
            knots = np.unique(np.concatenate(
                [c + rng.exponential(0.05, int(rng.integers(1, 30))).cumsum() for c in clusters]
            ))
            lo = knots[0] - float(rng.uniform(0.0, 2.0)) - 1e-3
            hi = knots[-1] + float(rng.uniform(0.0, 2.0)) + 1e-3
            h = float(rng.choice([0.01, 0.1, 0.5, 3.0]))
            self._assert_cut_rule(knots, lo, hi, h, _cuts(knots, lo, hi, h))

    def test_every_atom_when_h_is_within_the_smallest_gap(self, monkeypatch):
        import puffercal.quadrature as quadrature

        knots = np.array([0.0, 0.5, 1.0, 2.5, 2.75])
        for h in (0.0, 0.1, 0.25):
            assert quadrature._cuts(knots, -1.0, 4.0, h).tolist() == [-1.0, *knots.tolist(), 4.0]
        # Atoms 0.5 apart under sigma = 0.45: every cell's cuts are every
        # atom, so its divergences are those of all-atom cuts bit for bit.
        p = DiscreteDistribution(atoms=(0.0, 1.0, 2.5), masses=(0.5, 0.3, 0.2))
        q = DiscreteDistribution(atoms=(0.5, 2.0), masses=(0.6, 0.4))
        mech = GaussianParams(sigma=0.45)
        widths = []
        real = quadrature._cuts

        def recorded(knots, lo, hi, h):
            widths.append(h)
            return real(knots, lo, hi, h)

        monkeypatch.setattr(quadrature, "_cuts", recorded)
        alphas = (0.5, 1.2, 2.0, 5.0)
        cut = [renyi_divergence_both_ways(p, q, mech, alpha) for alpha in alphas]
        assert 0.0 < min(widths) and max(widths) == 0.45
        monkeypatch.setattr(quadrature, "_cuts", lambda knots, lo, hi, h: real(knots, lo, hi, 0.0))
        every = [renyi_divergence_both_ways(p, q, mech, alpha) for alpha in alphas]
        assert [_bits(d) for d in cut] == [_bits(d) for d in every]

    @pytest.mark.parametrize(
        "mech",
        [LaplaceParams(scale=0.5), ExponentialParams(scale=0.5, cost=lambda z: 0.5 * abs(z))],
        ids=["laplace", "custom-cost"],
    )
    def test_kinked_noise_keeps_every_atom(self, monkeypatch, mech):
        import puffercal.quadrature as quadrature

        p = DiscreteDistribution(atoms=(0.0, 0.01, 0.02, 0.03), masses=(0.4, 0.3, 0.2, 0.1))
        q = DiscreteDistribution(atoms=(0.005, 0.015, 0.04), masses=(0.2, 0.3, 0.5))
        knots = sorted({*p.atoms, *q.atoms})
        edges = []
        real = quadrature._bisect_quadrature

        def recorded(densities, integrands, cut, tail_scale=None):
            edges.append(cut.tolist())
            return real(densities, integrands, cut, tail_scale)

        monkeypatch.setattr(quadrature, "_bisect_quadrature", recorded)
        renyi_divergence_both_ways(p, q, mech, 2.0)
        renyi_divergence_both_ways(p, q, GaussianParams(sigma=0.5), 2.0)
        kinked, gaussian = edges
        if isinstance(mech, LaplaceParams):
            # The window is the atom hull; its tails are exact.
            assert kinked == knots
        else:
            assert kinked[1:-1] == knots
        # The extreme atoms border the padded tails, gaps wider than h.
        assert gaussian[1:-1] == [knots[0], knots[-1]]

    def test_gaussian_cuts_match_all_atom_edges(self, monkeypatch):
        # Each quadrature is run again on every atom as an edge, with the
        # same densities and integrands; both meet 1e-10 |I|, and they
        # agree within it. Shared supports keep the density ratio bounded,
        # so no order overflows at the smallest sigma.
        import puffercal.quadrature as quadrature

        real = quadrature._bisect_quadrature
        compared = []

        def both(densities, integrands, edges, tail_scale=None):
            got = real(densities, integrands, edges, tail_scale)
            every = real(
                densities, integrands, np.array([edges[0], *knots, edges[-1]]), tail_scale
            )
            compared.append((got, every, edges.size < len(knots) + 2))
            return got

        monkeypatch.setattr(quadrature, "_bisect_quadrature", both)
        rng = np.random.default_rng(20261018)
        for offset in (0.0, 0.0, 1e4, 1e4):
            p, q = _shared_support_pair(rng, offset)
            knots = p.atoms
            spread = p.max_atom - p.min_atom
            for factor in (0.01, 0.1, 1.0, 10.0):
                for alpha in (0.5, 1.2, 2.0, 5.0, 50.0):
                    renyi_divergence_both_ways(p, q, GaussianParams(factor * spread), alpha)
        for got, every, _ in compared:
            for (g, shift), (e, every_shift) in zip(got, every):
                g *= math.exp(shift - every_shift)
                assert abs(g - e) <= 1e-10 * abs(e), (g, e)
        assert sum(coarser for _, _, coarser in compared) >= len(compared) / 4


LAPLACE_TYPE = {
    "laplace": LaplaceParams,
    "exponential-abs": lambda b: ExponentialParams(scale=b),
}


class TestExactTails:
    """Laplace-type windows end at the atom hull; the tails past it are b f(hull end)."""

    @staticmethod
    def _counted_calls(monkeypatch):
        import puffercal.quadrature as quadrature

        calls = []
        real = quadrature.posterior_log_density_many

        def counting(mech, prior, ys):
            calls.append(prior)
            return real(mech, prior, ys)

        monkeypatch.setattr(quadrature, "posterior_log_density_many", counting)
        return calls

    @pytest.mark.parametrize("kind", sorted(LAPLACE_TYPE))
    def test_one_density_call_per_prior(self, monkeypatch, kind):
        # 16 integer atoms at b = 2: every unit segment converges in its
        # first halving, and the hull ends come with the same call. A padded
        # window takes four rounds here.
        rng = np.random.default_rng(20261018)
        atoms = tuple(float(a) for a in range(16))
        p, q = (
            DiscreteDistribution(atoms, tuple((m / m.sum()).tolist()))
            for m in (rng.dirichlet(np.ones(16)) + 0.01 for _ in range(2))
        )
        mech = LAPLACE_TYPE[kind](2.0)
        calls = self._counted_calls(monkeypatch)
        for alpha in (0.5, 1.5, 2.0, 4.0):
            del calls[:]
            renyi_divergence_numeric(p, q, mech, alpha)
            assert sorted(map(id, calls)) == sorted((id(p), id(q)))
            del calls[:]
            renyi_divergence_both_ways(p, q, mech, alpha)
            assert sorted(map(id, calls)) == sorted((id(p), id(q)))

    @pytest.mark.parametrize("kind", sorted(LAPLACE_TYPE))
    def test_wide_noise_matches_quadpack_on_the_padded_window(self, kind):
        # b is 3 to 40 times the atom span, so the tails carry most of I;
        # the oracle integrates the padded window that the tails replace.
        # Both integrals agree to rounding (1e-13 relative). D = log I /
        # (alpha - 1) inherits that as an absolute error, so D itself is
        # held to 1e-10 relative where (alpha - 1) D is above 1e-5, and at
        # b = 40 span, where it is not, only I is compared.
        rng = np.random.default_rng(20261019)
        for factor in (3.0, 5.0, 40.0):
            p, q = random_pair(rng, max_atoms=6, min_atoms=2, span=1.0)
            lo, hi = min(p.min_atom, q.min_atom), max(p.max_atom, q.max_atom)
            mech = LAPLACE_TYPE[kind](factor * (hi - lo))
            ends = np.array([lo, hi])
            for alpha in (0.5, 1.5, 5.0, 50.0):
                got = renyi_divergence_numeric(p, q, mech, alpha)
                want = TestBisectQuadrature._quadpack(p, q, mech, alpha)
                integral = math.exp((alpha - 1.0) * want)
                f_ends = np.exp(
                    alpha * posterior_log_density_dense(mech, p, ends)
                    - (alpha - 1.0) * posterior_log_density_dense(mech, q, ends)
                )
                assert factor * (hi - lo) * float(f_ends.sum()) > 0.5 * integral
                assert math.exp((alpha - 1.0) * got) == pytest.approx(integral, rel=1e-13)
                if factor < 40.0:
                    assert abs(alpha - 1.0) * want > 1e-5
                    assert got == pytest.approx(want, rel=1e-10, abs=0.0)

    @pytest.mark.parametrize("kind", sorted(LAPLACE_TYPE))
    def test_identical_point_masses_give_exactly_zero(self, kind):
        # Their hull is a single point. Identical priors have identical
        # posteriors, so D is exactly 0; the tails b (f(A) + f(A)) alone
        # leave a residue of a few ulps (as did the padded window).
        p, q = point_mass(3.0), point_mass(3.0)
        for b in (0.3, 1.0, 7.7):
            for alpha in (0.5, 1.5, 2.0, 5.0, 50.0):
                assert renyi_divergence_both_ways(p, q, LAPLACE_TYPE[kind](b), alpha) == (0.0, 0.0)
                assert renyi_divergence_numeric(p, q, LAPLACE_TYPE[kind](b), alpha) == 0.0

    def test_single_point_hull_is_its_tails(self):
        # edges [A, A]: the empty interior adds 0, the tails b (f(A) + f(A)).
        f = lambda ys, y: -np.abs(y - 1.0)
        ((value, shift),) = _bisect_quadrature(lambda ys: (ys,), [f], np.array([3.0, 3.0]), 2.5)
        assert value * math.exp(shift) == pytest.approx(5.0 * math.exp(-2.0), rel=1e-15)

    def test_tails_are_exact_for_one_exponential(self):
        # exp(-|y|/b) on [-1, 2] with its tails is 2b exactly, to the tolerance.
        b = 0.7
        f = lambda ys, y: -np.abs(y) / b
        ((value, shift),) = _bisect_quadrature(lambda ys: (ys,), [f], np.array([-1.0, 0.0, 2.0]), b)
        assert value * math.exp(shift) == pytest.approx(2.0 * b, rel=1e-12)

    @pytest.mark.parametrize(
        "mech",
        [GaussianParams(sigma=0.8), ExponentialParams(scale=0.9, cost=lambda z: 0.5 * abs(z))],
        ids=["gaussian", "custom-cost"],
    )
    def test_merged_first_round_equals_separate_calls_bit_for_bit(self, mech):
        # The first round's whole segments and halves share one densities
        # call, but each is reduced at the shape a call of its own has, so
        # Gaussian and custom-cost estimates do not move at the same shift.
        from puffercal.quadrature import _gauss_legendre

        rng = np.random.default_rng(20261020)
        p, q = random_pair(rng, max_atoms=8, span=3.0)

        def densities(ys):
            return posterior_log_density_many(mech, p, ys), posterior_log_density_many(mech, q, ys)

        integrands = [
            lambda ys, lp, lq: 2.5 * lp - 1.5 * lq,
            lambda ys, lp, lq: 0.5 * lq + 0.5 * lp,
        ]
        for size in (1, 3, 7, 16, 41):
            a = np.sort(rng.uniform(-8.0, 8.0, size))
            b = a + rng.uniform(0.01, 3.0, size)
            mid = 0.5 * (a + b)
            halves = (np.concatenate((a, mid)), np.concatenate((mid, b)))
            merged, shifts = _gauss_legendre(
                densities, integrands, [(a, b), halves], [-math.inf, -math.inf]
            )
            for k, f in enumerate(integrands):
                for j, sets in enumerate(((a, b), halves)):
                    (alone,), (shift,) = _gauss_legendre(densities, [f], [sets], [shifts[k]])
                    assert shift == shifts[k]
                    assert _bits(merged[k][j]) == _bits(alone[0])


class TestNarrowPeaks:
    """Noise far narrower than the atom gaps: D tends to the discrete divergence, or fails.

    At scale b the integrand peaks at each atom with width b. Atoms 0 and 1
    with masses (0.5, 0.5) against (0.9, 0.1) have D = 1.02165 at alpha = 2
    (renyi_divergence_discrete); a hull segment [0, 1] whose nodes miss both
    peaks read 0.3285 and -0.198 at every b up to 1e-4, and passed at
    epsilon = 1.
    """

    P = DiscreteDistribution(atoms=(0.0, 1.0), masses=(0.5, 0.5))
    Q = DiscreteDistribution(atoms=(0.0, 1.0), masses=(0.9, 0.1))

    @pytest.mark.parametrize("kind", sorted(LAPLACE_TYPE))
    @pytest.mark.parametrize("b", [1e-7, 1e-6, 1e-4, 0.01])
    def test_wide_gaps_reach_the_discrete_divergence(self, kind, b):
        exact = (renyi_divergence_discrete(self.P, self.Q, 2.0),
                 renyi_divergence_discrete(self.Q, self.P, 2.0))
        got = renyi_divergence_both_ways(self.P, self.Q, LAPLACE_TYPE[kind](b), 2.0)
        assert got == pytest.approx(exact, rel=1e-8)

    @pytest.mark.parametrize("kind", sorted(LAPLACE_TYPE))
    @pytest.mark.parametrize("b", [1e-300, 1e-12, 3e-8])
    def test_peaks_below_the_float_spacing_are_inconclusive(self, kind, b):
        # Rounding moves the nodes near the atom at 1 by about 1.1e-16, and
        # log f by 3.3e-16 / b: past 1e-8 no halving can meet the tolerance.
        with pytest.raises(IntegrationFailure, match="too narrow"):
            renyi_divergence_both_ways(self.P, self.Q, LAPLACE_TYPE[kind](b), 2.0)

    def test_float_spacing_is_taken_at_the_atoms(self):
        # The same gap near 1e4 holds floats 1e4 times coarser: b = 1e-3
        # resolves its peaks, 1e-4 does not.
        p, q = (DiscreteDistribution(tuple(1e4 + a for a in d.atoms), d.masses)
                for d in (self.P, self.Q))
        exact = renyi_divergence_discrete(self.P, self.Q, 2.0)
        assert renyi_divergence_numeric(p, q, LaplaceParams(1e-3), 2.0) == pytest.approx(
            exact, rel=1e-8
        )
        with pytest.raises(IntegrationFailure, match="too narrow"):
            renyi_divergence_numeric(p, q, LaplaceParams(1e-4), 2.0)

    def test_missed_peaks_read_as_a_negative_divergence(self, monkeypatch):
        # Without the cuts at 40 b inside each gap, the hull [0, 1] misses
        # both peaks: D(p || q) comes out at 0.3285 in place of 1.0217, and
        # D(q || p) at -0.198, far below the rounding floor, so the
        # quadrature fails instead of passing the pair.
        import puffercal.quadrature as quadrature

        integrals = []
        real = quadrature._bisect_quadrature

        def recorded(*args):
            integrals.extend(real(*args))
            return integrals

        monkeypatch.setattr(quadrature, "_cut_wide_gaps", lambda edges, knots, scale, reach: edges)
        monkeypatch.setattr(quadrature, "_bisect_quadrature", recorded)
        with pytest.raises(IntegrationFailure, match="negative divergence"):
            renyi_divergence_both_ways(self.P, self.Q, LaplaceParams(1e-4), 2.0)
        (forward, shift), _ = integrals
        assert shift + math.log(forward) < 0.5

    def test_gaussian_peaks_missed_are_inconclusive(self):
        # Cut only at the atoms, the padded window left the peaks at sigma =
        # 5e-4 9 sigma from the first round's nearest nodes: the integral
        # read 1.4e-17 and D = -38.8. The gap [0, 1] is now also cut 12 sigma
        # inside each atom, and D reaches the discrete divergence.
        exact = (renyi_divergence_discrete(self.P, self.Q, 2.0),
                 renyi_divergence_discrete(self.Q, self.P, 2.0))
        for sigma in (1e-3, 5e-4, 3e-4, 1e-4):
            got = renyi_divergence_both_ways(self.P, self.Q, GaussianParams(sigma), 2.0)
            assert got == pytest.approx(exact, rel=1e-12)

    def test_verify_fails_the_under_noised_pair(self, capsys, tmp_path):
        import json

        from puffercal.cli import main

        scenario = tmp_path / "scenario.json"
        scenario.write_text(json.dumps({"pairs": [{
            "p": {"atoms": [0, 1], "masses": [0.5, 0.5]},
            "q": {"atoms": [0, 1], "masses": [0.9, 0.1]},
        }]}), encoding="utf-8")
        exact = renyi_divergence_discrete(self.P, self.Q, 2.0)
        for b, passed, inconclusive in (("1e-4", "false", "false"), ("1e-300", "", "true")):
            code = main(["verify", "--scenario", str(scenario), "--mechanism", "laplace",
                         "--alpha", "2", "--epsilon", "1", "--parameter", b])
            row = capsys.readouterr().out.splitlines()[1].split(",")
            assert code == 4
            assert (row[8], row[9]) == (passed, inconclusive)
            if passed:
                assert float(row[5]) == pytest.approx(exact, rel=1e-8)

    def test_cuts_only_gaps_whose_peaks_the_first_round_misses(self):
        # At b = 1e-3 the outermost nodes of a gap's halves lie 0.0046 g
        # inside it, past 10 b for g > 2.17: the gaps of 1 and 2 stay whole,
        # and the gap of 3 is cut at the given reach from each end. At
        # b = 2e-3 every gap stays whole. An end that is not a knot (the
        # padded Gaussian window's) is never cut.
        from puffercal.quadrature import _cut_wide_gaps

        edges = np.array([0.0, 1.0, 3.0, 6.0])
        assert _cut_wide_gaps(edges, edges, 1e-3, 0.0625).tolist() == [
            0.0, 1.0, 3.0, 3.0625, 5.9375, 6.0
        ]
        assert _cut_wide_gaps(edges, edges[:-1], 1e-3, 0.0625).tolist() == [
            0.0, 1.0, 3.0, 3.0625, 6.0
        ]
        assert _cut_wide_gaps(edges, edges, 2e-3, 0.125) is edges

    # Peaks 10 apart with masses (.5, .5) against (.7, .3): the integrand
    # peaks at each atom, where an edge sits. The padded end segments' nodes
    # missed the outer half of each peak, read D low by log 2 / (alpha - 1)
    # and passed the pair at epsilon 0.4.
    HALF_P = DiscreteDistribution(atoms=(0.0, 10.0), masses=(0.5, 0.5))
    HALF_Q = DiscreteDistribution(atoms=(0.0, 10.0), masses=(0.7, 0.3))

    @pytest.mark.parametrize("alpha", [10.0, 50.0])
    @pytest.mark.parametrize("sigma", [0.03, 0.01, 1e-3])
    def test_gaussian_wide_gaps_keep_both_halves_of_each_peak(self, alpha, sigma):
        exact = (renyi_divergence_discrete(self.HALF_P, self.HALF_Q, alpha),
                 renyi_divergence_discrete(self.HALF_Q, self.HALF_P, alpha))
        got = renyi_divergence_both_ways(self.HALF_P, self.HALF_Q, GaussianParams(sigma), alpha)
        assert got == pytest.approx(exact, rel=1e-12)

    def test_verify_fails_the_half_peak_pair(self, capsys, tmp_path):
        import json

        from puffercal.cli import main

        scenario = tmp_path / "scenario.json"
        scenario.write_text(json.dumps({"pairs": [{
            "p": {"atoms": [0, 10], "masses": [0.5, 0.5]},
            "q": {"atoms": [0, 10], "masses": [0.7, 0.3]},
        }]}), encoding="utf-8")
        code = main(["verify", "--scenario", str(scenario), "--mechanism", "gaussian",
                     "--alpha", "10", "--epsilon", "0.4", "--parameter", "0.01"])
        row = capsys.readouterr().out.splitlines()[1].split(",")
        assert code == 4
        assert (row[8], row[9]) == ("false", "false")
        assert float(row[5]) == pytest.approx(
            renyi_divergence_discrete(self.HALF_P, self.HALF_Q, 10.0), rel=1e-9
        )

    def test_sub_unit_order_far_below_the_float_range(self):
        # Every node's log integrand lies below -745 here, where exp(t)
        # underflowed to 0 and the quadrature returned 0; relative to the
        # largest t the sums hold. Reference: a 40-digit mpmath quadrature.
        p = DiscreteDistribution(
            atoms=(3.0, 5.0, 6.0),
            masses=(0.07922896254516523, 0.4918399023442278, 0.428931135110607),
        )
        q = DiscreteDistribution(atoms=(2.0, 4.0), masses=(0.4860166992967068, 0.5139833007032932))
        got = renyi_divergence_both_ways(
            p, q, GaussianParams(0.002195478476192573), 0.8789347287726714
        )
        assert got == pytest.approx((91176.458273284374, 91171.184651044286), rel=1e-12)

    def test_integrand_zero_at_every_node_is_inconclusive(self, monkeypatch):
        # At alpha = 0.5 a density of -inf at every node makes both log
        # integrands -inf everywhere: the shift stays -inf, the integrals
        # read 0, and D >= 0 says the nodes missed the integrand.
        import puffercal.quadrature as quadrature

        p, q = point_mass(0.0), point_mass(1.0)
        monkeypatch.setattr(
            quadrature, "posterior_log_density_many",
            lambda mech, prior, ys: np.full(ys.shape, -math.inf if prior is p else 0.0),
        )
        with pytest.raises(IntegrationFailure, match="quadrature returned 0.0"):
            renyi_divergence_both_ways(p, q, GaussianParams(1.0), 0.5)
        ((value, shift),) = _bisect_quadrature(
            lambda ys: (ys,), [lambda ys, y: np.full(ys.shape, -math.inf)], np.array([0.0, 1.0])
        )
        assert (value, shift) == (0.0, -math.inf)

    def test_quadrature_that_cannot_converge_stops_before_memory_runs_out(self):
        # Values that halving never settles would double the open segments
        # every round for 60 rounds; past 16 times the start plus 1024 the
        # quadrature gives up.
        def noisy(ys, y):
            return np.log(1.0 + (np.sin(ys * 1e9) > 0.0))

        with pytest.raises(IntegrationFailure, match="segments open"):
            _bisect_quadrature(lambda ys: (ys,), [noisy], np.array([0.0, 1.0, 2.0]))


class TestRenyiDivergenceDiscrete:
    def test_identical(self):
        P = DiscreteDistribution(atoms=(0.0, 1.0), masses=(0.25, 0.75))
        for alpha in (0.5, 2.0, math.inf):
            assert renyi_divergence_discrete(P, P, alpha) == pytest.approx(0.0, abs=1e-12)

    def test_support_mismatch_is_infinite(self):
        P = point_mass(0.0)
        Q = point_mass(1.0)
        assert renyi_divergence_discrete(P, Q, 2.0) == math.inf
        assert renyi_divergence_discrete(P, Q, math.inf) == math.inf
        assert renyi_divergence_discrete(P, Q, 0.5) == math.inf

    def test_finite_value(self):
        P = DiscreteDistribution(atoms=(0.0, 1.0), masses=(0.5, 0.5))
        Q = DiscreteDistribution(atoms=(0.0, 1.0), masses=(0.25, 0.75))
        expected = math.log(0.5**2 / 0.25 + 0.5**2 / 0.75)
        assert renyi_divergence_discrete(P, Q, 2.0) == pytest.approx(expected, rel=1e-12)


class TestVerifyRpp:
    @pytest.mark.parametrize("alpha", [0.5, 2.0, math.inf])
    def test_zero_noise_compares_raw_distributions(self, alpha):
        same = DiscreteDistribution(atoms=(0.0, 1.0), masses=(0.5, 0.5))
        spec = PrivacySpec(alpha=alpha, epsilon=1.0)
        equal, disjoint = verify_rpp(
            scenario_set([(same, same), (point_mass(0.0), point_mass(1.0))]), None, spec
        )
        assert equal.divergence_ij == equal.divergence_ji == 0.0
        assert equal.divergence_ij == renyi_divergence_discrete(same, same, alpha)
        assert equal.passed is True and not equal.inconclusive
        expected_bound = chernoff_breach_bound(0.0, spec) if alpha == 2.0 else None
        assert equal.chernoff_bound == expected_bound
        assert disjoint.divergence_ij == disjoint.divergence_ji == math.inf
        assert disjoint.divergence_ij == renyi_divergence_discrete(
            point_mass(0.0), point_mass(1.0), alpha
        )
        assert disjoint.passed is False and not disjoint.inconclusive
        assert disjoint.slack == -math.inf
        assert disjoint.chernoff_bound is None

    def test_calibrated_laplace_passes(self, rng):
        pair = random_pair(rng, max_atoms=8, min_atoms=2, span=2.0)
        spec = PrivacySpec(alpha=2.0, epsilon=0.5)
        result = calibrate_pair(pair, "laplace", spec)
        reports = verify_rpp(scenario_set([pair]), LaplaceParams(result.parameter), spec)
        assert reports[0].passed
        assert reports[0].slack >= -1e-6
        assert reports[0].chernoff_bound is not None

    def test_half_gaussian_parameter_fails(self):
        # The point-mass Gaussian calibration is exact (divergence equals
        # epsilon at the returned sigma), so halving sigma quadruples the
        # divergence past the budget.
        pair = (point_mass(0.0), point_mass(1.0))
        spec = PrivacySpec(alpha=2.0, epsilon=0.2)
        result = calibrate_pair(pair, "gaussian", spec)
        reports = verify_rpp(
            scenario_set([pair]), GaussianParams(result.parameter / 2.0), spec
        )
        assert reports[0].passed is False

    def test_undersized_laplace_parameter_fails(self):
        # The Laplace point-mass calibration carries slack (the transport
        # bound is loose there), so the scale must drop well below the
        # exact-divergence root before the check fails.
        pair = (point_mass(0.0), point_mass(1.0))
        spec = PrivacySpec(alpha=2.0, epsilon=0.2)
        result = calibrate_pair(pair, "laplace", spec)
        reports = verify_rpp(
            scenario_set([pair]), LaplaceParams(result.parameter / 10.0), spec
        )
        assert reports[0].passed is False

    def test_identical_pair_passes(self):
        P = DiscreteDistribution(atoms=(0.0, 2.0), masses=(0.5, 0.5))
        spec = PrivacySpec(alpha=3.0, epsilon=0.1)
        reports = verify_rpp(scenario_set([(P, P)]), LaplaceParams(1.0), spec)
        assert reports[0].passed
        assert reports[0].divergence_ij == pytest.approx(0.0, abs=1e-9)

    @pytest.mark.parametrize("excess, passed", [(0.5, True), (2.0, False)])
    def test_pass_slack_boundary(self, excess, passed):
        # epsilon set `excess` slacks below the measured divergence.
        pair = (point_mass(0.0), point_mass(1.0))
        mech = LaplaceParams(scale=1.0)
        worst = max(
            renyi_divergence_numeric(*pair, mech, 2.0),
            renyi_divergence_numeric(*reversed(pair), mech, 2.0),
        )
        spec = PrivacySpec(alpha=2.0, epsilon=worst - excess * PASS_SLACK)
        assert verify_rpp(scenario_set([pair]), mech, spec)[0].passed is passed

    def test_both_directions_checked(self):
        p = DiscreteDistribution(atoms=(0.0, 1.0), masses=(0.9, 0.1))
        q = DiscreteDistribution(atoms=(0.0, 1.0), masses=(0.1, 0.9))
        spec = PrivacySpec(alpha=2.0, epsilon=1.0)
        reports = verify_rpp(scenario_set([(p, q)]), LaplaceParams(0.5), spec)
        r = reports[0]
        assert r.divergence_ij > 0 and r.divergence_ji > 0
        assert r.slack == pytest.approx(
            spec.epsilon - max(r.divergence_ij, r.divergence_ji)
        )

    def test_inconclusive_on_integration_failure(self):
        # A Laplace scale too narrow for the float spacing at the atoms.
        pair = (point_mass(0.0), point_mass(1.0))
        spec = PrivacySpec(alpha=5.0, epsilon=0.5)
        reports = verify_rpp(scenario_set([pair]), LaplaceParams(1e-12), spec)
        assert reports[0].inconclusive
        assert reports[0].passed is None

    def test_calibrated_exponential_passes(self, rng):
        pair = random_pair(rng, max_atoms=6, min_atoms=2, span=2.0)
        spec = PrivacySpec(alpha=1.5, epsilon=1.0)
        result = calibrate_pair(pair, "exponential", spec)
        reports = verify_rpp(
            scenario_set([pair]), ExponentialParams(result.parameter), spec
        )
        assert reports[0].passed

    def test_sub_unit_condition_is_numerically_sufficient(self, rng):
        # The experimental order-in-(0,1) condition upper-bounds the true
        # divergence: confirm against quadrature on random scenarios.
        for _ in range(5):
            pair = random_pair(rng, max_atoms=6, min_atoms=2, span=2.0)
            alpha = float(rng.uniform(0.15, 0.85))
            eps = float(rng.uniform(0.3, 1.2))
            spec = PrivacySpec(alpha=alpha, epsilon=eps)
            result = calibrate_pair(pair, "laplace", spec)
            if result.parameter == 0.0:
                continue
            reports = verify_rpp(
                scenario_set([pair]), LaplaceParams(result.parameter), spec
            )
            assert reports[0].passed

    def test_winf_calibration_passes_at_infinite_order(self, rng):
        for _ in range(5):
            pair = random_pair(rng, max_atoms=8, min_atoms=2, span=3.0)
            eps = float(rng.uniform(0.2, 1.5))
            b = calibrate_pair(pair, "winf", PrivacySpec(math.inf, eps)).parameter
            if b == 0.0:
                continue
            value = renyi_divergence_numeric(*pair, LaplaceParams(b), math.inf)
            assert value <= eps + 1e-6


class TestChernoffBound:
    def test_zero_exponent(self):
        assert chernoff_breach_bound(1.0, PrivacySpec(alpha=2.0, epsilon=1.0)) == 1.0

    def test_unit_slack(self):
        spec = PrivacySpec(alpha=2.0, epsilon=1.0)
        assert chernoff_breach_bound(0.0, spec) == pytest.approx(math.exp(-1.0))

    def test_alpha_three(self):
        spec = PrivacySpec(alpha=3.0, epsilon=1.0)
        assert chernoff_breach_bound(0.5, spec) == pytest.approx(math.exp(-1.0))

    def test_vacuous_above_one(self):
        spec = PrivacySpec(alpha=2.0, epsilon=0.1)
        assert chernoff_breach_bound(2.0, spec) > 1.0

    def test_requires_finite_order(self):
        with pytest.raises(InvalidValue):
            chernoff_breach_bound(0.5, PrivacySpec(alpha=math.inf, epsilon=1.0))
        with pytest.raises(InvalidValue):
            chernoff_breach_bound(0.5, PrivacySpec(alpha=0.5, epsilon=1.0))


class TestMonteCarloBreach:
    def test_huge_epsilon_never_breaches(self):
        pair = (point_mass(0.0), point_mass(1.0))
        estimate, _ = monte_carlo_breach(*pair, LaplaceParams(1.0), 50.0, 10_000, 1)
        assert estimate == 0.0

    def test_identical_never_breaches(self):
        P = DiscreteDistribution(atoms=(0.0, 1.0), masses=(0.5, 0.5))
        estimate, _ = monte_carlo_breach(P, P, LaplaceParams(1.0), 0.01, 10_000, 2)
        assert estimate == 0.0

    def test_piecewise_analytic_oracle(self):
        # For priors at 0 and 1 with Laplace(2) noise, the log ratio is
        # (|y-1| - |y|)/2 > 0.4 exactly when y < 0.1, so the breach
        # probability is P(Y < 0.1) = 1 - exp(-0.1/2)/2 under Y ~ Lap(0, 2).
        exact = 1.0 - 0.5 * math.exp(-0.1 / 2.0)
        estimate, half_width = monte_carlo_breach(
            point_mass(0.0), point_mass(1.0), LaplaceParams(2.0), 0.4, 1_000_000, 1
        )
        assert abs(estimate - exact) <= half_width

    def test_deterministic_for_seed(self):
        pair = (point_mass(0.0), point_mass(1.0))
        a = monte_carlo_breach(*pair, LaplaceParams(1.0), 0.3, 5_000, 9)
        b = monte_carlo_breach(*pair, LaplaceParams(1.0), 0.3, 5_000, 9)
        assert a == b

    def test_counts_match_dense_path(self, monkeypatch):
        # The Laplace kernel moves log ratios by ~1e-15 at most, which must
        # not move a count on fixed seeds.
        import puffercal.certify as certify
        from puffercal.dist import posterior_log_density_dense

        rng = np.random.default_rng(31)
        cases = []
        for seed in range(6):
            pair = random_pair(rng, max_atoms=8, min_atoms=1, span=3.0)
            mech = LaplaceParams(float(rng.uniform(0.3, 2.0)))
            cases.append((pair, mech, float(rng.uniform(0.2, 1.5)), seed))
        kernel = [monte_carlo_breach(*pair, mech, eps, 200_000, seed)
                  for pair, mech, eps, seed in cases]
        monkeypatch.setattr(certify, "posterior_log_density_many", posterior_log_density_dense)
        dense = [monte_carlo_breach(*pair, mech, eps, 200_000, seed)
                 for pair, mech, eps, seed in cases]
        assert kernel == dense
        assert any(estimate > 0.0 for estimate, _ in kernel)

    def test_minimum_sample_count(self):
        with pytest.raises(InvalidValue):
            monte_carlo_breach(
                point_mass(0.0), point_mass(1.0), LaplaceParams(1.0), 0.5, 10, 0
            )

    def test_estimate_within_chernoff_envelope(self, rng):
        for _ in range(4):
            pair = random_pair(rng, max_atoms=5, min_atoms=1, span=2.0)
            spec = PrivacySpec(alpha=2.0, epsilon=0.8)
            parameter = calibrate_pair(pair, "laplace", spec).parameter
            if parameter == 0.0:
                continue
            mech = LaplaceParams(parameter)
            estimate, half_width = monte_carlo_breach(
                *pair, mech, spec.epsilon, 200_000, 5
            )
            divergence = renyi_divergence_numeric(*pair, mech, spec.alpha)
            bound = chernoff_breach_bound(divergence, spec)
            standard_error = half_width / 1.96
            assert estimate <= bound + 3.0 * standard_error

    def test_zero_noise_compares_raw_masses(self):
        # log(0.5/0.2) > 0.5 breaches, log(0.3/0.8) < 0 does not, and the
        # atom 2 that q lacks always breaches.
        p = DiscreteDistribution(atoms=(0.0, 1.0, 2.0), masses=(0.5, 0.3, 0.2))
        q = DiscreteDistribution(atoms=(0.0, 1.0), masses=(0.2, 0.8))
        estimate, _ = monte_carlo_breach(p, q, None, 0.5, 100_000, 5)
        xs = sample_atoms(p, np.random.default_rng(5), 100_000)
        assert estimate == np.count_nonzero(xs != 1.0) / 100_000
        assert monte_carlo_breach(p, p, None, 0.5, 1000, 5) == (0.0, 0.0)

    @pytest.mark.parametrize("noise", [LaplaceParams, GaussianParams, None])
    def test_matches_inline_reference_draws(self, noise):
        # The draws come from rng.choice and sample_noise, not from
        # DiscreteDistribution.sample, and each is counted on its own, so a
        # change in what sample draws shows here.
        import puffercal.certify as certify
        from puffercal.dist import sample_noise

        rng, n = np.random.default_rng(57), 100_000
        estimates = []
        for seed in range(4):
            p, q = random_pair(rng, max_atoms=10, min_atoms=1, span=3.0)
            eps = float(rng.uniform(0.1, 1.0))
            draws = np.random.default_rng(seed)
            xs = draws.choice(np.asarray(p.atoms), size=n, p=np.asarray(p.masses))
            if noise is None:
                # Shared atoms, so that mass ratios decide; q lacks p's last atom.
                mech, kept = None, p.atoms[:-1] or p.atoms
                weights = rng.dirichlet(np.ones(len(kept)))
                q = DiscreteDistribution(kept, tuple(float(w) for w in weights / weights.sum()))
                masses_q = dict(zip(q.atoms, q.masses))
                log_ratio = {
                    atom: math.log(mass) - math.log(masses_q[atom]) if atom in masses_q else math.inf
                    for atom, mass in zip(p.atoms, p.masses)
                }
                ratios = np.array([log_ratio[x] for x in xs.tolist()])
            else:
                mech = noise(float(rng.uniform(0.3, 2.0)))
                ratios = certify._log_ratio(p, q, mech, xs + sample_noise(mech, draws, n))
            expected = np.count_nonzero(ratios > eps) / n
            estimate, _ = monte_carlo_breach(p, q, mech, eps, n, seed)
            assert estimate == expected
            estimates.append(estimate)
        assert any(0.0 < estimate < 1.0 for estimate in estimates)


class TestStreamedBreach:
    """monte_carlo_breach streams its draws in chunks without moving a count."""

    @pytest.mark.parametrize("noise", [LaplaceParams, GaussianParams])
    @pytest.mark.parametrize("n", [1000, 65536, 65537, 150001])
    def test_count_is_the_per_draw_count(self, noise, n):
        # The reference holds every draw at once, as p.sample then one
        # sample_noise call make them, and takes the ratio at each.
        import puffercal.certify as certify
        from puffercal.dist import sample_noise

        rng = np.random.default_rng(n)
        p, q = random_pair(rng, max_atoms=12, min_atoms=2, span=3.0)
        mech, eps = noise(float(rng.uniform(0.3, 1.5))), float(rng.uniform(0.1, 0.8))
        draws = np.random.default_rng(17)
        ys = sample_atoms(p, draws, n) + sample_noise(mech, draws, n)
        expected = np.count_nonzero(certify._log_ratio(p, q, mech, ys) > eps) / n
        assert monte_carlo_breach(p, q, mech, eps, n, 17)[0] == expected

    @pytest.mark.parametrize("atoms", [5, 300])
    @pytest.mark.parametrize("seed", [0, 17, 2**40 + 3])
    def test_replayed_index_stream(self, atoms, seed):
        # A second generator of the same seed, drawn from chunk by chunk,
        # gives the indices of one sample_indices call, and the generator
        # advanced past their n uniforms draws the noise that follows them.
        from puffercal.breach import _DRAW_CHUNK

        masses = np.random.default_rng(atoms).uniform(0.5, 1.5, atoms)
        masses = tuple((masses / masses.sum()).tolist())
        p = DiscreteDistribution(tuple(np.arange(float(atoms))), masses)
        for n in (1000, _DRAW_CHUNK - 1, _DRAW_CHUNK, _DRAW_CHUNK + 1, 3 * _DRAW_CHUNK + 17):
            rng = np.random.default_rng(seed)
            whole = p.sample_indices(rng, n)
            replay = np.random.default_rng(seed)
            chunks = [p.sample_indices(replay, min(_DRAW_CHUNK, n - start))
                      for start in range(0, n, _DRAW_CHUNK)]
            assert all(chunk.dtype == whole.dtype for chunk in chunks)
            assert np.array_equal(np.concatenate(chunks), whole)
            advanced = np.random.default_rng(seed)
            advanced.bit_generator.advance(n)
            assert np.array_equal(advanced.normal(0.0, 1.3, 5000), rng.normal(0.0, 1.3, 5000))
            assert np.array_equal(advanced.laplace(0.0, 0.7, 5000), rng.laplace(0.0, 0.7, 5000))

    @pytest.mark.parametrize("case", ["gaussian", "laplace-table", "zero-noise-table"])
    def test_steps_hold_no_index_array(self, case):
        # One set-up step, then one step per chunk, the last returning the
        # estimate. Between steps the pair holds only its generators and
        # classification: no n-sized array (10^6 indices take 1 MB) and no
        # chunk buffer (a chunk's indices take 64 KB, its draws 512 KB).
        import tracemalloc

        from puffercal.breach import _DRAW_CHUNK, monte_carlo_breach_steps

        p, q = TestBreachClassification.far_apart()
        mech, eps = {
            "gaussian": (GaussianParams(0.8), 0.5),
            "laplace-table": (LaplaceParams(0.05), 0.5),
            "zero-noise-table": (None, 0.5),
        }[case]
        n = 10**6
        monte_carlo_breach(p, q, mech, eps, 1000, 0)  # caches and lazy imports
        steps = monte_carlo_breach_steps(p, q, mech, eps, n, 3)
        held = []
        tracemalloc.start()
        try:
            while True:
                try:
                    next(steps)
                except StopIteration as stop:
                    result = stop.value
                    break
                held.append(tracemalloc.get_traced_memory()[0])
        finally:
            tracemalloc.stop()
        assert len(held) == -(-n // _DRAW_CHUNK)
        assert max(held) < 2**16
        assert 0.0 < result[0] < 1.0
        assert result == monte_carlo_breach(p, q, mech, eps, n, 3)

    @pytest.mark.parametrize("noise", [LaplaceParams, GaussianParams, None])
    def test_peak_memory_is_chunked(self, noise):
        # 10^6 draws held as floats would take 8 MB per array; as indices
        # they take 1 MB, and each chunk's buffers about 0.5 MB.
        import tracemalloc

        p = DiscreteDistribution(atoms=(0.0, 1.0, 2.5, 4.0), masses=(0.4, 0.3, 0.2, 0.1))
        q = DiscreteDistribution(atoms=(0.0, 1.5, 2.5), masses=(0.2, 0.5, 0.3))
        mech = None if noise is None else noise(0.8)
        monte_carlo_breach(p, q, mech, 0.5, 1000, 0)  # caches and lazy imports
        tracemalloc.start()
        try:
            estimate, _ = monte_carlo_breach(p, q, mech, 0.5, 1_000_000, 3)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert 0.0 < estimate < 1.0
        assert peak < 8 * 2**20

    @pytest.mark.parametrize("n", [1000, 65537, 150001])
    def test_table_count_is_the_per_draw_count(self, n):
        # Atoms 10 apart under Laplace(0.05): each atom's draws stay within
        # 1.84 of it, inside an interval certified by its own mass ratio, so
        # the count comes from the per-atom table; it is the count of the
        # reference that holds every draw.
        import puffercal.breach as breach
        import puffercal.certify as certify
        from puffercal.dist import sample_noise

        p, q = TestBreachClassification.far_apart()
        mech, eps = LaplaceParams(0.05), 0.5
        draws = np.random.default_rng(5)
        ys = sample_atoms(p, draws, n) + sample_noise(mech, draws, n)
        expected = np.count_nonzero(certify._log_ratio(p, q, mech, ys) > eps) / n
        intervals = breach._breach_intervals(p, q, mech, eps, n)
        assert breach._settled_breach_table(p, mech, intervals).tolist() == [True, False, False]
        assert monte_carlo_breach(p, q, mech, eps, n, 5)[0] == expected

    def test_table_path_peak_memory(self, monkeypatch):
        # The table path holds the 1 MB of indices and one 1 MB lookup.
        import tracemalloc

        p, q = TestBreachClassification.far_apart()
        mech = LaplaceParams(0.05)
        monte_carlo_breach(p, q, mech, 0.5, 1000, 0)  # caches and lazy imports
        _forbid_noise(monkeypatch)
        tracemalloc.start()
        try:
            estimate, _ = monte_carlo_breach(p, q, mech, 0.5, 1_000_000, 3)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert 0.0 < estimate < 1.0
        assert peak < 8 * 2**20

    def test_intervals_need_no_draws_and_join_alike_neighbours(self):
        import puffercal.breach as breach

        p = DiscreteDistribution(atoms=(0.0, 1.0, 3.0), masses=(0.5, 0.3, 0.2))
        q = DiscreteDistribution(atoms=(0.5, 2.0), masses=(0.6, 0.4))
        for mech in (LaplaceParams(0.6), GaussianParams(0.6)):
            starts, ends, above = breach._breach_intervals(p, q, mech, 0.4, 10**6)
            # Disjoint and joined: alike neighbours merge, and neighbours
            # certified differently cannot share an edge.
            assert np.all(starts < ends) and np.all(ends[:-1] < starts[1:])
            pad = truncation_halfwidth(mech)
            assert starts[0] >= -pad and ends[-1] <= 3.0 + pad
            assert np.any(above) and not np.all(above)


class TestConstantBreachTable:
    """A per-atom table that gives every atom one class counts n or 0 without drawing."""

    @staticmethod
    def _case(case):
        """(p, q, mech, epsilon, the estimate every draw gives)."""
        p = DiscreteDistribution(atoms=(0.0, 1.0, 2.0), masses=(0.3, 0.4, 0.3))
        q = DiscreteDistribution(atoms=(0.0, 1.0, 2.0), masses=(0.35, 0.3, 0.35))
        return {
            # |log p - log q| <= log(4/3) everywhere, and one interval spans the window.
            "wide-laplace": (p, q, LaplaceParams(5.0), 1.0, 0.0),
            # No atom of p is an atom of q, so every draw breaches.
            "zero-noise-above": (p, DiscreteDistribution((3.0, 4.0), (0.5, 0.5)), None, 1.0, 1.0),
            "zero-noise-below": (p, q, None, 1.0, 0.0),
        }[case]

    @staticmethod
    def _forbid_draws(monkeypatch):
        import puffercal.breach as breach

        def forbidden(*args, **kwargs):
            raise AssertionError("drawn on a constant per-atom table")

        monkeypatch.setattr(np.random, "default_rng", forbidden)
        monkeypatch.setattr(DiscreteDistribution, "sample_indices", forbidden)
        monkeypatch.setattr(breach, "sample_noise", forbidden)

    @pytest.mark.parametrize("case", ["wide-laplace", "zero-noise-above", "zero-noise-below"])
    @pytest.mark.parametrize("n", [1000, 65537, 150001])
    def test_count_is_the_every_draw_count(self, monkeypatch, case, n):
        # The reference makes every draw: _take_every_draw for noise, and
        # the masses of each drawn atom for zero noise, whose table
        # _take_every_draw leaves in place.
        p, q, mech, eps, expected = self._case(case)
        self._forbid_draws(monkeypatch)
        constant = monte_carlo_breach(p, q, mech, eps, n, 7)
        monkeypatch.undo()
        if mech is None:
            masses_q = dict(zip(q.atoms, q.masses))
            log_ratio = {atom: math.log(mass / masses_q[atom]) if atom in masses_q else math.inf
                         for atom, mass in zip(p.atoms, p.masses)}
            xs = sample_atoms(p, np.random.default_rng(7), n).tolist()
            estimate = sum(log_ratio[x] > eps for x in xs) / n
            assert constant == (estimate, 1.96 * math.sqrt(estimate * (1.0 - estimate) / n))
        else:
            _take_every_draw(monkeypatch)
            assert monte_carlo_breach(p, q, mech, eps, n, 7) == constant
        assert constant == (expected, 0.0)

    def test_mixed_table_draws_its_indices(self, monkeypatch):
        sampled = []
        sample_indices = DiscreteDistribution.sample_indices

        def spy(self, rng, n):
            sampled.append(n)
            return sample_indices(self, rng, n)

        monkeypatch.setattr(DiscreteDistribution, "sample_indices", spy)
        _forbid_noise(monkeypatch)
        p, q = TestBreachClassification.far_apart()
        estimate, _ = monte_carlo_breach(p, q, LaplaceParams(0.05), 0.5, 2000, 3)
        assert sampled == [2000] and 0.0 < estimate < 1.0

    @pytest.mark.parametrize("case", ["wide-laplace", "zero-noise-above"])
    def test_too_many_draws_is_a_memory_error(self, monkeypatch, case):
        # Nothing is drawn, but the n indices the count stands for must fit.
        p, q, mech, eps, _ = self._case(case)
        self._forbid_draws(monkeypatch)
        with pytest.raises(MemoryError, match="1000000000000000 draws"):
            monte_carlo_breach(p, q, mech, eps, 10**15, 0)


def _count_every_draw(p_i, p_j, mech, epsilon, intervals, ys):
    """The count monte_carlo_breach made before interval classification; intervals are ignored."""
    import puffercal.certify as certify

    return int(np.count_nonzero(certify._log_ratio(p_i, p_j, mech, ys) > epsilon))


def _take_every_draw(monkeypatch):
    """Make monte_carlo_breach draw all its noise and take the log ratio at every draw."""
    import puffercal.breach as breach

    monkeypatch.setattr(breach, "_settled_breach_table", lambda p_i, mech, intervals: None)
    monkeypatch.setattr(breach, "_count_breaches", _count_every_draw)


def _forbid_noise(monkeypatch):
    import puffercal.breach as breach

    def forbidden(*args):
        raise AssertionError("noise drawn on the per-atom table path")

    monkeypatch.setattr(breach, "sample_noise", forbidden)


_PCG64_MULTIPLIER = 0x2360ED051FC65DA44385DF649FCCF645


def _generator_whose_next_word_is(word):
    """A PCG64 Generator whose next 64-bit output is word.

    PCG64 steps its 128-bit LCG state s -> s M + inc, then outputs the
    XSL-RR of the new state: the high and low words xored and rotated right
    by the state's top 6 bits. A new state with top bits 0 and high word 0
    outputs its low word; one LCG step back from it is the state to set.
    """
    inc = 0xDA3E39CB94B95BDB
    before = ((word - inc) * pow(_PCG64_MULTIPLIER, -1, 2**128)) % 2**128
    bits = np.random.PCG64()
    bits.state = {"bit_generator": "PCG64", "state": {"state": before, "inc": inc},
                  "has_uint32": 0, "uinteger": 0}
    return np.random.Generator(bits)


def test_laplace_sampler_reach_is_pinned():
    # Generator.random() is (word >> 11) 2^-53 and laplace(0, 1) returns
    # log(2U) below 1/2 and -log((2 - U) - U) above: the extreme words give
    # numpy's farthest draws, 53 ln 2 and 52 ln 2 from 0. The per-atom breach
    # table relies on no draw passing _LAPLACE_REACH scales; a numpy that
    # widens the support fails here rather than miscounting breaches.
    from puffercal.breach import _LAPLACE_REACH

    top, bottom = 2**64 - 1, 2**11
    assert _generator_whose_next_word_is(top).random() == 1.0 - 2.0**-53
    assert _generator_whose_next_word_is(bottom).random() == 2.0**-53
    high = _generator_whose_next_word_is(top).laplace(0.0, 1.0)
    low = _generator_whose_next_word_is(bottom).laplace(0.0, 1.0)
    assert (high, low) == (36.7368005696771, -36.04365338911715)
    assert max(abs(high), abs(low)) <= _LAPLACE_REACH < 36.74


def _sorted_draws(p_i, mech, n, seed):
    """The draws monte_carlo_breach makes for (p_i, mech, n, seed), sorted."""
    from puffercal.dist import sample_noise

    rng = np.random.default_rng(seed)
    xs = sample_atoms(p_i, rng, n)
    return np.sort(xs + sample_noise(mech, rng, n))


def _decimal_log_density(prior, sigma, y):
    """log of the Gaussian posterior density at y, up to the shared normalizer, in 50 digits."""
    exponents = [
        Decimal(m).ln() - (Decimal(y) - Decimal(a)) ** 2 / (2 * Decimal(sigma) ** 2)
        for a, m in zip(prior.atoms, prior.masses)
    ]
    peak = max(exponents)
    return peak + sum((e - peak).exp() for e in exponents).ln()


class TestGaussianIntervalBounds:
    """_log_ratio_bounds under Gaussian noise against the exact log ratio, on the whole line."""

    def test_bounds_contain_the_exact_ratio(self):
        # One tilt about the midpoint clamped into the atom range serves
        # intervals inside it, in the 12 sigma padding and up to 1e3 sigma
        # past the extreme atoms. At the ends, the midpoint and interior
        # points, the 50-digit ratio lies within the bounds plus margin;
        # inside the window, where breach compares draws with certified
        # intervals, the float ratio does too.
        import puffercal.certify as certify

        getcontext().prec = 50
        rng = np.random.default_rng(2024)
        checked = 0
        for _ in range(40):
            sigma = float(10.0 ** rng.uniform(-2.0, 0.5))
            base = float(rng.choice([0.0, 1e4]))
            span = sigma * float(10.0 ** rng.uniform(-1.0, 1.5))
            p, q = (
                DiscreteDistribution(tuple(base + a for a in d.atoms), d.masses)
                for d in random_pair(rng, max_atoms=5, min_atoms=1, span=span)
            )
            mech = GaussianParams(sigma)
            lo, hi = min(p.min_atom, q.min_atom), max(p.max_atom, q.max_atom)
            ends = [np.sort(rng.uniform(lo, hi, 2)), np.sort(rng.uniform(hi, hi + 12.0 * sigma, 2))]
            for reach in 10.0 ** rng.uniform(1.0, 3.0, 2):
                inner = hi + reach * sigma * float(rng.uniform(0.5, 1.0))
                ends.append(np.array([inner, hi + reach * sigma]))
            # Mirror the padding and far intervals onto the left side.
            ends += [lo + hi - e[::-1] for e in ends[1:]]
            a, b = np.array([e[0] for e in ends]), np.array([e[1] for e in ends])
            lower, upper, margin, _, _ = certify._log_ratio_bounds(p, q, mech, a, b)
            for k in range(a.size):
                ys = np.unique(np.clip(
                    [a[k], 0.5 * (a[k] + b[k]), b[k], *rng.uniform(a[k], b[k], 2)], a[k], b[k]
                ))
                in_window = lo - 12.0 * sigma <= a[k] and b[k] <= hi + 12.0 * sigma
                floats = certify._log_ratio(p, q, mech, ys) if in_window else [None] * ys.size
                for y, value in zip(ys.tolist(), floats):
                    r = _decimal_log_density(p, sigma, y) - _decimal_log_density(q, sigma, y)
                    low = Decimal(float(lower[k])) - Decimal(float(margin[k]))
                    high = Decimal(float(upper[k])) + Decimal(float(margin[k]))
                    assert low <= r <= high, (p, q, sigma, a[k], b[k], y)
                    if value is not None:
                        assert lower[k] - margin[k] <= value <= upper[k] + margin[k]
                    checked += 1
        assert checked >= 40 * 7 * 4


class TestBreachClassification:
    """The interval classifier must count exactly what the log ratio at every draw counts."""

    def test_zero_width_intervals_stay_undecided(self):
        # At sigma = 3.2e-150, 12 sigma is below the float spacing at 1: the
        # window's cuts give the interval [1, 1], which was certified, and
        # every draw from the atom 1 landed on its edge and crashed the count.
        import puffercal.breach as breach

        p, q = point_mass(1.0), point_mass(0.0)
        mech = GaussianParams(3.2e-150)
        starts, ends, _ = breach._breach_intervals(p, q, mech, 1e300, 1000)
        assert np.all(starts < ends)
        assert monte_carlo_breach(p, q, mech, 1e300, 1000, 0) == (0.0, 0.0)

    @pytest.mark.parametrize("noise", [LaplaceParams, GaussianParams, ExponentialParams])
    def test_counts_match_log_ratio_path(self, monkeypatch, noise):
        rng = np.random.default_rng(41)
        cases = []
        for seed in range(6):
            pair = random_pair(rng, max_atoms=12, min_atoms=1, span=4.0)
            mech = noise(float(rng.uniform(0.3, 2.0)))
            cases.append((pair, mech, float(rng.uniform(0.1, 1.0)), seed))
        classified = [monte_carlo_breach(*pair, mech, eps, 200_000, seed)
                      for pair, mech, eps, seed in cases]
        _take_every_draw(monkeypatch)
        every = [monte_carlo_breach(*pair, mech, eps, 200_000, seed)
                 for pair, mech, eps, seed in cases]
        assert classified == every
        assert sum(estimate > 0.0 for estimate, _ in classified) >= 3

    def test_gaussian_oracle_over_certified_intervals(self):
        # P(Y in [A, B]) for Y = X + N(0, sigma^2), X ~ p, is
        # sum_i m_i [Phi((B - a_i)/sigma) - Phi((A - a_i)/sigma)].
        import puffercal.breach as breach

        p = DiscreteDistribution(atoms=(0.0, 1.0, 3.0), masses=(0.5, 0.3, 0.2))
        q = DiscreteDistribution(atoms=(0.5, 2.0), masses=(0.6, 0.4))
        mech, eps, n, seed = GaussianParams(0.8), 0.4, 400_000, 3
        estimate, half_width = monte_carlo_breach(p, q, mech, eps, n, seed)
        starts, ends, above = breach._breach_intervals(p, q, mech, eps, n)

        def phi(z):
            return 0.5 * (1.0 + math.erf(z / math.sqrt(2.0)))

        exact = math.fsum(
            m * (phi((b - atom) / 0.8) - phi((a - atom) / 0.8))
            for a, b in zip(starts[above], ends[above])
            for atom, m in zip(p.atoms, p.masses)
        )
        assert 0.1 < exact < 0.9
        assert abs(estimate - exact) <= 4.0 * half_width / 1.96

    def test_breach_runs_within_laguerre_bound(self, rng):
        # p(y) - e^eps q(y) is, after dividing out exp(-y^2 / 2 sigma^2), an
        # exponential sum whose coefficients have the signs of
        # m_k - e^eps m'_k along the merged atoms; it has at most as many
        # real zeros as those signs change. Runs of intervals certified
        # above, separated by one certified below, need two zeros apiece.
        import puffercal.breach as breach

        most = 0
        for _ in range(20):
            p, q = random_pair(rng, max_atoms=6, min_atoms=2, span=3.0)
            mech = GaussianParams(float(rng.uniform(0.15, 0.6)))
            eps = float(rng.uniform(0.1, 1.0))
            _, _, above = breach._breach_intervals(p, q, mech, eps, 100_000)
            runs = int(np.count_nonzero(above[1:] & ~above[:-1])) + int(above[:1].sum())
            masses_p, masses_q = dict(zip(p.atoms, p.masses)), dict(zip(q.atoms, q.masses))
            signs = [
                masses_p.get(a, 0.0) > math.exp(eps) * masses_q.get(a, 0.0)
                for a in sorted(set(p.atoms) | set(q.atoms))
            ]
            changes = sum(s != t for s, t in zip(signs, signs[1:]))
            assert runs <= changes
            most = max(most, runs)
        assert most >= 2

    @pytest.mark.parametrize("noise", [GaussianParams, LaplaceParams])
    def test_atoms_near_ten_thousand_with_small_noise(self, monkeypatch, noise):
        # Conditioning regression: exponents tilted about the interval
        # midpoint hold (a - c)/sigma; untilted ones would hold
        # y a / sigma^2 ~ 1e12 and lose every digit of the bound.
        p = DiscreteDistribution(
            atoms=tuple(10000.0 + d for d in (0.0, 0.013, 0.05, 0.07)),
            masses=(0.1, 0.4, 0.3, 0.2),
        )
        q = DiscreteDistribution(
            atoms=tuple(10000.0 + d for d in (0.0, 0.02, 0.05, 0.09)),
            masses=(0.3, 0.2, 0.3, 0.2),
        )
        mech = noise(0.01)
        classified = [monte_carlo_breach(p, q, mech, eps, 200_000, 7) for eps in (0.05, 0.3, 1.0)]
        _take_every_draw(monkeypatch)
        every = [monte_carlo_breach(p, q, mech, eps, 200_000, 7) for eps in (0.05, 0.3, 1.0)]
        assert classified == every
        assert all(estimate > 0.0 for estimate, _ in classified)

    def test_thousand_atom_pair_counts_match_every_draw(self, monkeypatch):
        # Gaussian classification starts from the draw range cut at the
        # noise scale (certify._cuts with h = sigma), not at each of the
        # pair's ~1800 atoms; the counts stay those of the per-draw ratio.
        import puffercal.breach as breach

        def prior(rng, n, lo, hi):
            atoms = np.unique(np.round(rng.uniform(lo, hi, n), 4))
            masses = rng.dirichlet(np.ones(atoms.size)) + 0.5 / atoms.size
            return DiscreteDistribution(
                tuple(atoms.tolist()), tuple((masses / masses.sum()).tolist())
            )

        rng = np.random.default_rng(1000)
        p, q = prior(rng, 1000, 5.0, 45.0), prior(rng, 800, 7.0, 50.0)
        first_round = []
        bounds = breach._log_ratio_bounds

        def recorded(*args):
            first_round.append(args[3].size)
            return bounds(*args)

        monkeypatch.setattr(breach, "_log_ratio_bounds", recorded)
        cases = [(GaussianParams(0.05), 1.0), (GaussianParams(3.0), 0.5)]
        classified = []
        for mech, eps in cases:
            del first_round[:]
            classified.append(monte_carlo_breach(p, q, mech, eps, 5_000, 9))
            assert first_round[0] < len(p.atoms)
        monkeypatch.setattr(breach, "_count_breaches", _count_every_draw)
        every = [monte_carlo_breach(p, q, mech, eps, 5_000, 9) for mech, eps in cases]
        assert classified == every
        assert all(estimate > 0.0 for estimate, _ in classified)

    def test_laplace_tail_constant_at_epsilon(self, monkeypatch):
        # For point masses at 0 and 1 under Laplace(2), log p - log q is 1/2
        # on all of y < 0, and the log ratio rounds to a few values next to
        # it there. With epsilon at each of them, no interval of the tail
        # can be certified, and its draws take the log ratio.
        import puffercal.breach as breach
        import puffercal.certify as certify

        pair, mech, n, seed = (point_mass(0.0), point_mass(1.0)), LaplaceParams(2.0), 100_000, 4
        ys = _sorted_draws(pair[0], mech, n, seed)
        tail = np.unique(certify._log_ratio(*pair, mech, ys[ys < 0.0]))
        assert tail.size > 1 and np.all(np.abs(tail - 0.5) < 1e-14)
        rounds = []
        bounds = breach._log_ratio_bounds

        def counted(*args):
            rounds.append(args[3].size)
            return bounds(*args)

        for eps in tail.tolist():
            rounds.clear()
            monkeypatch.setattr(breach, "_log_ratio_bounds", counted)
            classified = monte_carlo_breach(*pair, mech, eps, n, seed)
            assert 0 < len(rounds) <= certify._CLASSIFY_ROUNDS
            starts, _, _ = breach._breach_intervals(*pair, mech, eps, n)
            assert not np.any(starts < 0.0)
            _take_every_draw(monkeypatch)
            assert classified == monte_carlo_breach(*pair, mech, eps, n, seed)
            monkeypatch.undo()

    @staticmethod
    def _integer_pair():
        # Alternating mass ratios on shared integer atoms: under Laplace(0.05)
        # the ratio crosses epsilon between every two atoms.
        atoms = tuple(float(a) for a in range(40))
        weights = np.where(np.arange(40) % 2 == 0, 0.5, 1.5)
        return (
            DiscreteDistribution(atoms, (1.0 / 40,) * 40),
            DiscreteDistribution(atoms, tuple((weights / weights.sum()).tolist())),
        )

    @pytest.mark.parametrize(
        "case", ["one-below", "one-above", "gaussian-three", "laplace-integers"]
    )
    def test_count_is_the_same_whichever_interval_is_settled(self, monkeypatch, case):
        # Draws on every edge, one ulp to each side, inside each interval and
        # outside the window: settling any one interval's draws first, by
        # two comparisons, counts what the log ratio at every draw counts.
        # With every label flipped, only the draws strictly inside an
        # interval take its label, and draws on an edge take the log ratio.
        import puffercal.breach as breach

        p = DiscreteDistribution(atoms=(0.0, 1.0, 3.0), masses=(0.5, 0.3, 0.2))
        q = DiscreteDistribution(atoms=(0.5, 2.0), masses=(0.6, 0.4))
        pair, mech, eps, size = {
            "one-below": ((point_mass(0.0), point_mass(1.0)), LaplaceParams(2.0), 1.0, 1),
            "one-above": ((point_mass(0.0), point_mass(1.0)), LaplaceParams(2.0), -0.75, 1),
            "gaussian-three": ((p, q), GaussianParams(0.6), 0.4, 3),
            "laplace-integers": (self._integer_pair(), LaplaceParams(0.05), 0.3, 40),
        }[case]
        starts, ends, above = intervals = breach._breach_intervals(*pair, mech, eps, 10**6)
        assert starts.size == size
        edges = np.concatenate((starts, ends))
        ys = np.concatenate((
            edges,
            np.nextafter(edges, -np.inf),
            np.nextafter(edges, np.inf),
            (starts + ends) / 2.0,
            starts[:1] - 1.0, ends[-1:] + 1.0, starts[:1] - 1e3, ends[-1:] + 1e3,
        ))
        np.random.default_rng(3).shuffle(ys)
        expected = _count_every_draw(*pair, mech, eps, intervals, ys)
        inside = (ys[:, None] > starts) & (ys[:, None] < ends)
        flipped = int(np.count_nonzero(inside[:, ~above])) + _count_every_draw(
            *pair, mech, eps, None, ys[~inside.any(axis=1)]
        )
        widest = breach._settled_interval(starts, ends)
        assert ends[widest] - starts[widest] == np.max(ends - starts)
        for k in range(starts.size):
            monkeypatch.setattr(breach, "_settled_interval", lambda starts, ends: k)
            assert breach._count_breaches(*pair, mech, eps, intervals, ys.copy()) == expected
            assert breach._count_breaches(
                *pair, mech, eps, (starts, ends, ~above), ys.copy()
            ) == flipped

    @staticmethod
    def far_apart():
        atoms = (0.0, 10.0, 20.0)
        return (DiscreteDistribution(atoms, (0.5, 0.2, 0.3)),
                DiscreteDistribution(atoms, (0.2, 0.5, 0.3)))

    @staticmethod
    def _table_case(case):
        """(pair, mech, epsilon, the per-atom table expected, or None where it declines)."""
        p = DiscreteDistribution(atoms=(0.0, 1.0, 2.0), masses=(0.3, 0.4, 0.3))
        q = DiscreteDistribution(atoms=(0.0, 1.0, 2.0), masses=(0.35, 0.3, 0.35))
        integers = TestBreachClassification._integer_pair()
        return {
            # |log p - log q| <= log(4/3) everywhere: one interval across the window.
            "constant-below": ((p, q), LaplaceParams(1.0), 1.0, [False] * 3),
            "constant-above": ((p, q), ExponentialParams(scale=1.0), -0.75, [True] * 3),
            "mixed-far-apart": (TestBreachClassification.far_apart(), LaplaceParams(0.05), 0.5,
                                [True, False, False]),
            # Unit spacing at b = 0.005: draws reach 0.18 from their atom.
            "mixed-unit-spacing": (integers[::-1], LaplaceParams(0.005), 0.3,
                                   [a % 2 == 1 for a in range(40)]),
            "declines": ((p, q), LaplaceParams(0.3), 0.2, None),
            "declines-gaussian": ((p, q), GaussianParams(1.0), 1.0, None),
        }[case]

    @pytest.mark.parametrize("case", [
        "constant-below", "constant-above", "mixed-far-apart", "mixed-unit-spacing", "declines",
        "declines-gaussian",
    ])
    def test_table_counts_what_every_draw_counts(self, monkeypatch, case):
        import puffercal.breach as breach

        pair, mech, eps, table = self._table_case(case)
        n, seed = 200_000, 8
        intervals = breach._breach_intervals(*pair, mech, eps, n)
        got = breach._settled_breach_table(pair[0], mech, intervals)
        assert (None if got is None else got.tolist()) == table
        if table is not None:
            _forbid_noise(monkeypatch)
        classified = monte_carlo_breach(*pair, mech, eps, n, seed)
        monkeypatch.undo()
        _take_every_draw(monkeypatch)
        assert classified == monte_carlo_breach(*pair, mech, eps, n, seed)
        if table is not None and any(table) and not all(table):
            assert 0.0 < classified[0] < 1.0

    def test_table_needs_the_draws_strictly_inside(self):
        # A point mass at 0 under Laplace(1) reaches R = _LAPLACE_REACH: an
        # interval ending at R, or one ulp short of it, declines the table,
        # and one ending one ulp past R settles it.
        import puffercal.breach as breach

        reach = breach._LAPLACE_REACH
        for end, settled in ((reach, False), (np.nextafter(reach, 0.0), False),
                             (np.nextafter(reach, np.inf), True)):
            intervals = (np.array([-50.0]), np.array([end]), np.array([True]))
            table = breach._settled_breach_table(point_mass(0.0), LaplaceParams(1.0), intervals)
            assert (table is not None) == settled, end

    def test_refine_halves_the_highest_ranked_at_its_cap(self, monkeypatch):
        # One starting interval [0, 1] caps the open intervals at 4 (1 + 1)
        # + 64 = 72. Ranked by midpoint and never closed, 64 are open in
        # round 7: the 36 highest are halved and the 28 lowest returned as
        # they are, and so again in round 8 of 8, after which the 72 halves
        # still open are returned too. Together they tile [0, 1].
        import puffercal.certify as certify

        monkeypatch.setattr(certify, "_CLASSIFY_ROUNDS", 8)
        calls = []

        def settle(a, b, mids):
            calls.append(a.size)
            return mids

        a, b = certify._refine(np.array([0.0]), np.array([1.0]),
                              lambda a, b: (0.5 * (a + b),), settle)
        assert calls == [1, 2, 4, 8, 16, 32, 64, 72]
        order = np.argsort(a)
        a, b = a[order], b[order]
        assert a[0] == 0.0 and b[-1] == 1.0 and np.array_equal(b[:-1], a[1:])
        widths = b - a
        assert np.all(widths[:28] == 1 / 64) and a[28] == 28 / 64
        assert np.all(widths[28:64] == 1 / 128) and a[64] == 28 / 64 + 36 / 128
        assert np.all(widths[64:] == 1 / 256) and widths.size == 28 + 36 + 72
        # Intervals ranked -inf are closed, and not returned.
        closed = certify._refine(np.array([0.0]), np.array([1.0]), lambda a, b: (a,),
                                lambda a, b, _: np.full(a.size, -np.inf))
        assert closed[0].size == closed[1].size == 0

    @pytest.mark.parametrize("noise", [LaplaceParams, GaussianParams])
    def test_count_past_the_refine_cap_is_the_per_draw_count(self, monkeypatch, noise):
        # Bounds loosened by 1000 times the interval width still bound r, but
        # decide only intervals narrower than about 1e-3 |r - epsilon|: the
        # open intervals reach _refine's cap, and those it leaves open take
        # the log ratio at their draws.
        import puffercal.breach as breach

        p = DiscreteDistribution((0.0, 1.0, 2.0, 3.0), (0.1, 0.4, 0.3, 0.2))
        q = DiscreteDistribution((0.0, 1.0, 2.0, 3.0), (0.3, 0.2, 0.2, 0.3))
        mech, eps, n, seed = noise(0.5), 0.3, 100_000, 3
        bounds = breach._log_ratio_bounds
        sizes = []

        def loose(p_i, p_j, mech, a, b):
            lower, upper, margin, log_density, value = bounds(p_i, p_j, mech, a, b)
            sizes.append(a.size)
            return lower - 1e3 * (b - a), upper + 1e3 * (b - a), margin, log_density, value

        monkeypatch.setattr(breach, "_log_ratio_bounds", loose)
        classified = monte_carlo_breach(p, q, mech, eps, n, seed)
        assert max(sizes) == 4 * (sizes[0] + 1) + 64
        monkeypatch.undo()
        _take_every_draw(monkeypatch)
        assert classified == monte_carlo_breach(p, q, mech, eps, n, seed)
        assert 0.0 < classified[0] < 1.0

    def test_custom_cost_takes_the_log_ratio_path(self, monkeypatch):
        import puffercal.breach as breach

        def forbidden(*args):
            raise AssertionError("custom cost classified by intervals")

        monkeypatch.setattr(breach, "_breach_intervals", forbidden)
        mech = ExponentialParams(1.0, cost=lambda z: 2.0 * abs(z))
        estimate, _ = monte_carlo_breach(point_mass(0.0), point_mass(1.0), mech, 0.5, 2000, 3)
        assert 0.0 < estimate < 1.0
