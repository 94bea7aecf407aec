import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from puffercal import (
    DiscreteDistribution,
    GaussianParams,
    LaplaceParams,
    PrivacySpec,
    ScenarioPair,
    ScenarioSet,
    baseline_gaussian_rpp,
    baseline_laplace_rpp,
    calibrate_exponential,
    calibrate_gaussian,
    calibrate_grid,
    calibrate_laplace,
    calibrate_over_scenarios,
    calibrate_pair,
    calibrate_scenarios,
    calibrate_winf_laplace,
    feasible_b_sub_unit_alpha,
    monotone_coupling,
    noise_for,
    scenario_set,
    w_infinity,
)
import puffercal.calibrate as calibrate
from puffercal.calibrate import MECHANISM_KINDS, _solve_decreasing
from puffercal.errors import (
    InvalidValue,
    NonInvertibleRate,
    NoRoot,
    NotMonotone,
    PuffercalError,
)
from puffercal.transport import coupling_log_expectation

from conftest import benchmark_regime_pair, point_mass, random_pair


def test_scenario_model_names_resolve_from_every_module():
    import puffercal
    import puffercal.calibrate
    import puffercal.dist

    for name in ("ScenarioPair", "ScenarioSet", "scenario_set"):
        model = getattr(puffercal.dist, name)
        assert getattr(puffercal, name) is model
        assert getattr(puffercal.calibrate, name) is model


def bisection_root_decreasing(f, target, lo, hi, steps=200):
    """Plain bisection oracle for a decreasing f, independent of the solver."""
    assert f(lo) >= target >= f(hi)
    for _ in range(steps):
        mid = 0.5 * (lo + hi)
        if f(mid) >= target:
            lo = mid
        else:
            hi = mid
    return hi


def laplace_log_functional(pair, alpha):
    plan = monotone_coupling(*pair)

    def log_f(b):
        terms = [math.log(m) + alpha * abs(x - x2) / b for x, x2, m in plan.entries]
        peak = max(terms)
        return peak + math.log(math.fsum(math.exp(t - peak) for t in terms))

    return log_f


class TestSolveDecreasing:
    def test_reciprocal(self):
        assert _solve_decreasing(lambda x: 1.0 / x, 0.5, (1.0, 3.0)).value == pytest.approx(
            2.0, rel=1e-9
        )

    def test_exponential_inverse(self):
        assert _solve_decreasing(
            lambda x: math.exp(2.0 / x), math.e, (0.5, 5.0)
        ).value == pytest.approx(2.0, rel=1e-9)

    def test_two_term_sum_matches_bisection(self):
        f = lambda x: math.exp(1.0 / x) + math.exp(2.0 / x)
        oracle = bisection_root_decreasing(f, 4.0, 0.1, 50.0)
        assert _solve_decreasing(f, 4.0, (1.0, 3.0)).value == pytest.approx(oracle, rel=1e-9)

    def test_bracket_expansion(self):
        # Hint nowhere near the root: expansion must find it anyway.
        assert _solve_decreasing(lambda x: 1.0 / x, 1e-3, (0.01, 0.02)).value == pytest.approx(
            1000.0, rel=1e-9
        )

    def test_not_monotone_detected(self):
        with pytest.raises(NotMonotone):
            _solve_decreasing(lambda x: x, 1.0, (0.5, 2.0))

    def test_no_root_for_flat_function(self):
        with pytest.raises(NoRoot):
            _solve_decreasing(lambda x: 1.0, 2.0, (0.5, 2.0))

    def test_conservative_side(self):
        f = lambda x: math.exp(1.0 / x) + math.exp(2.0 / x)
        root = _solve_decreasing(f, 4.0, (1.0, 3.0)).value
        assert f(root) <= 4.0

    def test_reports_its_own_value_at_the_root(self):
        # f_value is f at the returned endpoint, on every exit: the
        # Brent loop, and a bracket end that meets the target exactly.
        f = lambda x: math.exp(1.0 / x) + math.exp(2.0 / x)
        for f, target, hint in ((f, 4.0, (1.0, 3.0)), (lambda x: 4.0 / x, 2.0, (2.0, 4.0)),
                                (lambda x: 4.0 / x, 1.0, (2.0, 4.0))):
            solve = _solve_decreasing(f, target, hint)
            assert solve.f_value == f(solve.value)


class TestSolveEvaluations:
    """The returned functional is the solver's last evaluation, not one more call."""

    @staticmethod
    def _count(monkeypatch, name, rows=lambda args, result: 1):
        """Record every x the Brent coroutine asks for, and the rows the patched
        function evaluates (rows(args, result) per call)."""
        import puffercal.calibrate as calibrate

        solver, underlying = [], []
        real_brent, real = calibrate._brent, getattr(calibrate, name)

        def counting_brent(*args, **kwargs):
            steps = real_brent(*args, **kwargs)
            value = None
            while True:
                try:
                    x = steps.send(value)
                except StopIteration as stop:
                    return stop.value
                solver.append(x)
                value = yield x

        def counting(*args):
            result = real(*args)
            underlying.extend([args] * rows(args, result))
            return result

        monkeypatch.setattr(calibrate, "_brent", counting_brent)
        monkeypatch.setattr(calibrate, name, counting)
        return solver, underlying

    @pytest.mark.parametrize(
        "solve, alpha",
        [(calibrate_laplace, 2.0), (calibrate_gaussian, 3.0), (calibrate_exponential, 1.5),
         (feasible_b_sub_unit_alpha, 0.5)],
        ids=["laplace", "gaussian", "exponential", "sub-unit"],
    )
    def test_functional_calls_equal_solver_evaluations(self, monkeypatch, solve, alpha):
        # A lockstep call evaluates one row per lane; a one-lane solve's is a 1-row block.
        solver, functional = self._count(
            monkeypatch, "coupling_log_expectation", lambda args, result: np.size(result)
        )
        pair = random_pair(np.random.default_rng(7), max_atoms=8, min_atoms=3)
        result = solve(pair, PrivacySpec(alpha=alpha, epsilon=0.7))
        assert result.iterations > 0
        assert len(functional) == len(solver)

    def test_grid_rows_equal_solver_evaluations(self, monkeypatch):
        solver, functional = self._count(
            monkeypatch, "coupling_log_expectation", lambda args, result: np.size(result)
        )
        scenarios = scenario_set([random_pair(np.random.default_rng(7), max_atoms=8, min_atoms=3)])
        specs = [PrivacySpec(alpha=a, epsilon=e) for a in (1.5, 3.0, 8.0) for e in (0.5, 2.0)]
        grid = calibrate_grid(scenarios, "laplace", specs)
        assert all(results[0].iterations > 0 for results in grid)
        assert len(functional) == len(solver)

    def test_baseline_divergence_calls_equal_solver_evaluations(self, monkeypatch):
        solver, divergence = self._count(monkeypatch, "laplace_pair_divergence")
        result = baseline_laplace_rpp(benchmark_regime_pair(), PrivacySpec(alpha=2.0, epsilon=0.7))
        assert result.iterations > 0
        assert len(divergence) == len(solver)


class TestCalibrateLaplace:
    def test_point_mass_analytic(self):
        result = calibrate_laplace(
            (point_mass(0.0), point_mass(1.0)), PrivacySpec(alpha=2.0, epsilon=1.0)
        )
        # e^{alpha D / b} = e^{(alpha-1) eps}  =>  b = alpha D / ((alpha-1) eps)
        assert result.parameter == pytest.approx(2.0, rel=1e-9)
        assert result.guarantee_side

    def test_identical_pair_needs_no_noise(self, rng):
        P, _ = random_pair(rng, max_atoms=8)
        result = calibrate_laplace((P, P), PrivacySpec(alpha=3.0, epsilon=0.5))
        assert result.parameter == 0.0
        assert result.no_noise_needed

    def test_matches_bisection_oracle(self, rng):
        for _ in range(10):
            pair = random_pair(rng, max_atoms=10, min_atoms=2)
            spec = PrivacySpec(alpha=2.5, epsilon=0.7)
            log_f = laplace_log_functional(pair, spec.alpha)
            oracle = bisection_root_decreasing(
                log_f, (spec.alpha - 1) * spec.epsilon, 1e-3, 1e3
            )
            result = calibrate_laplace(pair, spec)
            assert result.parameter == pytest.approx(oracle, rel=1e-8)

    def test_alpha_inf_dispatches_to_winf(self):
        pair = (point_mass(0.0), point_mass(2.0))
        result = calibrate_laplace(pair, PrivacySpec(alpha=math.inf, epsilon=0.5))
        assert result.parameter == pytest.approx(4.0, rel=1e-12)
        assert result.mechanism == "winf-laplace"

    def test_alpha_below_one_rejected(self):
        with pytest.raises(InvalidValue):
            calibrate_laplace(
                (point_mass(0.0), point_mass(1.0)), PrivacySpec(alpha=0.5, epsilon=1.0)
            )


class TestCalibrateGaussian:
    def test_point_mass_closed_form(self):
        result = calibrate_gaussian(
            (point_mass(0.0), point_mass(1.0)), PrivacySpec(alpha=2.0, epsilon=1.0)
        )
        assert result.parameter**2 == pytest.approx(1.0, rel=1e-9)

    def test_identical_pair(self):
        P = DiscreteDistribution(atoms=(0.0, 1.0), masses=(0.5, 0.5))
        result = calibrate_gaussian((P, P), PrivacySpec(alpha=2.0, epsilon=1.0))
        assert result.parameter == 0.0
        assert result.no_noise_needed

    def test_point_mass_matches_closed_form_everywhere(self):
        for alpha in (1.2, 1.5, 2.0, 3.0, 5.0):
            for eps in (0.1, 0.5, 1.0, 2.0):
                spec = PrivacySpec(alpha=alpha, epsilon=eps)
                pair = (point_mass(0.0), point_mass(1.7))
                sigma = calibrate_gaussian(pair, spec).parameter
                # Point-mass rule sigma = sqrt(alpha D^2 / (2 eps)).
                assert sigma == pytest.approx(
                    math.sqrt(alpha * 1.7**2 / (2.0 * eps)), rel=1e-9
                )

    def test_alpha_inf_rejected(self):
        with pytest.raises(InvalidValue):
            calibrate_gaussian(
                (point_mass(0.0), point_mass(1.0)),
                PrivacySpec(alpha=math.inf, epsilon=1.0),
            )


class TestCalibrateExponential:
    def test_abs_cost_equals_laplace_analytic(self):
        result = calibrate_exponential(
            (point_mass(0.0), point_mass(1.0)), PrivacySpec(alpha=2.0, epsilon=1.0)
        )
        assert result.parameter == pytest.approx(2.0, rel=1e-9)

    def test_squared_cost_analytic(self):
        # c(z) = z^2 on a unit displacement: e^{alpha/theta} = e^{(alpha-1) eps}.
        result = calibrate_exponential(
            (point_mass(0.0), point_mass(1.0)),
            PrivacySpec(alpha=2.0, epsilon=1.0),
            cost=lambda z: z * z,
        )
        assert result.parameter == pytest.approx(2.0, rel=1e-9)

    def test_alpha_inf_closed_form(self):
        # theta = rate^-1(eps / sup cost) with rate 1/theta: theta = sup/eps.
        result = calibrate_exponential(
            (point_mass(0.0), point_mass(2.0)),
            PrivacySpec(alpha=math.inf, epsilon=0.5),
        )
        assert result.parameter == pytest.approx(4.0, rel=1e-12)

    def test_coincides_with_laplace(self, rng):
        for _ in range(15):
            pair = random_pair(rng, max_atoms=12, min_atoms=2)
            spec = PrivacySpec(alpha=1.8, epsilon=0.6)
            b = calibrate_laplace(pair, spec).parameter
            theta = calibrate_exponential(pair, spec).parameter
            assert theta == pytest.approx(b, rel=1e-6)

    def test_custom_rate_with_numeric_inverse(self):
        pair = (point_mass(0.0), point_mass(1.0))
        spec = PrivacySpec(alpha=2.0, epsilon=1.0)
        # rate 2/theta: e^{2 alpha / theta} = e^{(alpha-1) eps} => theta = 4.
        numeric = calibrate_exponential(pair, spec, rate=lambda t: 2.0 / t)
        assert numeric.parameter == pytest.approx(4.0, rel=1e-8)

    @pytest.mark.parametrize("epsilon, width", [(1e-310, 1.0), (5e-324, 4.0)])
    def test_alpha_inf_without_finite_theta(self, epsilon, width):
        # epsilon / sup cost is subnormal (1/value overflows) or rounds to 0.
        with pytest.raises(NonInvertibleRate, match="no finite theta has rate 1/theta"):
            calibrate_exponential(
                (point_mass(0.0), point_mass(width)), PrivacySpec(alpha=math.inf, epsilon=epsilon)
            )

    def test_increasing_rate_rejected(self):
        with pytest.raises(NonInvertibleRate):
            calibrate_exponential(
                (point_mass(0.0), point_mass(1.0)),
                PrivacySpec(alpha=2.0, epsilon=1.0),
                rate=lambda t: t,
            )


class TestGuaranteeTolerance:
    """guarantee_side admits a relative excess of _GUARANTEE_TOL and no more."""

    @pytest.mark.parametrize("excess, holds", [(0.5, True), (2.0, False)])
    def test_budget_scale_boundary(self, monkeypatch, excess, holds):
        # An inverse rate that undershoots theta by `excess` tolerances makes
        # the alpha = inf bound exceed epsilon by about that much.
        from puffercal.calibrate import _GUARANTEE_TOL

        shrink = 1.0 + excess * _GUARANTEE_TOL
        monkeypatch.setattr(
            calibrate, "_invert_rate", lambda rate, value: 1.0 / value / shrink
        )
        result = calibrate_exponential(
            (point_mass(0.0), point_mass(1.0)), PrivacySpec(alpha=math.inf, epsilon=1.0)
        )
        assert result.functional_value == pytest.approx(shrink, rel=1e-15)
        assert result.guarantee_side is holds


class TestWinfLaplace:
    def test_point_mass(self):
        result = calibrate_winf_laplace((point_mass(0.0), point_mass(2.0)), 0.5)
        assert result.parameter == 4.0

    def test_identical(self):
        P = point_mass(1.0)
        assert calibrate_winf_laplace((P, P), 0.5).parameter == 0.0

    def test_scale_overflow_is_no_root(self):
        with pytest.raises(NoRoot, match="no finite Laplace scale"):
            calibrate_winf_laplace((point_mass(0.0), point_mass(1.0)), 1e-310)
        # An identical pair still needs no noise.
        P = point_mass(1.0)
        assert calibrate_winf_laplace((P, P), 1e-310).parameter == 0.0


class TestSubnormalEpsilonAtFiniteOrder:
    """A bracket end or closed form that overflows is NoRoot, not a bad hint."""

    @pytest.mark.parametrize(
        "solve, alpha, match",
        [
            (calibrate_laplace, 2.0, r"no finite laplace parameter: the seed bracket \(2\.88"),
            (calibrate_gaussian, 2.0, r"no finite gaussian parameter: the seed bracket \(1\.20"),
            (baseline_laplace_rpp, 2.0, "no finite baseline-laplace parameter"),
            (baseline_gaussian_rpp, 2.0, "no finite Gaussian sigma"),
            (feasible_b_sub_unit_alpha, 0.5, "no finite laplace-sub-unit parameter"),
        ],
        ids=["laplace", "gaussian", "baseline-laplace", "baseline-gaussian", "sub-unit"],
    )
    def test_overflow_is_no_root(self, solve, alpha, match):
        spec = PrivacySpec(alpha=alpha, epsilon=1e-310)
        with pytest.raises(NoRoot, match=match):
            solve((point_mass(0.0), point_mass(1.0)), spec)
        # An identical pair still needs no noise.
        P = point_mass(1.0)
        assert solve((P, P), spec).parameter == 0.0


class TestBaselines:
    def test_baseline_laplace_reference_values(self):
        pair = (point_mass(0.0), point_mass(2.0))
        b2 = baseline_laplace_rpp(pair, PrivacySpec(alpha=2.0, epsilon=0.5)).parameter
        b5 = baseline_laplace_rpp(pair, PrivacySpec(alpha=5.0, epsilon=0.5)).parameter
        assert b2 == pytest.approx(2.30075, abs=1e-3)
        assert b5 == pytest.approx(3.09429, abs=1e-3)

    def test_baseline_laplace_zero_distance(self):
        P = point_mass(0.5)
        assert baseline_laplace_rpp((P, P), PrivacySpec(alpha=2.0, epsilon=0.5)).parameter == 0.0

    def test_baseline_gaussian_reference_values(self):
        pair = (point_mass(0.0), point_mass(2.0))
        s2 = baseline_gaussian_rpp(pair, PrivacySpec(alpha=2.0, epsilon=0.5)).parameter
        s12 = baseline_gaussian_rpp(pair, PrivacySpec(alpha=1.2, epsilon=0.5)).parameter
        assert s2 == pytest.approx(2.82843, abs=1e-4)
        assert s12 == pytest.approx(2.19089, abs=1e-4)

    def test_baseline_gaussian_zero_distance(self):
        P = point_mass(0.0)
        assert baseline_gaussian_rpp((P, P), PrivacySpec(alpha=2.0, epsilon=0.5)).parameter == 0.0


class TestRdpGaussianClosedForm:
    def test_sqrt_three_case(self):
        # sqrt(alpha D^2 / (2 eps)) = sqrt(3) at D = 1, alpha = 3, eps = 0.5.
        spec = PrivacySpec(alpha=3.0, epsilon=0.5)
        solved = calibrate_gaussian((point_mass(0.0), point_mass(1.0)), spec)
        assert solved.parameter == pytest.approx(math.sqrt(3.0), rel=1e-9)


class TestSubUnitAlpha:
    def test_identical_pair(self):
        P = DiscreteDistribution(atoms=(0.0, 1.0), masses=(0.5, 0.5))
        result = feasible_b_sub_unit_alpha((P, P), PrivacySpec(alpha=0.5, epsilon=1.0))
        assert result.parameter == 0.0
        assert result.experimental

    @pytest.mark.parametrize(
        "delta,alpha,eps",
        [(1.0, 0.5, 1.0), (2.0, 0.5, 0.5), (1.5, 0.25, 0.75)],
    )
    def test_point_mass_analytic(self, delta, alpha, eps):
        # e^{-alpha D / b} = e^{(alpha-1) eps}  =>  b = alpha D / ((1-alpha) eps)
        expected = alpha * delta / ((1.0 - alpha) * eps)
        result = feasible_b_sub_unit_alpha(
            (point_mass(0.0), point_mass(delta)), PrivacySpec(alpha=alpha, epsilon=eps)
        )
        assert result.parameter == pytest.approx(expected, rel=1e-8)
        assert result.experimental

    def test_condition_holds_at_returned_parameter(self, rng):
        for _ in range(10):
            pair = random_pair(rng, max_atoms=8, min_atoms=2)
            spec = PrivacySpec(alpha=0.3, epsilon=0.8)
            result = feasible_b_sub_unit_alpha(pair, spec)
            assert result.log_functional_value >= result.log_target - 1e-9
            assert result.guarantee_side

    def test_order_above_one_rejected(self):
        with pytest.raises(InvalidValue):
            feasible_b_sub_unit_alpha(
                (point_mass(0.0), point_mass(1.0)), PrivacySpec(alpha=2.0, epsilon=1.0)
            )


class TestScenarioAggregation:
    def test_single_pair_matches(self, rng):
        pair = random_pair(rng, max_atoms=6, min_atoms=2)
        spec = PrivacySpec(alpha=2.0, epsilon=0.5)
        single = calibrate_laplace(pair, spec)
        scenarios = scenario_set([pair])
        combined = calibrate_over_scenarios(scenarios, "laplace", spec)
        assert combined.parameter == single.parameter
        assert combined.binding_pair_index == 0

    def test_degenerate_pair_ignored(self):
        P = point_mass(0.0)
        scenarios = ScenarioSet(
            pairs=(
                ScenarioPair(p_i=P, p_j=P, label="same"),
                ScenarioPair(p_i=P, p_j=point_mass(1.0), label="unit"),
            )
        )
        spec = PrivacySpec(alpha=2.0, epsilon=1.0)
        result = calibrate_over_scenarios(scenarios, "laplace", spec)
        assert result.parameter == pytest.approx(2.0, rel=1e-9)
        assert result.binding_pair_label == "unit"

    def test_binding_pair_is_argmax(self):
        scenarios = ScenarioSet(
            pairs=(
                ScenarioPair(p_i=point_mass(0.0), p_j=point_mass(1.0), label="near"),
                ScenarioPair(p_i=point_mass(0.0), p_j=point_mass(2.0), label="far"),
            )
        )
        result = calibrate_over_scenarios(
            scenarios, "laplace", PrivacySpec(alpha=2.0, epsilon=1.0)
        )
        assert result.parameter == pytest.approx(4.0, rel=1e-9)
        assert result.binding_pair_index == 1
        assert result.binding_pair_label == "far"

    def test_ties_break_to_lowest_index(self):
        scenarios = ScenarioSet(
            pairs=(
                ScenarioPair(p_i=point_mass(0.0), p_j=point_mass(1.0), label="a"),
                ScenarioPair(p_i=point_mass(5.0), p_j=point_mass(6.0), label="b"),
            )
        )
        result = calibrate_over_scenarios(
            scenarios, "laplace", PrivacySpec(alpha=2.0, epsilon=1.0)
        )
        assert result.binding_pair_index == 0

    def test_error_annotated_with_label(self):
        scenarios = ScenarioSet(
            pairs=(ScenarioPair(p_i=point_mass(0.0), p_j=point_mass(1.0), label="named"),)
        )
        with pytest.raises(NonInvertibleRate, match="named"):
            calibrate_over_scenarios(
                scenarios,
                "exponential",
                PrivacySpec(alpha=2.0, epsilon=1.0),
                rate=lambda t: t,
            )

    def test_unknown_kind(self):
        scenarios = scenario_set([(point_mass(0.0), point_mass(1.0))])
        with pytest.raises(InvalidValue):
            calibrate_over_scenarios(scenarios, "noise-o-matic", PrivacySpec(2.0, 1.0))

    @pytest.mark.parametrize("kind", MECHANISM_KINDS)
    @pytest.mark.parametrize("alpha", [2.0, math.inf])
    def test_every_result_names_the_binding_pair(self, kind, alpha):
        # "a" and "b" tie on the largest parameter; "same" needs no noise.
        P = point_mass(0.0)
        scenarios = ScenarioSet(
            pairs=(
                ScenarioPair(p_i=P, p_j=P, label="same"),
                ScenarioPair(p_i=P, p_j=point_mass(1.0), label="a"),
                ScenarioPair(p_i=point_mass(5.0), p_j=point_mass(6.0), label="b"),
                ScenarioPair(p_i=P, p_j=point_mass(0.5), label="near"),
            )
        )
        spec = PrivacySpec(alpha=alpha, epsilon=1.0)
        if math.isinf(alpha) and kind in ("gaussian", "baseline-laplace", "baseline-gaussian"):
            with pytest.raises(InvalidValue, match="pair 'same'"):
                calibrate_scenarios(scenarios, kind, spec)
            return
        results = calibrate_scenarios(scenarios, kind, spec)
        binding = calibrate_over_scenarios(scenarios, kind, spec)
        assert len(results) == 4
        assert results[0].no_noise_needed
        assert results[1].parameter == results[2].parameter > results[3].parameter
        for result in results:
            assert result.binding_pair_index == binding.binding_pair_index == 1
            assert result.binding_pair_label == binding.binding_pair_label == "a"
        assert binding == results[1]


class TestMechanismTable:
    @pytest.mark.parametrize("kind", MECHANISM_KINDS)
    def test_zero_parameter_needs_no_noise(self, kind):
        assert noise_for(kind, 0.0) is None

    @pytest.mark.parametrize(
        "kind, noise",
        [
            ("laplace", LaplaceParams(1.5)),
            ("gaussian", GaussianParams(1.5)),
            # The default exponential mechanism (cost |z|, rate 1/theta) is Laplace noise.
            ("exponential", LaplaceParams(1.5)),
            ("winf", LaplaceParams(1.5)),
            ("baseline-laplace", LaplaceParams(1.5)),
            ("baseline-gaussian", GaussianParams(1.5)),
        ],
    )
    def test_noise_class(self, kind, noise):
        assert noise_for(kind, 1.5) == noise

    def test_unknown_kind(self):
        with pytest.raises(InvalidValue, match="noise-o-matic"):
            noise_for("noise-o-matic", 1.0)

    def test_custom_cost_reaches_only_the_exponential_mechanism(self):
        pair = (point_mass(0.0), point_mass(1.0))
        spec = PrivacySpec(alpha=2.0, epsilon=1.0)

        def half(z):
            return 0.5 * abs(z)

        # Halving the cost halves the parameter the exponential mechanism needs.
        scaled = calibrate_pair(pair, "exponential", spec, cost=half)
        assert scaled.parameter == pytest.approx(1.0, rel=1e-8)
        assert calibrate_pair(pair, "laplace", spec, cost=half).parameter == pytest.approx(
            2.0, rel=1e-9
        )


class TestCalibrationProperties:
    def test_sufficiency_direction(self, rng):
        # The transport functional at the returned parameter never exceeds
        # the target, across mechanisms and random scenarios.
        specs = [
            PrivacySpec(alpha=a, epsilon=e)
            for a in (1.5, 2.0, 5.0)
            for e in (0.3, 1.0)
        ]
        checked = 0
        while checked < 200:
            pair = random_pair(rng, max_atoms=10, min_atoms=2)
            for spec in specs:
                for calibrator in (calibrate_laplace, calibrate_gaussian, calibrate_exponential):
                    result = calibrator(pair, spec)
                    assert result.log_functional_value <= result.log_target + 1e-9 * max(
                        1.0, abs(result.log_target)
                    )
                    assert result.guarantee_side
                    checked += 1

    def test_monotone_in_epsilon(self, rng):
        pair = random_pair(rng, max_atoms=10, min_atoms=2)
        eps_grid = (0.1, 0.3, 0.5, 1.0, 2.0, 5.0)
        for calibrator in (calibrate_laplace, calibrate_gaussian):
            values = [
                calibrator(pair, PrivacySpec(alpha=2.0, epsilon=e)).parameter
                for e in eps_grid
            ]
            for left, right in zip(values, values[1:]):
                assert left >= right - 1e-12

    def test_limit_recovery_high_order(self, rng):
        for _ in range(5):
            pair = random_pair(rng, max_atoms=10, min_atoms=4, floor_mass=True)
            eps = 0.5
            b = calibrate_laplace(pair, PrivacySpec(alpha=1e4, epsilon=eps)).parameter
            w = w_infinity(*pair)
            assert abs(b * eps - w) / w < 0.01
            assert b * eps < w

    def test_gaussian_dominates_baseline_universally(self, rng):
        # The Gaussian baseline sigma is exactly the worst-displacement
        # feasible point of the solved equation, so the root never exceeds
        # it, for any pair.
        for _ in range(8):
            pair = random_pair(rng, max_atoms=10, min_atoms=2)
            w = w_infinity(*pair)
            for alpha in (1.2, 2.0, 5.0):
                for eps in (0.5, 1.0):
                    spec = PrivacySpec(alpha=alpha, epsilon=eps)
                    s = calibrate_gaussian(pair, spec).parameter
                    s_base = baseline_gaussian_rpp(pair, spec).parameter
                    assert s <= s_base + 1e-9
                    if w > 0 and len(set(monotone_coupling(*pair).displacements())) > 1:
                        assert s < s_base

    def test_laplace_dominates_baseline_in_benchmark_regime(self):
        # Averaging over displacements only beats the worst-case baseline
        # when little coupling mass sits at the largest gap; point masses
        # are a counterexample (alpha W / ((alpha-1) eps) > baseline), so
        # the check runs on a benchmark-shaped pair.
        pair = benchmark_regime_pair()
        for alpha in (1.2, 1.5, 2.0, 2.5, 3.0, 5.0):
            for eps in (0.5, 1.0):
                spec = PrivacySpec(alpha=alpha, epsilon=eps)
                b = calibrate_laplace(pair, spec).parameter
                b_base = baseline_laplace_rpp(pair, spec).parameter
                assert b < b_base


def _bits(outcome):
    """A result's every field with floats by repr (exact, -0.0 and nan kept), or an
    error's type and message."""
    if isinstance(outcome, Exception):
        return type(outcome), str(outcome)
    return repr(dataclasses.astuple(outcome))


def _one_spec(scenarios, kind, spec, **kwargs):
    try:
        return calibrate_scenarios(scenarios, kind, spec, **kwargs)
    except PuffercalError as exc:
        return exc


@st.composite
def _distributions(draw, max_atoms=8):
    n = draw(st.integers(min_value=1, max_value=max_atoms))
    atoms = draw(st.lists(st.floats(-50.0, 50.0), min_size=n, max_size=n, unique=True))
    weights = draw(st.lists(st.floats(1e-3, 1.0), min_size=n, max_size=n))
    total = math.fsum(weights)
    return DiscreteDistribution(tuple(sorted(atoms)), tuple(w / total for w in weights))


# Orders in (0, 1), in (1, inf) and inf, so a grid mixes sub-unit, lockstep
# and closed-form cells.
_orders = st.one_of(
    st.floats(0.05, 0.95), st.floats(1.05, 40.0), st.just(math.inf)
)
_specs = st.lists(
    st.builds(PrivacySpec, alpha=_orders, epsilon=st.floats(0.05, 5.0)), min_size=1, max_size=6
)


class TestCalibrateGrid:
    """calibrate_grid runs one pair's transport solves in lockstep; every cell must
    end exactly as a one-spec call."""

    @settings(max_examples=40, deadline=None)
    @given(p=_distributions(), q=_distributions(), specs=_specs)
    def test_grid_equals_one_spec_calls(self, p, q, specs):
        scenarios = scenario_set(
            [(p, q), (point_mass(0.0), point_mass(1.0)), (p, p)]
        )
        for kind in MECHANISM_KINDS:
            grid = calibrate_grid(scenarios, kind, specs)
            assert len(grid) == len(specs)
            for spec, cell in zip(specs, grid):
                want = _one_spec(scenarios, kind, spec)
                if isinstance(want, Exception):
                    assert _bits(cell) == _bits(want), (kind, spec)
                else:
                    assert [_bits(r) for r in cell] == [_bits(r) for r in want], (kind, spec)

    @settings(max_examples=25, deadline=None)
    @given(p=_distributions(), q=_distributions(), specs=_specs)
    def test_custom_cost_and_rate(self, p, q, specs):
        kwargs = dict(cost=lambda z: z * z + abs(z), rate=lambda t: 2.0 / t**0.5)
        scenarios = scenario_set([(p, q), (point_mass(-1.0), point_mass(2.0))])
        grid = calibrate_grid(scenarios, "exponential", specs, **kwargs)
        for spec, cell in zip(specs, grid):
            want = _one_spec(scenarios, "exponential", spec, **kwargs)
            if isinstance(want, Exception):
                assert _bits(cell) == _bits(want)
            else:
                assert [_bits(r) for r in cell] == [_bits(r) for r in want]

    @pytest.mark.parametrize(
        "kind, orders",
        [("laplace", (1.2, 2.0, 7.5, 300.0)), ("gaussian", (1.2, 2.0, 7.5, 300.0)),
         ("exponential", (1.2, 2.0, 7.5, 300.0)), ("laplace", (0.2, 0.5, 0.9))],
        ids=["laplace", "gaussian", "exponential", "sub-unit"],
    )
    def test_lanes_match_the_scalar_functional(self, kind, orders):
        # The solve as it ran before lanes: a scalar Brent on a 1-D functional
        # with the exponent written out per mechanism. Sub-unit orders solve
        # the negated functional for the negated target.
        def exponent(spec, d, x):
            if spec.alpha < 1.0:
                return -spec.alpha * d / x
            if kind == "laplace":
                return spec.alpha * d / x
            if kind == "gaussian":
                return spec.alpha * (spec.alpha - 1.0) * d**2 / (2.0 * x**2)
            return spec.alpha * calibrate.reciprocal_rate(x) * d

        rng = np.random.default_rng(11)
        pairs = [random_pair(rng, max_atoms=40, min_atoms=2) for _ in range(3)]
        specs = [PrivacySpec(alpha=a, epsilon=e) for a in orders for e in (0.1, 1.0, 4.0)]
        sign = -1.0 if orders[0] < 1.0 else 1.0
        grid = calibrate_grid(scenario_set(pairs), kind, specs)
        for spec, cell in zip(specs, grid):
            for pair, result in zip(pairs, cell):
                problem = calibrate._MECHANISMS[kind].problem(pair, spec, 1e-9)
                solve = calibrate._solve_decreasing(
                    lambda x: sign * coupling_log_expectation(
                        problem.plan, lambda d: exponent(spec, d, x)
                    ),
                    sign * problem.log_target, problem.bracket,
                )
                assert (result.parameter, result.iterations, result.bracket,
                        result.log_functional_value) == (
                    solve.value, solve.iterations, solve.bracket, sign * solve.f_value
                )
                assert result.experimental is (sign < 0.0)
                assert result.guarantee_side
                if sign < 0.0:
                    # The bracket feasible_b_sub_unit_alpha seeded before lanes.
                    w, target = problem.plan.max_displacement(), -problem.log_target
                    assert problem.bracket == (
                        spec.alpha * w / (target + math.log(2.0)), spec.alpha * w / target
                    )

    def test_laplace_orders_below_and_above_one_share_rounds(self, monkeypatch):
        # Sub-unit and alpha > 1 Laplace cells of one pair are lanes of one
        # lockstep run: no scalar solve, and one functional call per round.
        def no_scalar_solve(*args, **kwargs):
            raise AssertionError("a Laplace grid cell took a scalar solve")

        lanes, rows = [], []
        real_brent, real_functional = calibrate._brent, calibrate.coupling_log_expectation

        def counting_brent(*args):
            asked = []
            lanes.append(asked)
            steps, value = real_brent(*args), None
            while True:
                try:
                    x = steps.send(value)
                except StopIteration as stop:
                    return stop.value
                asked.append(x)
                value = yield x

        def counting_functional(plan, log_g):
            values = real_functional(plan, log_g)
            rows.append(np.size(values))
            return values

        monkeypatch.setattr(calibrate, "_solve_decreasing", no_scalar_solve)
        monkeypatch.setattr(calibrate, "_brent", counting_brent)
        monkeypatch.setattr(calibrate, "coupling_log_expectation", counting_functional)
        orders = (0.3, 0.5, 2.0, 4.0)
        specs = [PrivacySpec(alpha=a, epsilon=e) for a in orders for e in (0.5, 2.0)]
        pair = random_pair(np.random.default_rng(7), max_atoms=8, min_atoms=3)
        grid = calibrate_grid(scenario_set([pair]), "laplace", specs)
        assert [cell[0].experimental for cell in grid] == [s.alpha < 1.0 for s in specs]
        assert all(cell[0].iterations > 0 and cell[0].guarantee_side for cell in grid)
        assert len(lanes) == len(specs)
        # Every lane is live in the first round; each round is one call.
        assert rows[0] == len(specs)
        assert len(rows) == max(len(asked) for asked in lanes)
        assert sum(rows) == sum(len(asked) for asked in lanes)

    def test_lanes_split_into_bounded_blocks(self, monkeypatch):
        specs = [PrivacySpec(alpha=1.0 + k / 4.0, epsilon=0.5) for k in range(1, 12)]
        scenarios = scenario_set([random_pair(np.random.default_rng(5), max_atoms=12)])
        whole = calibrate_grid(scenarios, "gaussian", specs)
        monkeypatch.setattr(calibrate, "_MAX_BLOCK", 40)
        split = calibrate_grid(scenarios, "gaussian", specs)
        assert [[_bits(r) for r in cell] for cell in split] == [
            [_bits(r) for r in cell] for cell in whole
        ]

    def test_first_error_in_cell_then_pair_order(self, monkeypatch):
        # Cell 0 fails on pair "b" in its fourth round; cell 1 fails on pair
        # "a" in its first. Pairs are solved one after the other, so cell 1's
        # error happens first, yet each cell keeps its own first error.
        real = calibrate._MECHANISMS["laplace"]
        failures = {("b", 2.0): 3, ("a", 3.0): 0}
        happened = []

        def failing_problem(pair, spec, rel_tol):
            problem = real.problem(pair, spec, rel_tol)
            after = failures.get((pair.label, spec.alpha))
            if after is None:
                return problem
            rounds = iter(range(after + 1))

            def scale(x):
                if next(rounds) == after:
                    happened.append((pair.label, spec.alpha))
                    raise NoRoot(f"injected at alpha={spec.alpha}")
                return problem.scale(x)

            return problem._replace(scale=scale)

        monkeypatch.setitem(calibrate._MECHANISMS, "laplace", real._replace(problem=failing_problem))
        slow = benchmark_regime_pair()  # takes Brent iterations, unlike a point mass
        scenarios = ScenarioSet(pairs=(
            ScenarioPair(p_i=point_mass(0.0), p_j=point_mass(1.0), label="a"),
            ScenarioPair(p_i=slow[0], p_j=slow[1], label="b"),
        ))
        specs = [PrivacySpec(alpha=2.0, epsilon=1.0), PrivacySpec(alpha=3.0, epsilon=1.0),
                 PrivacySpec(alpha=4.0, epsilon=1.0)]
        grid = calibrate_grid(scenarios, "laplace", specs)
        assert happened == [("a", 3.0), ("b", 2.0)]
        assert _bits(grid[0]) == (NoRoot, "pair 'b': injected at alpha=2.0")
        assert _bits(grid[1]) == (NoRoot, "pair 'a': injected at alpha=3.0")
        assert [r.binding_pair_label for r in grid[2]] == ["a", "a"]
        with pytest.raises(NoRoot, match=r"pair 'b': injected at alpha=2\.0"):
            calibrate_scenarios(scenarios, "laplace", specs[0])
