"""Noise-parameter solvers for transport-functional privacy conditions.

Each mechanism family reduces to the same one-dimensional problem: a
transport functional over the quantile-aligned coupling is strictly
decreasing in the noise parameter, and the calibrated parameter is the
root of functional = exp((alpha - 1) * epsilon). Roots are found with a
bracketed Brent solver that returns the endpoint on the feasible side, so
the privacy inequality holds at the returned parameter for the functional
as evaluated in floating point. Each mechanism kind has one set-up, which
either closes a cell or returns a transport lane; the solver is a
coroutine, so calibrate_grid can advance every lane of one pair together,
with one batched functional evaluation per round. All functionals are
evaluated in log space; at extreme orders (alpha ~ 1e4) the natural-scale
values overflow doubles.
"""

import math
import sys
from dataclasses import dataclass, replace
from typing import Callable, Generator, NamedTuple, Sequence

import numpy as np

from .dist import (
    GaussianParams,
    LaplaceParams,
    MechanismParams,
    PrivacySpec,
    ScenarioPair,
    ScenarioSet,
    absolute_cost,
    check_cost_axioms,
    reciprocal_rate,
)
from .errors import (
    InfeasibleEvenAtInfinity,
    InvalidValue,
    NonInvertibleRate,
    NoRoot,
    NotMonotone,
    PuffercalError,
)
from .transport import Coupling, coupling_log_expectation, monotone_coupling

_LN2 = math.log(2.0)
_EPS = 2.220446049250313e-16
# Halvings of the low end, and doublings of the high end, of _brent's bracket.
_MAX_EXPAND = 200
_GUARANTEE_TOL = 1e-9


@dataclass(frozen=True)
class CalibrationResult:
    """Solved noise parameter plus solver diagnostics.

    functional_value is the left side of the solved equation at the
    returned parameter in its natural scale (it may be inf at extreme
    orders); log_functional_value/log_target carry the overflow-safe
    pair. guarantee_side records that the sufficient-condition inequality
    holds at the returned parameter (functional <= target for orders
    above one; >= for the experimental sub-unit-order condition).
    """

    parameter: float
    mechanism: str
    functional_value: float
    log_functional_value: float
    target_value: float
    log_target: float
    iterations: int
    bracket: tuple[float, float]
    guarantee_side: bool
    binding_pair_index: int = 0
    binding_pair_label: str = ""
    no_noise_needed: bool = False
    experimental: bool = False


def _safe_exp(x: float) -> float:
    try:
        return math.exp(x)
    except OverflowError:
        return math.inf


@dataclass(frozen=True)
class _RootSolve:
    value: float
    iterations: int
    bracket: tuple[float, float]
    # f(value), as the solver evaluated it: callers need not evaluate it again.
    f_value: float


def _brent(
    target: float,
    bracket_hint: tuple[float, float],
    rel_tol: float = 1e-9,
) -> Generator[float, float, _RootSolve]:
    """Root of f(x) = target for strictly decreasing f on (0, inf), as a coroutine.

    Yields each x at which f is needed and is sent f(x) back, so the
    caller owns the evaluations and can drive many solves together; it
    returns the _RootSolve. The hint bracket is expanded geometrically
    until f(lo) >= target >= f(hi), then a Brent iteration shrinks it.
    The returned value is the bracket endpoint on the feasible side
    (f <= target), so the inequality holds for f as evaluated in floating
    point; f's own rounding error is not accounted for.
    """
    values: dict[float, float] = {}
    lo, hi = bracket_hint
    if not (math.isfinite(lo) and math.isfinite(hi) and lo > 0.0 and hi > 0.0):
        raise InvalidValue(f"bracket hint must be positive, got {bracket_hint!r}")
    if lo > hi:
        lo, hi = hi, lo
    if lo == hi:
        hi = 2.0 * lo

    f_lo = values[lo] = yield lo
    f_hi = values[hi] = yield hi
    if f_lo < f_hi:
        raise NotMonotone(
            f"f({lo!r}) = {f_lo!r} < f({hi!r}) = {f_hi!r}; expected a decreasing function"
        )
    for _ in range(_MAX_EXPAND):
        if f_lo >= target:
            break
        lo /= 2.0
        if lo == 0.0:
            raise NoRoot(f"f does not reach target {target!r} above the smallest positive float")
        f_lo = values[lo] = yield lo
    else:
        raise NoRoot(f"f never reaches target {target!r} from above (last f = {f_lo!r})")
    for _ in range(_MAX_EXPAND):
        if f_hi <= target:
            break
        hi *= 2.0
        f_hi = values[hi] = yield hi
    else:
        raise NoRoot(f"f never reaches target {target!r} from below (last f = {f_hi!r})")

    # Brent on g = f - target over [lo, hi] with g(lo) >= 0 >= g(hi).
    a, fa = lo, f_lo - target
    b, fb = hi, f_hi - target
    if fa == 0.0:
        return _RootSolve(value=lo, iterations=0, bracket=(lo, lo), f_value=f_lo)
    if fb == 0.0:
        return _RootSolve(value=hi, iterations=0, bracket=(hi, hi), f_value=f_hi)
    c, fc = a, fa
    d = e = b - a
    iterations = 0
    for _ in range(600):
        iterations += 1
        if fb * fc > 0.0:
            c, fc = a, fa
            d = e = b - a
        if abs(fc) < abs(fb):
            a, b, c = b, c, b
            fa, fb, fc = fb, fc, fb
        tol1 = 2.0 * _EPS * abs(b) + 0.5 * rel_tol * abs(b)
        xm = 0.5 * (c - b)
        if abs(xm) <= tol1 or fb == 0.0:
            break
        if abs(e) >= tol1 and abs(fa) > abs(fb):
            s = fb / fa
            if a == c:
                p = 2.0 * xm * s
                q = 1.0 - s
            else:
                q = fa / fc
                r = fb / fc
                p = s * (2.0 * xm * q * (q - r) - (b - a) * (r - 1.0))
                q = (q - 1.0) * (r - 1.0) * (s - 1.0)
            if p > 0.0:
                q = -q
            p = abs(p)
            if 2.0 * p < min(3.0 * xm * q - abs(tol1 * q), abs(e * q)):
                e = d
                d = p / q
            else:
                d = xm
                e = d
        else:
            d = xm
            e = d
        a, fa = b, fb
        if abs(d) > tol1:
            b += d
        else:
            b += math.copysign(tol1, xm)
        values[b] = yield b
        fb = values[b] - target
    else:
        raise NoRoot("Brent iteration did not converge")

    lo_out, hi_out = (b, c) if b <= c else (c, b)
    feasible = b if fb <= 0.0 else c
    return _RootSolve(
        value=feasible, iterations=iterations, bracket=(lo_out, hi_out), f_value=values[feasible]
    )


def _solve_decreasing(
    f: Callable[[float], float],
    target: float,
    bracket_hint: tuple[float, float],
    rel_tol: float = 1e-9,
) -> _RootSolve:
    """_brent driven on its own: each x it asks for is evaluated by f."""
    steps = _brent(target, bracket_hint, rel_tol)
    try:
        x = next(steps)
        while True:
            x = steps.send(f(x))
    except StopIteration as stop:
        return stop.value


def _coupling(pair) -> Coupling:
    if isinstance(pair, ScenarioPair):
        return monotone_coupling(pair.p_i, pair.p_j)
    p, q = pair
    return monotone_coupling(p, q)


def _require_order_above_one(spec: PrivacySpec, *, allow_inf: bool) -> None:
    if spec.alpha <= 1.0:
        raise InvalidValue(f"this mechanism requires alpha > 1, got {spec.alpha!r}")
    if not allow_inf and math.isinf(spec.alpha):
        raise InvalidValue("this mechanism requires a finite alpha")


def _no_noise_result(
    mechanism: str, log_target: float, functional: float = 1.0, experimental: bool = False
) -> CalibrationResult:
    # The condition holds in the zero-noise limit; on a diagonal coupling
    # the functional is identically 1 and any parameter works.
    return CalibrationResult(
        parameter=0.0,
        mechanism=mechanism,
        functional_value=functional,
        log_functional_value=math.log(functional),
        target_value=_safe_exp(log_target),
        log_target=log_target,
        iterations=0,
        bracket=(0.0, 0.0),
        guarantee_side=True,
        no_noise_needed=True,
        experimental=experimental,
    )


class _Transport(NamedTuple):
    """A transport solve set up and not yet run, for the lockstep driver.

    Solves log sum_k pi_k exp(coef * base_k / denom) = log_target for the
    parameter x, where scale(x) = (coef, denom) and base holds the plan's
    per-entry displacements, squared displacements or costs. With sign 1
    the functional decreases in x and must end at or below the target;
    with sign -1 (sub-unit orders) it increases and must end at or above
    it, and the solver runs on the negated functional and target.
    """

    plan: Coupling
    base: np.ndarray
    scale: Callable[[float], tuple[float, float]]
    mechanism: str
    log_target: float
    bracket: tuple[float, float]
    sign: float = 1.0


def _transport(
    plan: Coupling,
    spec: PrivacySpec,
    mechanism: str,
    size: float,
    base: np.ndarray,
    scale: Callable[[float], tuple[float, float]],
    seed: Callable[[float], float],
) -> _Transport | CalibrationResult:
    """The transport solve of one pair at one spec, or its no-noise result.

    size is the largest displacement (or cost) on the plan; at 0 the
    coupling is diagonal and no noise is needed. seed(level) is the
    parameter at which a point mass at distance size has log functional
    level: seed(log_target) is feasible, since no entry exceeds size, and
    seed(log_target + ln 2) seeds the other bracket end. A log target
    that underflows to 0, and a seed that overflows (a subnormal log
    target) or underflows, raise NoRoot: no finite parameter is known to
    be feasible.
    """
    log_target = (spec.alpha - 1.0) * spec.epsilon
    if size == 0.0:
        return _no_noise_result(mechanism, log_target)
    if log_target == 0.0:
        raise NoRoot(f"no finite {mechanism} parameter: the log target (alpha - 1) epsilon underflows to 0")
    bracket = (seed(log_target + _LN2), seed(log_target))
    _require_finite_bracket(mechanism, bracket)
    return _Transport(plan, base, scale, mechanism, log_target, bracket)


def _require_finite_bracket(mechanism: str, bracket: tuple[float, float]) -> None:
    if math.isinf(bracket[0]) or math.isinf(bracket[1]):
        raise NoRoot(f"no finite {mechanism} parameter: the seed bracket {bracket!r} overflows")
    if bracket[0] == 0.0 or bracket[1] == 0.0:
        raise NoRoot(f"no positive {mechanism} parameter: the seed bracket {bracket!r} underflows")


def _transport_result(problem: _Transport, solve: _RootSolve) -> CalibrationResult:
    sign, log_target = problem.sign, problem.log_target
    log_value = sign * solve.f_value
    return CalibrationResult(
        parameter=solve.value,
        mechanism=problem.mechanism,
        functional_value=_safe_exp(log_value),
        log_functional_value=log_value,
        target_value=_safe_exp(log_target),
        log_target=log_target,
        iterations=solve.iterations,
        bracket=solve.bracket,
        guarantee_side=sign * (log_value - log_target)
        <= _GUARANTEE_TOL * max(1.0, abs(log_target)),
        experimental=sign < 0.0,
    )


# Most lanes x entries one lockstep round evaluates at once: 8 MB per array.
_MAX_BLOCK = 1 << 20


def _solve_lanes(
    problems: list[_Transport], rel_tol: float
) -> list[CalibrationResult | Exception]:
    """Run transport solves on one plan in lockstep, one _brent lane each.

    Every round evaluates each live lane's pending parameter in one
    coupling_log_expectation call on a (lanes x entries) exponent block
    (coef * base) / denom. Row by row this is the arithmetic of a lane
    solved alone, so each lane ends exactly as it would on its own: with
    its result, or with the exception it raised. The lanes share the
    first problem's plan and base. A lane of sign -1 is sent the negated
    functional and solves for the negated target.
    """
    per_block = max(1, _MAX_BLOCK // len(problems[0].base))
    if len(problems) > per_block:
        return [
            outcome
            for start in range(0, len(problems), per_block)
            for outcome in _solve_lanes(problems[start:start + per_block], rel_tol)
        ]
    plan, base = problems[0].plan, problems[0].base
    outcomes: list[CalibrationResult | Exception | None] = [None] * len(problems)
    pending: dict[int, tuple[Generator, float]] = {}

    def advance(lane: int, steps: Generator, value: float | None) -> None:
        try:
            pending[lane] = (steps, steps.send(value))
        except StopIteration as stop:
            pending.pop(lane, None)
            outcomes[lane] = _transport_result(problems[lane], stop.value)
        except Exception as exc:
            pending.pop(lane, None)
            outcomes[lane] = exc

    for lane, problem in enumerate(problems):
        advance(lane, _brent(problem.sign * problem.log_target, problem.bracket, rel_tol), None)
    while pending:
        lanes, coefs, denoms = [], [], []
        for lane, (_, x) in list(pending.items()):
            try:
                coef, denom = problems[lane].scale(x)
            except Exception as exc:
                del pending[lane]
                outcomes[lane] = exc
                continue
            lanes.append(lane)
            coefs.append(coef)
            denoms.append(denom)
        if not lanes:
            break
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            # An exponent past the float range is +-inf, its rounding ...
            block = (np.array(coefs)[:, None] * base) / np.array(denoms)[:, None]
        if math.inf in coefs or 0.0 in denoms:
            # ... and a zero displacement's is 0, where coef overflowed or denom underflowed too.
            block[:, base == 0.0] = 0.0
        values = coupling_log_expectation(plan, lambda d: block)
        for lane, value in zip(lanes, values.tolist()):
            advance(lane, pending[lane][0], problems[lane].sign * value)
    return outcomes


def _budget_result(
    mechanism: str,
    epsilon: float,
    parameter: float = 0.0,
    value: float = 0.0,
    solve: _RootSolve | None = None,
) -> CalibrationResult:
    """Result of a worst-case rule whose condition reads value <= epsilon.

    The defaults are the zero-displacement case, where no noise is needed;
    closed forms pass no solve and report a zero-iteration point bracket.
    """
    return CalibrationResult(
        parameter=parameter,
        mechanism=mechanism,
        functional_value=value,
        log_functional_value=math.log(value) if value > 0.0 else -math.inf,
        target_value=epsilon,
        log_target=math.log(epsilon),
        iterations=solve.iterations if solve else 0,
        bracket=solve.bracket if solve else (parameter, parameter),
        guarantee_side=value <= epsilon * (1.0 + _GUARANTEE_TOL),
        no_noise_needed=parameter == 0.0,
    )


def _laplace_problem(pair, spec: PrivacySpec, rel_tol: float) -> _Transport | CalibrationResult:
    """Laplace scale achieving the order-alpha condition on the optimal coupling.

    Solves sum pi_k exp(alpha d_k / b) = exp((alpha - 1) epsilon) for the
    scale b; a fully diagonal coupling returns b = 0 with the
    no-noise-needed flag. alpha = inf dispatches to the closed-form
    worst-case-displacement rule b = W_inf / epsilon, and orders in (0, 1)
    to the experimental sub-unit condition.
    """
    if spec.is_sub_unit:
        return _sub_unit_problem(pair, spec)
    if math.isinf(spec.alpha):
        return _winf_problem(pair, spec, rel_tol)
    plan = _coupling(pair)
    w_max = plan.max_displacement()
    alpha = spec.alpha
    return _transport(
        plan, spec, "laplace", w_max, plan.displacement_array,
        lambda b: (alpha, b),
        lambda level: alpha * w_max / level,
    )


def _gaussian_problem(pair, spec: PrivacySpec, rel_tol: float) -> _Transport | CalibrationResult:
    """Gaussian sigma achieving the order-alpha condition on the optimal coupling.

    Solves sum pi_k exp(alpha (alpha - 1) d_k^2 / (2 sigma^2)) =
    exp((alpha - 1) epsilon); valid for finite alpha > 1 only.
    """
    _require_order_above_one(spec, allow_inf=False)
    plan = _coupling(pair)
    w_max = plan.max_displacement()
    if w_max != 0.0:
        _require_normal_square("gaussian", "W_inf", w_max)
    alpha = spec.alpha
    coeff = alpha * (alpha - 1.0) * w_max**2 / 2.0

    def scale(sigma: float) -> tuple[float, float]:
        _require_normal_square("gaussian", "sigma", sigma)
        return alpha * (alpha - 1.0), 2.0 * sigma**2

    return _transport(
        plan, spec, "gaussian", w_max, plan.displacement_array**2, scale,
        lambda level: math.sqrt(coeff / level),
    )


# The positive floats whose squares are finite normal floats.
_SQUARE_RANGE = (math.sqrt(sys.float_info.min), math.sqrt(sys.float_info.max))


def _require_normal_square(mechanism: str, name: str, value: float) -> None:
    """Raise NoRoot unless value, a W_inf or sigma that a Gaussian rule squares, has a normal square.

    A square past the float range overflows, and a subnormal one loses
    digits.
    """
    if not _SQUARE_RANGE[0] <= value <= _SQUARE_RANGE[1]:
        raise NoRoot(f"no {mechanism} parameter: {name} = {value!r} squared leaves the normal float range")


def _check_rate_map(rate: Callable[[float], float]) -> None:
    probes = (0.5, 1.0, 2.0, 4.0)
    values = []
    for theta in probes:
        v = rate(theta)
        if not (math.isfinite(v) and v > 0.0):
            raise NonInvertibleRate(f"rate({theta}) = {v!r} must be finite positive")
        values.append(v)
    for left, right in zip(values, values[1:]):
        if not left > right:
            raise NonInvertibleRate("rate map must be strictly decreasing in the parameter")


def _invert_rate(rate: Callable[[float], float], value: float) -> float:
    """The theta with rate(theta) = value: exact for reciprocal_rate, else numeric."""
    if rate is reciprocal_rate:
        theta = 1.0 / value if value > 0.0 else math.inf
        if not (math.isfinite(theta) and theta > 0.0):
            raise NonInvertibleRate(f"no finite theta has rate 1/theta = {value!r}")
        return theta
    try:
        return _solve_decreasing(rate, value, (0.5, 2.0), rel_tol=1e-12).value
    except (NoRoot, NotMonotone) as exc:
        raise NonInvertibleRate(f"could not invert rate map at {value!r}: {exc}") from exc


def _exponential_problem(
    pair,
    spec: PrivacySpec,
    rel_tol: float,
    cost: Callable[[float], float] = absolute_cost,
    rate: Callable[[float], float] = reciprocal_rate,
) -> _Transport | CalibrationResult:
    """Exponential-mechanism parameter for a cost c and strictly decreasing rate map.

    Solves sum pi_k exp(alpha rate(theta) c(d_k)) = exp((alpha - 1) epsilon).
    With cost |z| and rate 1/theta this coincides with the Laplace rule.
    At alpha = inf the closed form theta = rate^-1(epsilon / sup c) applies.
    The privacy guarantee additionally needs c to satisfy the triangle
    inequality; the solver itself only requires symmetric nonnegative c.
    """
    _require_order_above_one(spec, allow_inf=True)
    check_cost_axioms(cost, require_triangle=False)
    _check_rate_map(rate)

    plan = _coupling(pair)
    if cost is absolute_cost:
        # Displacements are |x - x'| already: the same values, without a call each.
        cost_array, sup_cost = plan.displacement_array, plan.max_displacement()
    else:
        costs = [cost(d) for d in plan.displacements()]
        cost_array, sup_cost = np.array(costs), max(costs)
    alpha = spec.alpha
    if math.isinf(alpha):
        if sup_cost == 0.0:
            return _budget_result("exponential", spec.epsilon)
        theta = _invert_rate(rate, spec.epsilon / sup_cost)
        return _budget_result("exponential", spec.epsilon, theta, rate(theta) * sup_cost)
    # rate is called on one float at a time: custom rates need not take arrays.
    return _transport(
        plan, spec, "exponential", sup_cost, cost_array,
        lambda theta: (alpha * rate(theta), 1.0),
        lambda level: _invert_rate(rate, level / (alpha * sup_cost)),
    )


def _winf_problem(pair, spec: PrivacySpec, rel_tol: float) -> CalibrationResult:
    """Worst-case-displacement Laplace rule: scale = W_inf / epsilon (closed form)."""
    epsilon = spec.epsilon
    w_max = _coupling(pair).max_displacement()
    if w_max == 0.0:
        return _budget_result("winf-laplace", epsilon)
    b = w_max / epsilon
    if math.isinf(b) or b == 0.0:
        raise NoRoot(
            f"no finite Laplace scale: W_inf / epsilon = {w_max!r} / {epsilon!r} "
            f"{'overflows' if b else 'underflows'}"
        )
    return _budget_result("winf-laplace", epsilon, b, w_max / b)


def _baseline_laplace_problem(pair, spec: PrivacySpec, rel_tol: float) -> CalibrationResult:
    """Prior-work Laplace baseline: worst-case displacement fed to the
    order-alpha divergence between two equal-scale Laplace densities.

    Solves (1/(alpha-1)) log( a/(2a-1) e^{(a-1)W/b} + (a-1)/(2a-1) e^{-aW/b} )
    = epsilon for b, where W is the worst-case displacement and a = alpha.
    Its divergence is a closed form in W, not a functional on the plan, so
    it is solved here, one value at a time, rather than as a lane.
    """
    _require_order_above_one(spec, allow_inf=False)
    w_max = _coupling(pair).max_displacement()
    if w_max == 0.0:
        return _budget_result("baseline-laplace", spec.epsilon)
    alpha = spec.alpha

    def divergence(b: float) -> float:
        return laplace_pair_divergence(w_max, b, alpha)

    # divergence(b) <= W/b, so b = W/eps is feasible; the matching lower
    # endpoint subtracts the weight term's worst contribution.
    hi = w_max / spec.epsilon
    lo = w_max / (spec.epsilon + _LN2 / (alpha - 1.0))
    _require_finite_bracket("baseline-laplace", (lo, hi))
    solve = _solve_decreasing(divergence, spec.epsilon, (lo, hi), rel_tol)
    return _budget_result("baseline-laplace", spec.epsilon, solve.value, solve.f_value, solve)


def laplace_pair_divergence(distance: float, scale: float, alpha: float) -> float:
    """Order-alpha divergence between two Laplace densities `distance` apart."""
    if distance == 0.0:
        return 0.0
    u = distance / scale
    # x / (2 alpha - 1) as 0.5 (x / (alpha - 0.5)): the same float, with no
    # 2 alpha to overflow.
    half = alpha - 0.5
    log_mix = _log_add(
        math.log(0.5 * (alpha / half)) + (alpha - 1.0) * u,
        math.log(0.5 * ((alpha - 1.0) / half)) - alpha * u,
    )
    return log_mix / (alpha - 1.0)


def _log_add(logx: float, logy: float) -> float:
    a, b = min(logx, logy), max(logx, logy)
    if a == -math.inf:
        return b
    return b + math.log1p(math.exp(a - b))


def _baseline_gaussian_problem(pair, spec: PrivacySpec, rel_tol: float) -> CalibrationResult:
    """Prior-work Gaussian baseline: sigma = sqrt(alpha W^2 / (2 epsilon)), closed form."""
    _require_order_above_one(spec, allow_inf=False)
    w_max = _coupling(pair).max_displacement()
    if w_max == 0.0:
        return _budget_result("baseline-gaussian", spec.epsilon)
    _require_normal_square("baseline-gaussian", "W_inf", w_max)
    sigma = math.sqrt(spec.alpha * w_max**2 / (2.0 * spec.epsilon))
    if math.isinf(sigma):
        raise NoRoot(
            f"no finite Gaussian sigma: sqrt(alpha W_inf^2 / (2 epsilon)) with "
            f"W_inf = {w_max!r}, epsilon = {spec.epsilon!r} overflows"
        )
    _require_normal_square("baseline-gaussian", "sigma", sigma)
    value = spec.alpha * w_max**2 / (2.0 * sigma**2)
    return _budget_result("baseline-gaussian", spec.epsilon, sigma, value)


def _sub_unit_problem(pair, spec: PrivacySpec) -> _Transport | CalibrationResult:
    """Smallest Laplace scale meeting the sufficient condition for orders in (0, 1).

    Here the condition flips: sum pi_k exp(-alpha d_k / b) >=
    exp((alpha - 1) epsilon), whose left side increases in b toward 1
    while the right side is below 1, so the lane has exponents
    -alpha d / b and sign -1. The result is flagged experimental: the
    operational meaning of sub-unit orders is an open question.
    """
    plan = _coupling(pair)
    w_max = plan.max_displacement()
    log_target = (spec.alpha - 1.0) * spec.epsilon
    if log_target >= 0.0:
        # epsilon > 0 and alpha < 1 force a target below 1; anything else
        # would make even infinite noise infeasible.
        raise InfeasibleEvenAtInfinity(
            f"target exp({log_target!r}) >= 1 cannot be reached by the condition"
        )
    diagonal_mass = math.fsum(m for x, x2, m in plan.entries if x == x2)
    if w_max == 0.0 or (diagonal_mass > 0.0 and math.log(diagonal_mass) >= log_target):
        # The condition already holds in the zero-noise limit b -> 0.
        functional = 1.0 if w_max == 0.0 else diagonal_mass
        return _no_noise_result("laplace-sub-unit", log_target, functional, experimental=True)
    alpha = spec.alpha
    hi = alpha * w_max / -log_target
    lo = alpha * w_max / (-log_target + _LN2)
    _require_finite_bracket("laplace-sub-unit", (lo, hi))
    return _Transport(
        plan, plan.displacement_array, lambda b: (-alpha, b),
        "laplace-sub-unit", log_target, (lo, hi), sign=-1.0,
    )


class _Mechanism(NamedTuple):
    # problem(pair, spec, rel_tol) is the kind's one set-up, at every order
    # (the exponential one also takes cost and rate): it checks the order
    # and returns a transport lane or a finished result. noise is the noise
    # its parameter stands for.
    problem: Callable[..., _Transport | CalibrationResult]
    noise: Callable[[float], MechanismParams]


_MECHANISMS = {
    "laplace": _Mechanism(_laplace_problem, LaplaceParams),
    "gaussian": _Mechanism(_gaussian_problem, GaussianParams),
    # With its default cost |z| and rate 1/theta the exponential mechanism
    # is Laplace(theta) noise.
    "exponential": _Mechanism(_exponential_problem, LaplaceParams),
    "winf": _Mechanism(_winf_problem, LaplaceParams),
    "baseline-laplace": _Mechanism(_baseline_laplace_problem, LaplaceParams),
    "baseline-gaussian": _Mechanism(_baseline_gaussian_problem, GaussianParams),
}

MECHANISM_KINDS = tuple(_MECHANISMS)


def _mechanism(kind: str) -> _Mechanism:
    try:
        return _MECHANISMS[kind]
    except KeyError:
        raise InvalidValue(f"unknown mechanism kind {kind!r}") from None


def noise_for(kind: str, parameter: float) -> MechanismParams | None:
    """The noise a calibrated parameter of this kind stands for; None at parameter 0."""
    noise = _mechanism(kind).noise
    return None if parameter == 0.0 else noise(parameter)


def _problem(pair, kind: str, spec: PrivacySpec, rel_tol: float, cost, rate):
    """The kind's set-up of one cell; cost and rate reach the exponential mechanism only."""
    problem = _mechanism(kind).problem
    if kind == "exponential":
        return problem(pair, spec, rel_tol, cost, rate)
    return problem(pair, spec, rel_tol)


def calibrate_pair(
    pair,
    mechanism_kind: str,
    spec: PrivacySpec,
    rel_tol: float = 1e-9,
    cost: Callable[[float], float] = absolute_cost,
    rate: Callable[[float], float] = reciprocal_rate,
) -> CalibrationResult:
    """Solve one secret pair, a ScenarioPair or a (P, Q) tuple, for the mechanism kind.

    The kind's set-up either closes the cell or returns a lane, solved
    here on its own. cost and rate reach the exponential mechanism only.
    """
    problem = _problem(pair, mechanism_kind, spec, rel_tol, cost, rate)
    if isinstance(problem, CalibrationResult):
        return problem
    (outcome,) = _solve_lanes([problem], rel_tol)
    if isinstance(outcome, Exception):
        raise outcome
    return outcome


def calibrate_grid(
    scenarios: ScenarioSet,
    mechanism_kind: str,
    specs: Sequence[PrivacySpec],
    rel_tol: float = 1e-9,
    cost: Callable[[float], float] = absolute_cost,
    rate: Callable[[float], float] = reciprocal_rate,
) -> list[list[CalibrationResult] | Exception]:
    """Every pair at every spec, each pair's transport solves run in lockstep.

    For each spec the entry is one result per pair, each what
    calibrate_pair returns for that pair bit for bit, and each naming the
    binding pair: the largest parameter, ties breaking toward the lowest
    index. Where a pair fails, the entry is the exception instead: the
    first failing pair's, a PuffercalError labelled with the pair.
    Nothing is raised, so a caller that meets the entries in order sees
    failures in the order one call per spec would (specs first, then
    pairs). Every cell goes through its kind's set-up; the lanes it
    returns (Laplace at finite orders, Gaussian and exponential at
    1 < alpha < inf) share one batched functional evaluation per solver
    round across the specs.
    """
    outcomes = [[None] * len(scenarios.pairs) for _ in specs]
    for index, pair in enumerate(scenarios.pairs):
        lanes = []
        for cell, spec in enumerate(specs):
            try:
                outcome = _problem(pair, mechanism_kind, spec, rel_tol, cost, rate)
            except Exception as exc:
                outcome = exc
            if isinstance(outcome, _Transport):
                lanes.append((cell, outcome))
            else:
                outcomes[cell][index] = outcome
        if lanes:
            solved = _solve_lanes([lane for _, lane in lanes], rel_tol)
            for (cell, _), outcome in zip(lanes, solved):
                outcomes[cell][index] = outcome
    return [_bind(scenarios, results) for results in outcomes]


def _bind(scenarios: ScenarioSet, results: list) -> list[CalibrationResult] | Exception:
    """Flag the binding pair on every result, or return the first pair's error.

    The binding pair has the largest parameter, ties breaking toward the
    lowest index. A PuffercalError comes back with the pair label prepended.
    """
    for index, result in enumerate(results):
        if isinstance(result, PuffercalError):
            labelled = type(result)(f"pair '{scenarios.label(index)}': {result}")
            labelled.__cause__ = result
            return labelled
        if isinstance(result, Exception):
            return result
    # max() keeps the first maximum.
    binding = max(range(len(results)), key=lambda k: results[k].parameter)
    label = scenarios.label(binding)
    return [
        replace(result, binding_pair_index=binding, binding_pair_label=label)
        for result in results
    ]
