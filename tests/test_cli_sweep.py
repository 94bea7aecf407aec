"""Every valid CLI input ends in rows or one error line.

A fixed sweep runs cli.main in-process for calibrate, sweep, verify and
breach, all six kinds, on the point-mass and golden scenarios, at extreme
orders, budgets and noise parameters, and then on EXTREME_SCENARIOS, one-pair
JSON scenarios at the ends of the float range, on a smaller grid. Each
command must exit 0, 2, 3 or 4, raise no exception and emit no warning,
and its stderr may hold only the CLI's own error lines. Every STRIDE-th
breach command that ends in rows at --n 1000 is run again at one of
the --n bounds in turn, and must exit as listed with them.

The full product is 6,138 commands (about 45 s with its reruns on a
2-core VM); every STRIDE-th of them (1,023, and 64 reruns, about 4.5 s)
runs here, plus REPROS, the commands that once crashed, warned or
were misread.
STRIDE = 1 runs the full product. A hypothesis variant applies the same
rules to random finite floats.
"""

import contextlib
import io
import itertools
import json
import traceback
import warnings
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from puffercal import cli

GOLDEN = str(Path(__file__).parent / "data" / "golden_scenario.json")
KINDS = ("laplace", "gaussian", "exponential", "winf", "baseline-laplace", "baseline-gaussian")
SCENARIOS = ("point-mass", GOLDEN)
ALPHAS = ("1e-300", "0.5", "0.999999999", "1.000000001", "2", "1e6", "1e300", "inf")
EPSILONS = ("1e-300", "1e-12", "1", "700", "1e300")
PARAMETERS = (None, "1e-300", "1e-12", "1e6", "1e300")
STRIDE = 6
ERROR_LINES = ("configuration error:", "solver failure:", "verification failed")

# One-pair scenarios: (p, q) as {atom: mass}. Atoms at +-1e300 (an atom span
# past half the float range, and their gaps in noise scales past all of it),
# and atoms and gaps at the subnormal floor.
EXTREME_SCENARIOS = {
    "opposite-ends": ({1e300: 1.0}, {-1e300: 1.0}),
    "shared-ends": ({-1e300: 0.5, 1e300: 0.5}, {-1e300: 0.25, 0.0: 0.5, 1e300: 0.25}),
    "subnormal-gaps": ({0.0: 0.5, 5e-324: 0.5}, {0.0: 0.3, 1e-323: 0.7}),
}
EXTREME_ALPHAS = ("0.5", "2", "inf")
EXTREME_PARAMETERS = (None, "1e-12", "1e6")

# (command, scenario, kind, alpha, epsilon, parameter[, spaced])
REPROS = (
    # sigma = 1e300: the quadrature's per-segment tolerance overflowed.
    ("verify", "point-mass", "gaussian", "2", "1", "1e300"),
    ("breach", "point-mass", "gaussian", "2", "1", "1e300"),
    # An in-run sigma of 3.2e-150 cut the window into zero-width intervals.
    ("breach", GOLDEN, "gaussian", "1.000000001", "1e300", None),
    # Overflow warnings in the noise density and in the order-1e6 integrand.
    ("verify", "point-mass", "gaussian", "1e300", "1e-300", "1e-300"),
    ("verify", "point-mass", "gaussian", "1e6", "1e300", None),
    # Squares of W_inf past the float range (OverflowError) and at the
    # subnormal floor (a sigma of 0 and ZeroDivisionError), and a sub-unit
    # bracket whose low end halved to 0.
    ("calibrate", "opposite-ends", "gaussian", "2", "1", None),
    ("calibrate", "shared-ends", "baseline-gaussian", "2", "1", None),
    ("calibrate", "subnormal-gaps", "baseline-gaussian", "2", "1", None),
    ("calibrate", "subnormal-gaps", "laplace", "0.5", "1", None),
    # Atom gaps past the float range in Laplace scales, and Gaussian tail
    # bounds whose distances or reach did.
    ("breach", "opposite-ends", "laplace", "2", "1", "1e-12"),
    ("verify", "shared-ends", "laplace", "inf", "1", "1e-12"),
    ("verify", "shared-ends", "gaussian", "inf", "1", "1e-12"),
    ("verify", "subnormal-gaps", "gaussian", "inf", "1", "1e-12"),
    # Values with a minus sign and an exponent after a space, which argparse
    # read as options (a usage error, where the = spelling gave the CLI's).
    ("verify", "point-mass", "laplace", "-1e-300", "1", None, True),
    ("verify", "point-mass", "laplace", "2", "-1e-3", None, True),
    ("breach", "point-mass", "laplace", "2", "1", "-1e-3", True),
    ("calibrate", "point-mass", "gaussian", "-1e-300", "-1e-3", None, True),
    # Signed infinities and nans after a space, read as options likewise.
    ("verify", "point-mass", "gaussian", "-inf", "1", None, True),
    ("verify", "point-mass", "laplace", "-nan", "1", None, True),
    ("breach", "point-mass", "laplace", "2", "-INF", "-nan", True),
)


def _product():
    for command in ("calibrate", "sweep", "verify", "breach"):
        parameters = (None,) if command in ("calibrate", "sweep") else PARAMETERS
        for case in itertools.product(SCENARIOS, KINDS, ALPHAS, EPSILONS):
            for parameter in parameters:
                yield (command, *case, parameter)
    for command in ("calibrate", "verify", "breach"):
        parameters = (None,) if command == "calibrate" else EXTREME_PARAMETERS
        for scenario, kind, alpha, parameter in itertools.product(
            EXTREME_SCENARIOS, KINDS, EXTREME_ALPHAS, parameters
        ):
            yield (command, scenario, kind, alpha, "1", parameter)


def _write_scenario(path, p, q):
    """A one-pair JSON scenario file of p and q, given as {atom: mass}."""
    pair = {"label": path.stem, **{
        side: {"atoms": list(dist), "masses": list(dist.values())} for side, dist in (("p", p), ("q", q))
    }}
    path.write_text(json.dumps({"pairs": [pair]}))
    return str(path)


@pytest.fixture(scope="module")
def scenario_paths(tmp_path_factory):
    """Each EXTREME_SCENARIOS name's JSON file; other scenarios stand for themselves."""
    directory = tmp_path_factory.mktemp("extreme")
    return {name: _write_scenario(directory / f"{name}.json", *pair)
            for name, pair in EXTREME_SCENARIOS.items()}


def _argv(command, scenario, kind, alpha, epsilon, parameter, spaced=False, n="1000"):
    # Values are spelled --alpha=-1e-300, or --alpha -1e-300 when spaced;
    # cli.main reads both alike (argparse alone reads -1e-300 as an option).
    argv = [command, "--scenario", scenario, "--mechanism", kind]
    for option, value in (("--alpha", alpha), ("--epsilon", epsilon), ("--parameter", parameter)):
        if value is not None:
            argv += [option, value] if spaced else [f"{option}={value}"]
    if command == "breach":
        argv += ["--n", n]
    return argv


def _outcome(argv):
    """(exit code, None) when the command ends in rows or error lines only, else (code, the fault)."""
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main(argv)
        except Exception:
            return None, traceback.format_exc(limit=-1)
    if caught:
        return code, f"warning: {caught[0].message}"
    stray = [line for line in err.getvalue().splitlines() if not line.startswith(ERROR_LINES)]
    if code not in (0, 2, 3, 4) or stray:
        return code, f"exit {code}, stderr {stray[:1]}"
    return code, None


@pytest.mark.parametrize("command", ["calibrate", "sweep", "verify", "breach"])
def test_every_command_ends_in_rows_or_error_lines(command, scenario_paths):
    # Imported here: scripts/compare_stdout.py imports this module's
    # product under older trees, where the Monte Carlo code lived in verify.
    from puffercal.breach import _DRAW_CHUNK

    # --n at its bounds, and the exit code of a breach command that ends in
    # rows at --n 1000: fewer than 1000 draws, and more indices than fit in
    # memory, are configuration errors; one draw past a chunk gives rows.
    n_bounds = (("999", 2), (str(_DRAW_CHUNK + 1), 0), (str(10**18), 2))
    cases = [case for case in itertools.islice(_product(), 0, None, STRIDE) if case[0] == command]
    cases += [case for case in REPROS if case[0] == command and case not in cases]
    faults = []
    rows = 0
    for case in cases:
        case = (case[0], scenario_paths.get(case[1], case[1]), *case[2:])
        argv = _argv(*case)
        code, fault = _outcome(argv)
        if fault is None and command == "breach" and code == 0:
            if rows % STRIDE == 0:
                n, expected = n_bounds[rows // STRIDE % len(n_bounds)]
                argv = _argv(*case, n=n)
                code, fault = _outcome(argv)
                if fault is None and code != expected:
                    fault = f"exit {code}, expected {expected}"
            rows += 1
        if fault is not None:
            faults.append((argv, fault))
    assert not faults, f"{len(faults)} of {len(cases)} commands failed, first: {faults[0]}"


_FINITE = st.floats(allow_nan=False, allow_infinity=False)
_POSITIVE = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)


@st.composite
def _priors(draw):
    """{atom: mass} with 1 to 4 random finite atoms and random positive weights, normalized."""
    atoms = draw(st.lists(_FINITE, min_size=1, max_size=4, unique=True))
    weights = draw(st.lists(_POSITIVE, min_size=len(atoms), max_size=len(atoms)))
    # Weights near the float maximum sum to inf: divide by their largest first.
    top = max(weights)
    weights = [w / top for w in weights]
    total = sum(weights)
    return {atom: w / total for atom, w in zip(sorted(atoms), weights)}


@settings(max_examples=300, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(
    command=st.sampled_from(("calibrate", "sweep", "verify", "breach")),
    kind=st.sampled_from(KINDS),
    alpha=_FINITE,
    epsilon=_FINITE,
    parameter=st.one_of(st.none(), _FINITE),
    p=_priors(),
    q=_priors(),
)
def test_random_finite_inputs_end_in_rows_or_error_lines(
    tmp_path_factory, command, kind, alpha, epsilon, parameter, p, q
):
    # The sweep's rules on random finite floats: alpha, epsilon, the
    # parameter and the atoms anywhere in the float range (masses down to
    # the subnormal floor). A scenario file the loader rejects, like a mass
    # that underflows to 0, is a configuration error, and passes.
    scenario = _write_scenario(tmp_path_factory.mktemp("random") / "random.json", p, q)
    if command in ("calibrate", "sweep"):
        parameter = None
    case = (command, scenario, kind, repr(alpha), repr(epsilon), None if parameter is None else repr(parameter))
    code, fault = _outcome(_argv(*case))
    assert fault is None, (case, p, q, fault)
