"""Every valid CLI input ends in rows or one error line.

A fixed sweep runs cli.main in-process for calibrate, verify and breach,
all six kinds, on the point-mass and golden scenarios, at extreme orders,
budgets and noise parameters. Each command must exit 0, 2, 3 or 4, raise
no exception and emit no warning, and its stderr may hold only the CLI's
own error lines.

The full product is 5,280 commands (about 20 s); every STRIDE-th of them
(880, about 3 s) runs here, plus REPROS, the commands that once crashed
or warned. STRIDE = 1 runs the full product.
"""

import contextlib
import io
import itertools
import traceback
import warnings
from pathlib import Path

import pytest

from puffercal import cli

GOLDEN = str(Path(__file__).parent / "data" / "golden_scenario.json")
KINDS = ("laplace", "gaussian", "exponential", "winf", "baseline-laplace", "baseline-gaussian")
SCENARIOS = ("point-mass", GOLDEN)
ALPHAS = ("1e-300", "0.5", "0.999999999", "1.000000001", "2", "1e6", "1e300", "inf")
EPSILONS = ("1e-300", "1e-12", "1", "700", "1e300")
PARAMETERS = (None, "1e-300", "1e-12", "1e6", "1e300")
STRIDE = 6
ERROR_LINES = ("configuration error:", "solver failure:", "verification failed")

# (command, scenario, kind, alpha, epsilon, parameter)
REPROS = (
    # sigma = 1e300: the quadrature's per-segment tolerance overflowed.
    ("verify", "point-mass", "gaussian", "2", "1", "1e300"),
    ("breach", "point-mass", "gaussian", "2", "1", "1e300"),
    # An in-run sigma of 3.2e-150 cut the window into zero-width intervals.
    ("breach", GOLDEN, "gaussian", "1.000000001", "1e300", None),
    # Overflow warnings in the noise density and in the order-1e6 integrand.
    ("verify", "point-mass", "gaussian", "1e300", "1e-300", "1e-300"),
    ("verify", "point-mass", "gaussian", "1e6", "1e300", None),
)


def _product():
    for command in ("calibrate", "verify", "breach"):
        parameters = (None,) if command == "calibrate" else PARAMETERS
        for case in itertools.product(SCENARIOS, KINDS, ALPHAS, EPSILONS):
            for parameter in parameters:
                yield (command, *case, parameter)


def _argv(command, scenario, kind, alpha, epsilon, parameter):
    argv = [command, "--scenario", scenario, "--mechanism", kind, "--alpha", alpha, "--epsilon", epsilon]
    if parameter is not None:
        argv += ["--parameter", parameter]
    if command == "breach":
        argv += ["--n", "1000"]
    return argv


def _fault(argv):
    """None when the command ends in rows or error lines only, else what went wrong."""
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main(argv)
        except Exception:
            return traceback.format_exc(limit=-1)
    if caught:
        return f"warning: {caught[0].message}"
    stray = [line for line in err.getvalue().splitlines() if not line.startswith(ERROR_LINES)]
    if code not in (0, 2, 3, 4) or stray:
        return f"exit {code}, stderr {stray[:1]}"
    return None


@pytest.mark.parametrize("command", ["calibrate", "verify", "breach"])
def test_every_command_ends_in_rows_or_error_lines(command):
    cases = [case for case in itertools.islice(_product(), 0, None, STRIDE) if case[0] == command]
    cases += [case for case in REPROS if case[0] == command and case not in cases]
    faults = []
    for case in cases:
        argv = _argv(*case)
        fault = _fault(argv)
        if fault is not None:
            faults.append((argv, fault))
    assert not faults, f"{len(faults)} of {len(cases)} commands failed, first: {faults[0]}"
