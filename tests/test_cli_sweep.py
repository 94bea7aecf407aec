"""Every valid CLI input ends in rows or one error line.

A fixed sweep runs cli.main in-process for calibrate, sweep, verify and
breach, all six kinds, on the point-mass and golden scenarios, at extreme
orders, budgets and noise parameters. Each command must exit 0, 2, 3 or
4, raise no exception and emit no warning, and its stderr may hold only
the CLI's own error lines. Every STRIDE-th breach command that ends in
rows at --n 1000 is run again at one of N_BOUNDS in turn, and must exit
as listed there.

The full product is 5,760 commands (about 13 s); every STRIDE-th of them
(960, and 62 reruns, about 4 s) runs here, plus REPROS, the commands
that once crashed or warned. STRIDE = 1 runs the full product.
"""

import contextlib
import io
import itertools
import traceback
import warnings
from pathlib import Path

import pytest

from puffercal import cli
from puffercal.verify import _DRAW_CHUNK

GOLDEN = str(Path(__file__).parent / "data" / "golden_scenario.json")
KINDS = ("laplace", "gaussian", "exponential", "winf", "baseline-laplace", "baseline-gaussian")
SCENARIOS = ("point-mass", GOLDEN)
ALPHAS = ("1e-300", "0.5", "0.999999999", "1.000000001", "2", "1e6", "1e300", "inf")
EPSILONS = ("1e-300", "1e-12", "1", "700", "1e300")
PARAMETERS = (None, "1e-300", "1e-12", "1e6", "1e300")
STRIDE = 6
ERROR_LINES = ("configuration error:", "solver failure:", "verification failed")
# --n at its bounds, and the exit code of a breach command that ends in rows
# at --n 1000: fewer than 1000 draws, and more indices than fit in memory,
# are configuration errors; one draw past a chunk gives rows.
N_BOUNDS = (("999", 2), (str(_DRAW_CHUNK + 1), 0), (str(10**18), 2))

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
    for command in ("calibrate", "sweep", "verify", "breach"):
        parameters = (None,) if command in ("calibrate", "sweep") else PARAMETERS
        for case in itertools.product(SCENARIOS, KINDS, ALPHAS, EPSILONS):
            for parameter in parameters:
                yield (command, *case, parameter)


def _argv(command, scenario, kind, alpha, epsilon, parameter, n="1000"):
    argv = [command, "--scenario", scenario, "--mechanism", kind, "--alpha", alpha, "--epsilon", epsilon]
    if parameter is not None:
        argv += ["--parameter", parameter]
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
def test_every_command_ends_in_rows_or_error_lines(command):
    cases = [case for case in itertools.islice(_product(), 0, None, STRIDE) if case[0] == command]
    cases += [case for case in REPROS if case[0] == command and case not in cases]
    faults = []
    rows = 0
    for case in cases:
        argv = _argv(*case)
        code, fault = _outcome(argv)
        if fault is None and command == "breach" and code == 0:
            if rows % STRIDE == 0:
                n, expected = N_BOUNDS[rows // STRIDE % len(N_BOUNDS)]
                argv = _argv(*case, n)
                code, fault = _outcome(argv)
                if fault is None and code != expected:
                    fault = f"exit {code}, expected {expected}"
            rows += 1
        if fault is not None:
            faults.append((argv, fault))
    assert not faults, f"{len(faults)} of {len(cases)} commands failed, first: {faults[0]}"
