"""Golden `calibrate` and `verify` output: the CLI bytes on a fixed scenario must not move.

`data/golden_scenario.json` holds three pairs built by the conftest
helpers: `benchmark_regime_pair()`, `random_pair(np.random.default_rng(20260810),
max_atoms=12)` and the builtin point-mass pair (0 vs 1). The checked-in
`golden_calibrate_*.csv` are the output of the scalar-list calibrator on
that scenario. Every cell must match byte for byte, except the `variance`
of `exponential` rows: that was a Simpson integral and is now the closed
form 2 theta^2, so it is compared within 1e-12 relative.

The `golden_verify_*.csv` are `verify` output on the same scenario from
the code that ran one quadrature per direction of each pair; the stdout
of each call must match its file byte for byte.

The `golden_sweep_*` files are `sweep` output on the same scenario from
the code that solved each (mechanism, alpha, epsilon, pair) on its own,
before a pair's grid was solved in lockstep; they too must match byte
for byte.
"""

import csv
import io
import math
from pathlib import Path

import pytest

from puffercal.cli import main

DATA = Path(__file__).resolve().parent / "data"
ALL_KINDS = ("laplace", "gaussian", "exponential", "winf", "baseline-laplace", "baseline-gaussian")

GRIDS = {
    "finite": (ALL_KINDS, "1.5,2,4", "0.5,1,2"),
    "inf": (("laplace", "exponential", "winf"), "inf", "0.5,1"),
    "sub_unit": (("laplace",), "0.5", "0.5,1"),
}


def _rows(text):
    return list(csv.reader(io.StringIO(text)))


@pytest.mark.parametrize("grid", sorted(GRIDS))
def test_calibrate_matches_golden(capsys, grid):
    kinds, alphas, epsilons = GRIDS[grid]
    argv = ["calibrate", "--scenario", str(DATA / "golden_scenario.json"),
            "--alpha", alphas, "--epsilon", epsilons]
    for kind in kinds:
        argv += ["--mechanism", kind]
    assert main(argv) == 0
    got = _rows(capsys.readouterr().out)
    want = _rows((DATA / f"golden_calibrate_{grid}.csv").read_text(encoding="utf-8"))

    assert len(got) == len(want)
    header = want[0]
    assert got[0] == header
    variance = header.index("variance")
    for got_row, want_row in zip(got[1:], want[1:]):
        if want_row[0] == "exponential":
            assert math.isclose(
                float(got_row[variance]), float(want_row[variance]), rel_tol=1e-12
            ), (got_row, want_row)
            got_row = got_row[:variance] + got_row[variance + 1:]
            want_row = want_row[:variance] + want_row[variance + 1:]
        assert got_row == want_row


FINITE = ["--alpha", "1.5,2,4", "--epsilon", "0.5,1"]
INF = ["--alpha", "inf", "--epsilon", "1"]
# name: (argv after the scenario, exit code)
VERIFY_CALLS = {
    "laplace_finite": (["--mechanism", "laplace", *FINITE], 0),
    "gaussian_finite": (["--mechanism", "gaussian", *FINITE], 0),
    "exponential_finite": (["--mechanism", "exponential", *FINITE], 0),
    "laplace_inf": (["--mechanism", "laplace", *INF], 0),
    "exponential_inf": (["--mechanism", "exponential", *INF], 0),
    # Gaussian calibration needs a finite order: alpha = inf takes a fixed
    # sigma, under which two pairs fail.
    "gaussian_inf": (["--mechanism", "gaussian", *INF, "--parameter", "2.0"], 4),
}


@pytest.mark.parametrize("name", sorted(VERIFY_CALLS))
def test_verify_matches_golden(capsys, name):
    options, code = VERIFY_CALLS[name]
    assert main(["verify", "--scenario", str(DATA / "golden_scenario.json"), *options]) == code
    want = (DATA / f"golden_verify_{name}.csv").read_text(encoding="utf-8")
    assert capsys.readouterr().out == want


# name: sweep options after the scenario. Generated by the code that solved
# one (mechanism, alpha, epsilon, pair) at a time.
SWEEP_CALLS = {
    "all.csv": [*(f"--mechanism={kind}" for kind in ALL_KINDS), *FINITE],
    "all.json": [*(f"--mechanism={kind}" for kind in ALL_KINDS), *FINITE, "--format", "json"],
    # Sub-unit, lockstep and closed-form cells in one grid.
    "laplace_mixed.csv": ["--mechanism", "laplace", "--alpha", "0.5,2,inf", "--epsilon", "0.5,1"],
}


@pytest.mark.parametrize("name", sorted(SWEEP_CALLS))
def test_sweep_matches_golden(capsys, name):
    argv = ["sweep", "--scenario", str(DATA / "golden_scenario.json"), *SWEEP_CALLS[name]]
    assert main(argv) == 0
    want = (DATA / f"golden_sweep_{name}").read_text(encoding="utf-8")
    assert capsys.readouterr().out == want
