"""Golden `calibrate` and `verify` output: the CLI bytes on a fixed scenario must not move.

`data/golden_scenario.json` holds three pairs built by the conftest
helpers: `benchmark_regime_pair()`, `random_pair(np.random.default_rng(20260810),
max_atoms=12)` and the builtin point-mass pair (0 vs 1). The checked-in
`golden_calibrate_*.csv` are the output of the scalar-list calibrator on
that scenario. Every cell must match byte for byte, except the `variance`
of `exponential` rows: that was a Simpson integral and is now the closed
form 2 theta^2, so it is compared within 1e-12 relative.

The `golden_verify_*.csv` are `verify` output on the same scenario from
the code that ran one quadrature per direction of each pair, on a padded
window cut at every atom; the stdout of each call must match its file
byte for byte, except at finite orders. Gaussian windows are now cut at
the noise scale, and Laplace-type windows (`laplace_finite`,
`exponential_finite`) end at the atom hull, with the tails past it added
in closed form. So in those three files `divergence_ij`, `divergence_ji`
and `slack` are compared within the quadrature's 1e-10 |I| bound
carried to the divergence, 1e-10 / |alpha - 1| absolute,
`chernoff_bound` = exp((alpha - 1)(D - epsilon)) within 1e-10 relative,
and every other column exactly. `gaussian_inf` was the maximum of a
dense grid with a bounded search; it is now the certified upper bound of
a branch and bound whose largest value found is within 1e-12 relative of
that maximum. So there each finite `divergence_ij` and `divergence_ji`
is at least the file's value less 1e-12 relative, and above it by at
most 1e-11 max(1, D): the search's tolerance of 1e-12 max(1, D) plus
its rounding margin. An infinite value must match exactly, `slack` must
be epsilon less the larger divergence, and every other column, and the
exit code, must match exactly. The files themselves are unchanged.

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


def _assert_within_quadrature_tolerance(got, want):
    assert len(got) == len(want)
    header = want[0]
    assert got[0] == header
    alpha = header.index("alpha")
    absolute = [header.index(name) for name in ("divergence_ij", "divergence_ji", "slack")]
    chernoff = header.index("chernoff_bound")
    for got_row, want_row in zip(got[1:], want[1:]):
        bound = 1e-10 / abs(float(want_row[alpha]) - 1.0)
        for column in absolute:
            assert abs(float(got_row[column]) - float(want_row[column])) <= bound, (
                header[column], got_row, want_row
            )
        assert math.isclose(
            float(got_row[chernoff]), float(want_row[chernoff]), rel_tol=1e-10
        ), (got_row, want_row)
        inexact = {*absolute, chernoff}
        assert [v for k, v in enumerate(got_row) if k not in inexact] == [
            v for k, v in enumerate(want_row) if k not in inexact
        ]


def _assert_within_supremum_tolerance(got, want):
    assert len(got) == len(want)
    header = want[0]
    assert got[0] == header
    divergences = [header.index(name) for name in ("divergence_ij", "divergence_ji")]
    epsilon, slack = header.index("epsilon"), header.index("slack")
    for got_row, want_row in zip(got[1:], want[1:]):
        for column in divergences:
            got_value, want_value = float(got_row[column]), float(want_row[column])
            if math.isinf(want_value):
                assert got_value == want_value, (header[column], got_row, want_row)
            else:
                assert (
                    want_value * (1.0 - 1e-12)
                    <= got_value
                    <= want_value + 1e-11 * max(1.0, want_value)
                ), (header[column], got_row, want_row)
        worst = max(float(got_row[column]) for column in divergences)
        assert float(got_row[slack]) == float(got_row[epsilon]) - worst, (got_row, want_row)
        inexact = {*divergences, slack}
        assert [v for k, v in enumerate(got_row) if k not in inexact] == [
            v for k, v in enumerate(want_row) if k not in inexact
        ]


@pytest.mark.parametrize("name", sorted(VERIFY_CALLS))
def test_verify_matches_golden(capsys, name):
    options, code = VERIFY_CALLS[name]
    assert main(["verify", "--scenario", str(DATA / "golden_scenario.json"), *options]) == code
    want = (DATA / f"golden_verify_{name}.csv").read_text(encoding="utf-8")
    got = capsys.readouterr().out
    if name.endswith("_finite"):
        _assert_within_quadrature_tolerance(_rows(got), _rows(want))
    elif name == "gaussian_inf":
        _assert_within_supremum_tolerance(_rows(got), _rows(want))
    else:
        assert got == want


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
