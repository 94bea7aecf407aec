import csv
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from puffercal.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


_IMPORT_PROBE = """
import contextlib, io, json, sys
import puffercal.cli as cli

def loaded():
    return [name in sys.modules for name in ("numpy.random", "scipy", "concurrent.futures")]

def run(*argv):
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(list(argv)) == 0, argv

steps = [loaded()]
kinds = ["laplace", "gaussian", "exponential", "winf", "baseline-laplace", "baseline-gaussian"]
run("calibrate", "--scenario", "point-mass", "--alpha", "1.5,2",
    *[arg for kind in kinds for arg in ("--mechanism", kind)])
for kind in ("laplace", "exponential", "winf"):
    run("calibrate", "--scenario", "point-mass", "--mechanism", kind, "--alpha", "inf")
for kind, alpha in (("laplace", "2"), ("gaussian", "2"), ("exponential", "2"), ("laplace", "inf")):
    run("verify", "--scenario", "point-mass", "--mechanism", kind, "--alpha", alpha)
run("sweep", "--scenario", "point-mass")
steps.append(loaded())
run("breach", "--scenario", "point-mass", "--mechanism", "laplace", "--parameter", "1000",
    "--n", "1000")
steps.append(loaded())
for kind in ("laplace", "gaussian"):
    run("breach", "--scenario", "point-mass", "--mechanism", kind, "--n", "1000")
steps.append(loaded())
print(json.dumps(steps))
"""


def test_cli_import_leaves_scipy_out():
    # numpy.random serves breach alone, and scipy is test-only: importing
    # the CLI loads neither, the default-mechanism calibrate, verify and
    # sweep calls load neither, a breach whose draws would all take one
    # class draws nothing and loads neither, and breach loads numpy.random
    # only when some pair of the cell draws. breach spreads its pairs over
    # threads without concurrent.futures.
    import puffercal

    src = str(Path(puffercal.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    env = dict(os.environ, PYTHONPATH=path)
    result = subprocess.run(
        [sys.executable, "-c", _IMPORT_PROBE],
        capture_output=True, text=True, env=env, check=True,
    )
    # [numpy.random, scipy, concurrent.futures loaded] after import, the
    # calibrate/verify/sweep calls, the breach that draws nothing, and the
    # breach calls that draw.
    assert json.loads(result.stdout) == [
        [False, False, False], [False, False, False], [False, False, False],
        [True, False, False],
    ]


_CUSTOM_COST_PROBE = """
import math, sys
from puffercal import DiscreteDistribution, ExponentialParams, GaussianParams
from puffercal.dist import noise_variance
from puffercal.verify import monte_carlo_breach, renyi_divergence_numeric

mech = ExponentialParams(scale=1.0, cost=lambda z: 0.5 * abs(z))
p = DiscreteDistribution((0.0, 1.0), (0.5, 0.5))
q = DiscreteDistribution((0.0, 2.0), (0.5, 0.5))
assert noise_variance(mech) > 0.0
assert renyi_divergence_numeric(p, q, mech, 2.0) > 0.0
assert renyi_divergence_numeric(p, q, mech, math.inf) > 0.0
monte_carlo_breach(p, q, mech, 0.5, 2000, 3)
r = DiscreteDistribution((0.0, 2.0), (0.2, 0.8))
assert 0.0 < renyi_divergence_numeric(q, r, GaussianParams(1.0), math.inf) < math.inf
print("scipy" in sys.modules)
"""


def test_custom_costs_leave_scipy_out():
    # scipy is a test-only dependency: the custom-cost Simpson normalizer,
    # variance, divergences at a finite order and at inf, and Monte Carlo,
    # and Gaussian alpha = inf all run on numpy alone.
    import puffercal

    src = str(Path(puffercal.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    env = dict(os.environ, PYTHONPATH=path)
    result = subprocess.run(
        [sys.executable, "-c", _CUSTOM_COST_PROBE],
        capture_output=True, text=True, env=env, check=True,
    )
    assert result.stdout.strip() == "False"


@pytest.mark.parametrize("command", ["calibrate", "verify", "sweep", "breach"])
def test_bad_arguments_are_reported_scenario_then_alpha_then_epsilon(capsys, command):
    # Each argument is bad together with every one after it in that order.
    bad = {"--scenario": "no-such-scenario", "--alpha": "1:x:1", "--epsilon": "1:y:1"}
    for k, name in enumerate(bad):
        argv = {"--scenario": "point-mass", "--alpha": "2", "--epsilon": "1"}
        argv.update(list(bad.items())[k:])
        code, out, err = run_cli(capsys, command, *(t for pair in argv.items() for t in pair))
        assert (code, out) == (2, "")
        assert err.startswith("configuration error: ")
        assert ("unknown scenario" in err) == (name == "--scenario")
        assert (f"{name}: could not parse" in err) == (name != "--scenario")


def test_huge_range_is_refused_before_it_is_built(capsys):
    # 1:1e12:1e-3 is about 1e15 values: the count is checked first, so the
    # refusal allocates (almost) nothing.
    import tracemalloc

    from puffercal.cli import MAX_RANGE_VALUES, _parse_grid
    from puffercal.errors import InvalidValue

    tracemalloc.start()
    try:
        with pytest.raises(InvalidValue, match=f"more than {MAX_RANGE_VALUES} values"):
            _parse_grid("1:1e12:1e-3", "--alpha")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 64 * 1024
    with pytest.raises(InvalidValue, match="more than"):
        _parse_grid(f"0:{MAX_RANGE_VALUES}:1", "--epsilon")
    with pytest.raises(InvalidValue, match="more than"):
        _parse_grid("-1e308:1e308:1e-300", "--alpha")
    code, _, err = run_cli(
        capsys, "calibrate", "--scenario", "point-mass", "--alpha", "1:1e12:1e-3",
    )
    assert code == 2
    assert "--alpha: range '1:1e12:1e-3' has more than 1000000 values" in err


def parse_csv(text):
    rows = list(csv.DictReader(io.StringIO(text)))
    assert rows, text
    return rows


@pytest.fixture
def pair_scenario_file(tmp_path):
    """Two-pair scenario: an identical pair plus a separated pair."""
    payload = {
        "pairs": [
            {
                "label": "same",
                "p": {"atoms": [0.0, 1.0], "masses": [0.5, 0.5]},
                "q": {"atoms": [0.0, 1.0], "masses": [0.5, 0.5]},
            },
            {
                "label": "gap",
                "p": {"atoms": [0.0], "masses": [1.0]},
                "q": {"atoms": [2.0], "masses": [1.0]},
            },
        ]
    }
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(payload), encoding="utf-8")
    return str(path)


# A datasets entry on the malformed-scenario tests' toy.csv table.
_DATASET = {
    "dataset_path": "toy.csv", "x_attribute": "x", "secret_attribute": "s",
    "value_i": "a", "value_j": "b",
}


class TestCalibrateCommand:
    def test_point_mass_laplace(self, capsys):
        code, out, _ = run_cli(
            capsys, "calibrate", "--scenario", "point-mass",
            "--mechanism", "laplace", "--alpha", "2", "--epsilon", "1",
        )
        assert code == 0
        rows = parse_csv(out)
        assert len(rows) == 1
        assert float(rows[0]["parameter"]) == pytest.approx(2.0, rel=1e-9)
        assert rows[0]["binding"] == "true"

    def test_alpha_one_rejected(self, capsys):
        code, _, err = run_cli(
            capsys, "calibrate", "--scenario", "point-mass", "--alpha", "1,2",
        )
        assert code == 2
        assert "alpha = 1 rejected" in err

    def test_gaussian_point_mass_variance(self, capsys):
        code, out, _ = run_cli(
            capsys, "calibrate", "--scenario", "point-mass",
            "--mechanism", "gaussian", "--alpha", "2", "--epsilon", "1",
        )
        assert code == 0
        rows = parse_csv(out)
        assert float(rows[0]["variance"]) == pytest.approx(1.0, rel=1e-9)

    def test_empty_alpha_grid(self, capsys):
        code, _, err = run_cli(
            capsys, "calibrate", "--scenario", "point-mass", "--alpha", "",
        )
        assert code == 2
        assert "--alpha" in err

    def test_unknown_scenario(self, capsys):
        code, _, err = run_cli(capsys, "calibrate", "--scenario", "mystery")
        assert code == 2
        assert "mystery" in err

    def test_missing_dataset_mentions_fetch(self, capsys, tmp_path):
        code, _, err = run_cli(
            capsys, "calibrate", "--scenario", "adult", "--data-dir", str(tmp_path),
        )
        assert code == 2
        assert "fetch" in err

    def test_binding_pair_flagged(self, capsys, pair_scenario_file):
        code, out, _ = run_cli(
            capsys, "calibrate", "--scenario", pair_scenario_file,
            "--alpha", "2", "--epsilon", "1",
        )
        assert code == 0
        rows = parse_csv(out)
        by_pair = {row["pair"]: row for row in rows}
        assert by_pair["same"]["binding"] == "false"
        assert by_pair["same"]["no_noise_needed"] == "true"
        assert by_pair["gap"]["binding"] == "true"
        assert float(by_pair["gap"]["parameter"]) == pytest.approx(4.0, rel=1e-9)

    def test_range_grid_syntax(self, capsys):
        code, out, _ = run_cli(
            capsys, "calibrate", "--scenario", "point-mass",
            "--alpha", "2", "--epsilon", "0.5:2:0.5",
        )
        assert code == 0
        rows = parse_csv(out)
        assert [float(r["epsilon"]) for r in rows] == [0.5, 1.0, 1.5, 2.0]

    def test_infinite_alpha(self, capsys):
        code, out, _ = run_cli(
            capsys, "calibrate", "--scenario", "point-mass",
            "--mechanism", "winf", "--alpha", "inf", "--epsilon", "0.5",
        )
        assert code == 0
        rows = parse_csv(out)
        assert float(rows[0]["parameter"]) == pytest.approx(2.0)

    def test_exponential_mechanism(self, capsys):
        code, out, _ = run_cli(
            capsys, "calibrate", "--scenario", "point-mass",
            "--mechanism", "exponential", "--alpha", "2", "--epsilon", "1",
        )
        assert code == 0
        assert float(parse_csv(out)[0]["parameter"]) == pytest.approx(2.0, rel=1e-8)

    def test_json_output_validates_against_schema(self, capsys, tmp_path):
        import jsonschema
        from importlib.resources import files

        code, out, _ = run_cli(
            capsys, "calibrate", "--scenario", "point-mass",
            "--alpha", "2,inf", "--epsilon", "1", "--format", "json",
            "--out", str(tmp_path),
        )
        assert code == 0
        schema = json.loads(
            files("puffercal.schemas").joinpath("output.schema.json").read_text()
        )
        payload = json.loads((tmp_path / "calibrate.json").read_text())
        jsonschema.validate(payload, schema)
        assert payload["command"] == "calibrate"
        assert payload["rows"][0]["alpha"] == 2.0

    def test_calibrate_with_verify_closed_loop(self, capsys, pair_scenario_file):
        code, _, _ = run_cli(
            capsys, "calibrate", "--scenario", pair_scenario_file,
            "--mechanism", "laplace", "--mechanism", "gaussian",
            "--alpha", "1.5,2", "--epsilon", "0.5,1", "--verify",
        )
        assert code == 0

    @pytest.mark.parametrize("kind", ["gaussian", "laplace", "exponential"])
    def test_verify_confirms_a_large_divergence(self, capsys, kind):
        # At alpha = 100 and epsilon = 10 the calibrated point-mass noise
        # has D = epsilon, so (alpha - 1) D = 990: the verifier's integrand
        # is past the float range, and the re-check still confirms it.
        code, out, err = run_cli(
            capsys, "calibrate", "--scenario", "point-mass", "--mechanism", kind,
            "--alpha", "100", "--epsilon", "10", "--verify",
        )
        assert (code, err) == (0, "")
        (row,) = parse_csv(out)
        assert float(row["log_functional_value"]) == pytest.approx(990.0, rel=1e-12)

    @pytest.mark.parametrize("command", ["calibrate", "sweep"])
    def test_failed_reverify_names_each_cell_once(self, capsys, monkeypatch,
                                                  pair_scenario_file, command):
        # A slack of -1 fails both pairs of every cell; each failing cell is
        # one stderr line, not one per failing pair.
        import puffercal.verify

        monkeypatch.setattr(puffercal.verify, "PASS_SLACK", -1.0)
        code, _, err = run_cli(
            capsys, command, "--scenario", pair_scenario_file,
            "--mechanism", "laplace", "--alpha", "2,3", "--epsilon", "0.5", "--verify",
        )
        assert code == 4
        assert err.splitlines() == [
            "verification failed: mechanism=laplace alpha=2.0 epsilon=0.5",
            "verification failed: mechanism=laplace alpha=3.0 epsilon=0.5",
        ]

    def test_sub_unit_alpha_flagged_experimental(self, capsys):
        code, out, _ = run_cli(
            capsys, "calibrate", "--scenario", "point-mass",
            "--mechanism", "laplace", "--alpha", "0.5", "--epsilon", "1",
        )
        assert code == 0
        rows = parse_csv(out)
        assert rows[0]["experimental"] == "true"
        assert float(rows[0]["parameter"]) == pytest.approx(1.0, rel=1e-8)

    @pytest.mark.parametrize("command", ["calibrate", "verify", "sweep", "breach"])
    def test_explicit_jobs_is_accepted(self, capsys, command):
        assert run_cli(capsys, command, "--scenario", "point-mass", "--jobs", "1",
                       *(("--n", "1000") if command == "breach" else ()))[0] == 0

    @pytest.mark.parametrize(
        "mechanism, alpha, epsilon",
        [("laplace", "2", "1e-200"), ("exponential", "2", "1e-200"),
         ("winf", "2", "1e-200"), ("laplace", "0.5", "1e-300")],
    )
    def test_variance_past_float_range_is_inf(self, capsys, mechanism, alpha, epsilon):
        # A scale near 1e200 squares past the float range.
        code, out, err = run_cli(
            capsys, "calibrate", "--scenario", "point-mass", "--mechanism", mechanism,
            "--alpha", alpha, "--epsilon", epsilon,
        )
        assert (code, err) == (0, "")
        row = parse_csv(out)[0]
        assert float(row["parameter"]) > 1e199
        assert row["variance"] == "inf"

    def test_adult_format_end_to_end(self, capsys, tmp_path):
        # Synthetic rows in the raw adult.data layout: headerless, 15
        # fields, comma-space separators, '?' sentinels elsewhere.
        rows = [
            "39, State-gov, 77516, Bachelors, 13, Never-married, Adm-clerical, Husband, White, Male, 2174, 0, 40, United-States, <=50K",
            "50, ?, 83311, HS-grad, 9, Married-civ-spouse, Exec-managerial, Husband, White, Male, 0, 0, 13, United-States, <=50K",
            "38, Private, 215646, HS-grad, 9, Divorced, Handlers-cleaners, Not-in-family, White, Male, 0, 0, 40, United-States, <=50K",
            "53, Private, 234721, Masters, 14, Married-civ-spouse, Prof-specialty, Not-in-family, Black, Male, 0, 0, 40, United-States, <=50K",
            "28, Private, 338409, Bachelors, 13, Married-civ-spouse, Prof-specialty, Husband, Black, Female, 0, 0, 40, Cuba, <=50K",
        ]
        (tmp_path / "adult.data").write_text("\n".join(rows) + "\n", encoding="utf-8")
        code, out, _ = run_cli(
            capsys, "calibrate", "--scenario", "adult", "--data-dir", str(tmp_path),
            "--alpha", "2", "--epsilon", "0.5",
        )
        assert code == 0
        row = parse_csv(out)[0]
        assert row["pair"] == "adult"
        assert float(row["parameter"]) > 0.0

    def test_verify_infinite_order(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", "--scenario", "point-mass",
            "--mechanism", "winf", "--alpha", "inf", "--epsilon", "0.5",
        )
        assert code == 0
        rows = parse_csv(out)
        assert rows[0]["passed"] == "true"

    def test_verify_sub_unit_order(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", "--scenario", "point-mass",
            "--mechanism", "laplace", "--alpha", "0.5", "--epsilon", "1",
        )
        assert code == 0
        rows = parse_csv(out)
        assert rows[0]["passed"] == "true"
        assert rows[0]["chernoff_bound"] == ""

    def test_scenario_file_with_dataset_block(self, capsys, tmp_path):
        (tmp_path / "toy.csv").write_text("x,s\n1,a\n2,a\n3,b\n", encoding="utf-8")
        payload = {
            "datasets": [
                {
                    "dataset_path": "toy.csv",
                    "x_attribute": "x",
                    "secret_attribute": "s",
                    "value_i": "a",
                    "value_j": "b",
                    "label": "toy",
                }
            ]
        }
        scenario = tmp_path / "scenario.json"
        scenario.write_text(json.dumps(payload), encoding="utf-8")
        code, out, _ = run_cli(
            capsys, "calibrate", "--scenario", str(scenario),
            "--alpha", "2", "--epsilon", "1",
        )
        assert code == 0
        rows = parse_csv(out)
        assert rows[0]["pair"] == "toy"
        assert float(rows[0]["parameter"]) > 0.0

    def test_dataset_blocks_load_each_table_once(self, capsys, tmp_path, monkeypatch):
        from puffercal import ingest

        (tmp_path / "toy.csv").write_text("x,s\n1,a\n2,a\n3,b\n4,c\n", encoding="utf-8")
        (tmp_path / "other.csv").write_text("x,s\n5,a\n7,b\n", encoding="utf-8")
        block = {"x_attribute": "x", "secret_attribute": "s", "value_i": "a"}
        payload = {
            "datasets": [
                {**block, "dataset_path": "toy.csv", "value_j": "b", "label": "ab"},
                {**block, "dataset_path": "toy.csv", "value_j": "c", "label": "ac"},
                {**block, "dataset_path": "other.csv", "value_j": "b", "label": "other"},
            ]
        }
        scenario = tmp_path / "scenario.json"
        scenario.write_text(json.dumps(payload), encoding="utf-8")
        loaded = []
        real_load = ingest.load_table

        def counting_load(path, *args, **kwargs):
            loaded.append(Path(path).name)
            return real_load(path, *args, **kwargs)

        monkeypatch.setattr(ingest, "load_table", counting_load)
        code, out, _ = run_cli(
            capsys, "calibrate", "--scenario", str(scenario),
            "--alpha", "2", "--epsilon", "1",
        )
        assert code == 0
        assert [r["pair"] for r in parse_csv(out)] == ["ab", "ac", "other"]
        assert sorted(loaded) == ["other.csv", "toy.csv"]

    @pytest.mark.parametrize(
        "payload, where",
        [
            ([_DATASET], "scenario file"),
            ({"pairs": 5}, "scenario file"),
            ({"datasets": 3}, "scenario file"),
            ({"datasets": [{**_DATASET, "value_i": 1}]}, "datasets[0]: value_i"),
            ({"datasets": [{**_DATASET, "dataset_path": 5}]}, "datasets[0]: dataset_path"),
            ({"datasets": [{**_DATASET, "delimiter": ";;"}]}, "datasets[0]: delimiter"),
            ({"datasets": [{**_DATASET, "numeric_coding": {"low": "x"}}]},
             "datasets[0]: numeric_coding"),
            ({"datasets": [{**_DATASET, "column_names": "xs"}]}, "datasets[0]: column_names"),
            ({"datasets": [{**_DATASET, "drop_missing": "no"}]}, "datasets[0]: drop_missing"),
            ({"datasets": [{**_DATASET, "numeric_coding": [["low", 1]]}]},
             "datasets[0]: numeric_coding"),
            ({"pairs": [{"p": {"atoms": [0.0], "masses": [1.0]}}]}, "pairs[0]: 'q'"),
            ({"datasets": [7]}, "datasets[0]: must be an object"),
        ],
        ids=[
            "top-level-array", "pairs-not-array", "datasets-not-array", "value-not-string",
            "path-not-string", "long-delimiter", "coding-not-numeric", "columns-string",
            "drop-missing-string", "coding-list", "pair-missing-q", "entry-not-object",
        ],
    )
    def test_malformed_scenario_file_is_a_configuration_error(
        self, capsys, tmp_path, payload, where
    ):
        # The table has a missing cell and a "low" cell, so a misread
        # drop_missing or numeric_coding would still calibrate.
        (tmp_path / "toy.csv").write_text("x,s\n1,a\nlow,a\n?,a\n3,b\n", encoding="utf-8")
        scenario = tmp_path / "scenario.json"
        scenario.write_text(json.dumps(payload), encoding="utf-8")
        code, out, err = run_cli(capsys, "calibrate", "--scenario", str(scenario))
        assert (code, out) == (2, "")
        assert err.startswith(f"configuration error: scenario file {scenario}")
        assert where in err
        assert err.count("\n") == 1

    def test_out_naming_a_file_is_a_configuration_error(self, capsys, tmp_path):
        taken = tmp_path / "taken"
        taken.write_text("", encoding="utf-8")
        code, out, err = run_cli(
            capsys, "calibrate", "--scenario", "point-mass", "--out", str(taken)
        )
        assert code == 2
        assert parse_csv(out)[0]["pair"] == "point-mass"
        assert err.startswith(f"configuration error: --out {taken}: ")
        assert err.count("\n") == 1

    def test_mixed_grid_syntax(self, capsys):
        code, out, _ = run_cli(
            capsys, "calibrate", "--scenario", "point-mass",
            "--alpha", "1.2,2:4:1", "--epsilon", "1",
        )
        assert code == 0
        assert [float(r["alpha"]) for r in parse_csv(out)] == [1.2, 2.0, 3.0, 4.0]

    def test_infinite_range_bound_rejected(self, capsys):
        code, _, err = run_cli(
            capsys, "calibrate", "--scenario", "point-mass",
            "--alpha", "1:inf:1", "--epsilon", "1",
        )
        assert code == 2
        assert "finite" in err

    def test_solver_failure_names_cell_and_pair(self, capsys, monkeypatch, pair_scenario_file):
        from puffercal import calibrate as cal
        from puffercal.errors import NoRoot

        def no_root(*args, **kwargs):
            raise NoRoot("bracket never closed")
            yield  # a generator, like the Brent coroutine it replaces

        # "same" needs no noise and never reaches the solver; "gap" does.
        monkeypatch.setattr(cal, "_brent", no_root)
        code, out, err = run_cli(
            capsys, "calibrate", "--scenario", pair_scenario_file,
            "--mechanism", "laplace", "--alpha", "2", "--epsilon", "1",
        )
        assert code == 3
        assert out == ""
        assert err == (
            "solver failure: mechanism=laplace alpha=2.0 epsilon=1.0: "
            "pair 'gap': bracket never closed\n"
        )

    def test_config_error_names_pair(self, capsys, pair_scenario_file):
        code, _, err = run_cli(
            capsys, "calibrate", "--scenario", pair_scenario_file,
            "--mechanism", "gaussian", "--alpha", "inf", "--epsilon", "1",
        )
        assert code == 2
        assert err.startswith("configuration error: pair 'same': ")

    @pytest.mark.parametrize("command", ["calibrate", "verify", "sweep", "breach"])
    def test_earlier_solver_error_beats_later_failures(
        self, capsys, monkeypatch, pair_scenario_file, command
    ):
        # alpha = 2 fails in its third Brent round, alpha = 3 in its first;
        # alpha = inf is a configuration error for gaussian. The grid solves
        # the cells together, yet the first cell's error is the one reported.
        from puffercal import calibrate as cal
        from puffercal.errors import NoRoot

        real = cal._brent
        fail_after = {1.0: 2, 2.0: 0}  # by log target (alpha - 1) * epsilon

        def failing(target, *args, **kwargs):
            steps = real(target, *args, **kwargs)
            value = None
            for _ in range(fail_after.get(target, 10**6)):
                try:
                    value = yield steps.send(value)
                except StopIteration as stop:
                    return stop.value
            raise NoRoot(f"injected at target {target!r}")

        monkeypatch.setattr(cal, "_brent", failing)
        code, out, err = run_cli(
            capsys, command, "--scenario", pair_scenario_file,
            "--mechanism", "gaussian", "--alpha", "2,3,inf", "--epsilon", "1",
        )
        assert (code, out) == (3, "")
        assert err == (
            "solver failure: mechanism=gaussian alpha=2.0 epsilon=1.0: "
            "pair 'gap': injected at target 1.0\n"
        )

    @pytest.mark.parametrize("tol", ["nan", "-1", "inf", "-inf"])
    def test_bad_tol_rejected_before_any_solve(self, capsys, monkeypatch, tol):
        from puffercal import calibrate as cal

        def never(*args, **kwargs):
            raise AssertionError("solver reached")
            yield

        monkeypatch.setattr(cal, "_brent", never)
        code, out, err = run_cli(
            capsys, "calibrate", "--scenario", "point-mass", "--alpha", "2", f"--tol={tol}",
        )
        assert (code, out) == (2, "")
        assert err == f"configuration error: --tol must be finite and non-negative, got {float(tol)!r}\n"

    def test_zero_tol_accepted(self, capsys):
        code, out, _ = run_cli(
            capsys, "calibrate", "--scenario", "point-mass", "--alpha", "2,3", "--tol", "0",
        )
        assert code == 0
        assert len(parse_csv(out)) == 2


class TestVerifyCommand:
    def test_calibrated_run_passes(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", "--scenario", "point-mass",
            "--mechanism", "laplace", "--alpha", "2", "--epsilon", "0.5",
        )
        assert code == 0
        rows = parse_csv(out)
        assert rows[0]["passed"] == "true"

    def test_undersized_parameter_fails(self, capsys):
        # Exact-divergence root for this cell is near 2; 0.4 is far below.
        code, out, _ = run_cli(
            capsys, "verify", "--scenario", "point-mass",
            "--mechanism", "laplace", "--alpha", "2", "--epsilon", "0.2",
            "--parameter", "0.4",
        )
        assert code == 4
        rows = parse_csv(out)
        assert rows[0]["passed"] == "false"

    def test_exponential_rows_are_laplace_rows(self, capsys, pair_scenario_file):
        # The CLI's exponential mechanism (cost |z|, rate 1/theta) is Laplace noise.
        tables = {}
        for kind in ("laplace", "exponential"):
            code, out, _ = run_cli(
                capsys, "verify", "--scenario", pair_scenario_file,
                "--mechanism", kind, "--alpha", "2,inf", "--epsilon", "1",
                "--parameter", "4.0",
            )
            assert code == 0
            tables[kind] = parse_csv(out)
        assert len(tables["laplace"]) == 4
        for lap, exp in zip(tables["laplace"], tables["exponential"]):
            assert (lap.pop("mechanism"), exp.pop("mechanism")) == ("laplace", "exponential")
            assert lap == exp

    def test_identical_pair_zero_parameter(self, capsys, tmp_path):
        payload = {
            "pairs": [
                {
                    "label": "same",
                    "p": {"atoms": [0.0, 1.0], "masses": [0.5, 0.5]},
                    "q": {"atoms": [0.0, 1.0], "masses": [0.5, 0.5]},
                }
            ]
        }
        path = tmp_path / "same.json"
        path.write_text(json.dumps(payload), encoding="utf-8")
        code, out, _ = run_cli(
            capsys, "verify", "--scenario", str(path),
            "--mechanism", "laplace", "--alpha", "2", "--epsilon", "0.5",
            "--parameter", "0",
        )
        assert code == 0
        rows = parse_csv(out)
        assert rows[0]["passed"] == "true"
        assert float(rows[0]["divergence_ij"]) == 0.0

    def test_disjoint_pair_zero_parameter_fails(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", "--scenario", "point-mass",
            "--mechanism", "laplace", "--alpha", "2", "--epsilon", "1",
            "--parameter", "0",
        )
        assert code == 4
        (row,) = parse_csv(out)
        assert row["passed"] == "false"
        assert row["inconclusive"] == "false"
        assert row["divergence_ij"] == row["divergence_ji"] == "inf"
        assert row["chernoff_bound"] == ""

    def test_gaussian_infinite_order_is_judged_on_its_bound(self, capsys, tmp_path):
        # At sigma = 1e-9 the midpoint ratios of the D_inf search round the
        # mass ratio 4/3 at atom 2 away, and the largest value found is 0.0;
        # the row is judged on the search's certified bound, at least
        # log(4/3) > epsilon, so the pair fails.
        payload = {"pairs": [{
            "label": "hidden",
            "p": {"atoms": [0.0, 2.0, 4.0], "masses": [0.3, 0.4, 0.3]},
            "q": {"atoms": [0.0, 2.0, 4.0], "masses": [0.35, 0.3, 0.35]},
        }]}
        path = tmp_path / "hidden.json"
        path.write_text(json.dumps(payload), encoding="utf-8")
        code, out, err = run_cli(
            capsys, "verify", "--scenario", str(path), "--mechanism", "gaussian",
            "--alpha", "inf", "--epsilon", "0.2", "--parameter", "1e-9",
        )
        assert (code, err) == (4, "")
        (row,) = parse_csv(out)
        assert row["passed"] == "false"
        assert math.log(4.0 / 3.0) <= float(row["divergence_ij"]) <= math.log(4.0 / 3.0) + 1e-11


@pytest.mark.parametrize(
    "command, tail, exit_code",
    [("verify", (), 4), ("breach", ("--n", "1000"), 0)],
    ids=["verify", "breach"],
)
def test_extreme_parameter_prints_no_warnings(command, tail, exit_code):
    # At sigma = 1e-300 the Gaussian exponents overflow: verify reports the
    # pair inconclusive and every breach draw breaches, with nothing on stderr.
    import puffercal

    src = str(Path(puffercal.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src, PYTHONWARNINGS="default")
    result = subprocess.run(
        [sys.executable, "-m", "puffercal.cli", command, "--scenario", "point-mass",
         "--mechanism", "gaussian", "--alpha", "2", "--epsilon", "1",
         "--parameter", "1e-300", *tail],
        capture_output=True, text=True, env=env, check=False,
    )
    assert (result.returncode, result.stderr) == (exit_code, "")
    (row,) = parse_csv(result.stdout)
    if command == "verify":
        assert row["inconclusive"] == "true" and row["divergence_ij"] == "nan"
    else:
        assert row["mc_breach_estimate"] == "1.0"


@pytest.mark.parametrize(
    "command, tail", [("verify", ()), ("breach", ("--n", "1000"))], ids=["verify", "breach"]
)
def test_gaussian_sigma_1e300_reads_no_divergence(capsys, command, tail):
    # At sigma = 1e300 the quadrature's tolerance share tol (b - a) / span
    # of a segment overflowed in tol (b - a), and the command crashed.
    code, out, err = run_cli(
        capsys, command, "--scenario", "point-mass", "--mechanism", "gaussian",
        "--alpha", "2", "--epsilon", "1", "--parameter", "1e300", *tail,
    )
    assert (code, err) == (0, "")
    (row,) = parse_csv(out)
    assert row["chernoff_bound"] == repr(math.exp(-1.0))
    if command == "verify":
        assert row["divergence_ij"] == row["divergence_ji"] == "0.0"


def test_breach_at_a_sigma_below_the_atom_spacing(capsys):
    # At alpha = 1 + 1e-9 and epsilon = 1e300 the in-run sigma is 3.2e-150:
    # 12 sigma is below the float spacing at the atoms, the window held
    # zero-width intervals, and a draw on a certified one crashed the count.
    golden = str(Path(__file__).parent / "data" / "golden_scenario.json")
    code, out, err = run_cli(
        capsys, "breach", "--scenario", golden, "--mechanism", "gaussian",
        "--alpha", "1.000000001", "--epsilon", "1e300", "--n", "1000",
    )
    assert (code, err) == (0, "")
    assert [row["mc_breach_estimate"] for row in parse_csv(out)] == ["0.0"] * 3


@pytest.mark.parametrize(
    "alpha, epsilon, tail",
    [("1e300", "1e-300", ("--parameter", "1e-300")), ("1e6", "1e300", ())],
    ids=["sigma-1e-300", "alpha-1e6"],
)
def test_extreme_order_prints_no_warnings(capsys, alpha, epsilon, tail):
    # z / sigma overflowed in the Gaussian noise density at sigma = 1e-300,
    # and (alpha - 1) log q in the integrand at alpha = 1e6. A density
    # underflows in both: the pair is inconclusive, with nothing on stderr.
    code, out, err = run_cli(
        capsys, "verify", "--scenario", "point-mass", "--mechanism", "gaussian",
        "--alpha", alpha, "--epsilon", epsilon, *tail,
    )
    assert (code, err) == (4, "")
    (row,) = parse_csv(out)
    assert row["inconclusive"] == "true" and row["divergence_ij"] == "nan"

@pytest.fixture
def benchmark_scenario_file(tmp_path):
    """Benchmark-shaped pair: mostly diagonal coupling, tiny worst-gap mass."""
    payload = {
        "pairs": [
            {
                "label": "benchmark",
                "p": {
                    "atoms": [0.0, 1.0, 2.0, 3.0, 4.0],
                    "masses": [0.2, 0.015, 0.385, 0.2, 0.2],
                },
                "q": {
                    "atoms": [0.0, 1.0, 2.0, 3.0, 4.0],
                    "masses": [0.17, 0.015, 0.415, 0.2, 0.2],
                },
            }
        ]
    }
    path = tmp_path / "benchmark.json"
    path.write_text(json.dumps(payload), encoding="utf-8")
    return str(path)


class TestSweepCommand:
    def test_calibrated_below_baseline_curves(self, capsys, tmp_path, benchmark_scenario_file):
        code, _, _ = run_cli(
            capsys, "sweep", "--scenario", benchmark_scenario_file,
            "--mechanism", "laplace", "--mechanism", "baseline-laplace",
            "--alpha", "1.2,1.5,2,2.5,3,5", "--epsilon", "0.5",
            "--out", str(tmp_path),
        )
        assert code == 0
        calibrated = parse_csv((tmp_path / "sweep_laplace.csv").read_text())
        baseline = parse_csv((tmp_path / "sweep_baseline-laplace.csv").read_text())
        assert len(calibrated) == len(baseline) == 6
        for t_row, b_row in zip(calibrated, baseline):
            assert t_row["alpha"] == b_row["alpha"]
            assert float(t_row["parameter"]) < float(b_row["parameter"])

    def test_sweep_json_validates_against_schema(self, capsys, tmp_path):
        import jsonschema
        from importlib.resources import files

        code, _, _ = run_cli(
            capsys, "sweep", "--scenario", "point-mass",
            "--mechanism", "laplace", "--alpha", "2,5", "--epsilon", "0.5",
            "--format", "json", "--out", str(tmp_path),
        )
        assert code == 0
        schema = json.loads(
            files("puffercal.schemas").joinpath("output.schema.json").read_text()
        )
        payload = json.loads((tmp_path / "sweep_laplace.json").read_text())
        jsonschema.validate(payload, schema)
        assert payload["rows"][0]["pair"] == "point-mass"

    def test_gaussian_needs_less_noise_power_at_small_epsilon(self, capsys, tmp_path):
        code, _, _ = run_cli(
            capsys, "sweep", "--scenario", "point-mass",
            "--mechanism", "laplace", "--mechanism", "gaussian",
            "--alpha", "1.2,1.5,2,3,5", "--epsilon", "0.1",
            "--out", str(tmp_path),
        )
        assert code == 0
        laplace = parse_csv((tmp_path / "sweep_laplace.csv").read_text())
        gaussian = parse_csv((tmp_path / "sweep_gaussian.csv").read_text())
        for lap_row, gauss_row in zip(laplace, gaussian):
            assert float(gauss_row["variance"]) < float(lap_row["variance"])

    def test_deterministic_output_bytes(self, capsys, tmp_path):
        args = (
            "sweep", "--scenario", "point-mass", "--mechanism", "laplace",
            "--alpha", "1.5,2,5", "--epsilon", "0.5,1", "--seed", "3",
        )
        first_dir = tmp_path / "a"
        second_dir = tmp_path / "b"
        assert run_cli(capsys, *args, "--out", str(first_dir))[0] == 0
        assert run_cli(capsys, *args, "--out", str(second_dir))[0] == 0
        assert (first_dir / "sweep_laplace.csv").read_bytes() == (
            second_dir / "sweep_laplace.csv"
        ).read_bytes()

    def test_sweep_columns(self, capsys, tmp_path):
        code, _, _ = run_cli(
            capsys, "sweep", "--scenario", "point-mass",
            "--mechanism", "laplace", "--alpha", "2", "--epsilon", "1",
            "--out", str(tmp_path),
        )
        assert code == 0
        header = (tmp_path / "sweep_laplace.csv").read_text().splitlines()[0]
        assert header == "alpha,epsilon,mechanism,parameter,variance"

    def test_empty_grid_rejected(self, capsys):
        code, _, _ = run_cli(
            capsys, "sweep", "--scenario", "point-mass", "--alpha", "",
        )
        assert code == 2

    def test_sweep_with_verify(self, capsys):
        code, _, _ = run_cli(
            capsys, "sweep", "--scenario", "point-mass",
            "--mechanism", "laplace", "--alpha", "2,5", "--epsilon", "0.5",
            "--verify",
        )
        assert code == 0

    def test_parallel_jobs_match_serial(self, capsys, tmp_path):
        args = (
            "sweep", "--scenario", "point-mass", "--mechanism", "laplace",
            "--alpha", "1.5,2,3,5", "--epsilon", "0.5,1",
        )
        serial = tmp_path / "serial"
        parallel = tmp_path / "parallel"
        assert run_cli(capsys, *args, "--jobs", "1", "--out", str(serial))[0] == 0
        assert run_cli(capsys, *args, "--jobs", "4", "--out", str(parallel))[0] == 0
        assert (serial / "sweep_laplace.csv").read_bytes() == (
            parallel / "sweep_laplace.csv"
        ).read_bytes()


class TestBreachCommand:
    def test_earlier_cell_error_beats_later_calibration_error(self, capsys):
        # The grid is calibrated before any Monte Carlo runs, yet the first
        # cell's rejected --n is reported, not the second cell's calibration
        # error (Gaussian calibration needs a finite order).
        code, out, err = run_cli(
            capsys, "breach", "--scenario", "point-mass", "--mechanism", "gaussian",
            "--alpha", "2,inf", "--n", "10",
        )
        assert (code, out) == (2, "")
        assert err == "configuration error: need at least 1000 samples for a stable estimate, got 10\n"

    def test_negative_seed_rejected_before_any_solve(self, capsys, monkeypatch):
        # numpy's default_rng rejects negative seeds with a ValueError.
        from puffercal import calibrate as cal
        from puffercal import verify as ver

        def never(*args, **kwargs):
            raise AssertionError("solver reached")
            yield

        monkeypatch.setattr(cal, "_brent", never)
        monkeypatch.setattr(ver, "monte_carlo_breach_steps", never)
        code, out, err = run_cli(
            capsys, "breach", "--scenario", "point-mass", "--alpha", "2", "--n", "1000",
            "--seed", "-5",
        )
        assert (code, out) == (2, "")
        assert err == "configuration error: --seed must be non-negative, got -5\n"

    @pytest.mark.parametrize("n", ["1000000000000000", "100000000000000000000"])
    def test_oversized_n_is_a_configuration_error(self, capsys, n):
        # Both sizes exceed the address space, so the allocation fails at once.
        code, out, err = run_cli(
            capsys, "breach", "--scenario", "point-mass", "--alpha", "2", "--n", n,
        )
        assert (code, out) == (2, "")
        assert err.startswith(f"configuration error: --n {n} is too large: ")

    def test_oversized_n_is_refused_when_nothing_is_drawn(self, capsys):
        # At b = 1000 every draw of the point-mass pair is certified below
        # epsilon, so none is made, but the indices must still fit.
        code, out, err = run_cli(
            capsys, "breach", "--scenario", "point-mass", "--mechanism", "laplace",
            "--parameter", "1000", "--n", "1000000000000000",
        )
        assert (code, out) == (2, "")
        assert err.startswith(
            "configuration error: --n 1000000000000000 is too large: "
            "1000000000000000 draws do not fit in memory ("
        )

    def test_zero_seed_accepted(self, capsys):
        code, out, _ = run_cli(
            capsys, "breach", "--scenario", "point-mass", "--alpha", "2", "--n", "1000",
            "--seed", "0",
        )
        assert code == 0
        assert parse_csv(out)[0]["seed"] == "0"

    def test_breach_rows(self, capsys):
        code, out, _ = run_cli(
            capsys, "breach", "--scenario", "point-mass",
            "--mechanism", "laplace", "--alpha", "2", "--epsilon", "0.5",
            "--n", "20000", "--seed", "7",
        )
        assert code == 0
        rows = parse_csv(out)
        estimate = float(rows[0]["mc_breach_estimate"])
        bound = float(rows[0]["chernoff_bound"])
        half_width = float(rows[0]["mc_half_width"])
        assert 0.0 <= estimate <= 1.0
        assert estimate <= bound + 3.0 * half_width / 1.96
        assert rows[0]["sample_count"] == "20000"

    def test_breach_deterministic(self, capsys):
        args = (
            "breach", "--scenario", "point-mass", "--mechanism", "laplace",
            "--alpha", "2", "--epsilon", "0.5", "--n", "5000", "--seed", "11",
        )
        _, out_a, _ = run_cli(capsys, *args)
        _, out_b, _ = run_cli(capsys, *args)
        assert out_a == out_b

    def test_verify_and_breach_json_validate(self, capsys, tmp_path):
        import jsonschema
        from importlib.resources import files

        schema = json.loads(
            files("puffercal.schemas").joinpath("output.schema.json").read_text()
        )
        code, _, _ = run_cli(
            capsys, "verify", "--scenario", "point-mass",
            "--mechanism", "laplace", "--alpha", "2", "--epsilon", "0.5",
            "--format", "json", "--out", str(tmp_path),
        )
        assert code == 0
        jsonschema.validate(json.loads((tmp_path / "verify.json").read_text()), schema)
        code, _, _ = run_cli(
            capsys, "breach", "--scenario", "point-mass",
            "--mechanism", "laplace", "--alpha", "2", "--epsilon", "0.5",
            "--n", "2000", "--format", "json", "--out", str(tmp_path),
        )
        assert code == 0
        jsonschema.validate(json.loads((tmp_path / "breach.json").read_text()), schema)

    GOLDEN = str(Path(__file__).parent / "data" / "golden_scenario.json")

    @staticmethod
    def _mixed_table_file(tmp_path):
        """Three pairs on atoms 10 apart whose per-atom breach tables at epsilon 1 are mixed.

        Under zero noise and under Laplace(0.05) noise every draw's class is
        its atom's: log m_i - log m_j is above 1 at some atoms of each p_i
        and below it at others, so the indices are drawn and no noise is.
        """
        def prior(atoms, masses):
            return {"atoms": atoms, "masses": masses}

        payload = {"pairs": [
            {"label": "first", "p": prior([0.0, 10.0, 20.0], [0.6, 0.1, 0.3]),
             "q": prior([0.0, 10.0, 20.0], [0.2, 0.5, 0.3])},
            {"label": "second", "p": prior([0.0, 10.0, 20.0], [0.2, 0.5, 0.3]),
             "q": prior([0.0, 10.0, 20.0], [0.6, 0.1, 0.3])},
            {"label": "third", "p": prior([0.0, 10.0], [0.75, 0.25]),
             "q": prior([0.0, 10.0, 20.0], [0.25, 0.35, 0.4])},
        ]}
        path = tmp_path / "mixed.json"
        path.write_text(json.dumps(payload), encoding="utf-8")
        return str(path)

    @pytest.mark.parametrize(
        "kind, extra, mixed",
        [("laplace", (), False), ("gaussian", (), False),
         ("laplace", ("--parameter", "0"), False),
         ("laplace", ("--parameter", "0.05"), True), ("laplace", ("--parameter", "0"), True)],
        ids=["laplace", "gaussian", "zero-noise", "laplace-mixed-table", "zero-noise-mixed-table"],
    )
    def test_output_does_not_depend_on_worker_count(
        self, capsys, monkeypatch, tmp_path, kind, extra, mixed
    ):
        # Each pair draws from its own generators, so the rows are the same
        # bytes whether the three pairs' chunks run inline or interleaved on
        # 2, 3 or 8 workers; 70000 draws take two chunks, and the grid has
        # two cells. On the mixed tables only the indices are drawn.
        from puffercal import breach, cli

        scenario = self.GOLDEN
        if mixed:
            scenario = self._mixed_table_file(tmp_path)

            def forbidden(*args):
                raise AssertionError("noise drawn on a per-atom table")

            monkeypatch.setattr(breach, "sample_noise", forbidden)
        outputs = {}
        for cpus in (1, 2, 3, 8):
            monkeypatch.setattr(cli, "_usable_cpus", lambda: cpus)
            code, out, err = run_cli(
                capsys, "breach", "--scenario", scenario, "--mechanism", kind,
                "--alpha", "2,3", "--epsilon", "1", "--n", "70000", "--seed", "5", *extra,
            )
            assert (code, err) == (0, "")
            outputs[cpus] = out
        rows = parse_csv(outputs[1])
        assert len(rows) == 6
        if mixed:
            assert all(0.0 < float(row["mc_breach_estimate"]) < 1.0 for row in rows)
        assert outputs[2] == outputs[3] == outputs[8] == outputs[1]

    def test_first_failing_pair_is_reported(self, capsys, monkeypatch):
        # Pair 2 fails first in time, pair 1 after it: the command still
        # reports pair 1's error, as a serial run would.
        import threading

        from puffercal import cli
        from puffercal import verify as ver
        from puffercal.errors import NoRoot

        pair_two_failed = threading.Event()

        def breach(p_i, p_j, mech, epsilon, n, seed):
            if seed == 1:
                assert pair_two_failed.wait(timeout=30)
                raise MemoryError("injected at pair 1")
            if seed == 2:
                pair_two_failed.set()
                raise NoRoot("injected at pair 2")
            return 0.5, 0.01
            yield

        monkeypatch.setattr(cli, "_usable_cpus", lambda: 3)
        monkeypatch.setattr(ver, "monte_carlo_breach_steps", breach)
        code, out, err = run_cli(
            capsys, "breach", "--scenario", self.GOLDEN, "--parameter", "1",
            "--alpha", "2", "--n", "1000",
        )
        assert (code, out) == (2, "")
        assert err == "configuration error: --n 1000 is too large: injected at pair 1\n"

    def test_every_call_runs_once_in_order(self, monkeypatch):
        # More workers than cores and a short switch interval: a lost update
        # of the shared queue would run some step twice or never. Coroutine
        # k takes k % 4 steps before the one that returns.
        import threading

        from puffercal import cli

        counts = [0] * 500
        steps = [0] * len(counts)
        calls = []
        for index in range(len(counts)):
            def call(index=index):
                for _ in range(index % 4):
                    steps[index] += 1
                    yield
                counts[index] += 1
                return index
            calls.append(call())
        monkeypatch.setattr(cli, "_usable_cpus", lambda: 8)
        result = []
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            runner = threading.Thread(
                target=lambda: result.append(cli._concurrent_outcomes(calls)), daemon=True
            )
            runner.start()
            runner.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not runner.is_alive()
        assert result == [list(range(len(counts)))]
        assert counts == [1] * len(counts)
        assert steps == [index % 4 for index in range(len(counts))]

    def test_steps_take_turns_and_stop_after_a_failure(self, monkeypatch):
        # On one worker the coroutines take one step each in turn. Once
        # coroutine 1 fails, coroutine 2 takes no further step and its
        # outcome stays None, while coroutine 0 runs to its end.
        from puffercal import cli

        order = []

        def pair(index, steps, fails=False):
            for step in range(steps):
                order.append((index, step))
                yield
            if fails:
                raise MemoryError(f"pair {index}")
            return index

        monkeypatch.setattr(cli, "_usable_cpus", lambda: 1)
        outcomes = cli._concurrent_outcomes([pair(0, 4), pair(1, 2, fails=True), pair(2, 5)])
        assert order == [(0, 0), (1, 0), (2, 0), (0, 1), (1, 1), (2, 1), (0, 2), (0, 3)]
        assert outcomes[0] == 0 and isinstance(outcomes[1], MemoryError)
        assert outcomes[2] is None

    @pytest.mark.parametrize(
        "scenario, cpus, threads",
        [("point-mass", 8, 0), (GOLDEN, 1, 0), (GOLDEN, 2, 1), (GOLDEN, 8, 2)],
        ids=["one-pair", "one-cpu", "two-cpus", "eight-cpus"],
    )
    def test_workers_beyond_this_thread(self, capsys, monkeypatch, scenario, cpus, threads):
        # min(pairs, CPUs) workers, one of them this thread: a single pair
        # or a single CPU runs inline and starts no thread, and the pairs'
        # Gaussian chunks (three each) take turns on the same workers.
        import threading

        from puffercal import cli

        started = []

        class Thread(threading.Thread):
            def __init__(self, *args, **kwargs):
                started.append(self)
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(cli, "_usable_cpus", lambda: cpus)
        monkeypatch.setattr(threading, "Thread", Thread)
        code, _, err = run_cli(
            capsys, "breach", "--scenario", scenario, "--parameter", "1",
            "--alpha", "2", "--n", "1000",
        )
        assert (code, err) == (0, "")
        assert len(started) == threads
        code, _, err = run_cli(
            capsys, "breach", "--scenario", scenario, "--mechanism", "gaussian",
            "--parameter", "1", "--alpha", "2", "--n", "140001",
        )
        assert (code, err) == (0, "")
        assert len(started) == 2 * threads

    @staticmethod
    def _one_pair_file(tmp_path, q_atoms):
        payload = {
            "pairs": [
                {
                    "label": "zero",
                    "p": {"atoms": [0.0, 1.0], "masses": [0.5, 0.5]},
                    "q": {"atoms": q_atoms, "masses": [0.5, 0.5]},
                }
            ]
        }
        path = tmp_path / "zero.json"
        path.write_text(json.dumps(payload), encoding="utf-8")
        return path

    def test_breach_on_calibrated_zero_parameter(self, capsys, tmp_path):
        # An identical pair calibrates to 0: zero noise never breaches, and
        # the bound is exp((alpha - 1)(0 - epsilon)).
        path = self._one_pair_file(tmp_path, [0.0, 1.0])
        code, out, err = run_cli(
            capsys, "breach", "--scenario", str(path),
            "--mechanism", "laplace", "--alpha", "2", "--epsilon", "0.5", "--n", "2000",
        )
        assert code == 0, err
        (row,) = parse_csv(out)
        assert float(row["parameter"]) == 0.0
        assert float(row["mc_breach_estimate"]) == 0.0
        assert float(row["chernoff_bound"]) == pytest.approx(math.exp(-0.5), rel=1e-15)

    def test_breach_bound_of_a_pair_past_the_float_range(self, capsys, tmp_path):
        # At alpha = 120 the integrand of D(q || p) reaches exponents past
        # 700, out of the float range; both directions are integrated in
        # the log domain, and the Chernoff column takes D(p || q) = 0.69214.
        from puffercal import DiscreteDistribution, GaussianParams
        from puffercal.verify import renyi_divergence_both_ways, renyi_divergence_numeric

        p = DiscreteDistribution((0.0, 10.0), (0.999, 0.001))
        q = DiscreteDistribution((0.0, 10.0), (0.5, 0.5))
        mech = GaussianParams(1.0)
        forward = renyi_divergence_numeric(p, q, mech, 120.0)
        assert forward == pytest.approx(0.69214, abs=1e-5)
        assert renyi_divergence_both_ways(p, q, mech, 120.0) == (
            forward, pytest.approx(6.20878, abs=1e-5)
        )
        payload = {"pairs": [{
            "label": "skew",
            "p": {"atoms": list(p.atoms), "masses": list(p.masses)},
            "q": {"atoms": list(q.atoms), "masses": list(q.masses)},
        }]}
        path = tmp_path / "skew.json"
        path.write_text(json.dumps(payload), encoding="utf-8")
        code, out, err = run_cli(
            capsys, "breach", "--scenario", str(path), "--parameter", "1",
            "--mechanism", "gaussian", "--alpha", "120", "--epsilon", "1", "--n", "1000",
        )
        assert (code, err) == (0, "")
        (row,) = parse_csv(out)
        assert float(row["chernoff_bound"]) == math.exp(119.0 * (forward - 1.0))

    def test_breach_zero_parameter_disjoint_supports(self, capsys, tmp_path):
        # Every draw is an atom the other side lacks: estimate 1, and the
        # divergence is infinite, so there is no bound.
        path = self._one_pair_file(tmp_path, [2.0, 3.0])
        code, out, err = run_cli(
            capsys, "breach", "--scenario", str(path), "--parameter", "0",
            "--mechanism", "gaussian", "--alpha", "2", "--epsilon", "0.5", "--n", "2000",
        )
        assert code == 0, err
        (row,) = parse_csv(out)
        assert float(row["mc_breach_estimate"]) == 1.0
        assert float(row["mc_half_width"]) == 0.0
        assert row["chernoff_bound"] == ""


@pytest.mark.parametrize(
    "command, expected",
    [("verify", 4), ("breach", 0)],
)
def test_nan_integrand_ends_quickly(command, expected):
    # At sigma = 1e-300 both Gaussian posteriors underflow to 0 off their
    # atoms, so the integrand's exponent is -inf + inf. The quadrature
    # stops at the first nan: verify reports the pair inconclusive, and
    # breach keeps its estimate with an empty bound.
    import puffercal

    src = str(Path(puffercal.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    argv = [
        sys.executable, "-W", "ignore", "-m", "puffercal.cli", command, "--scenario", "point-mass",
        "--mechanism", "gaussian", "--alpha", "2", "--epsilon", "1", "--parameter", "1e-300",
    ]
    if command == "breach":
        argv += ["--n", "1000"]
    result = subprocess.run(
        argv, capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=path), timeout=30
    )
    assert result.returncode == expected, result.stderr
    (row,) = parse_csv(result.stdout)
    assert row["chernoff_bound"] == ""
    if command == "verify":
        assert row["inconclusive"] == "true"
    else:
        assert float(row["mc_breach_estimate"]) == 1.0


@pytest.mark.parametrize("command", ["calibrate", "verify", "sweep"])
@pytest.mark.parametrize(
    "kind, reason",
    [
        ("laplace", "no finite Laplace scale: W_inf / epsilon = 1.0 / 1e-310 overflows"),
        ("winf", "no finite Laplace scale: W_inf / epsilon = 1.0 / 1e-310 overflows"),
        ("exponential", "no finite theta has rate 1/theta = 1e-310"),
    ],
    ids=["laplace", "winf", "exponential"],
)
def test_subnormal_epsilon_at_alpha_inf_is_a_solver_failure(capsys, command, kind, reason):
    # W_inf / epsilon overflows at a subnormal epsilon: every alpha = inf
    # rule fails as a solver error that names its cell and pair.
    code, out, err = run_cli(
        capsys, command, "--scenario", "point-mass", "--mechanism", kind,
        "--alpha", "inf", "--epsilon", "1e-310",
    )
    assert (code, out) == (3, "")
    assert err == (
        f"solver failure: mechanism={kind} alpha=inf epsilon=1e-310: "
        f"pair 'point-mass': {reason}\n"
    )


@pytest.mark.parametrize(
    "command, kind, alpha, tail, reason",
    [
        ("calibrate", "laplace", "2", (),
         "no finite laplace parameter: the seed bracket (2.8853900817779268, inf) overflows"),
        ("calibrate", "laplace", "0.5", (),
         "no finite laplace-sub-unit parameter: the seed bracket (0.7213475204444817, inf) "
         "overflows"),
        ("calibrate", "gaussian", "2", (),
         "no finite gaussian parameter: the seed bracket (1.2011224087864498, inf) overflows"),
        ("calibrate", "exponential", "2", (), "no finite theta has rate 1/theta = 5e-311"),
        ("calibrate", "baseline-laplace", "2", (),
         "no finite baseline-laplace parameter: the seed bracket (1.4426950408889634, inf) "
         "overflows"),
        ("calibrate", "baseline-gaussian", "2", (),
         "no finite Gaussian sigma: sqrt(alpha W_inf^2 / (2 epsilon)) with "
         "W_inf = 1.0, epsilon = 1e-310 overflows"),
        ("verify", "gaussian", "2", (),
         "no finite gaussian parameter: the seed bracket (1.2011224087864498, inf) overflows"),
        ("breach", "laplace", "2", ("--n", "1000"),
         "no finite laplace parameter: the seed bracket (2.8853900817779268, inf) overflows"),
    ],
    ids=["laplace", "laplace-sub-unit", "gaussian", "exponential", "baseline-laplace",
         "baseline-gaussian", "verify-gaussian", "breach-laplace"],
)
def test_subnormal_epsilon_at_finite_alpha_is_a_solver_failure(
    capsys, command, kind, alpha, tail, reason
):
    # At a subnormal epsilon the feasible bracket end (or closed form)
    # overflows: every kind fails as a solver error naming its cell and pair.
    code, out, err = run_cli(
        capsys, command, "--scenario", "point-mass", "--mechanism", kind,
        "--alpha", alpha, "--epsilon", "1e-310", *tail,
    )
    assert (code, out) == (3, "")
    assert err == (
        f"solver failure: mechanism={kind} alpha={float(alpha)!r} epsilon=1e-310: "
        f"pair 'point-mass': {reason}\n"
    )


def test_calibrate_failure_reraises_the_pair_labelled_error(capsys):
    # The cell label is added by re-raising the pair-labelled error's own
    # class, so the kind of failure, and so the exit code, is the class's.
    from puffercal import cli
    from puffercal.errors import NoRoot

    reason = "no finite laplace parameter: the seed bracket (2.8853900817779268, inf) overflows"
    code, out, err = run_cli(
        capsys, "calibrate", "--scenario", "point-mass", "--alpha", "2", "--epsilon", "1e-310",
    )
    assert (code, out) == (3, "")
    assert err == (
        f"solver failure: mechanism=laplace alpha=2.0 epsilon=1e-310: pair 'point-mass': {reason}\n"
    )
    scenarios = cli._resolve_scenarios("point-mass", Path("data"))
    with pytest.raises(NoRoot) as raised:
        next(cli._calibrated(scenarios, "laplace", [(2.0, 1e-310)], 1e-9))
    cause = raised.value.__cause__
    assert type(cause) is NoRoot
    assert str(cause) == f"pair 'point-mass': {reason}"
    assert str(raised.value) == f"mechanism=laplace alpha=2.0 epsilon=1e-310: {cause}"


def _error_classes():
    from puffercal import errors

    return [value for value in vars(errors).values()
            if isinstance(value, type) and issubclass(value, errors.PuffercalError)]


@pytest.mark.parametrize("error", _error_classes(), ids=lambda error: error.__name__)
def test_error_class_decides_the_exit_code(capsys, monkeypatch, error):
    from puffercal import cli
    from puffercal.errors import SolverFailure

    def handler(args):
        raise error("the reason")

    monkeypatch.setattr(cli, "cmd_verify", handler)
    code, out, err = run_cli(capsys, "verify", "--scenario", "point-mass")
    if issubclass(error, SolverFailure):
        assert (code, out, err) == (3, "", "solver failure: the reason\n")
    else:
        assert (code, out, err) == (2, "", "configuration error: the reason\n")


def test_solver_failures_are_the_six_no_answer_errors():
    from puffercal.errors import SolverFailure

    assert {error.__name__ for error in _error_classes() if issubclass(error, SolverFailure)} == {
        "SolverFailure", "NoRoot", "NotMonotone", "NonInvertibleRate", "NonNormalizable",
        "IntegrationFailure", "InfeasibleEvenAtInfinity",
    }
    assert len(SolverFailure.__subclasses__()) == 6


@pytest.mark.parametrize(
    "command, option, value",
    [
        ("verify", "--alpha", "-1e-300"),
        ("calibrate", "--alpha", "-1E+3,2"),
        ("verify", "--epsilon", "-1e-3"),
        ("sweep", "--epsilon", "-.5e-3"),
        ("verify", "--parameter", "-1e-3"),
        ("breach", "--parameter", "-2.5e1"),
        ("calibrate", "--tol", "-1e-3"),
        ("breach", "--tol", "-1.5"),
        ("verify", "--alpha", "-inf"),
        ("verify", "--alpha", "-nan"),
        ("sweep", "--epsilon", "-Infinity"),
        ("breach", "--parameter", "-NaN"),
        ("verify", "--alp", "-1e-3"),
        ("calibrate", "--e", "-INF"),
        ("breach", "--para", "-2.5e1"),
        ("sweep", "--t", "-1e-3"),
    ],
)
def test_signed_value_after_a_space_reads_as_with_equals(capsys, command, option, value):
    # argparse alone reads -1e-300, -inf or -nan as an option name
    # ("expected one argument"), after an option or a prefix of one that
    # it expands; both spellings must end in the same error line.
    tail = ("--n", "1000") if command == "breach" else ()
    spaced = run_cli(capsys, command, "--scenario", "point-mass", *tail, option, value)
    joined = run_cli(capsys, command, "--scenario", "point-mass", *tail, f"{option}={value}")
    assert spaced == joined
    assert spaced[0] == 2
    assert spaced[2].startswith("configuration error: ")


def test_option_name_after_a_signed_option_is_still_an_option(capsys):
    with pytest.raises(SystemExit) as raised:
        main(["verify", "--scenario", "point-mass", "--alpha", "--epsilon", "1"])
    assert raised.value.code == 2
    assert "argument --alpha: expected one argument" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["verify", "breach"])
def test_negative_zero_parameter_prints_as_zero(capsys, tmp_path, command):
    tail = ("--n", "1000") if command == "breach" else ()
    outputs = []
    for spelling in ("0", "-0.0"):
        out_dir = tmp_path / spelling
        code, out, err = run_cli(
            capsys, command, "--scenario", "point-mass", "--alpha", "2", *tail,
            "--parameter", spelling, "--out", str(out_dir),
        )
        outputs.append((code, out, err, (out_dir / f"{command}.csv").read_text()))
    assert outputs[0] == outputs[1]
    (row,) = parse_csv(outputs[1][1])
    assert row["parameter"] == "0.0"
    assert outputs[1][3] == outputs[1][1]
