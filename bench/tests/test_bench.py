"""Tests of the benchmark itself: inputs, checks, spans and metric names.

    python3 -m pytest bench/tests -q
"""

import contextlib
import csv
import io
import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import checks  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

puffercal = workloads.import_puffercal(ROOT)
from puffercal import cli  # noqa: E402

EDUCATION, _, AGE = workloads.SMALL_PAIRS


def _rows(text):
    return list(csv.DictReader(io.StringIO(text)))


def _csv(rows):
    buffer = io.StringIO()
    writer = csv.DictWriter(buffer, fieldnames=list(rows[0]), lineterminator="\n")
    writer.writeheader()
    writer.writerows(rows)
    return buffer.getvalue()


def _cli(argv):
    captured = io.StringIO()
    with contextlib.redirect_stdout(captured):
        code = cli.main(argv)
    return code, captured.getvalue()


def _one_pair_scenario(directory, spec):
    """Scenario with a single pair of the seed-3 table."""
    (directory / workloads.TABLE_NAME).write_text(workloads.make_table(3), encoding="utf-8")
    path = directory / workloads.SCENARIO_NAME
    path.write_text(json.dumps(workloads.scenario(workloads.TABLE_NAME, [spec])),
                    encoding="utf-8")
    return path


@pytest.fixture(scope="module")
def education_scenario(tmp_path_factory):
    return _one_pair_scenario(tmp_path_factory.mktemp("education"), EDUCATION)


# --- seeded inputs -------------------------------------------------------------------


def test_generator_is_deterministic_per_seed():
    assert workloads.make_table(5) == workloads.make_table(5)
    assert workloads.make_table(5) != workloads.make_table(6)


def test_atom_counts_are_fixed_by_construction(tmp_path):
    sizes = set()
    for seed in (1, 2):
        scenario = workloads.write_inputs(workloads.WORKLOADS["calibrate-grid"], seed,
                                          tmp_path / str(seed))
        pairs = workloads.load_pairs(scenario)
        assert [p.label for p in pairs] == ["education", "hours", "age", "wage"]
        for spec, pair in zip(workloads.SMALL_PAIRS, pairs):
            lo, hi = spec.support
            assert len(pair.p_i.atoms) == len(pair.p_j.atoms) == hi - lo + 1
        sizes.add((len(pairs[3].p_i.atoms) > 1100, len(pairs[3].p_j.atoms) > 750))
    assert sizes == {(True, True)}


def test_command_argv_fills_scenario_and_seed():
    command = workloads.WORKLOADS["breach-mc"].commands[0]
    argv = workloads.command_argv(command, Path("s.json"), 9)
    assert argv[:3] == ["breach", "--scenario", "s.json"]
    assert argv[argv.index("--seed") + 1] == "9"


# --- checks ------------------------------------------------------------------------------


def _calibrate_output(scenario, alpha="2"):
    argv = ["calibrate", "--scenario", str(scenario), "--mechanism", "laplace",
            "--mechanism", "winf", "--alpha", alpha, "--epsilon", "1"]
    code, text = _cli(argv)
    assert code == 0
    return argv, text


def test_calibrate_check_accepts_the_program_output(education_scenario):
    argv, text = _calibrate_output(education_scenario)
    pairs = workloads.load_pairs(education_scenario)
    verdict = checks.check(argv, ["education"], 0, text, 0, pairs)
    assert (verdict.attempted, verdict.failed) == (2, 0), verdict.notes


def test_halved_laplace_scale_fails_the_reverify_sample(tmp_path):
    # At alpha = 5 the transport condition is tight enough on the age pair
    # that half the calibrated scale breaks the divergence bound.
    scenario = _one_pair_scenario(tmp_path, AGE)
    argv, text = _calibrate_output(scenario, alpha="5")
    pairs = workloads.load_pairs(scenario)
    assert checks.check(argv, ["age"], 0, text, 0, pairs).failed == 0
    rows = _rows(text)
    for row in rows:
        if row["mechanism"] == "laplace":
            row["parameter"] = repr(float(row["parameter"]) / 2.0)
    verdict = checks.check(argv, ["age"], 0, _csv(rows), 0, pairs)
    assert verdict.failed == 1
    assert any("laplace" in note and "verify_rpp fails" in note for note in verdict.notes)


@pytest.mark.parametrize("column, value", [
    ("binding", "false"),
    ("parameter", "nan"),
    ("parameter", "-1.0"),
    ("log_functional_value", "5.0"),
])
def test_calibrate_check_rejects_bad_rows(education_scenario, column, value):
    argv, text = _calibrate_output(education_scenario)
    rows = _rows(text)
    rows[0][column] = value
    pairs = workloads.load_pairs(education_scenario)
    verdict = checks.check(argv, ["education"], 0, _csv(rows), 0, pairs)
    assert verdict.failed >= 1, verdict.notes
    assert not any("malformed" in note for note in verdict.notes)


def test_exit_code_and_missing_rows_fail(education_scenario):
    argv, text = _calibrate_output(education_scenario)
    assert checks.check(argv, ["education"], 3, text, 0, []).failed == 2
    assert checks.check(argv, ["education"], 0, "".join(text.splitlines(True)[:2]), 0, []).failed == 1
    assert checks.check(argv, ["education"], 0, "", 0, []).failed == 2


def test_verify_check_counts_a_failed_row(education_scenario):
    argv = ["verify", "--scenario", str(education_scenario), "--mechanism", "laplace",
            "--alpha", "2", "--epsilon", "1"]
    code, text = _cli(argv)
    assert checks.check(argv, ["education"], code, text, 0, []).failed == 0
    for column, value in (("passed", "false"), ("inconclusive", "true")):
        rows = _rows(text)
        rows[0][column] = value
        assert checks.check(argv, ["education"], 0, _csv(rows), 0, []).failed == 1


def test_breach_check_rejects_bad_estimates(education_scenario):
    argv = ["breach", "--scenario", str(education_scenario), "--mechanism", "laplace",
            "--alpha", "2", "--epsilon", "1", "--n", "20000", "--seed", "4"]
    code, text = _cli(argv)
    assert checks.check(argv, ["education"], code, text, 0, []).failed == 0
    bound = float(_rows(text)[0]["chernoff_bound"])
    assert bound < 1.0
    for column, value in (("mc_breach_estimate", "1.5"), ("sample_count", "19999"),
                          ("mc_breach_estimate", repr(min(1.0, bound + 0.05)))):
        rows = _rows(text)
        rows[0][column] = value
        assert checks.check(argv, ["education"], 0, _csv(rows), 0, []).failed == 1, column


# --- spans -------------------------------------------------------------------------------


def test_self_time_subtracts_direct_children():
    recorded = [["cli.main", 0.0, 10.0, -1, None], ["calibrate.solve", 1.0, 5.0, 0, None],
                ["transport.functional", 2.0, 3.0, 1, None]]
    assert spans.self_times(recorded) == [6.0, 3.0, 1.0]


def test_tail_has_ten_samples_beyond_it():
    assert spans.tail([float(v) for v in range(1, 21)]) == (10.0, 50.0)
    assert spans.tail([1.0] * 10) == (0.0, 0.0)


def test_tracer_records_nested_calls_and_keeps_results():
    tracer = spans.Tracer()

    def inner(x):
        return x + 1

    wrapped_inner = tracer.wrap("transport.functional", inner, None)
    outer = tracer.wrap("calibrate.solve", lambda x: wrapped_inner(x) * 2,
                        lambda a, k, r: {"iterations": r})
    assert outer(1) == 4
    assert [(s[0], s[3], s[4]) for s in tracer.spans] == [
        ("calibrate.solve", -1, {"iterations": 4}), ("transport.functional", 0, None)]


def test_a_failing_span_annotation_leaves_the_call_alone():
    tracer = spans.Tracer()
    wrapped = tracer.wrap("verify.monte_carlo", lambda n: n, lambda a, k, r: {"draws": a[4]})
    assert wrapped(7) == 7
    assert "error" in tracer.spans[0][4]
    assert spans.layer_metrics(tracer.spans)["verify.monte_carlo.draws"] == 0


def test_traced_pass_covers_every_layer(education_scenario, tmp_path):
    commands = (
        ("calibrate", "--scenario", "{scenario}", "--mechanism", "exponential",
         "--alpha", "2", "--epsilon", "1"),
        ("breach", "--scenario", "{scenario}", "--mechanism", "laplace",
         "--alpha", "2", "--epsilon", "1", "--n", "2000", "--seed", "{seed}"),
    )
    deadline = time.perf_counter() + 120.0
    one_pass = run.run_pass(commands, education_scenario, 4, tmp_path, True, deadline)
    assert [call["exit_code"] for call in one_pass["calls"]] == [0, 0]
    assert all(call["missing"] == [] for call in one_pass["calls"])
    metrics = spans.layer_metrics(run.merged_spans(one_pass))
    assert metrics["ingest.load_table.calls"] == 2
    assert metrics["transport.coupling.calls"] == 2
    assert metrics["calibrate.solves"] == 2
    assert metrics["dist.noise_variance.calls"] == 1
    assert metrics["verify.monte_carlo.draws"] == 2000
    assert metrics["dist.posterior_density.evals"] == 2 * 2000 * 16
    assert metrics["verify.divergence_finite.calls"] == 1
    assert all(metrics[f"{layer}.self_s"] > 0 for layer in spans.LAYERS if layer != "verify")


# --- metric names and BENCHMARK.json --------------------------------------------------


def _benchmark_json():
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def test_printed_metric_names_match_benchmark_json():
    spec = _benchmark_json()
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} == spans.PER_LAYER
    fake_pass = {"main_s": 1.0, "calls": [{"spans": [], "missing": []}]}
    printed = run.per_layer({"plain": [fake_pass], "traced": [fake_pass]})
    assert set(printed) == set(spans.PER_LAYER)


def test_benchmark_json_records_why_each_workload_was_chosen():
    spec = _benchmark_json()
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    for entry in spec["workloads"]:
        assert entry["why"] == workloads.WORKLOADS[entry["name"]].why
        assert entry["why"] and "\n" not in entry["why"] and len(entry["why"]) <= 200
    assert spec["command"] == ["python3", "bench/run.py"] and spec["paths"] == ["bench"]


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = subprocess.run([sys.executable, "bench/run.py", "--workload", "breach-mc", "--seed",
                           "1", "--seconds", "1", "--trace", "0"], cwd=tmp_path,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert done.stdout == ""
