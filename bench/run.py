"""puffercal benchmark: three CLI workloads, end to end and layer by layer.

    python3 bench/run.py --workload calibrate-grid --seed 1 --seconds 30 --trace 0

Run from anywhere; the package is imported from `src/` next to this
directory, never from an installed copy. The seed builds the workload's
census-like table and scenario (see workloads.py). Each CLI call runs in a
fresh interpreter through `puffercal.cli.main`, one workload pass after
another, until `--seconds` have been spent on passes. Then every output is
checked (checks.py) and the last line of stdout is one JSON object:
`{"correct", "attempted", "failed", "metrics"}`, where attempted and
failed count output rows.

With `--trace 0` the metrics are the end-to-end ones, medians over passes:
  setup_s      wall time of a fresh interpreter that imports puffercal and
               loads the scenario through ingest (median of SETUP_REPEATS)
  cells_per_s  (mechanism, alpha, epsilon) grid cells, over all pairs, per
               second of `main` time in a pass
  peak_rss_mb  largest peak resident set size among a pass's CLI processes
With `--trace 1`, untraced and traced passes alternate (plus, on
calibrate-grid, an untraced `--jobs 2` pass) and the metrics are the
per-layer ones from spans.py, medians over traced passes; on workloads
without a `--jobs 2` pass `cli.pool_speedup_jobs2` reads 0.

The line before the last is an informational JSON object: per-pair atom
counts and coupling sizes, the sha256 of each call's stdout, every pass's
timings, mc_draws_per_s and any check notes. Exit code 0 means the result
line was printed; a checkout without `src/puffercal` exits 2 without one.
"""

import argparse
import contextlib
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))

import checks  # noqa: E402
import spans  # noqa: E402
from workloads import (  # noqa: E402
    WORKLOADS, command_argv, grid_cells, import_puffercal, load_pairs, write_inputs,
)

SETUP_REPEATS = 5
# Every child must end before this many seconds after the start of the run.
DEADLINE_S = 170.0
# name: (unit, better); BENCHMARK.json lists the same metrics.
END_TO_END = {"setup_s": ("s", "lower"), "cells_per_s": ("cells/s", "higher"),
              "peak_rss_mb": ("MB", "lower")}


class BenchError(Exception):
    pass


def _child(args: list[str], deadline: float) -> None:
    remaining = deadline - time.perf_counter()
    if remaining <= 0:
        raise BenchError("out of time before starting a child process")
    try:
        subprocess.run([sys.executable, str(BENCH_DIR / "child.py"), *args],
                       stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
                       timeout=remaining, check=False)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"child exceeded the run's deadline: {args[:2]}") from exc


def setup_once(scenario: Path, work: Path, deadline: float) -> dict:
    """Launch-to-loaded wall time of one setup child, with its import/load split."""
    result = work / "setup.json"
    result.unlink(missing_ok=True)
    start = time.monotonic()
    _child(["setup", str(ROOT), str(scenario), str(result)], deadline)
    if not result.exists():
        raise BenchError("setup child failed; see its stderr")
    record = json.loads(result.read_text(encoding="utf-8"))
    return {"wall_s": record.pop("done_monotonic") - start, **record}


def run_pass(commands, scenario: Path, seed: int, work: Path, traced: bool, deadline: float):
    """One CLI call per command, each in a fresh interpreter."""
    calls = []
    for index, command in enumerate(commands):
        result, stdout = work / f"call{index}.json", work / f"call{index}.out"
        result.unlink(missing_ok=True)
        argv = command_argv(command, scenario, seed)
        _child(["run", str(ROOT), str(result), str(stdout), "1" if traced else "0", "--", *argv],
               deadline)
        if result.exists():
            call = json.loads(result.read_text(encoding="utf-8"))
            text = stdout.read_text(encoding="utf-8")
        else:  # the child died before reporting: every row of the call fails
            call = {"exit_code": -1, "main_s": 0.0, "rss_mb": 0.0, "spans": None, "missing": []}
            text = ""
        call["argv"] = argv
        call["cells"] = len(grid_cells(argv))
        call["stdout"] = text
        call["sha256"] = hashlib.sha256(text.encode("utf-8")).hexdigest()
        calls.append(call)
    return {
        "main_s": sum(c["main_s"] for c in calls),
        "cells": sum(c["cells"] for c in calls),
        "rss_mb": max(c["rss_mb"] for c in calls),
        "calls": calls,
    }


def measure(workload, scenario: Path, seed: int, seconds: float, traced: bool, work: Path,
            deadline: float) -> dict[str, list]:
    """Passes until `seconds` are spent; a new round starts only if half of it fits."""
    kinds = {"plain": (workload.commands, False)}
    if traced:
        kinds["traced"] = (workload.commands, True)
        if workload.pool_commands:
            kinds["pool"] = (workload.pool_commands, False)
    passes = {kind: [] for kind in kinds}
    start = time.perf_counter()
    while True:
        round_start = time.perf_counter()
        for kind, (commands, with_spans) in kinds.items():
            passes[kind].append(run_pass(commands, scenario, seed, work, with_spans, deadline))
        now = time.perf_counter()
        if now - start + 0.5 * (now - round_start) > seconds:
            return passes


def _ratio(numerator: float, denominator: float) -> float:
    """numerator / denominator, or 0 when a dead child left no time to divide by."""
    return numerator / denominator if denominator > 0 else 0.0


def merged_spans(one_pass) -> list:
    """Spans of all calls of a pass in one list, parent indices shifted to match."""
    merged = []
    for call in one_pass["calls"]:
        offset = len(merged)
        for name, begin, end, parent, extra in call["spans"] or ():
            merged.append([name, begin, end, parent + offset if parent >= 0 else -1, extra])
    return merged


def per_layer(passes) -> dict[str, float]:
    per_pass = [spans.layer_metrics(merged_spans(p)) for p in passes["traced"]]
    metrics = {name: statistics.median(m[name] for m in per_pass) for name in per_pass[0]}
    plain = statistics.median(p["main_s"] for p in passes["plain"])
    traced = statistics.median(p["main_s"] for p in passes["traced"])
    metrics["trace.overhead_frac"] = _ratio(traced - plain, plain)
    metrics["trace.missing_targets"] = float(len(passes["traced"][0]["calls"][0]["missing"]))
    pool = passes.get("pool")
    metrics["cli.pool_speedup_jobs2"] = (
        _ratio(plain, statistics.median(p["main_s"] for p in pool)) if pool else 0.0
    )
    return metrics


def end_to_end(passes, setup_times) -> dict[str, float]:
    plain = passes["plain"]
    return {
        "setup_s": statistics.median(setup_times),
        "cells_per_s": statistics.median(_ratio(p["cells"], p["main_s"]) for p in plain),
        "peak_rss_mb": statistics.median(p["rss_mb"] for p in plain),
    }


def check_all(workload, passes, scenario: Path, seed: int):
    """Check every call's output; identical outputs share one verdict."""
    labels = [spec.label for spec in workload.pairs]
    # Quadrature on the ~10^3-atom continuous pair takes tens of seconds, so the
    # calibrate sample is re-verified on the integer-valued pairs only.
    small = [spec.label for spec in workload.pairs if spec.support is not None]
    reverify_pairs = load_pairs(scenario, small)
    verdicts: dict[tuple, checks.Verdict] = {}
    attempted = failed = 0
    notes: list[str] = []
    for kind_passes in passes.values():
        for one_pass in kind_passes:
            for call in one_pass["calls"]:
                key = (tuple(call["argv"]), call["exit_code"], call["sha256"])
                if key not in verdicts:
                    verdicts[key] = checks.check(call["argv"], labels, call["exit_code"],
                                                 call["stdout"], seed, reverify_pairs)
                verdict = verdicts[key]
                attempted += verdict.attempted
                failed += verdict.failed
                notes.extend(n for n in verdict.notes if n not in notes)
    return attempted, failed, notes[:20]


def describe_inputs(scenario: Path) -> list[dict]:
    from puffercal import monotone_coupling

    return [
        {"pair": pair.label, "atoms_i": len(pair.p_i.atoms), "atoms_j": len(pair.p_j.atoms),
         "coupling_entries": len(monotone_coupling(pair.p_i, pair.p_j).entries)}
        for pair in load_pairs(scenario)
    ]


def _summary(passes) -> dict:
    return {
        kind: [
            {"main_s": p["main_s"], "rss_mb": p["rss_mb"],
             "calls": [{"argv0": c["argv"][0], "exit_code": c["exit_code"],
                        "main_s": c["main_s"], "sha256": c["sha256"]} for c in p["calls"]]}
            for p in kind_passes
        ]
        for kind, kind_passes in passes.items()
    }


def run(workload_name: str, seed: int, seconds: float, traced: bool) -> tuple[dict, dict]:
    if not (ROOT / "src" / "puffercal" / "__init__.py").is_file():
        raise BenchError(f"no puffercal package under {ROOT / 'src'}")
    deadline = time.perf_counter() + DEADLINE_S
    workload = WORKLOADS[workload_name]
    work = ROOT / ".bench_work" / f"{workload_name}-{seed}-{os.getpid()}"
    try:
        scenario = write_inputs(workload, seed, work)
        setups = [setup_once(scenario, work, deadline) for _ in range(SETUP_REPEATS)]
        passes = measure(workload, scenario, seed, seconds, traced, work, deadline)
        try:
            import_puffercal(ROOT)
        except ImportError as exc:
            raise BenchError(str(exc)) from exc
        attempted, failed, notes = check_all(workload, passes, scenario, seed)
        info = {"workload": workload_name, "seed": seed, "pairs": describe_inputs(scenario),
                "setups": setups, "passes": _summary(passes), "check_notes": notes,
                "failed_frac": failed / attempted}
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):  # left in place while another run uses it
            work.parent.rmdir()
    if workload.draws_per_pair:
        draws = workload.draws_per_pair * len(workload.pairs) * workload.cells
        info["mc_draws_per_s"] = statistics.median(
            _ratio(draws, p["main_s"]) for p in passes["plain"]
        )
    if traced:
        metrics = per_layer(passes)
        info["trace_missing"] = passes["traced"][0]["calls"][0]["missing"]
        units = {name: unit for name, (unit, _) in spans.PER_LAYER.items()}
    else:
        metrics = end_to_end(passes, [s["wall_s"] for s in setups])
        units = {name: unit for name, (unit, _) in END_TO_END.items()}
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    return info, result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        info, result = run(args.workload, args.seed, args.seconds, args.trace == 1)
    except BenchError as exc:
        sys.stderr.write(f"benchmark error: {exc}\n")
        return 2
    print(json.dumps({"info": info}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
