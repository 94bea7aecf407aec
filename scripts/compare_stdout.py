#!/usr/bin/env python3
"""Compare the CLI's stdout and stderr between two source trees, command by command.

Usage:
    python scripts/compare_stdout.py PARENT_TREE CHANGE_TREE --seeds 11,13 [--rel-tol X]

For every seed the benchmark inputs (bench/workloads.py of this
repository: the synthetic census table and each workload's scenario) are
written to a temporary directory. Every benchmark workload's commands,
plus EXTRA_COMMANDS on the verify-grid scenario, then run through
`python -m puffercal.cli` once with each tree's `src/` on PYTHONPATH.
One line per command gives the sha256 of stdout, the sha256 of stderr
and the exit code under each tree; stderr carries the error message, so
a failing grid must fail on the same cell and pair. The script exits 1
when any command's stdout, stderr or exit code differs between the
trees, 0 when all match.

With --rel-tol X, a command whose stdout differs while its stderr and
exit code match has both stdouts parsed as rows (CSV with a header, or
the JSON document's "rows"). Every field that is a number under both
trees is a numeric column; the largest relative drift
|change - parent| / |parent| of each such column that moved is printed.
Every other field (text, flags, empty cells), the row count, the header
and the JSON keys must match exactly. The script then exits 0 when every
command matches or differs only by numeric drifts within X.
"""

import argparse
import csv
import hashlib
import io
import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parents[1] / "bench"
sys.path.insert(0, str(BENCH_DIR))

from workloads import WORKLOADS, command_argv, write_inputs  # noqa: E402

# Commands beyond the benchmark's, run on the verify-grid scenario: orders
# from 0.5 to 20 and inf, fixed parameters where calibration needs a
# finite order above one, the --verify re-check paths, JSON output, Monte
# Carlo runs within one draw chunk and across several (zero noise and the
# exponential mechanism too), grids mixing sub-unit, solved and
# closed-form cells, the ignored --jobs, a tight --tol, two grids that
# fail part-way, and two runs on the built-in point-mass scenario whose
# numpy warnings would show as a stderr diff.
EXTRA_COMMANDS = (
    ("verify", "--scenario", "{scenario}", "--mechanism", "laplace",
     "--alpha", "1.5,3,8,20", "--epsilon", "0.5,1"),
    ("verify", "--scenario", "{scenario}", "--mechanism", "laplace",
     "--alpha", "0.5,inf", "--epsilon", "0.5,1,2"),
    ("verify", "--scenario", "{scenario}", "--mechanism", "gaussian",
     "--alpha", "1.5,3,8,20", "--epsilon", "0.5,1"),
    ("verify", "--scenario", "{scenario}", "--mechanism", "gaussian",
     "--alpha", "0.5,2,inf", "--epsilon", "1", "--parameter", "3.0"),
    ("verify", "--scenario", "{scenario}", "--mechanism", "exponential",
     "--alpha", "1.5,3,20,inf", "--epsilon", "1"),
    ("verify", "--scenario", "{scenario}", "--mechanism", "exponential",
     "--alpha", "0.5,2", "--epsilon", "1", "--parameter", "2.5"),
    ("verify", "--scenario", "{scenario}", "--mechanism", "baseline-laplace",
     "--alpha", "2,4", "--epsilon", "1", "--format", "json"),
    ("calibrate", "--scenario", "{scenario}", "--mechanism", "laplace",
     "--mechanism", "gaussian", "--mechanism", "exponential",
     "--alpha", "1.5,2,4", "--epsilon", "0.5,1", "--verify"),
    ("sweep", "--scenario", "{scenario}", "--mechanism", "laplace",
     "--mechanism", "winf", "--alpha", "2,inf", "--epsilon", "1", "--verify"),
    ("breach", "--scenario", "{scenario}", "--mechanism", "laplace",
     "--alpha", "2,inf", "--epsilon", "1", "--n", "20000", "--seed", "{seed}"),
    ("breach", "--scenario", "{scenario}", "--mechanism", "gaussian",
     "--alpha", "2", "--epsilon", "0.5,1", "--n", "20000", "--seed", "{seed}"),
    # Monte Carlo past one 2^16-draw chunk, with a ragged last chunk; the
    # fixed parameters give breach estimates between 0.05 and 0.75.
    ("breach", "--scenario", "{scenario}", "--mechanism", "laplace",
     "--alpha", "2", "--epsilon", "0.5", "--parameter", "3", "--n", "150001",
     "--seed", "{seed}"),
    ("breach", "--scenario", "{scenario}", "--mechanism", "gaussian",
     "--alpha", "3", "--epsilon", "0.5", "--parameter", "4", "--n", "150001",
     "--seed", "{seed}"),
    # Zero noise, and the exponential mechanism's Monte Carlo.
    ("breach", "--scenario", "{scenario}", "--mechanism", "laplace",
     "--alpha", "2", "--epsilon", "0.5,1", "--parameter", "0", "--n", "150001",
     "--seed", "{seed}"),
    ("breach", "--scenario", "{scenario}", "--mechanism", "exponential",
     "--alpha", "2", "--epsilon", "0.5", "--parameter", "2.5", "--n", "150001",
     "--seed", "{seed}"),
    # exponential at alpha = 0.5 is a configuration error after laplace solved.
    ("calibrate", "--scenario", "{scenario}", "--mechanism", "laplace",
     "--mechanism", "exponential", "--mechanism", "winf",
     "--alpha", "0.5,2,inf", "--epsilon", "0.5,1"),
    ("calibrate", "--scenario", "{scenario}", "--mechanism", "laplace",
     "--mechanism", "gaussian", "--alpha", "1.5,4", "--epsilon", "0.5,1", "--jobs", "2"),
    ("calibrate", "--scenario", "{scenario}", "--mechanism", "gaussian",
     "--alpha", "2,inf", "--epsilon", "1"),
    ("sweep", "--scenario", "{scenario}", "--mechanism", "laplace", "--mechanism", "gaussian",
     "--mechanism", "exponential", "--mechanism", "winf", "--mechanism", "baseline-laplace",
     "--mechanism", "baseline-gaussian", "--alpha", "1.5,3", "--epsilon", "0.5,2",
     "--format", "json"),
    ("calibrate", "--scenario", "{scenario}", "--mechanism", "laplace",
     "--mechanism", "exponential", "--alpha", "1.5,2,4", "--epsilon", "0.5,1",
     "--tol", "1e-13"),
    # A vanishing sigma overflows the Gaussian exponents: verify is
    # inconclusive and breach certifies no interval.
    ("verify", "--scenario", "point-mass", "--mechanism", "gaussian",
     "--alpha", "2", "--epsilon", "1", "--parameter", "1e-300"),
    ("breach", "--scenario", "point-mass", "--mechanism", "gaussian",
     "--alpha", "2", "--epsilon", "1", "--parameter", "1e-300", "--n", "1000"),
)


def run_cli(tree: Path, argv: list[str], cwd: Path) -> tuple[bytes, bytes, int]:
    """The stdout and stderr of `python -m puffercal.cli argv` on tree/src, and the exit code."""
    env = dict(os.environ, PYTHONPATH=str(tree.resolve() / "src"), PUFFERCAL_JOBS="1")
    done = subprocess.run(
        [sys.executable, "-m", "puffercal.cli", *argv],
        cwd=cwd, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, check=False,
    )
    return done.stdout, done.stderr, done.returncode


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


def _rows(text: str) -> tuple[list, list[list[tuple[str, object]]]]:
    """(everything but the rows, the rows as (column, value) lists) of one stdout.

    sweep writes one CSV table or JSON document per mechanism: a CSV line
    equal to the first one is a header again, and the JSON documents are
    read one after another.
    """
    frames, rows = [], []
    if text.lstrip().startswith("{"):
        decoder, position = json.JSONDecoder(), 0
        while text[position:].strip():
            position += len(text[position:]) - len(text[position:].lstrip())
            document, position = decoder.raw_decode(text, position)
            rows.extend(list(row.items()) for row in document.pop("rows"))
            frames.append(document)
        return frames, rows
    lines = list(csv.reader(io.StringIO(text)))
    for line in lines:
        if line == lines[0]:
            frames.append(len(rows))
        else:
            rows.append(list(zip(lines[0], line)))
    return [lines[0], *frames], rows


def _number(value) -> float | None:
    if isinstance(value, bool):
        return None
    try:
        return float(value)
    except (TypeError, ValueError):
        return None


def numeric_drifts(before: str, after: str) -> dict[str, float] | None:
    """Largest relative drift of each numeric column that moved between two stdouts.

    None when the outputs differ in anything but numbers: the header or
    JSON keys, the row count or columns, or any text or flag field.
    """
    try:
        (frame_a, rows_a), (frame_b, rows_b) = _rows(before), _rows(after)
    except (ValueError, KeyError, AttributeError):
        return None
    if frame_a != frame_b or len(rows_a) != len(rows_b):
        return None
    drifts: dict[str, float] = {}
    for row_a, row_b in zip(rows_a, rows_b):
        if [column for column, _ in row_a] != [column for column, _ in row_b]:
            return None
        for (column, a), (_, b) in zip(row_a, row_b):
            if a == b:
                continue
            x, y = _number(a), _number(b)
            if x is None or y is None:
                return None
            if x == y or (math.isnan(x) and math.isnan(y)):
                continue
            drift = abs(y - x) / abs(x) if x != 0.0 else math.inf
            drifts[column] = max(drifts.get(column, 0.0), drift)
    return drifts


def commands(seed: int, directory: Path):
    """(label, argv) for every command at one seed, inputs written under directory."""
    for workload in WORKLOADS.values():
        scenario = write_inputs(workload, seed, directory / workload.name)
        extra = EXTRA_COMMANDS if workload.name == "verify-grid" else ()
        for index, command in enumerate((*workload.commands, *extra)):
            argv = command_argv(command, scenario, seed)
            kind = "bench" if index < len(workload.commands) else "extra"
            shown = " ".join(argv[:1] + argv[3:])  # without the --scenario path
            yield f"seed {seed} {workload.name} {kind} {index}: {shown}", argv


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path, help="source tree holding src/puffercal")
    parser.add_argument("change", type=Path, help="source tree holding src/puffercal")
    parser.add_argument("--seeds", default="11,13", help="comma-separated input seeds")
    parser.add_argument(
        "--rel-tol", type=float, default=None,
        help="accept stdout that differs only by numeric drifts within this relative bound",
    )
    args = parser.parse_args()
    for tree in (args.parent, args.change):
        if not (tree / "src" / "puffercal").is_dir():
            parser.error(f"{tree} has no src/puffercal")

    mismatches = within = total = 0
    with tempfile.TemporaryDirectory(prefix="compare_stdout_") as scratch:
        for seed in (int(token) for token in args.seeds.split(",")):
            for label, argv in commands(seed, Path(scratch) / str(seed)):
                before = run_cli(args.parent, argv, Path(scratch))
                after = run_cli(args.change, argv, Path(scratch))
                total += 1
                same = before == after
                print(f"{'same' if same else 'DIFF'} {label}")
                print(f"    parent out {_digest(before[0])} err {_digest(before[1])} exit {before[2]}")
                if not same:
                    print(f"    change out {_digest(after[0])} err {_digest(after[1])} exit {after[2]}")
                if not same and args.rel_tol is not None and before[1:] == after[1:]:
                    drifts = numeric_drifts(before[0].decode(), after[0].decode())
                    if drifts is None:
                        print("    non-numeric difference")
                    else:
                        for column, drift in sorted(drifts.items()):
                            print(f"    drift {column} {drift:.3g}")
                        if all(drift <= args.rel_tol for drift in drifts.values()):
                            within += 1
                            same = True
                mismatches += not same
                sys.stdout.flush()
    print(f"{total - mismatches - within} of {total} commands identical")
    if args.rel_tol is not None:
        print(f"{within} of {total} commands differ only by numeric drifts within {args.rel_tol:g}")
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main())
