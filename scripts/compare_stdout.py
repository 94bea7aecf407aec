#!/usr/bin/env python3
"""Compare the CLI's stdout and stderr between two source trees, command by command.

Usage:
    python scripts/compare_stdout.py PARENT_TREE CHANGE_TREE --seeds 11,13 [--rel-tol X]

The extreme scenarios of tests/test_cli_sweep.py, and for every seed the
benchmark inputs (bench/workloads.py of this repository: the synthetic
census table and each workload's scenario), are written to a temporary
directory. Every benchmark workload's commands, plus
EXTRA_COMMANDS on the verify-grid scenario, CALIBRATE_GRID_COMMANDS on the
calibrate-grid scenario and the commands of _EXTREME_GRIDS on the extreme
scenarios, then run through `python -m puffercal.cli` once with each
tree's `src/` on PYTHONPATH. One line per command gives the sha256 of
stdout, the sha256 of stderr and the exit code under each tree; stderr
carries the error message, so a failing grid must fail on the same cell
and pair.

Then, once for all seeds, every command of tests/test_cli_sweep.py's
product (6,138) runs through cli.main in one process per tree,
both on this repository's product and scenario files, with the tree's
path in any output normalized. Only the sweep commands that differ are
printed. The script exits 1 when any command's stdout, stderr or exit
code differs between the trees, 0 when all match.

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
import contextlib
import csv
import hashlib
import io
import json
import math
import os
import subprocess
import sys
import tempfile
import traceback
import warnings
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(REPO / "bench"), str(REPO / "tests")]

from workloads import (  # noqa: E402
    ALL_MECHANISMS,
    WORKLOADS,
    command_argv,
    import_puffercal,
    write_inputs,
)

# Run by one child process per tree: every command of tests/test_cli_sweep.py's
# product through that tree's cli.main.
_SWEEP_CHILD = "import sys, compare_stdout; compare_stdout.sweep_child(*sys.argv[1:])"

# Commands beyond the benchmark's, run on the verify-grid scenario: orders
# from 0.5 to 20 and inf, fixed parameters where calibration needs a
# finite order above one, the --verify re-check paths, JSON output, Monte
# Carlo runs within one draw chunk and across several (zero noise and the
# exponential mechanism too) and runs that draw nothing, grids mixing
# sub-unit, solved and closed-form cells, a Laplace grid whose sub-unit
# and solved cells share lockstep rounds, the ignored --jobs, a tight --tol, two grids that fail
# part-way, two runs on the built-in point-mass scenario whose numpy
# warnings would show as a stderr diff, two point-mass calibrations
# whose noise variance is past the float range, and point-mass runs at a
# subnormal epsilon, whose parameter would overflow: three alpha = inf
# calibrations, the five finite-order kinds' alpha = 2 calibrations, and
# a Gaussian verify and a Laplace breach that calibrate in-run; last,
# point-mass calibrations re-verified at alpha 100 and epsilon 10, where
# (alpha - 1) D = 990 puts the verifier's integrand past the float range.
EXTRA_COMMANDS = (
    ("verify", "--scenario", "{scenario}", "--mechanism", "laplace",
     "--alpha", "1.5,3,8,20", "--epsilon", "0.5,1"),
    ("verify", "--scenario", "{scenario}", "--mechanism", "laplace",
     "--alpha", "0.5,inf", "--epsilon", "0.5,1,2"),
    ("verify", "--scenario", "{scenario}", "--mechanism", "gaussian",
     "--alpha", "1.5,3,8,20", "--epsilon", "0.5,1"),
    ("verify", "--scenario", "{scenario}", "--mechanism", "gaussian",
     "--alpha", "0.5,2,inf", "--epsilon", "1", "--parameter", "3.0"),
    # Gaussian alpha = inf on narrow noise, and on noise wide enough that
    # the supremum search adds tail segments past the 12-sigma window.
    *(
        ("verify", "--scenario", "{scenario}", "--mechanism", "gaussian",
         "--alpha", "inf", "--epsilon", "1", "--parameter", sigma)
        for sigma in ("0.05", "40")
    ),
    # Gaussian noise far narrower than the atom gaps, whose peaks the
    # quadrature reaches by cutting those gaps 12 sigma inside each atom.
    ("verify", "--scenario", "{scenario}", "--mechanism", "gaussian",
     "--alpha", "2,10", "--epsilon", "1", "--parameter", "0.01"),
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
    # Narrow noise: 2 to 44 certified intervals per pair, so the draws left
    # after the widest interval's are sorted and searched in every chunk.
    ("breach", "--scenario", "{scenario}", "--mechanism", "laplace",
     "--alpha", "2", "--epsilon", "0.5,1", "--parameter", "0.05", "--n", "200000",
     "--seed", "{seed}"),
    ("breach", "--scenario", "{scenario}", "--mechanism", "gaussian",
     "--alpha", "2", "--epsilon", "0.5,1", "--parameter", "0.05", "--n", "200000",
     "--seed", "{seed}"),
    # Laplace-type noise so narrow against the atom spacing that each atom's
    # draws settle in a certified interval of their own, some above epsilon
    # and some below: breach counts them from a mixed per-atom table.
    *(
        ("breach", "--scenario", "{scenario}", "--mechanism", kind,
         "--alpha", "2", "--epsilon", "0.5,1", "--parameter", "0.005", "--n", "150001",
         "--seed", "{seed}")
        for kind in ("laplace", "exponential")
    ),
    # Zero noise, and the exponential mechanism's Monte Carlo.
    ("breach", "--scenario", "{scenario}", "--mechanism", "laplace",
     "--alpha", "2", "--epsilon", "0.5,1", "--parameter", "0", "--n", "150001",
     "--seed", "{seed}"),
    ("breach", "--scenario", "{scenario}", "--mechanism", "exponential",
     "--alpha", "2", "--epsilon", "0.5", "--parameter", "2.5", "--n", "150001",
     "--seed", "{seed}"),
    # Per-atom tables that give every atom one class, so nothing is drawn:
    # zero noise on the point-mass pair, where every draw breaches, and the
    # calibrated exponential mechanism, where none does.
    ("breach", "--scenario", "point-mass", "--mechanism", "laplace",
     "--alpha", "2", "--epsilon", "1", "--parameter", "0", "--n", "1000",
     "--seed", "{seed}"),
    ("breach", "--scenario", "{scenario}", "--mechanism", "exponential",
     "--alpha", "2", "--epsilon", "1", "--n", "1000000", "--seed", "{seed}"),
    # exponential at alpha = 0.5 is a configuration error after laplace solved.
    ("calibrate", "--scenario", "{scenario}", "--mechanism", "laplace",
     "--mechanism", "exponential", "--mechanism", "winf",
     "--alpha", "0.5,2,inf", "--epsilon", "0.5,1"),
    ("calibrate", "--scenario", "{scenario}", "--mechanism", "laplace",
     "--alpha", "0.2,0.5,0.9,2,4,inf", "--epsilon", "0.25,1,4", "--format", "json"),
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
    ("calibrate", "--scenario", "point-mass", "--mechanism", "laplace",
     "--alpha", "2", "--epsilon", "1e-200"),
    ("calibrate", "--scenario", "point-mass", "--mechanism", "laplace",
     "--alpha", "0.5", "--epsilon", "1e-300"),
    *(
        ("calibrate", "--scenario", "point-mass", "--mechanism", kind,
         "--alpha", "inf", "--epsilon", "1e-310")
        for kind in ("laplace", "winf", "exponential")
    ),
    *(
        ("calibrate", "--scenario", "point-mass", "--mechanism", kind,
         "--alpha", "2", "--epsilon", "1e-310")
        for kind in ("laplace", "gaussian", "exponential", "baseline-laplace",
                     "baseline-gaussian")
    ),
    ("verify", "--scenario", "point-mass", "--mechanism", "gaussian",
     "--alpha", "2", "--epsilon", "1e-310"),
    ("breach", "--scenario", "point-mass", "--mechanism", "laplace",
     "--alpha", "2", "--epsilon", "1e-310", "--n", "1000"),
    *(
        ("calibrate", "--scenario", "point-mass", "--mechanism", kind,
         "--alpha", "100", "--epsilon", "10", "--verify")
        for kind in ("gaussian", "laplace", "exponential")
    ),
)


# Gaussian and Laplace breach runs whose pairs' chunks take turns on the
# workers: the calibrate-grid scenario's four pairs (more than a 2-CPU
# machine's workers, the ~10^3-atom wage pair among them) and the one pair
# of point-mass, calibrated in-run and at a narrow fixed parameter, at an
# --n that is not a multiple of the 2^16-draw chunk.
CALIBRATE_GRID_COMMANDS = tuple(
    ("breach", "--scenario", scenario, "--mechanism", kind, "--alpha", "2",
     "--epsilon", "1", *parameter, "--n", "200003", "--seed", "{seed}")
    for scenario in ("{scenario}", "point-mass")
    for kind in ("gaussian", "laplace")
    for parameter in ((), ("--parameter", "0.05"))
)


# (scenario, command, --parameter, alphas, kinds) at epsilon 1 and, for
# breach, --n 1000: every cell of tests/test_cli_sweep.py's grid on the
# extreme scenarios that ends in rows. A calibrate row is one command over
# its kinds; the others are one command per kind.
_EXTREME_GRIDS = (
    *(
        grid
        for scenario in ("opposite-ends", "shared-ends")
        for grid in (
            (scenario, "calibrate", None, "0.5,2,inf", ("laplace", "winf")),
            (scenario, "calibrate", None, "2,inf", ("exponential",)),
            (scenario, "calibrate", None, "2", ("baseline-laplace",)),
            (scenario, "verify", None, "0.5,2,inf", ("laplace", "winf")),
            (scenario, "verify", None, "2,inf", ("exponential",)),
            (scenario, "verify", None, "2", ("baseline-laplace",)),
            (scenario, "breach", None, "0.5,2,inf", ("laplace", "winf")),
            (scenario, "breach", None, "2,inf", ("exponential",)),
            (scenario, "breach", None, "2", ("baseline-laplace",)),
        )
    ),
    ("subnormal-gaps", "calibrate", None, "2,inf", ("laplace",)),
    ("subnormal-gaps", "calibrate", None, "0.5,2,inf", ("winf",)),
    ("subnormal-gaps", "calibrate", None, "2", ("baseline-laplace",)),
    ("subnormal-gaps", "verify", None, "inf", ("laplace",)),
    ("subnormal-gaps", "verify", None, "0.5,inf", ("winf",)),
    ("subnormal-gaps", "breach", None, "2,inf", ("laplace",)),
    ("subnormal-gaps", "breach", None, "0.5,2,inf", ("winf",)),
    ("subnormal-gaps", "breach", None, "2", ("baseline-laplace",)),
    *(
        ("subnormal-gaps", "verify", parameter, alphas, kinds)
        for parameter in ("1e-12", "1e6")
        for alphas, kinds in (
            ("0.5,2,inf", ("laplace", "exponential", "winf", "baseline-laplace")),
            ("0.5,2", ("gaussian", "baseline-gaussian")),
        )
    ),
    *(
        (scenario, "breach", parameter, "0.5,2,inf", ALL_MECHANISMS)
        for scenario in ("opposite-ends", "shared-ends", "subnormal-gaps")
        for parameter in ("1e-12", "1e6")
    ),
)


def extreme_commands(paths: dict[str, str]):
    """The argv of every _EXTREME_GRIDS command, on the scenario files at paths."""
    for scenario, command, parameter, alphas, kinds in _EXTREME_GRIDS:
        per_command = [kinds] if command == "calibrate" else [(kind,) for kind in kinds]
        for group in per_command:
            argv = [command, "--scenario", str(paths[scenario])]
            for kind in group:
                argv += ["--mechanism", kind]
            argv += ["--alpha", alphas, "--epsilon", "1"]
            if parameter is not None:
                argv += ["--parameter", parameter]
            if command == "breach":
                argv += ["--n", "1000", "--seed", "{seed}"]
            yield argv


def run_cli(tree: Path, argv: list[str], cwd: Path) -> tuple[bytes, bytes, int]:
    """The stdout and stderr of `python -m puffercal.cli argv` on tree/src, and the exit code."""
    env = dict(os.environ, PYTHONPATH=str(tree.resolve() / "src"))
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


def commands(seed: int, directory: Path, extreme: dict[str, str]):
    """(label, argv) for every command at one seed, benchmark inputs written
    under directory and the extreme scenarios at the paths of extreme."""
    for workload in WORKLOADS.values():
        scenario = write_inputs(workload, seed, directory / workload.name)
        extra = {"verify-grid": EXTRA_COMMANDS, "calibrate-grid": CALIBRATE_GRID_COMMANDS}.get(
            workload.name, ()
        )
        for index, command in enumerate((*workload.commands, *extra)):
            argv = command_argv(command, scenario, seed)
            kind = "bench" if index < len(workload.commands) else "extra"
            shown = " ".join(argv[:1] + argv[3:])  # without the --scenario path
            yield f"seed {seed} {workload.name} {kind} {index}: {shown}", argv
    for index, command in enumerate(extreme_commands(extreme)):
        argv = [arg.replace("{seed}", str(seed)) for arg in command]
        shown = " ".join([argv[0], Path(argv[2]).stem, *argv[3:]])
        yield f"seed {seed} extreme {index}: {shown}", argv


def _in_process(main, argv: list[str]) -> list:
    """[exit code, stdout, stderr] of main(argv) in this process.

    A warning adds a 'warning:' line to stderr, and an exception its
    traceback with exit code None.
    """
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
            except Exception:
                code = None
                err.write(traceback.format_exc())
    err.writelines(f"warning: {w.category.__name__}: {w.message}\n" for w in caught)
    return [code, out.getvalue(), err.getvalue()]


def sweep_argvs(extreme: dict[str, str]) -> list[list[str]]:
    """The argv of every command of tests/test_cli_sweep.py's product, the
    extreme scenarios at the paths of extreme."""
    from test_cli_sweep import _argv, _product

    return [_argv(command, extreme.get(scenario, scenario), *rest)
            for command, scenario, *rest in _product()]


def sweep_child(tree: str, extreme: str, out: str) -> None:
    """Write to out, as JSON, the [exit code, stdout, stderr] of every
    sweep_argvs command under tree's cli.main, run in this process."""
    import_puffercal(Path(tree))
    from puffercal import cli

    outcomes = [_in_process(cli.main, argv) for argv in sweep_argvs(json.loads(extreme))]
    Path(out).write_text(json.dumps(outcomes), encoding="utf-8")


def sweep_outcomes(tree: Path, extreme: dict[str, str], scratch: Path) -> list[tuple]:
    """(stdout, stderr, exit code) of every sweep_argvs command under tree,
    run in one child process, with tree's path normalized."""
    out = scratch / "sweep.json"
    subprocess.run(
        [sys.executable, "-c", _SWEEP_CHILD, str(tree), json.dumps(extreme), str(out)],
        cwd=scratch, env=dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent)),
        check=True,
    )
    root = str(tree.resolve())
    return [
        (stdout.replace(root, "<tree>").encode(), stderr.replace(root, "<tree>").encode(), code)
        for code, stdout, stderr in json.loads(out.read_text(encoding="utf-8"))
    ]


def judge(label: str, before, after, rel_tol: float | None, show_same: bool = True) -> str:
    """Print how one command's (stdout, stderr, exit code) compares between
    the trees; return 'same', 'within' (numeric drifts within rel_tol) or 'diff'."""
    same = before == after
    if show_same or not same:
        print(f"{'same' if same else 'DIFF'} {label}")
        print(f"    parent out {_digest(before[0])} err {_digest(before[1])} exit {before[2]}")
    if same:
        return "same"
    print(f"    change out {_digest(after[0])} err {_digest(after[1])} exit {after[2]}")
    if rel_tol is None or before[1:] != after[1:]:
        return "diff"
    drifts = numeric_drifts(before[0].decode(), after[0].decode())
    if drifts is None:
        print("    non-numeric difference")
        return "diff"
    for column, drift in sorted(drifts.items()):
        print(f"    drift {column} {drift:.3g}")
    return "within" if all(drift <= rel_tol for drift in drifts.values()) else "diff"


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
    # tests/test_cli_sweep.py, which holds the extreme scenarios, imports puffercal.
    import_puffercal(REPO)
    from test_cli_sweep import EXTREME_SCENARIOS, _write_scenario

    verdicts = {"same": 0, "within": 0, "diff": 0}
    sweep_verdicts = dict(verdicts)
    with tempfile.TemporaryDirectory(prefix="compare_stdout_") as scratch:
        scratch = Path(scratch)
        (scratch / "extreme").mkdir()
        extreme = {name: _write_scenario(scratch / "extreme" / f"{name}.json", *pair)
                   for name, pair in EXTREME_SCENARIOS.items()}
        for seed in (int(token) for token in args.seeds.split(",")):
            for label, argv in commands(seed, scratch / str(seed), extreme):
                before = run_cli(args.parent, argv, scratch)
                after = run_cli(args.change, argv, scratch)
                verdicts[judge(label, before, after, args.rel_tol)] += 1
                sys.stdout.flush()
        # The sweep product, once for all seeds.
        labels = [
            f"sweep {index}: " + " ".join([argv[0], Path(argv[2]).stem, *argv[3:]])
            for index, argv in enumerate(sweep_argvs(extreme))
        ]
        outcomes = [sweep_outcomes(tree, extreme, scratch) for tree in (args.parent, args.change)]
        for label, before, after in zip(labels, *outcomes, strict=True):
            sweep_verdicts[judge(label, before, after, args.rel_tol, show_same=False)] += 1
    for name, counts in (("commands", verdicts), ("sweep commands", sweep_verdicts)):
        total = sum(counts.values())
        print(f"{counts['same']} of {total} {name} identical")
        if args.rel_tol is not None:
            print(f"{counts['within']} of {total} {name} differ only by numeric drifts "
                  f"within {args.rel_tol:g}")
    return 1 if verdicts["diff"] or sweep_verdicts["diff"] else 0


if __name__ == "__main__":
    sys.exit(main())
