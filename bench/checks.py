"""Correctness checks on the CLI's output, independent of how it is computed.

Each check reads one CLI call's exit code and stdout and returns how many
output rows were expected and how many of them failed. A non-zero exit
fails every expected row; a missing, duplicated or unexpected row fails
too. No check compares against a stored output of some earlier version,
so a change that corrects a result still passes as long as the result
meets the property being checked.
"""

import csv
import io
import math
import random
from dataclasses import dataclass, field

from workloads import grid_cells, option

# The solver promises the feasible side of the target up to this relative slack.
GUARANTEE_TOL = 1e-9
# Calibrate cells re-verified by quadrature per distinct output.
VERIFY_SAMPLE = 4
# Standard errors of sampling slack allowed above a Chernoff bound.
CHERNOFF_Z = 5.0
# Mechanisms whose condition is the transport functional against exp((alpha - 1) eps);
# the closed-form kinds compare their value against eps itself.
TRANSPORT_KINDS = {"laplace", "gaussian", "exponential"}


@dataclass
class Verdict:
    attempted: int
    failed: int = 0
    notes: list[str] = field(default_factory=list)

    def fail(self, count: int, note: str) -> None:
        self.failed = min(self.attempted, self.failed + count)
        if len(self.notes) < 20:
            self.notes.append(note)


def _truthy(text: str) -> bool:
    return text == "true"


def _rows_by_cell(argv, labels, code: int, stdout: str, verdict: Verdict):
    """Index the output rows by cell and pair; fail what is missing or extra."""
    cells = grid_cells(argv)
    if code != 0:
        verdict.fail(verdict.attempted, f"exit code {code}")
        return {}
    try:
        rows = list(csv.DictReader(io.StringIO(stdout)))
        keyed = {}
        for row in rows:
            key = (row["mechanism"], float(row["alpha"]), float(row["epsilon"]), row["pair"])
            if key in keyed:
                verdict.fail(1, f"duplicate row {key}")
            keyed[key] = row
    except (KeyError, ValueError, csv.Error) as exc:
        verdict.fail(verdict.attempted, f"unparseable output: {exc}")
        return {}
    by_cell = {}
    for cell in cells:
        by_cell[cell] = {}
        for label in labels:
            row = keyed.pop((*cell, label), None)
            if row is None:
                verdict.fail(1, f"missing row {cell} {label}")
            else:
                by_cell[cell][label] = row
    if keyed:
        verdict.fail(len(keyed), f"{len(keyed)} unexpected rows")
    return by_cell


def _log_target(kind: str, alpha: float, epsilon: float) -> float:
    return (alpha - 1.0) * epsilon if kind in TRANSPORT_KINDS else math.log(epsilon)


def _mechanism(kind: str, parameter: float):
    """The noise mechanism a calibrated row stands for."""
    from puffercal import ExponentialParams, GaussianParams, LaplaceParams

    if kind in ("gaussian", "baseline-gaussian"):
        return GaussianParams(sigma=parameter)
    if kind == "exponential":
        return ExponentialParams(scale=parameter)
    return LaplaceParams(scale=parameter)


def check_calibrate(argv, labels, code, stdout, seed: int, reverify_pairs) -> Verdict:
    """Rows of one `calibrate` call.

    Every cell has exactly one binding row, holding the cell's largest
    parameter; every parameter is finite and positive unless flagged
    no_noise_needed; every log functional value sits on the feasible side
    of its target. A seeded sample of cells is re-verified by quadrature at
    the binding parameter on `reverify_pairs`.
    """
    verdict = Verdict(attempted=len(grid_cells(argv)) * len(labels))
    by_cell = _rows_by_cell(argv, labels, code, stdout, verdict)
    for (kind, alpha, epsilon), rows in by_cell.items():
        if not rows:
            continue
        params = {label: float(row["parameter"]) for label, row in rows.items()}
        binding = [label for label, row in rows.items() if _truthy(row["binding"])]
        if len(binding) != 1 or params[binding[0]] < max(params.values()):
            verdict.fail(len(rows), f"cell {kind} {alpha} {epsilon}: binding rows {binding}")
        target = _log_target(kind, alpha, epsilon)
        slack = GUARANTEE_TOL * max(1.0, abs(target))
        for label, row in rows.items():
            param = params[label]
            if not ((math.isfinite(param) and param > 0.0) or _truthy(row["no_noise_needed"])):
                verdict.fail(1, f"{kind} {alpha} {epsilon} {label}: parameter {param!r}")
            elif not float(row["log_functional_value"]) <= target + slack:
                verdict.fail(1, f"{kind} {alpha} {epsilon} {label}: "
                                f"log functional {row['log_functional_value']} > {target!r}")
    cells = sorted(cell for cell, rows in by_cell.items() if len(rows) == len(labels))
    sample = random.Random(seed).sample(cells, min(VERIFY_SAMPLE, len(cells)))
    for kind, alpha, epsilon in sample:
        rows = by_cell[(kind, alpha, epsilon)]
        param = max(float(row["parameter"]) for row in rows.values())
        if not reverify(kind, alpha, epsilon, param, reverify_pairs):
            verdict.fail(len(rows), f"cell {kind} {alpha} {epsilon}: verify_rpp fails at {param!r}")
    return verdict


def reverify(kind: str, alpha: float, epsilon: float, parameter: float, pairs) -> bool:
    """True when verify_rpp passes, conclusively, for every pair at `parameter`."""
    from puffercal import PrivacySpec, ScenarioSet, verify_rpp
    from puffercal.errors import PuffercalError

    if parameter == 0.0 or not pairs:
        return True  # no noise needed, or nothing cheap enough to re-verify on
    try:
        reports = verify_rpp(ScenarioSet(pairs=tuple(pairs)), _mechanism(kind, parameter),
                             PrivacySpec(alpha=alpha, epsilon=epsilon))
    except PuffercalError:  # e.g. a non-finite parameter the mechanism rejects
        return False
    return all(r.passed is True and not r.inconclusive for r in reports)


def check_verify(argv, labels, code, stdout) -> Verdict:
    """Rows of one `verify` call: each passes and none is inconclusive."""
    verdict = Verdict(attempted=len(grid_cells(argv)) * len(labels))
    for cell, rows in _rows_by_cell(argv, labels, code, stdout, verdict).items():
        for label, row in rows.items():
            if not (_truthy(row["passed"]) and row["inconclusive"] == "false"):
                verdict.fail(1, f"{cell} {label}: passed={row['passed']} "
                                f"inconclusive={row['inconclusive']}")
    return verdict


def check_breach(argv, labels, code, stdout) -> Verdict:
    """Rows of one `breach` call.

    Each estimate lies in [0, 1], carries the requested sample count, and
    stays below its Chernoff bound, within sampling error, wherever that
    bound is below 1.
    """
    verdict = Verdict(attempted=len(grid_cells(argv)) * len(labels))
    draws = int(option(argv, "--n"))
    for cell, rows in _rows_by_cell(argv, labels, code, stdout, verdict).items():
        for label, row in rows.items():
            estimate = float(row["mc_breach_estimate"])
            bound = float(row["chernoff_bound"]) if row["chernoff_bound"] else math.inf
            if not 0.0 <= estimate <= 1.0:
                verdict.fail(1, f"{cell} {label}: estimate {estimate!r} outside [0, 1]")
            elif int(row["sample_count"]) != draws:
                verdict.fail(1, f"{cell} {label}: sample_count {row['sample_count']} != {draws}")
            elif bound < 1.0:
                error = CHERNOFF_Z * math.sqrt(bound * (1.0 - bound) / draws)
                if estimate > bound + error:
                    verdict.fail(1, f"{cell} {label}: estimate {estimate!r} > bound {bound!r}")
    return verdict


def check(argv, labels, code: int, stdout: str, seed: int, reverify_pairs) -> Verdict:
    """Dispatch on the CLI subcommand in argv[0]; a malformed cell fails every row."""
    try:
        if argv[0] == "calibrate":
            return check_calibrate(argv, labels, code, stdout, seed, reverify_pairs)
        if argv[0] == "verify":
            return check_verify(argv, labels, code, stdout)
        return check_breach(argv, labels, code, stdout)
    except (KeyError, ValueError, TypeError) as exc:
        verdict = Verdict(attempted=len(grid_cells(argv)) * len(labels))
        verdict.fail(verdict.attempted, f"malformed output: {exc!r}")
        return verdict

