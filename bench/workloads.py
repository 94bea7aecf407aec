"""Seeded inputs for the benchmark workloads.

Every input comes from one synthetic census-like CSV table that
`make_table` builds from the workload seed. The program sees only that
table and a scenario JSON per workload, which reaches it through the
`datasets` route of `--scenario`; the benchmark never hands it
distributions directly.

Atom counts are fixed by construction, not by the seed: every integer
support value appears at least once on both sides of its secret, and the
continuous pair's two sides have a fixed row count. The seed moves the
masses and the continuous values, so work per run stays comparable across
seeds while the inputs differ. Nothing here steers the data away from a
known defect: integer-valued pairs whose cumulative masses collide in
floating point stay in.
"""

import csv
import io
import json
import random
import sys
from dataclasses import dataclass
from pathlib import Path

COLUMNS = (
    "age", "workclass", "education-num", "marital-status", "relationship",
    "race", "sex", "hours-per-week", "hourly-wage", "income",
)

_WORKCLASS = ("Private", "Self-emp-not-inc", "Local-gov", "State-gov", "Federal-gov")
_RELATIONSHIP = ("Husband", "Not-in-family", "Own-child", "Unmarried", "Wife", "Other-relative")
_MARITAL = ("Married-civ-spouse", "Never-married", "Divorced", "Separated", "Widowed")
_RACE = ("White", "Black", "Asian-Pac-Islander", "Amer-Indian-Eskimo", "Other")

TABLE_ROWS = 2000
# Continuous pair: fixed side sizes, so the pair has about 10^3 atoms per side.
INCOME_SIDES = (("<=50K", 1200), (">50K", 800))


@dataclass(frozen=True)
class PairSpec:
    """One secret pair carved out of the table (a `datasets` scenario entry)."""

    label: str
    x_attribute: str
    secret_attribute: str
    value_i: str
    value_j: str
    support: tuple[int, int] | None  # inclusive integer support; None = continuous


# Three integer-valued pairs in the UCI shape (16, 40 and 70 support values)
# and one continuous pair.
SMALL_PAIRS = (
    PairSpec("education", "education-num", "relationship", "Husband", "Not-in-family", (1, 16)),
    PairSpec("hours", "hours-per-week", "sex", "Male", "Female", (25, 64)),
    PairSpec("age", "age", "marital-status", "Married-civ-spouse", "Never-married", (17, 86)),
)
CONTINUOUS_PAIR = PairSpec("wage", "hourly-wage", "income", "<=50K", ">50K", None)


def _clip(value: float, lo: int, hi: int) -> int:
    return max(lo, min(hi, int(round(value))))


# Mean education-num by relationship: the secret shifts the data attribute,
# as it does in the UCI adult table, so the pairs are far from identical.
_EDUCATION_MEAN = {"Husband": 11.2, "Not-in-family": 9.6, "Own-child": 9.2, "Unmarried": 9.4,
                   "Wife": 10.8, "Other-relative": 8.8}


def _random_row(rng: random.Random) -> dict:
    """A census-like row; shapes loosely follow the UCI adult marginals."""
    relationship = rng.choices(_RELATIONSHIP, weights=(40, 26, 15, 10, 5, 4))[0]
    marital = rng.choices(_MARITAL, weights=(46, 33, 14, 3, 4))[0]
    sex = rng.choices(("Male", "Female"), weights=(67, 33))[0]
    if marital == "Never-married":
        age = 17 + rng.gammavariate(1.6, 7.0)
    elif marital == "Married-civ-spouse":
        age = 21 + rng.gammavariate(4.0, 5.5)
    else:
        age = 25 + rng.gammavariate(3.0, 8.0)
    education = _clip(rng.gauss(_EDUCATION_MEAN[relationship], 2.4), 1, 16)
    hours = rng.gauss((42.0 if sex == "Male" else 36.0) + 0.6 * (education - 10), 8.0)
    return {
        "age": _clip(age, 17, 86),
        "workclass": rng.choices(_WORKCLASS, weights=(70, 8, 7, 5, 3))[0],
        "education-num": education,
        "marital-status": marital,
        "relationship": relationship,
        "race": rng.choices(_RACE, weights=(85, 10, 3, 1, 1))[0],
        "sex": sex,
        "hours-per-week": _clip(hours, 25, 64),
    }


def make_table(seed: int) -> str:
    """The CSV text (with header) of the synthetic table for one seed."""
    rng = random.Random(seed)
    rows = [_random_row(rng) for _ in range(TABLE_ROWS)]
    # Coverage rows: every support value of every integer pair appears on
    # both sides of its secret, which fixes each pair's atom count.
    cursor = 0
    for spec in SMALL_PAIRS:
        lo, hi = spec.support
        for secret in (spec.value_i, spec.value_j):
            for value in range(lo, hi + 1):
                rows[cursor][spec.x_attribute] = value
                rows[cursor][spec.secret_attribute] = secret
                cursor += 1
    incomes = [label for label, count in INCOME_SIDES for _ in range(count)]
    rng.shuffle(incomes)
    for row, income in zip(rows, incomes):
        row["income"] = income
        # Distinct-valued continuous column on the same scale as the integer
        # pairs' displacements, shifted up for the higher income band.
        mode = 18.0 if income == ">50K" else 14.0
        row["hourly-wage"] = round(rng.triangular(5.0, 45.0, mode), 4)
    rng.shuffle(rows)
    buffer = io.StringIO()
    writer = csv.DictWriter(buffer, fieldnames=COLUMNS, lineterminator="\n")
    writer.writeheader()
    writer.writerows(rows)
    return buffer.getvalue()


def scenario(table_name: str, pairs) -> dict:
    """Scenario JSON object: one `datasets` entry per pair, all on one table."""
    return {
        "datasets": [
            {
                "dataset_path": table_name,
                "x_attribute": spec.x_attribute,
                "secret_attribute": spec.secret_attribute,
                "value_i": spec.value_i,
                "value_j": spec.value_j,
                "label": spec.label,
            }
            for spec in pairs
        ]
    }


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    pairs: tuple[PairSpec, ...]
    # CLI argument lists, one per call in a pass; "{scenario}" and "{seed}"
    # are filled in by command_argv.
    commands: tuple[tuple[str, ...], ...]
    draws_per_pair: int = 0
    # The same pass at --jobs 2, run only by the traced run for the pool speedup.
    pool_commands: tuple[tuple[str, ...], ...] = ()

    @property
    def cells(self) -> int:
        return sum(len(grid_cells(argv)) for argv in self.commands)


def _options(argv, name: str) -> list[str]:
    return [argv[i + 1] for i, arg in enumerate(argv[:-1]) if arg == name]


def _grid(text: str) -> list[float]:
    return [float(token) for token in text.split(",")]


def grid_cells(argv) -> list[tuple[str, float, float]]:
    """(mechanism, alpha, epsilon) cells that one CLI call covers."""
    kinds = _options(argv, "--mechanism") or ["laplace"]
    alphas = _grid(option(argv, "--alpha"))
    epsilons = _grid(option(argv, "--epsilon"))
    return [(k, a, e) for k in kinds for a in alphas for e in epsilons]


def option(argv, name: str) -> str:
    return _options(argv, name)[0]


def _single_command(sub: str, kind: str, alphas: str, epsilons: str, *extra: str):
    return (sub, "--scenario", "{scenario}", "--mechanism", kind, "--alpha", alphas,
            "--epsilon", epsilons, *extra)


ALL_MECHANISMS = ("laplace", "gaussian", "exponential", "winf", "baseline-laplace",
                  "baseline-gaussian")
CAL_ALPHAS = "1.5,2,3,5"
CAL_EPSILONS = "0.25,0.5,1,2"
VERIFY_ALPHAS = "1.5,2,4"
VERIFY_EPSILONS = "0.5,1"
VERIFY_INF_EPSILONS = "1"
BREACH_DRAWS = 1_000_000


def calibrate_commands(jobs: int):
    argv = ["calibrate", "--scenario", "{scenario}", "--alpha", CAL_ALPHAS,
            "--epsilon", CAL_EPSILONS, "--jobs", str(jobs)]
    for kind in ALL_MECHANISMS:
        argv += ["--mechanism", kind]
    return (tuple(argv),)


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="calibrate-grid",
            why="one calibrate run of all six mechanisms on a finite grid; time is in the "
            "transport functional, exponential noise variance and coupling builds",
            pairs=(*SMALL_PAIRS, CONTINUOUS_PAIR),
            commands=calibrate_commands(jobs=1),
            pool_commands=calibrate_commands(jobs=2),
        ),
        Workload(
            name="verify-grid",
            why="verify at finite orders and alpha=inf; time is in posterior densities and "
            "quadrature, so it is the no-change control for solver work",
            pairs=SMALL_PAIRS,
            commands=(
                _single_command("verify", "laplace", VERIFY_ALPHAS, VERIFY_EPSILONS),
                _single_command("verify", "gaussian", VERIFY_ALPHAS, VERIFY_EPSILONS),
                _single_command("verify", "exponential", VERIFY_ALPHAS, VERIFY_EPSILONS),
                _single_command("verify", "laplace", "inf", VERIFY_INF_EPSILONS),
                _single_command("verify", "exponential", "inf", VERIFY_INF_EPSILONS),
            ),
        ),
        Workload(
            name="breach-mc",
            why="Monte Carlo breach estimates on bulk random points; the gaussian half is the "
            "control for a Laplace-only density kernel",
            pairs=SMALL_PAIRS,
            commands=tuple(
                _single_command("breach", kind, "2", "1", "--n", str(BREACH_DRAWS),
                                "--seed", "{seed}")
                for kind in ("laplace", "gaussian")
            ),
            draws_per_pair=BREACH_DRAWS,
        ),
    )
}

TABLE_NAME = "census.csv"
SCENARIO_NAME = "scenario.json"


def write_inputs(workload: Workload, seed: int, directory: Path) -> Path:
    """Write the table and the workload's scenario JSON; return the scenario path."""
    directory.mkdir(parents=True, exist_ok=True)
    (directory / TABLE_NAME).write_text(make_table(seed), encoding="utf-8")
    path = directory / SCENARIO_NAME
    path.write_text(json.dumps(scenario(TABLE_NAME, workload.pairs), indent=2) + "\n",
                    encoding="utf-8")
    return path


def command_argv(command, scenario_path: Path, seed: int) -> list[str]:
    return [
        arg.replace("{scenario}", str(scenario_path)).replace("{seed}", str(seed))
        for arg in command
    ]


def load_pairs(scenario_path: Path, labels=None) -> list:
    """The scenario's pairs (those with the given labels), built by puffercal.ingest."""
    from puffercal import ingest

    pairs = []
    for entry in json.loads(scenario_path.read_text(encoding="utf-8"))["datasets"]:
        if labels is not None and entry["label"] not in labels:
            continue
        config = ingest.ScenarioConfig(
            dataset_path=entry["dataset_path"], x_attribute=entry["x_attribute"],
            secret_attribute=entry["secret_attribute"], value_i=entry["value_i"],
            value_j=entry["value_j"], label=entry["label"],
        )
        table = ingest.load_table(scenario_path.parent / config.dataset_path)
        pairs.append(ingest.scenario_pair_from_table(table, config))
    return pairs


def import_puffercal(root: Path):
    """Import puffercal from root/src, refusing any other installed copy."""
    src = (root / "src").resolve()
    sys.path.insert(0, str(src))
    import puffercal

    if Path(puffercal.__file__).resolve().parent != src / "puffercal":
        raise ImportError(f"imported puffercal from {puffercal.__file__}, not from {src}")
    return puffercal
