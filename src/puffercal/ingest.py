"""Tabular ingestion: CSV loading and secret-conditioned empirical distributions.

Loads delimiter-separated text tables (header row optional), filters rows
by a secret attribute, maps the data attribute to reals, and builds the
empirical distribution. Also reads the JSON distribution objects of
scenario files.
"""

import csv
import math
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping, Optional, Union

from .dist import DiscreteDistribution, ScenarioPair, build_empirical
from .errors import (
    EmptyConditional,
    InvalidValue,
    IoError,
    ParseError,
    UnknownCategory,
)

# UCI convention: "?" marks a missing value.
_MISSING_TOKENS = {"", "?"}


@dataclass(frozen=True)
class Table:
    """In-memory table of text cells with named columns."""

    columns: tuple[str, ...]
    rows: tuple[tuple[str, ...], ...]

    def column_index(self, name: str) -> int:
        try:
            return self.columns.index(name)
        except ValueError:
            raise InvalidValue(
                f"column {name!r} not found; available: {', '.join(self.columns)}"
            ) from None


def load_table(
    path: Union[str, Path],
    column_names: Optional[tuple[str, ...]] = None,
    delimiter: str = ",",
) -> Table:
    """Load a delimiter-separated UTF-8 text file into a Table.

    With column_names the whole file is data (UCI files ship without a
    header row); otherwise the first row is the header. Cells are
    whitespace-trimmed; fully empty lines are skipped. A ragged row raises
    ParseError naming the row.
    """
    path = Path(path)
    if not path.exists():
        raise IoError(f"no such file: {path}")
    try:
        with path.open("r", encoding="utf-8", newline="") as handle:
            raw_rows = [
                tuple(map(str.strip, row)) for row in csv.reader(handle, delimiter=delimiter)
            ]
    except OSError as exc:
        raise IoError(f"could not read {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path} is not valid UTF-8: {exc}") from exc

    raw_rows = [row for row in raw_rows if any(row)]
    if not raw_rows:
        raise ParseError(f"{path} contains no rows")

    if column_names is None:
        columns = raw_rows[0]
        data_rows = raw_rows[1:]
        first_data_line = 2
    else:
        columns = tuple(column_names)
        data_rows = raw_rows
        first_data_line = 1
    if not data_rows:
        raise ParseError(f"{path} has a header but no data rows")
    for offset, row in enumerate(data_rows):
        if len(row) != len(columns):
            raise ParseError(
                f"{path} row {first_data_line + offset}: expected "
                f"{len(columns)} fields, got {len(row)}"
            )
    return Table(columns=columns, rows=tuple(data_rows))


@dataclass(frozen=True)
class ScenarioConfig:
    """How to carve one secret pair out of a tabular dataset."""

    dataset_path: str
    x_attribute: str
    secret_attribute: str
    value_i: str
    value_j: str
    numeric_coding: Optional[Mapping[str, float]] = None
    drop_missing: bool = True
    column_names: Optional[tuple[str, ...]] = None
    delimiter: str = ","
    label: str = ""
    fetch_note: str = ""

    def __post_init__(self):
        if self.x_attribute == self.secret_attribute:
            raise InvalidValue("x_attribute and secret_attribute must differ")
        if self.value_i == self.value_j:
            raise InvalidValue("the two secret values must differ")


def conditional_distribution(
    table: Table, config: ScenarioConfig, which: str
) -> DiscreteDistribution:
    """Empirical distribution of the data attribute given one secret value.

    Rows match on a whitespace-trimmed exact comparison of the secret
    cell. Data cells parse as floats, falling back to numeric_coding;
    missing ("?" or empty) and uncodable cells are dropped when
    drop_missing is set and raise UnknownCategory otherwise (at the first
    such row). The matching rows' data cells are counted in one pass and
    each distinct cell is parsed once; the count keeps the cells in order
    of first occurrence, so the first offending distinct cell is the
    first offending row's.
    """
    if which not in ("i", "j"):
        raise InvalidValue(f"which must be 'i' or 'j', got {which!r}")
    target = (config.value_i if which == "i" else config.value_j).strip()
    x_idx = table.column_index(config.x_attribute)
    s_idx = table.column_index(config.secret_attribute)
    coding = config.numeric_coding or {}

    values, counts = [], []
    for cell, count in Counter([row[x_idx] for row in table.rows if row[s_idx] == target]).items():
        if cell in _MISSING_TOKENS:
            if config.drop_missing:
                continue
            raise UnknownCategory(
                f"missing {config.x_attribute!r} value in a row with "
                f"{config.secret_attribute}={target!r}"
            )
        try:
            value = float(cell)
        except ValueError:
            value = None
        if value is None or not math.isfinite(value):
            if cell in coding:
                value = float(coding[cell])
            elif config.drop_missing:
                continue
            else:
                raise UnknownCategory(
                    f"no numeric coding for category {cell!r} in column "
                    f"{config.x_attribute!r}"
                )
        values.append(value)
        counts.append(count)
    if not values:
        raise EmptyConditional(
            f"no rows with {config.secret_attribute}={target!r} yielded a value"
        )
    return build_empirical(values, counts)


def scenario_pair_from_table(table: Table, config: ScenarioConfig) -> ScenarioPair:
    """Both conditional distributions of a config, packaged as a scenario pair."""
    return ScenarioPair(
        p_i=conditional_distribution(table, config, "i"),
        p_j=conditional_distribution(table, config, "j"),
        label=config.label
        or f"{config.secret_attribute}={config.value_i} vs {config.value_j}",
    )


_ADULT_COLUMNS = (
    "age", "workclass", "fnlwgt", "education", "education-num",
    "marital-status", "occupation", "relationship", "race", "sex",
    "capital-gain", "capital-loss", "hours-per-week", "native-country",
    "income",
)

_HEART_COLUMNS = (
    "age", "sex", "cp", "trestbps", "chol", "fbs", "restecg", "thalach",
    "exang", "oldpeak", "slope", "ca", "thal", "num",
)


def builtin_scenarios() -> list[ScenarioConfig]:
    """The three benchmark dataset scenarios, with fetch notes (no downloading here).

    The adult education attribute is categorical; the companion ordinal
    education-num column is used as its numeric coding by default, which
    is an assumption (a metric on the data values is required) and is
    recorded in the fetch note. Run scripts/fetch_datasets.py to download
    the files.
    """
    return [
        ScenarioConfig(
            dataset_path="adult.data",
            x_attribute="education-num",
            secret_attribute="relationship",
            value_i="Husband",
            value_j="Not-in-family",
            column_names=_ADULT_COLUMNS,
            label="adult",
            fetch_note=(
                "UCI adult (census income), file adult.data, no header; "
                "education is represented by its ordinal education-num coding. "
                "https://archive.ics.uci.edu/ml/machine-learning-databases/adult/adult.data"
            ),
        ),
        ScenarioConfig(
            dataset_path="processed.cleveland.data",
            x_attribute="oldpeak",
            secret_attribute="fbs",
            value_i="0.0",
            value_j="1.0",
            column_names=_HEART_COLUMNS,
            label="heart-disease",
            fetch_note=(
                "UCI heart disease (processed Cleveland), no header; fbs cells "
                "read '0.0'/'1.0'. https://archive.ics.uci.edu/ml/"
                "machine-learning-databases/heart-disease/processed.cleveland.data"
            ),
        ),
        ScenarioConfig(
            dataset_path="student-mat.csv",
            x_attribute="G3",
            secret_attribute="guardian",
            value_i="mother",
            value_j="father",
            delimiter=";",
            label="student-performance",
            fetch_note=(
                "UCI student performance, semicolon-separated with header; the "
                "math-course file student-mat.csv is used. https://archive.ics."
                "uci.edu/ml/machine-learning-databases/00320/student.zip"
            ),
        ),
    ]


def distribution_from_json(obj: dict) -> tuple[DiscreteDistribution, str]:
    try:
        atoms = tuple(float(a) for a in obj["atoms"])
        masses = tuple(float(m) for m in obj["masses"])
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"malformed distribution object: {exc}") from exc
    return DiscreteDistribution(atoms=atoms, masses=masses), str(obj.get("label", ""))
