import json
import math
import random

import pytest

from puffercal import (
    DiscreteDistribution,
    ScenarioConfig,
    builtin_scenarios,
    conditional_distribution,
    load_table,
    scenario_pair_from_table,
)
from puffercal.dist import build_empirical
from puffercal.ingest import Table, distribution_from_json
from puffercal.errors import (
    EmptyConditional,
    EmptySample,
    InvalidValue,
    IoError,
    ParseError,
    UnknownCategory,
)


@pytest.fixture
def fixture_csv(tmp_path):
    path = tmp_path / "toy.csv"
    path.write_text("x,s\n1,a\n1,a\n2,b\n", encoding="utf-8")
    return path


@pytest.fixture
def toy_config():
    return ScenarioConfig(
        dataset_path="toy.csv",
        x_attribute="x",
        secret_attribute="s",
        value_i="a",
        value_j="b",
    )


class TestLoadTable:
    def test_three_row_fixture(self, fixture_csv):
        table = load_table(fixture_csv)
        assert table.columns == ("x", "s")
        assert len(table.rows) == 3

    def test_missing_file(self, tmp_path):
        with pytest.raises(IoError):
            load_table(tmp_path / "nope.csv")

    def test_ragged_row_named(self, tmp_path):
        path = tmp_path / "ragged.csv"
        path.write_text("a,b\n1,2\n3,4,5\n", encoding="utf-8")
        with pytest.raises(ParseError, match="row 3"):
            load_table(path)

    def test_headerless_with_column_names(self, tmp_path):
        path = tmp_path / "raw.data"
        path.write_text("39, State-gov, 13\n50, Private, 9\n", encoding="utf-8")
        table = load_table(path, column_names=("age", "workclass", "edu"))
        assert len(table.rows) == 2
        assert table.rows[0] == ("39", "State-gov", "13")

    def test_semicolon_delimiter(self, tmp_path):
        path = tmp_path / "semi.csv"
        path.write_text('a;b\n"x";1\n', encoding="utf-8")
        table = load_table(path, delimiter=";")
        assert table.rows == (("x", "1"),)

    def test_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "blank.csv"
        path.write_text("a,b\n1,2\n\n3,4\n\n", encoding="utf-8")
        assert len(load_table(path).rows) == 2

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("", encoding="utf-8")
        with pytest.raises(ParseError):
            load_table(path)

    def test_unknown_column(self, fixture_csv):
        table = load_table(fixture_csv)
        with pytest.raises(InvalidValue, match="not found"):
            table.column_index("missing")


class TestConditionalDistribution:
    def test_value_i(self, fixture_csv, toy_config):
        table = load_table(fixture_csv)
        dist = conditional_distribution(table, toy_config, "i")
        assert dist.atoms == (1.0,)
        assert dist.masses == (1.0,)

    def test_value_j(self, fixture_csv, toy_config):
        table = load_table(fixture_csv)
        dist = conditional_distribution(table, toy_config, "j")
        assert dist.atoms == (2.0,)
        assert dist.masses == (1.0,)

    def test_whitespace_trimmed_matching(self, tmp_path, toy_config):
        path = tmp_path / "spaced.csv"
        path.write_text("x,s\n1,  a\n2,b \n", encoding="utf-8")
        table = load_table(path)
        assert conditional_distribution(table, toy_config, "i").atoms == (1.0,)

    def test_no_matching_rows(self, fixture_csv):
        table = load_table(fixture_csv)
        config = ScenarioConfig(
            dataset_path="toy.csv",
            x_attribute="x",
            secret_attribute="s",
            value_i="zz",
            value_j="b",
        )
        with pytest.raises(EmptyConditional):
            conditional_distribution(table, config, "i")

    def test_numeric_coding(self, tmp_path):
        path = tmp_path / "coded.csv"
        path.write_text("grade,s\nlow,a\nhigh,a\nlow,b\n", encoding="utf-8")
        table = load_table(path)
        config = ScenarioConfig(
            dataset_path="coded.csv",
            x_attribute="grade",
            secret_attribute="s",
            value_i="a",
            value_j="b",
            numeric_coding={"low": 1.0, "high": 3.0},
        )
        dist = conditional_distribution(table, config, "i")
        assert dist.atoms == (1.0, 3.0)
        assert dist.masses == (0.5, 0.5)

    def test_unknown_category_raises_without_drop(self, tmp_path):
        path = tmp_path / "coded.csv"
        path.write_text("grade,s\nlow,a\nmystery,a\n", encoding="utf-8")
        table = load_table(path)
        config = ScenarioConfig(
            dataset_path="coded.csv",
            x_attribute="grade",
            secret_attribute="s",
            value_i="a",
            value_j="b",
            numeric_coding={"low": 1.0},
            drop_missing=False,
        )
        with pytest.raises(UnknownCategory):
            conditional_distribution(table, config, "i")

    def test_missing_sentinel_dropped(self, tmp_path):
        path = tmp_path / "missing.csv"
        path.write_text("x,s\n1,a\n?,a\n2,a\n", encoding="utf-8")
        table = load_table(path)
        config = ScenarioConfig(
            dataset_path="missing.csv",
            x_attribute="x",
            secret_attribute="s",
            value_i="a",
            value_j="b",
        )
        dist = conditional_distribution(table, config, "i")
        assert dist.atoms == (1.0, 2.0)

    def test_missing_sentinel_errors_when_not_dropping(self, tmp_path):
        path = tmp_path / "missing.csv"
        path.write_text("x,s\n1,a\n?,a\n", encoding="utf-8")
        table = load_table(path)
        config = ScenarioConfig(
            dataset_path="missing.csv",
            x_attribute="x",
            secret_attribute="s",
            value_i="a",
            value_j="b",
            drop_missing=False,
        )
        with pytest.raises(UnknownCategory):
            conditional_distribution(table, config, "i")

    def test_deterministic_serialization(self, fixture_csv, toy_config):
        table = load_table(fixture_csv)
        first = conditional_distribution(table, toy_config, "i")
        second = conditional_distribution(table, toy_config, "i")
        assert json.dumps([first.atoms, first.masses]) == json.dumps([second.atoms, second.masses])

    def test_scenario_pair(self, fixture_csv, toy_config):
        pair = scenario_pair_from_table(load_table(fixture_csv), toy_config)
        assert pair.p_i.atoms == (1.0,)
        assert pair.p_j.atoms == (2.0,)
        assert "a" in pair.label and "b" in pair.label



def _row_by_row(table, config, which):
    """conditional_distribution as a walk over every row tuple: the reference."""
    target = (config.value_i if which == "i" else config.value_j).strip()
    x_idx = table.column_index(config.x_attribute)
    s_idx = table.column_index(config.secret_attribute)
    coding = config.numeric_coding or {}
    samples = []
    for row in table.rows:
        if row[s_idx] != target:
            continue
        cell = row[x_idx]
        if cell in ("", "?"):
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
        samples.append(value)
    if not samples:
        raise EmptyConditional(
            f"no rows with {config.secret_attribute}={target!r} yielded a value"
        )
    return build_empirical(samples)


def _outcome(build, *args):
    """The error raised, or the distributions' bits (so 0.0 and -0.0 differ)."""
    try:
        built = build(*args)
    except (UnknownCategory, EmptyConditional, EmptySample, InvalidValue) as exc:
        return type(exc), str(exc)
    dists = (built.p_i, built.p_j) if hasattr(built, "p_i") else (built,)
    return [([a.hex() for a in d.atoms], [m.hex() for m in d.masses]) for d in dists]


class TestColumnSelection:
    """conditional_distribution reads two columns; the outcome is the row walk's."""

    # "2" and "2.0" parse to one atom, as do "0" and "-0" (whichever comes
    # first is kept); "nan" and "inf" parse but are not finite, so they
    # take the coding, and a coding to nan fails in build_empirical.
    CELLS = ("1", "2", "2.0", "2", "3.5", "-0", "0", "?", "", "low", "high", "mystery",
             "nan", "inf")

    def test_matches_row_by_row_reference(self):
        rng = random.Random(20261018)
        outcomes = set()
        for trial in range(300):
            rows = tuple(
                (rng.choice(self.CELLS), rng.choice(("a", "b", "c")), str(rng.random()))
                for _ in range(rng.randint(1, 12))
            )
            table = Table(columns=("x", "s", "noise"), rows=rows)
            config = ScenarioConfig(
                dataset_path="t.csv",
                x_attribute="x",
                secret_attribute="s",
                value_i=" a" if trial % 2 else "a",
                value_j="b",
                numeric_coding=(
                    {"low": 0.0, "high": 9.0, "nan": 4.0, "inf": math.nan if trial % 5 else 5.0}
                    if trial % 3 else None
                ),
                drop_missing=trial % 4 != 0,
            )
            wants = [_outcome(_row_by_row, table, config, which) for which in ("i", "j")]
            for which, want in zip(("i", "j"), wants):
                assert _outcome(conditional_distribution, table, config, which) == want
                outcomes.add(want[0] if isinstance(want, tuple) else "distribution")
            errors = [want for want in wants if isinstance(want, tuple)]
            want_pair = errors[0] if errors else wants[0] + wants[1]
            assert _outcome(scenario_pair_from_table, table, config) == want_pair
        # Every outcome kind was exercised.
        assert outcomes == {"distribution", UnknownCategory, EmptyConditional, InvalidValue}

    def test_first_offending_row_raises(self):
        rows = (("1", "a"), ("mystery", "b"), ("?", "a"), ("other", "a"))
        table = Table(columns=("x", "s"), rows=rows)
        config = ScenarioConfig(
            dataset_path="t.csv", x_attribute="x", secret_attribute="s",
            value_i="a", value_j="b", drop_missing=False,
        )
        with pytest.raises(UnknownCategory, match="missing 'x' value"):
            conditional_distribution(table, config, "i")
        with pytest.raises(UnknownCategory, match="'mystery'"):
            conditional_distribution(table, config, "j")

class TestDistributionJson:
    """The distribution objects of scenario files, as the CLI reads them."""

    def test_round_trip_exact(self):
        dist = DiscreteDistribution(
            atoms=(0.1, 1 / 3, 2.0000000000000004), masses=(0.25, 0.5, 0.25)
        )
        text = json.dumps({"atoms": list(dist.atoms), "masses": list(dist.masses), "label": "probe"})
        loaded, label = distribution_from_json(json.loads(text))
        assert loaded.atoms == dist.atoms
        assert loaded.masses == dist.masses
        assert label == "probe"

    def test_malformed_rejected(self):
        with pytest.raises(ParseError):
            distribution_from_json(json.loads('{"atoms": [1, 2]}'))


class TestBuiltinScenarios:
    def test_three_scenarios(self):
        assert len(builtin_scenarios()) == 3

    def test_adult_secret_values(self):
        adult = next(c for c in builtin_scenarios() if c.label == "adult")
        assert adult.value_i == "Husband"
        assert adult.value_j == "Not-in-family"
        assert adult.x_attribute == "education-num"
        assert adult.column_names is not None

    def test_student_final_grade(self):
        student = next(
            c for c in builtin_scenarios() if c.label == "student-performance"
        )
        assert student.x_attribute == "G3"
        assert student.delimiter == ";"

    def test_fetch_notes_present(self):
        for config in builtin_scenarios():
            assert "http" in config.fetch_note


class TestScenarioConfigValidation:
    def test_same_attributes_rejected(self):
        with pytest.raises(InvalidValue):
            ScenarioConfig(
                dataset_path="x.csv",
                x_attribute="a",
                secret_attribute="a",
                value_i="u",
                value_j="v",
            )

    def test_same_values_rejected(self):
        with pytest.raises(InvalidValue):
            ScenarioConfig(
                dataset_path="x.csv",
                x_attribute="a",
                secret_attribute="b",
                value_i="u",
                value_j="u",
            )
