"""Command-line interface: calibrate, verify, sweep, and breach subcommands.

Grids of (alpha, epsilon) cells are evaluated over a scenario set and the
results land as deterministic CSV or JSON tables: identical requests with
the same seed produce byte-identical files. Exit codes: 0 success,
2 configuration error, 3 solver failure, 4 failed verification.
"""

import argparse
import csv
import io
import json
import math
import os
import sys
import threading
from collections import deque
from contextlib import contextmanager
from pathlib import Path

from . import calibrate as cal
from . import ingest
from . import verify as ver
from .dist import DiscreteDistribution, PrivacySpec, ScenarioPair, ScenarioSet, noise_variance
from .errors import IntegrationFailure, InvalidValue, IoError, ParseError, PuffercalError, SolverFailure

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_SOLVER = 3
EXIT_VERIFY = 4

# Most values one start:stop:step range of --alpha or --epsilon may hold.
MAX_RANGE_VALUES = 10**6

# The options whose value may start with a minus sign.
_SIGNED_OPTIONS = ("--alpha", "--epsilon", "--parameter", "--tol")

CALIBRATE_COLUMNS = (
    "mechanism", "alpha", "epsilon", "pair", "parameter", "variance",
    "functional_value", "log_functional_value", "binding",
    "no_noise_needed", "experimental",
)
SWEEP_COLUMNS = ("alpha", "epsilon", "mechanism", "parameter", "variance")
VERIFY_COLUMNS = (
    "mechanism", "alpha", "epsilon", "pair", "parameter",
    "divergence_ij", "divergence_ji", "slack", "passed", "inconclusive",
    "chernoff_bound",
)
BREACH_COLUMNS = (
    "mechanism", "alpha", "epsilon", "pair", "parameter",
    "mc_breach_estimate", "mc_half_width", "chernoff_bound",
    "sample_count", "seed",
)


def _parse_grid(text: str, name: str) -> list[float]:
    """Parse '1.2,2,inf' lists and 'start:stop:step' ranges (mixable)."""
    values: list[float] = []
    for token in text.split(","):
        token = token.strip()
        if not token:
            continue
        if ":" in token:
            parts = token.split(":")
            if len(parts) != 3:
                raise InvalidValue(f"{name}: range syntax is start:stop:step, got {token!r}")
            try:
                start, stop, step = (float(p) for p in parts)
            except ValueError:
                raise InvalidValue(f"{name}: could not parse range {token!r}") from None
            if not all(math.isfinite(v) for v in (start, stop, step)):
                raise InvalidValue(f"{name}: range bounds must be finite, got {token!r}")
            if step <= 0 or stop < start:
                raise InvalidValue(f"{name}: bad range {token!r}")
            # Counted before any value is built: a range of 1e15 values would
            # never finish (and an overflowing ratio is inf).
            steps = (stop - start) / step + 1e-9
            if steps >= MAX_RANGE_VALUES:
                raise InvalidValue(
                    f"{name}: range {token!r} has more than {MAX_RANGE_VALUES} values"
                )
            values.extend(start + k * step for k in range(math.floor(steps) + 1))
        else:
            try:
                values.append(float(token))
            except ValueError:
                raise InvalidValue(f"{name}: could not parse value {token!r}") from None
    if not values:
        raise InvalidValue(f"{name}: grid is empty")
    return values


# The JSON types of the datasets entry fields of a scenario file; a null
# numeric_coding or column_names stands for an absent one.
_DATASET_FIELDS = dict.fromkeys(
    ("dataset_path", "x_attribute", "secret_attribute", "value_i", "value_j", "delimiter", "label"),
    str,
) | {"numeric_coding": (dict, type(None)), "drop_missing": bool, "column_names": (list, type(None))}


def _dataset_config(entry, k: int) -> ingest.ScenarioConfig:
    """A datasets entry of a scenario file as a ScenarioConfig, its JSON shape checked."""
    if not isinstance(entry, dict):
        raise InvalidValue(f"must be an object, got {entry!r}")
    fields = {"label": f"dataset-{k}"} | {f: entry[f] for f in _DATASET_FIELDS if f in entry}
    for field, value in fields.items():
        if not isinstance(value, _DATASET_FIELDS[field]):
            raise InvalidValue(f"{field} has the wrong JSON type: {value!r}")
    names, coding = fields.get("column_names"), fields.get("numeric_coding")
    if names and not all(isinstance(name, str) for name in names):
        raise InvalidValue(f"column_names must be strings, got {names!r}")
    if coding and not all(type(v) in (int, float) for v in coding.values()):
        raise InvalidValue(f"numeric_coding values must be numbers, got {coding!r}")
    if len(fields.get("delimiter", ",")) != 1:
        raise InvalidValue(f"delimiter must be one character, got {fields['delimiter']!r}")
    fields["column_names"] = tuple(names) if names else None
    # A required field left out raises TypeError, naming it.
    return ingest.ScenarioConfig(**fields)


def _resolve_scenarios(source: str, data_dir: Path) -> ScenarioSet:
    """Resolve a builtin scenario name or a JSON scenario file."""
    if source == "point-mass":
        return ScenarioSet(
            pairs=(
                ScenarioPair(
                    p_i=DiscreteDistribution((0.0,), (1.0,)),
                    p_j=DiscreteDistribution((1.0,), (1.0,)),
                    label="point-mass",
                ),
            )
        )
    builtin = {cfg.label: cfg for cfg in ingest.builtin_scenarios()}
    if source in builtin:
        cfg = builtin[source]
        dataset = data_dir / cfg.dataset_path
        if not dataset.exists():
            raise IoError(
                f"dataset file {dataset} not found; fetch it first "
                f"(scripts/fetch_datasets.py). {cfg.fetch_note}"
            )
        table = ingest.load_table(dataset, cfg.column_names, cfg.delimiter)
        return ScenarioSet(pairs=(ingest.scenario_pair_from_table(table, cfg),))
    path = Path(source)
    if not path.exists():
        raise InvalidValue(
            f"unknown scenario {source!r}: not a builtin "
            f"(point-mass, {', '.join(sorted(builtin))}) and not a file"
        )
    try:
        obj = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as exc:
        raise IoError(f"could not read scenario file {path}: {exc}") from exc
    if not isinstance(obj, dict) or not all(
        isinstance(obj.get(section, []), list) for section in ("pairs", "datasets")
    ):
        raise InvalidValue(
            f"scenario file {path}: must be a JSON object whose pairs and datasets are arrays"
        )
    pairs: list[ScenarioPair] = []
    tables: dict[tuple, ingest.Table] = {}
    for k, entry in enumerate(obj.get("pairs", [])):
        try:
            p = ingest.distribution_from_json(entry["p"])
            q = ingest.distribution_from_json(entry["q"])
        except (KeyError, TypeError, ParseError, InvalidValue) as exc:
            raise InvalidValue(f"scenario file {path}, pairs[{k}]: {exc}") from exc
        pairs.append(ScenarioPair(p_i=p, p_j=q, label=str(entry.get("label", f"pair-{k}"))))
    for k, entry in enumerate(obj.get("datasets", [])):
        try:
            cfg = _dataset_config(entry, k)
        except (TypeError, InvalidValue) as exc:
            raise InvalidValue(f"scenario file {path}, datasets[{k}]: {exc}") from exc
        dataset = Path(cfg.dataset_path)
        if not dataset.is_absolute():
            candidate = path.parent / dataset
            dataset = candidate if candidate.exists() else data_dir / dataset
        # Several pairs usually come from one table: load each file once.
        key = (dataset, cfg.column_names, cfg.delimiter)
        if key not in tables:
            tables[key] = ingest.load_table(dataset, cfg.column_names, cfg.delimiter)
        pairs.append(ingest.scenario_pair_from_table(tables[key], cfg))
    if not pairs:
        raise InvalidValue(f"scenario file {path} defines no pairs")
    return ScenarioSet(pairs=tuple(pairs))


def _format_cell(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _csv_text(columns, rows) -> str:
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(columns)
    for row in rows:
        writer.writerow([_format_cell(row.get(c)) for c in columns])
    return buffer.getvalue()


def _json_cell(value):
    if isinstance(value, float):
        if math.isnan(value):
            return None
        if math.isinf(value):
            return "inf" if value > 0 else "-inf"
    return value


def _json_text(command: str, columns, rows) -> str:
    payload = {
        "command": command,
        "rows": [{c: _json_cell(row.get(c)) for c in columns if c in row} for row in rows],
    }
    return json.dumps(payload, indent=2, allow_nan=False) + "\n"


def _emit(args, command: str, columns, rows, filename: str | None = None,
          json_columns=None) -> None:
    if args.format == "json":
        text = _json_text(command, json_columns or columns, rows)
        suffix = ".json"
    else:
        text = _csv_text(columns, rows)
        suffix = ".csv"
    sys.stdout.write(text)
    if args.out is not None:
        out_dir = Path(args.out)
        try:
            out_dir.mkdir(parents=True, exist_ok=True)
            (out_dir / ((filename or command) + suffix)).write_text(text, encoding="utf-8")
        except OSError as exc:
            raise InvalidValue(f"--out {out_dir}: {exc}") from exc


@contextmanager
def _naming_cell(kind, alpha, epsilon):
    """Re-raise a SolverFailure as its own class, naming the grid cell it came from."""
    try:
        yield
    except SolverFailure as exc:
        raise type(exc)(f"mechanism={kind} alpha={alpha!r} epsilon={epsilon!r}: {exc}") from exc


def _calibrated(scenarios, kind, cells, tol):
    """Each (alpha, epsilon) cell's per-pair results, solved as one grid.

    Yields the cells in order. A cell whose calibration failed raises its
    error when it is reached, so failures surface as if each cell were
    calibrated on its own: the first cell's, and within it the first pair's.
    """
    outcomes = [None] * len(cells)
    specs = {}
    for index, (alpha, epsilon) in enumerate(cells):
        try:
            specs[index] = PrivacySpec(alpha=alpha, epsilon=epsilon)
        except PuffercalError as exc:
            outcomes[index] = exc
    solved = cal.calibrate_grid(scenarios, kind, list(specs.values()), tol)
    for index, results in zip(specs, solved):
        outcomes[index] = results
    for (alpha, epsilon), outcome in zip(cells, outcomes):
        if isinstance(outcome, Exception):
            with _naming_cell(kind, alpha, epsilon):
                raise outcome
        yield outcome


def _calibrate_rows(scenarios, kind, cells, tol):
    """All per-pair rows of every cell, with each cell's binding pair flagged."""
    rows = []
    for (alpha, epsilon), results in zip(cells, _calibrated(scenarios, kind, cells, tol)):
        for index, result in enumerate(results):
            noise = cal.noise_for(kind, result.parameter)
            rows.append(
                {
                    "mechanism": kind,
                    "alpha": alpha,
                    "epsilon": epsilon,
                    "pair": scenarios.label(index),
                    "parameter": result.parameter,
                    "variance": 0.0 if noise is None else noise_variance(noise),
                    "functional_value": result.functional_value,
                    "log_functional_value": result.log_functional_value,
                    "binding": index == result.binding_pair_index,
                    "no_noise_needed": result.no_noise_needed,
                    "experimental": result.experimental,
                }
            )
    return rows


def _cell_parameters(args, scenarios, kind, cells):
    """Each cell's noise parameter in order: --parameter when given, else the
    binding parameter calibrated in-run."""
    if args.parameter is not None:
        # Adding 0.0 turns -0.0 into 0.0, so both spell the same zero noise.
        return [args.parameter + 0.0] * len(cells)
    return (
        results[results[0].binding_pair_index].parameter
        for results in _calibrated(scenarios, kind, cells, args.tol)
    )


def _verify_cell_rows(scenarios, kind, alpha, epsilon, parameter):
    """Verification rows for one (mechanism, alpha, epsilon, parameter) cell."""
    spec = PrivacySpec(alpha=alpha, epsilon=epsilon)
    reports = ver.verify_rpp(scenarios, cal.noise_for(kind, parameter), spec)
    return [
        {
            "mechanism": kind,
            "alpha": alpha,
            "epsilon": epsilon,
            "pair": report.pair_label,
            "parameter": parameter,
            "divergence_ij": report.divergence_ij,
            "divergence_ji": report.divergence_ji,
            "slack": report.slack,
            "passed": report.passed,
            "inconclusive": report.inconclusive,
            "chernoff_bound": report.chernoff_bound,
        }
        for report in reports
    ]


def _scenarios_and_cells(args):
    """The scenario set and the alpha-major (alpha, epsilon) cells.

    A bad --scenario is reported first, then a bad --alpha, then --epsilon.
    """
    scenarios = _resolve_scenarios(args.scenario, Path(args.data_dir))
    alphas = _parse_grid(args.alpha, "--alpha")
    epsilons = _parse_grid(args.epsilon, "--epsilon")
    return scenarios, [(a, e) for a in alphas for e in epsilons]


def cmd_calibrate(args) -> int:
    scenarios, cells = _scenarios_and_cells(args)
    rows = []
    for kind in args.mechanism or ["laplace"]:
        rows.extend(_calibrate_rows(scenarios, kind, cells, args.tol))
    _emit(args, "calibrate", CALIBRATE_COLUMNS, rows)
    if args.verify:
        return _reverify(scenarios, [row for row in rows if row["binding"]])
    return EXIT_OK


def _reverify(scenarios, binding_rows) -> int:
    """Verify each cell's binding parameter on every pair; one stderr line per failing cell."""
    status = EXIT_OK
    for row in binding_rows:
        reports = _verify_cell_rows(
            scenarios, row["mechanism"], row["alpha"], row["epsilon"], row["parameter"]
        )
        if any(r["passed"] is not True for r in reports):
            sys.stderr.write(
                f"verification failed: mechanism={row['mechanism']} "
                f"alpha={row['alpha']!r} epsilon={row['epsilon']!r}\n"
            )
            status = EXIT_VERIFY
    return status


def cmd_verify(args) -> int:
    scenarios, cells = _scenarios_and_cells(args)
    kind = args.mechanism
    rows = []
    for (alpha, epsilon), parameter in zip(cells, _cell_parameters(args, scenarios, kind, cells)):
        rows.extend(_verify_cell_rows(scenarios, kind, alpha, epsilon, parameter))
    _emit(args, "verify", VERIFY_COLUMNS, rows)
    if any(row["passed"] is not True for row in rows):
        return EXIT_VERIFY
    return EXIT_OK


def cmd_sweep(args) -> int:
    scenarios, cells = _scenarios_and_cells(args)
    status = EXIT_OK
    for kind in args.mechanism or ["laplace"]:
        rows = [row for row in _calibrate_rows(scenarios, kind, cells, args.tol) if row["binding"]]
        # The JSON form adds the binding pair label required by the schema.
        _emit(
            args, "sweep", SWEEP_COLUMNS, rows,
            filename=f"sweep_{kind}",
            json_columns=(*SWEEP_COLUMNS, "pair"),
        )
        if args.verify and _reverify(scenarios, rows) != EXIT_OK:
            status = EXIT_VERIFY
    return status


def _usable_cpus() -> int:
    """The CPUs this process may run on: its affinity set where the platform has one."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _concurrent_outcomes(coroutines) -> list:
    """Each coroutine's return value, or the exception it raised, in order.

    The coroutines take turns, one step each: W = min(len(coroutines),
    usable CPUs) workers, W - 1 daemon threads and this thread (so W = 1
    runs them inline and starts no thread), each take the coroutine that
    has waited longest among those no worker is stepping, advance it one
    step and hand it back. So no worker waits while a coroutine that is
    not being stepped has steps left. Once coroutine k fails, those after
    k take no further step and their outcomes stay None, while those
    before k run to their end: every outcome up to the first failure in
    order is there, as in a serial run.
    """
    outcomes = [None] * len(coroutines)
    waiting = deque(range(len(coroutines)))
    stepping = 0
    failed = len(coroutines)
    turn = threading.Condition()

    def take():
        nonlocal stepping
        with turn:
            while True:
                while not waiting and stepping:
                    turn.wait()
                if not waiting:
                    return None
                index = waiting.popleft()
                if index < failed:
                    stepping += 1
                    return index

    def work():
        nonlocal stepping, failed
        while (index := take()) is not None:
            more = False
            try:
                next(coroutines[index])
                more = True
            except StopIteration as stop:
                outcomes[index] = stop.value
            except Exception as exc:
                outcomes[index] = exc
            with turn:
                stepping -= 1
                if more:
                    waiting.append(index)
                elif isinstance(outcomes[index], Exception):
                    failed = min(failed, index)
                turn.notify_all()

    threads = [threading.Thread(target=work, daemon=True)
               for _ in range(min(len(coroutines), _usable_cpus()) - 1)]
    for thread in threads:
        thread.start()
    work()
    for thread in threads:
        thread.join()
    return outcomes


def cmd_breach(args) -> int:
    scenarios, cells = _scenarios_and_cells(args)
    kind = args.mechanism
    rows = []
    for (alpha, epsilon), parameter in zip(cells, _cell_parameters(args, scenarios, kind, cells)):
        spec = PrivacySpec(alpha=alpha, epsilon=epsilon)
        mech = cal.noise_for(kind, parameter)
        # Each pair draws from its own generators (seed + index) and numpy
        # releases the GIL while drawing, so the pairs' chunks run
        # concurrently and every estimate is the one a serial run gives.
        draws = _concurrent_outcomes([
            ver.monte_carlo_breach_steps(pair.p_i, pair.p_j, mech, epsilon, args.n,
                                         args.seed + index)
            for index, pair in enumerate(scenarios.pairs)
        ])
        for index, (pair, outcome) in enumerate(zip(scenarios.pairs, draws)):
            if isinstance(outcome, MemoryError):
                raise InvalidValue(f"--n {args.n} is too large: {outcome}") from outcome
            if isinstance(outcome, Exception):
                raise outcome
            estimate, half_width = outcome
            chernoff = None
            if 1.0 < alpha < math.inf:
                try:
                    divergence = ver.renyi_divergence_numeric(pair.p_i, pair.p_j, mech, alpha)
                except IntegrationFailure:
                    divergence = math.nan
                if math.isfinite(divergence):
                    chernoff = ver.chernoff_breach_bound(divergence, spec)
            rows.append(
                {
                    "mechanism": kind,
                    "alpha": alpha,
                    "epsilon": epsilon,
                    "pair": scenarios.label(index),
                    "parameter": parameter,
                    "mc_breach_estimate": estimate,
                    "mc_half_width": half_width,
                    "chernoff_bound": chernoff,
                    "sample_count": args.n,
                    "seed": args.seed + index,
                }
            )
    _emit(args, "breach", BREACH_COLUMNS, rows)
    return EXIT_OK


def _add_common_arguments(parser: argparse.ArgumentParser, multi_mechanism: bool) -> None:
    parser.add_argument(
        "--scenario",
        required=True,
        help="builtin name (point-mass, adult, heart-disease, student-performance) "
        "or a JSON scenario file",
    )
    parser.add_argument("--alpha", default="2", help="comma list and/or start:stop:step ranges; 'inf' allowed")
    parser.add_argument("--epsilon", default="1", help="comma list and/or start:stop:step ranges")
    if multi_mechanism:
        parser.add_argument(
            "--mechanism",
            action="append",
            choices=cal.MECHANISM_KINDS,
            help="repeatable; defaults to laplace",
        )
    else:
        parser.add_argument(
            "--mechanism", default="laplace", choices=cal.MECHANISM_KINDS
        )
    parser.add_argument("--out", default=None, help="directory for output files")
    parser.add_argument("--format", default="csv", choices=("csv", "json"))
    parser.add_argument("--tol", type=float, default=1e-9, help="solver relative tolerance")
    parser.add_argument("--seed", type=int, default=0, help="non-negative Monte-Carlo base seed")
    parser.add_argument(
        "--jobs",
        type=int,
        default=1,
        help="accepted and ignored: each mechanism's grid is solved in one pass",
    )
    parser.add_argument(
        "--data-dir",
        default=os.environ.get("PUFFERCAL_DATA_DIR", "data"),
        help="directory holding fetched dataset files (env PUFFERCAL_DATA_DIR)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="puffercal",
        description="Calibrate and verify additive-noise mechanisms for "
        "order-alpha pufferfish privacy budgets.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_cal = sub.add_parser("calibrate", help="solve noise parameters over a grid")
    _add_common_arguments(p_cal, multi_mechanism=True)
    p_cal.add_argument("--verify", action="store_true", help="re-verify every emitted parameter")
    p_cal.set_defaults(handler=cmd_calibrate)

    p_ver = sub.add_parser("verify", help="check the divergence bound per pair")
    _add_common_arguments(p_ver, multi_mechanism=False)
    p_ver.add_argument("--parameter", type=float, default=None, help="noise parameter; calibrated in-run when omitted")
    p_ver.set_defaults(handler=cmd_verify)

    p_sweep = sub.add_parser("sweep", help="emit per-mechanism plot-data files")
    _add_common_arguments(p_sweep, multi_mechanism=True)
    p_sweep.add_argument("--verify", action="store_true", help="re-verify every emitted parameter")
    p_sweep.set_defaults(handler=cmd_sweep)

    p_breach = sub.add_parser("breach", help="Monte-Carlo breach probability estimate")
    _add_common_arguments(p_breach, multi_mechanism=False)
    p_breach.add_argument("--parameter", type=float, default=None, help="noise parameter; calibrated in-run when omitted")
    p_breach.add_argument("--n", type=int, default=100000, help="Monte-Carlo sample count (>= 1000)")
    p_breach.set_defaults(handler=cmd_breach)
    return parser


def _joined_signed_values(argv: list[str]) -> list[str]:
    """argv with each signed value joined to its _SIGNED_OPTIONS option, as in --alpha=-1e-300.

    argparse reads a value that starts with '-' as an option unless it
    looks like -1 or -1.5, so --alpha -1e-300 or --alpha -inf would be a
    usage error. A signed value starts with '-' and a digit or '.', or is
    -inf, -infinity or -nan in any case, as float() reads them. The option
    may be abbreviated, as --alp: no other option of any command starts
    with the letter of a _SIGNED_OPTIONS name, so argparse expands every
    such prefix to that name, or, where the command lacks it, reads both
    spellings as the same usage error.
    """
    joined: list[str] = []
    for token in argv:
        signed = token[:1] == "-" and (
            token[1:2] in tuple("0123456789.") or token[1:].lower() in ("inf", "infinity", "nan")
        )
        option = joined[-1] if joined else ""
        if signed and len(option) > 2 and any(name.startswith(option) for name in _SIGNED_OPTIONS):
            joined[-1] += "=" + token
        else:
            joined.append(token)
    return joined


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(_joined_signed_values(sys.argv[1:] if argv is None else argv))
    try:
        if not (math.isfinite(args.tol) and args.tol >= 0.0):
            raise InvalidValue(f"--tol must be finite and non-negative, got {args.tol!r}")
        if args.seed < 0:
            raise InvalidValue(f"--seed must be non-negative, got {args.seed!r}")
        return args.handler(args)
    except SolverFailure as exc:
        sys.stderr.write(f"solver failure: {exc}\n")
        return EXIT_SOLVER
    except PuffercalError as exc:
        sys.stderr.write(f"configuration error: {exc}\n")
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
