"""One benchmark step in a fresh interpreter; run by run.py, not by hand.

    python3 bench/child.py setup ROOT SCENARIO RESULT
    python3 bench/child.py run ROOT RESULT STDOUT TRACE -- CLI_ARGS...

`setup` imports puffercal from ROOT/src and loads every `datasets` entry
of the scenario through `puffercal.ingest`, which is what each CLI call
pays before it computes anything, and records when it finished. `run`
calls `puffercal.cli.main` with CLI_ARGS exactly as the `puffercal` entry
point would, writes what the CLI printed to STDOUT, and records the call's
wall time and the process's peak resident set size in RESULT; with
TRACE=1 the call is traced.
"""

import contextlib
import io
import json
import resource
import sys
import time
from pathlib import Path

from spans import Tracer
from workloads import import_puffercal, load_pairs


def setup(root: Path, scenario_path: Path, result_path: Path) -> None:
    start = time.perf_counter()
    import_puffercal(root)
    imported = time.perf_counter()
    pairs = load_pairs(scenario_path)
    loaded = time.perf_counter()
    result_path.write_text(json.dumps({
        "import_s": imported - start, "load_s": loaded - imported, "pairs": len(pairs),
        # CLOCK_MONOTONIC is shared by all processes, so the parent can time
        # this process from its launch to here.
        "done_monotonic": time.monotonic(),
    }), encoding="utf-8")


def run(root: Path, result_path: Path, stdout_path: Path, traced: bool, argv: list[str]) -> None:
    import_puffercal(root)
    import puffercal.cli

    tracer = None
    if traced:
        tracer = Tracer()
        tracer.install()
    captured = io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(captured):
        try:
            code = puffercal.cli.main(argv)
        except SystemExit as exc:  # argparse rejects bad arguments this way
            code = exc.code if isinstance(exc.code, int) else 2
    main_s = time.perf_counter() - start
    stdout_path.write_text(captured.getvalue(), encoding="utf-8", newline="")
    result_path.write_text(json.dumps({
        "exit_code": code,
        "main_s": main_s,
        "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "spans": tracer.spans if tracer else None,
        "missing": tracer.missing if tracer else [],
    }), encoding="utf-8")


def main(argv: list[str]) -> None:
    mode, root = argv[0], Path(argv[1])
    if mode == "setup":
        setup(root, Path(argv[2]), Path(argv[3]))
    elif mode == "run":
        split = argv.index("--")
        run(root, Path(argv[2]), Path(argv[3]), argv[4] == "1", argv[split + 1:])
    else:
        raise SystemExit(f"unknown mode {mode!r}")


if __name__ == "__main__":
    main(sys.argv[1:])
