"""Spans around the public functions of each puffercal layer, and their metrics.

`install` runs inside a benchmark child process, before the CLI: it wraps
each target function at every `puffercal` module attribute bound to it, so
calls through `from .x import f` copies are recorded too. Each span is
`[name, start, end, parent, extra]`, kept in memory and written out when
the child ends. `layer_metrics` turns one traced pass into the per-layer
metrics. Nothing here touches the package's source; a target that a later
version no longer has is listed as missing and its metrics read zero.
"""

import functools
import math
import statistics
import sys
import time

LAYERS = ("ingest", "transport", "calibrate", "dist", "verify", "cli")

# name: (unit, better); BENCHMARK.json lists the same metrics. The last
# three are computed by run.py from whole passes rather than from spans.
PER_LAYER = {
    "ingest.self_s": ("s", "lower"),
    "ingest.load_table.calls": ("count", "lower"),
    "ingest.load_table.s": ("s", "lower"),
    "ingest.load_table.distinct_frac": ("fraction", "higher"),
    "transport.self_s": ("s", "lower"),
    "transport.coupling.calls": ("count", "lower"),
    "transport.coupling.s": ("s", "lower"),
    "transport.coupling.distinct_frac": ("fraction", "higher"),
    "transport.coupling.entries_mean": ("count", "lower"),
    "transport.functional.calls": ("count", "lower"),
    "transport.functional.s": ("s", "lower"),
    "transport.functional.mean_us": ("us", "lower"),
    "calibrate.self_s": ("s", "lower"),
    "calibrate.solves": ("count", "lower"),
    "calibrate.evals_per_solve": ("count", "lower"),
    "calibrate.iterations_mean": ("count", "lower"),
    "calibrate.solve_p50_ms": ("ms", "lower"),
    "calibrate.solve_tail_ms": ("ms", "lower"),
    "calibrate.solve_tail_pct": ("%", "higher"),
    "dist.self_s": ("s", "lower"),
    "dist.noise_variance.calls": ("count", "lower"),
    "dist.noise_variance.s": ("s", "lower"),
    "dist.posterior_density.calls": ("count", "lower"),
    "dist.posterior_density.evals": ("count", "lower"),
    "dist.posterior_density.s": ("s", "lower"),
    "dist.sample_noise.s": ("s", "lower"),
    "verify.self_s": ("s", "lower"),
    "verify.divergence_finite.calls": ("count", "lower"),
    "verify.divergence_finite.s": ("s", "lower"),
    "verify.divergence_finite.p50_ms": ("ms", "lower"),
    "verify.divergence_finite.tail_ms": ("ms", "lower"),
    "verify.divergence_finite.tail_pct": ("%", "higher"),
    "verify.divergence_inf.calls": ("count", "lower"),
    "verify.divergence_inf.s": ("s", "lower"),
    "verify.monte_carlo.draws": ("count", "higher"),
    "verify.monte_carlo.s": ("s", "lower"),
    "verify.monte_carlo.draws_per_s": ("draws/s", "higher"),
    "verify.inconclusive": ("count", "lower"),
    "cli.self_s": ("s", "lower"),
    "trace.main_s": ("s", "lower"),
    "trace.overhead_frac": ("fraction", "lower"),
    "trace.missing_targets": ("count", "lower"),
    "cli.pool_speedup_jobs2": ("ratio", "higher"),
}


def _divergence_name(args, kwargs):
    alpha = kwargs.get("alpha", args[3] if len(args) > 3 else None)
    return "verify.divergence_inf" if alpha == math.inf else "verify.divergence_finite"


def _atoms(dist) -> int:
    return len(dist.atoms)


def _evals_many(args, kwargs, result):
    return {"evals": int(result.size) * _atoms(kwargs.get("prior", args[1]))}


def _evals_one(args, kwargs, result):
    return {"evals": _atoms(kwargs.get("prior", args[1]))}


def _coupling(args, kwargs, result):
    return {"key": hash((args[0], args[1])), "entries": len(result.entries)}


# (module, attribute, span name or name(args, kwargs), extra(args, kwargs, result))
TARGETS = (
    ("puffercal.cli", "main", "cli.main", None),
    ("puffercal.ingest", "load_table", "ingest.load_table",
     lambda a, k, r: {"key": str(k.get("path", a[0] if a else ""))}),
    ("puffercal.ingest", "scenario_pair_from_table", "ingest.scenario_pair", None),
    ("puffercal.transport", "monotone_coupling", "transport.coupling", _coupling),
    ("puffercal.transport", "coupling_log_expectation", "transport.functional", None),
    ("puffercal.calibrate", "calibrate_pair", "calibrate.solve",
     lambda a, k, r: {"iterations": r.iterations}),
    ("puffercal.calibrate", "calibrate_over_scenarios", "calibrate.over_scenarios", None),
    ("puffercal.dist", "noise_variance", "dist.noise_variance", None),
    ("puffercal.dist", "posterior_log_density_many", "dist.posterior_density", _evals_many),
    ("puffercal.dist", "posterior_log_density", "dist.posterior_density", _evals_one),
    ("puffercal.dist", "sample_noise", "dist.sample_noise", None),
    ("puffercal.verify", "renyi_divergence_numeric", _divergence_name, None),
    ("puffercal.verify", "verify_rpp", "verify.rpp",
     lambda a, k, r: {"inconclusive": sum(1 for rep in r if rep.inconclusive)}),
    ("puffercal.verify", "monte_carlo_breach", "verify.monte_carlo",
     lambda a, k, r: {"draws": int(k.get("n", a[4] if len(a) > 4 else 0))}),
)


class Tracer:
    """In-memory span recorder for one single-threaded traced CLI call."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.missing: list[str] = []

    def wrap(self, name, fn, extra):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            label = name if isinstance(name, str) else name(args, kwargs)
            span = [label, 0.0, 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if extra is not None:
                try:
                    span[4] = extra(args, kwargs, result)
                except Exception as exc:  # a changed signature must not break the CLI
                    span[4] = {"error": repr(exc)}
            return result

        return traced

    def install(self) -> None:
        """Wrap every target at each `puffercal` module attribute bound to it."""
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "puffercal" or n.startswith("puffercal."))]
        for module_name, attribute, name, extra in TARGETS:
            fn = getattr(sys.modules.get(module_name), attribute, None)
            if not callable(fn):
                self.missing.append(f"{module_name}.{attribute}")
                continue
            wrapper = self.wrap(name, fn, extra)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is fn:
                        setattr(module, key, wrapper)


def self_times(spans) -> list[float]:
    """Each span's duration minus the time its direct children cover."""
    own = [end - start for _, start, end, _, _ in spans]
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


def tail(values: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with ten samples beyond it.

    That is the eleventh-largest sample, at percentile 100 (n - 10) / n;
    with ten samples or fewer no percentile qualifies and (0, 0) is returned.
    """
    n = len(values)
    if n <= 10:
        return 0.0, 0.0
    return sorted(values)[n - 11], 100.0 * (n - 10) / n


def layer_metrics(spans) -> dict[str, float]:
    """Per-layer metrics of one traced pass (the spans of all its CLI calls)."""
    own = self_times(spans)
    by_name: dict[str, list[int]] = {}
    for index, span in enumerate(spans):
        by_name.setdefault(span[0], []).append(index)

    def durations(name):
        return [spans[i][2] - spans[i][1] for i in by_name.get(name, ())]

    def extras(name, key):
        return [spans[i][4][key] for i in by_name.get(name, ()) if key in (spans[i][4] or ())]

    def calls(name):
        return float(len(by_name.get(name, ())))

    def total(name):
        return math.fsum(durations(name))

    def distinct_frac(name):
        keys = extras(name, "key")
        return len(set(keys)) / len(keys) if keys else 0.0

    m: dict[str, float] = {}
    for layer in LAYERS:
        m[f"{layer}.self_s"] = math.fsum(
            own[i] for i, span in enumerate(spans) if span[0].split(".")[0] == layer
        )
    m["ingest.load_table.calls"] = calls("ingest.load_table")
    m["ingest.load_table.s"] = total("ingest.load_table")
    m["ingest.load_table.distinct_frac"] = distinct_frac("ingest.load_table")

    m["transport.coupling.calls"] = calls("transport.coupling")
    m["transport.coupling.s"] = total("transport.coupling")
    m["transport.coupling.distinct_frac"] = distinct_frac("transport.coupling")
    entries = extras("transport.coupling", "entries")
    m["transport.coupling.entries_mean"] = math.fsum(entries) / len(entries) if entries else 0.0
    m["transport.functional.calls"] = calls("transport.functional")
    m["transport.functional.s"] = total("transport.functional")
    m["transport.functional.mean_us"] = (
        1e6 * m["transport.functional.s"] / m["transport.functional.calls"]
        if m["transport.functional.calls"] else 0.0
    )

    solves = calls("calibrate.solve")
    solve_ms = [1e3 * d for d in durations("calibrate.solve")]
    iterations = extras("calibrate.solve", "iterations")
    m["calibrate.solves"] = solves
    functional_in_solves = sum(
        1 for i in by_name.get("transport.functional", ())
        if _has_ancestor(spans, i, "calibrate.solve")
    )
    m["calibrate.evals_per_solve"] = functional_in_solves / solves if solves else 0.0
    m["calibrate.iterations_mean"] = math.fsum(iterations) / len(iterations) if iterations else 0.0
    m["calibrate.solve_p50_ms"] = statistics.median(solve_ms) if solve_ms else 0.0
    m["calibrate.solve_tail_ms"], m["calibrate.solve_tail_pct"] = tail(solve_ms)

    m["dist.noise_variance.calls"] = calls("dist.noise_variance")
    m["dist.noise_variance.s"] = total("dist.noise_variance")
    m["dist.posterior_density.calls"] = calls("dist.posterior_density")
    m["dist.posterior_density.evals"] = float(sum(extras("dist.posterior_density", "evals")))
    m["dist.posterior_density.s"] = total("dist.posterior_density")
    m["dist.sample_noise.s"] = total("dist.sample_noise")

    finite_ms = [1e3 * d for d in durations("verify.divergence_finite")]
    m["verify.divergence_finite.calls"] = calls("verify.divergence_finite")
    m["verify.divergence_finite.s"] = total("verify.divergence_finite")
    m["verify.divergence_finite.p50_ms"] = statistics.median(finite_ms) if finite_ms else 0.0
    m["verify.divergence_finite.tail_ms"], m["verify.divergence_finite.tail_pct"] = tail(finite_ms)
    m["verify.divergence_inf.calls"] = calls("verify.divergence_inf")
    m["verify.divergence_inf.s"] = total("verify.divergence_inf")
    draws = float(sum(extras("verify.monte_carlo", "draws")))
    m["verify.monte_carlo.draws"] = draws
    m["verify.monte_carlo.s"] = total("verify.monte_carlo")
    m["verify.monte_carlo.draws_per_s"] = draws / m["verify.monte_carlo.s"] if draws else 0.0
    m["verify.inconclusive"] = float(sum(extras("verify.rpp", "inconclusive")))

    m["trace.main_s"] = total("cli.main")
    return m


def _has_ancestor(spans, index: int, name: str) -> bool:
    parent = spans[index][3]
    while parent >= 0:
        if spans[parent][0] == name:
            return True
        parent = spans[parent][3]
    return False
