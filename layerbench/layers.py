"""Per-layer metrics and the wrapper-coverage self-check, computed from spans."""

from __future__ import annotations

from collections import Counter, defaultdict
from contextlib import contextmanager
from typing import Any, Dict, Iterable, Iterator, List, Mapping, Optional, Sequence, Tuple

from layerbench.common import Context, Outcome, overhead_pct
from layerbench.summary import median
from layerbench.tracer import Tracer, clip, install, self_times, union_length

Window = Tuple[float, float]

#: Span names whose self seconds and call counts are both reported.
TIMED_LAYERS = (
    "transforms.rw",
    "transforms.rwz",
    "transforms.rf",
    "transforms.rfz",
    "transforms.b",
    "transforms.rs",
    "aig.enumerate_cuts",
    "aig.cut_arrays",
    "aig.exact_key",
    "mapping.map",
    "sta.analyze",
    "api.evaluate",
    "features.extract",
    "ml.predict",
    "ml.fit",
    "library.load",
    "io.parse",
    "campaign.expand",
    "campaign.run_cells",
    "campaign.store_append",
    "service.http",
)

#: Span names reported by self seconds only.
SECONDS_ONLY = ("mapping.dp", "opt.sa", "service.submit", "service.result")

#: Layers each workload must exercise in its timed region (calls > 0).
EXERCISED: Dict[str, Tuple[str, ...]] = {
    "sa_ground_truth": (
        "transforms", "aig.enumerate_cuts", "aig.cut_arrays", "aig.exact_key",
        "mapping.map", "sta.analyze", "api.evaluate", "opt.sa",
    ),
    "sa_ml": ("transforms", "aig.enumerate_cuts", "features.extract", "ml.predict", "opt.sa"),
    "label_train": (
        "aig.cut_arrays", "aig.exact_key", "mapping.map", "sta.analyze",
        "api.evaluate", "features.extract", "ml.fit", "ml.predict",
    ),
    "service_jobs": (
        "transforms", "opt.sa", "library.load", "io.parse", "campaign.expand",
        "campaign.run_cells", "campaign.store_append", "service.http", "service.submit",
    ),
}

_SERVICE_SIDE = ("library.load", "io.parse", "campaign", "service")

#: Layers each workload must bypass: ``(layer, allowed calls per SA run)``.
#: sa_ml maps only its initial and final AIG, so its evaluation layers may
#: run at most twice per design.
BYPASSED: Dict[str, Tuple[Tuple[str, int], ...]] = {
    "sa_ground_truth": tuple((layer, 0) for layer in ("features", "ml") + _SERVICE_SIDE),
    "sa_ml": (
        ("mapping.map", 2), ("sta.analyze", 2), ("api.evaluate", 2), ("aig.cut_arrays", 2),
        ("ml.fit", 0),
    ) + tuple((layer, 0) for layer in _SERVICE_SIDE),
    "label_train": tuple(
        (layer, 0) for layer in ("transforms", "aig.enumerate_cuts", "opt") + _SERVICE_SIDE
    ),
    "service_jobs": (("features", 0), ("ml", 0)),
}


def combine(docs: Iterable[Mapping[str, Any]]) -> Tuple[List[List[Any]], Counter]:
    """Concatenate exported traces (one per process), re-basing parent indices."""
    rows: List[List[Any]] = []
    counters: Counter = Counter()
    for doc in docs:
        base = len(rows)
        for row in doc["spans"]:
            row = list(row)
            if row[3] is not None:
                row[3] += base
            rows.append(row)
        counters.update(doc["counters"])
    return rows, counters


def in_windows(start: float, windows: Sequence[Window]) -> bool:
    return any(low <= start <= high for low, high in windows)


def layer_calls(calls: Mapping[str, int], layer: str) -> int:
    """Calls of span *layer*, or of every span under the ``layer.`` prefix."""
    return sum(n for name, n in calls.items() if name == layer or name.startswith(layer + "."))


def aggregate(
    rows: Sequence[Sequence[Any]], windows: Sequence[Window]
) -> Tuple[Counter, Dict[str, float]]:
    """Call counts and self seconds per span name, for spans started in *windows*."""
    selfs = self_times(rows)
    calls: Counter = Counter()
    seconds: Dict[str, float] = defaultdict(float)
    for row, own in zip(rows, selfs):
        if in_windows(row[1], windows):
            calls[row[0]] += 1
            seconds[row[0]] += own
    return calls, seconds


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def per_layer_metrics(
    names: Sequence[str],
    docs: Iterable[Mapping[str, Any]],
    windows: Sequence[Window],
    overhead: float,
) -> Dict[str, float]:
    """Every per-layer metric in *names*, from traces recorded over *windows*."""
    rows, counters = combine(docs)
    calls, seconds = aggregate(rows, windows)
    values: Dict[str, float] = {}
    for layer in TIMED_LAYERS:
        values[f"{layer}.s"] = seconds.get(layer, 0.0)
        values[f"{layer}.calls"] = calls.get(layer, 0)
    for layer in SECONDS_ONLY:
        values[f"{layer}.s"] = seconds.get(layer, 0.0)
    values["transforms.improved_ratio"] = _ratio(
        counters["transforms.improved"], counters["transforms.passes"]
    )
    values["mapping.vector_node_ratio"] = _ratio(
        counters["mapping.vector_nodes"], counters["mapping.total_nodes"]
    )
    values["api.cache_hit_ratio"] = _ratio(
        counters["api.hits"], counters["api.hits"] + counters["api.misses"]
    )
    values["opt.accept_ratio"] = _ratio(counters["opt.accepted"], counters["opt.iterations"])
    submits = [row for row in rows if row[0] == "service.submit" and in_windows(row[1], windows)]
    values["service.dedup_ratio"] = _ratio(
        sum(1 for row in submits if not row[6].get("created")), len(submits)
    )
    values["service.queue_wait_p50_s"] = queue_wait_p50(rows)
    values["service.http_5xx"] = counters["service.http_5xx"]
    covered = union_length(clip([(row[1], row[2]) for row in rows], windows))
    values["trace.unattributed_s"] = max(sum(hi - lo for lo, hi in windows) - covered, 0.0)
    values["trace.overhead_pct"] = overhead
    missing = set(names) - set(values)
    if missing:
        raise KeyError(f"per-layer metrics not computed: {sorted(missing)}")
    return {name: values[name] for name in names}


def queue_wait_p50(rows: Sequence[Sequence[Any]]) -> float:
    """Median wait of created jobs: ``submit`` returning to ``run_cells`` starting."""
    submitted = {row[4]: row[2] for row in rows if row[0] == "service.submit" and row[6].get("created")}
    started = {}
    for row in rows:
        if row[0] == "campaign.run_cells" and row[4] in submitted:
            started.setdefault(row[4], row[1])
    waits = [started[job] - submitted[job] for job in started]
    return median(waits) if waits else 0.0


def coverage_failures(workload: str, calls: Mapping[str, int], sa_runs: int) -> List[str]:
    """Wrapper-coverage violations of *workload*'s exercised/bypassed table.

    A zero on an exercised layer usually means a wrapper sits on a
    definition while callers hold an import-time binding.
    """
    problems = []
    for layer in EXERCISED[workload]:
        if layer_calls(calls, layer) == 0:
            problems.append(f"{workload}: exercised layer {layer} recorded no calls")
    for layer, per_run in BYPASSED[workload]:
        count = layer_calls(calls, layer)
        if count > per_run * sa_runs:
            problems.append(
                f"{workload}: bypassed layer {layer} recorded {count} calls "
                f"(allowed {per_run * sa_runs})"
            )
    return problems


@contextmanager
def traced_metrics(
    ctx: Context, names: Mapping[str, List[str]], tracer: Optional[Tracer], outcome: Outcome
) -> Iterator[List[Window]]:
    """Install the wrappers around the timed region when tracing; yields its window list.

    The body appends the timed intervals; afterwards the per-layer metrics
    and the coverage verdicts land in *outcome*.
    """
    windows: List[Window] = []
    if tracer is None:
        yield windows
        return
    installation = install(tracer)
    try:
        yield windows
    finally:
        installation.uninstall()
    finish_trace(ctx, names, [tracer.export()], windows, outcome)


def finish_trace(
    ctx: Context,
    names: Mapping[str, List[str]],
    docs: Sequence[Mapping[str, Any]],
    windows: Sequence[Window],
    outcome: Outcome,
) -> None:
    """Per-layer metrics and coverage verdicts of a traced run's timed *windows*."""
    reference = ctx.reference or {}
    traced = sum(high - low for low, high in windows)
    overhead = overhead_pct(reference.get("seconds", 0.0), traced)
    outcome.per_layer = per_layer_metrics(names["per_layer"], docs, windows, overhead)
    calls, _ = aggregate(combine(docs)[0], windows)
    problems = coverage_failures(ctx.workload, calls, int(reference.get("count", 0)))
    outcome.check(not problems, "; ".join(problems))
