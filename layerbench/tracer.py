"""In-memory span tracer that wraps ``repro`` entry points from outside.

The benchmark never edits ``src/``: :func:`install` swaps a timing wrapper
onto each public entry point listed in :data:`METHODS` and
:data:`FUNCTIONS`, and :meth:`Installation.uninstall` puts the originals
back.  A module-level function is replaced at *every* module attribute
that holds it, so callers that bound it at import time
(``from repro.sta.analysis import analyze_timing``) are traced too.

Each wrapper records one :class:`Span` (name, start, end, parent, trace
id, thread) and, for a few layers, work counters read off the call's
arguments or result.  A trace is one SA run of one design, one labelling
pass, or one service job id.  Spans stay in memory and are exported once
the run ends.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import threading
import time
from collections import Counter
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple


def now() -> float:
    """The benchmark's one clock: monotonic seconds, comparable across processes."""
    return time.perf_counter()  # repro-lint: ignore[D4] -- benchmark timing, never program output


@dataclass
class Scope:
    """Spans that share one trace id; the id may be learned mid-scope."""

    trace: Optional[str] = None


@dataclass
class Span:
    """One call into a layer."""

    name: str
    start: float
    parent: Optional[int]
    scope: Scope
    thread: int
    index: int = -1
    end: float = 0.0
    attrs: Dict[str, Any] = field(default_factory=dict)

    def export(self, closing: float) -> List[Any]:
        """``[name, start, end, parent, trace, thread, attrs]``; still-open spans end at *closing*."""
        end = self.end or closing
        return [self.name, self.start, end, self.parent, self.scope.trace, self.thread, self.attrs]


class Tracer:
    """Thread-safe span and counter recorder."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.counters: Counter = Counter()
        self._lock = threading.Lock()
        self._local = threading.local()

    def _state(self) -> threading.local:
        local = self._local
        if not hasattr(local, "stack"):
            local.stack = []
            local.scope = None
        return local

    def current_name(self) -> Optional[str]:
        stack = self._state().stack
        return stack[-1].name if stack else None

    def open(self, name: str) -> Span:
        local = self._state()
        if local.stack:
            parent: Optional[int] = local.stack[-1].index
            scope = local.stack[-1].scope
        else:
            parent = None
            scope = local.scope or Scope()
        span = Span(name, now(), parent, scope, threading.get_ident())
        with self._lock:
            span.index = len(self.spans)
            self.spans.append(span)
        local.stack.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = now()
        self._state().stack.pop()

    def set_trace(self, trace: str) -> None:
        """Name the trace the calling thread is currently inside."""
        local = self._state()
        if local.stack:
            local.stack[-1].scope.trace = trace
        elif local.scope is not None:
            local.scope.trace = trace

    def scope(self, trace: str) -> "_ScopeContext":
        """Group every root span the calling thread opens under *trace*."""
        return _ScopeContext(self, trace)

    def count(self, name: str, amount: float = 1) -> None:
        with self._lock:
            self.counters[name] += amount

    def export(self) -> Dict[str, Any]:
        closing = now()
        with self._lock:
            return {
                "spans": [span.export(closing) for span in self.spans],
                "counters": dict(self.counters),
            }


class _ScopeContext:
    def __init__(self, tracer: Tracer, trace: str) -> None:
        self._tracer = tracer
        self._trace = trace

    def __enter__(self) -> None:
        self._tracer._state().scope = Scope(self._trace)

    def __exit__(self, *exc: Any) -> None:
        self._tracer._state().scope = None


# --------------------------------------------------------------------------- #
# Hooks: counters read off arguments and results
# --------------------------------------------------------------------------- #
Pre = Callable[[Tracer, tuple], Any]
Post = Callable[[Tracer, Span, tuple, Any, Any], None]


def _transform_name(args: tuple) -> str:
    # Keyed by script step: Rewrite(zero_cost=True).name is "rw", so the
    # class name alone would book rwz time under rw.
    transform = args[0]
    suffix = "z" if getattr(transform, "zero_cost", False) else ""
    return f"transforms.{transform.name}{suffix}"


def _transform_post(tracer: Tracer, span: Span, args: tuple, result: Any, token: Any) -> None:
    before, after = result.before, result.after
    tracer.count("transforms.passes")
    if after.num_ands < before.num_ands or after.depth < before.depth:
        tracer.count("transforms.improved")


def _sa_post(tracer: Tracer, span: Span, args: tuple, result: Any, token: Any) -> None:
    tracer.count("opt.iterations", result.iterations_run)
    tracer.count("opt.accepted", result.accepted_moves)


def _cache_pre(tracer: Tracer, args: tuple) -> Tuple[int, int]:
    stats = args[0].stats
    return stats.hits, stats.misses


def _cache_post(tracer: Tracer, span: Span, args: tuple, result: Any, token: Any) -> None:
    stats = args[0].stats
    tracer.count("api.hits", stats.hits - token[0])
    tracer.count("api.misses", stats.misses - token[1])


def _dp_post(tracer: Tracer, span: Span, args: tuple, result: Any, token: Any) -> None:
    if result is None:
        tracer.count("mapping.total_nodes", args[1].num_ands)
        return
    tracer.count("mapping.vector_nodes", result.stats.vector_nodes)
    tracer.count("mapping.total_nodes", result.stats.total_ands)


def _run_cells_pre(tracer: Tracer, args: tuple) -> None:
    cells = args[0]
    if len(cells) == 1:
        tracer.set_trace(cells[0].cell_id)


def _submit_post(tracer: Tracer, span: Span, args: tuple, result: Any, token: Any) -> None:
    job, created = result
    tracer.set_trace(job["job_id"])
    span.attrs["created"] = bool(created)


def _result_pre(tracer: Tracer, args: tuple) -> None:
    tracer.set_trace(str(args[1]))


def _status_post(tracer: Tracer, span: Optional[Span], args: tuple, result: Any, token: Any) -> None:
    if int(args[1]) >= 500:
        tracer.count("service.http_5xx")


@dataclass(frozen=True)
class Target:
    """One entry point to wrap: ``module.owner.attr`` or ``module.attr``."""

    module: str
    attr: str
    span: Any  # span name, a callable (args -> name), or None for hooks only
    owner: Optional[str] = None
    pre: Optional[Pre] = None
    post: Optional[Post] = None
    #: Replace every module attribute bound to the function (import-time
    #: ``from x import f`` sites), not only the defining module's.
    everywhere: bool = True


#: Class methods; the wrapper replaces the attribute on the owning class.
METHODS: Tuple[Target, ...] = (
    Target("repro.transforms.base", "run", _transform_name, "Transform", post=_transform_post),
    Target("repro.opt.annealing", "run", "opt.sa", "SimulatedAnnealing", post=_sa_post),
    Target("repro.mapping.mapper", "map", "mapping.map", "TechnologyMapper"),
    Target("repro.api.evaluators", "evaluate", "api.evaluate", "CachedEvaluator", _cache_pre, _cache_post),
    Target("repro.api.evaluators", "evaluate_many", "api.evaluate", "CachedEvaluator", _cache_pre, _cache_post),
    Target("repro.aig.graph", "exact_key", "aig.exact_key", "Aig"),
    Target("repro.features.extract", "extract", "features.extract", "FeatureExtractor"),
    Target("repro.ml.gbdt", "fit", "ml.fit", "GradientBoostingRegressor"),
    Target("repro.ml.gbdt", "predict", "ml.predict", "GradientBoostingRegressor"),
    Target("repro.campaign.store", "append", "campaign.store_append", "ResultStore"),
    Target("repro.campaign.spec", "expand", "campaign.expand", "CampaignSpec"),
    Target("repro.service.jobs", "submit", "service.submit", "JobManager", post=_submit_post),
    Target("repro.service.jobs", "result", "service.result", "JobManager", pre=_result_pre),
    Target("repro.service.server", "do_GET", "service.http", "ServiceHandler"),
    Target("repro.service.server", "do_POST", "service.http", "ServiceHandler"),
    Target("repro.service.server", "send_response", None, "ServiceHandler", post=_status_post),
)

#: Module-level functions.
FUNCTIONS: Tuple[Target, ...] = (
    Target("repro.sta.analysis", "analyze_timing", "sta.analyze"),
    # Rewrite's cut enumeration only; the mapper's scalar fallback binding
    # of the same function stays unwrapped (its cuts are "aig.cut_arrays").
    Target("repro.transforms.rewrite", "enumerate_cuts", "aig.enumerate_cuts", everywhere=False),
    Target("repro.mapping.dp_arrays", "try_full_dp", "mapping.dp", post=_dp_post),
    Target("repro.aig.cut_arrays", "build_cut_arrays", "aig.cut_arrays"),
    Target("repro.campaign.runner", "run_cells", "campaign.run_cells", pre=_run_cells_pre),
    Target("repro.library.sky130_lite", "load_sky130_lite", "library.load"),
    Target("repro.io.aiger", "read_aag", "io.parse"),
    Target("repro.io.aiger", "loads_aag", "io.parse"),
    Target("repro.io.aiger_binary", "read_aig_binary", "io.parse"),
    Target("repro.io.aiger_binary", "loads_aig_binary", "io.parse"),
    Target("repro.io.bench", "read_bench", "io.parse"),
    Target("repro.io.bench", "loads_bench", "io.parse"),
    Target("repro.io.blif", "read_blif", "io.parse"),
    Target("repro.io.blif", "loads_blif", "io.parse"),
    Target("repro.io.verilog_read", "read_aig_verilog", "io.parse"),
    Target("repro.io.verilog_read", "loads_aig_verilog", "io.parse"),
)

#: Modules imported before installing, so every import-time binding exists.
PRELOAD: Tuple[str, ...] = (
    "repro.api",
    "repro.campaign",
    "repro.io",
    "repro.mapping.dp_arrays",
    "repro.opt.flows",
    "repro.service",
    "repro.transforms",
)


def make_wrapper(tracer: Tracer, target: Target, original: Callable) -> Callable:
    """The traced stand-in for *original*."""
    span_of = target.span
    pre, post = target.pre, target.post

    @functools.wraps(original)
    def wrapper(*args: Any, **kwargs: Any) -> Any:
        if span_of is None:
            result = original(*args, **kwargs)
            if post is not None:
                post(tracer, None, args, result, None)
            return result
        name = span_of(args) if callable(span_of) else span_of
        if tracer.current_name() == name:
            # Same-layer re-entry (read_aag -> loads_aag): one span, one call.
            return original(*args, **kwargs)
        span = tracer.open(name)
        try:
            token = pre(tracer, args) if pre is not None else None
            result = original(*args, **kwargs)
        finally:
            tracer.close(span)
        if post is not None:
            post(tracer, span, args, result, token)
        return result

    return wrapper


class Installation:
    """The wrappers currently installed; :meth:`uninstall` restores originals."""

    def __init__(self) -> None:
        self._patches: List[Tuple[Any, str, Any]] = []

    def patch(self, holder: Any, attr: str, value: Any) -> None:
        self._patches.append((holder, attr, getattr(holder, attr)))
        setattr(holder, attr, value)

    def uninstall(self) -> None:
        for holder, attr, original in reversed(self._patches):
            setattr(holder, attr, original)
        self._patches.clear()


def install(tracer: Tracer) -> Installation:
    """Wrap every entry point in :data:`METHODS` and :data:`FUNCTIONS`."""
    for name in PRELOAD:
        importlib.import_module(name)
    installation = Installation()
    for target in METHODS:
        owner = getattr(importlib.import_module(target.module), target.owner)
        original = getattr(owner, target.attr)
        installation.patch(owner, target.attr, make_wrapper(tracer, target, original))
    for target in FUNCTIONS:
        module = importlib.import_module(target.module)
        original = getattr(module, target.attr)
        wrapper = make_wrapper(tracer, target, original)
        holders = [module] if not target.everywhere else _binding_sites(original)
        for holder in holders:
            for attr in [a for a, v in vars(holder).items() if v is original]:
                installation.patch(holder, attr, wrapper)
    return installation


def _binding_sites(function: Callable) -> List[Any]:
    """Every loaded ``repro`` module holding *function* as an attribute."""
    return [
        module
        for name, module in sorted(sys.modules.items())
        if module is not None
        and (name == "repro" or name.startswith("repro."))
        and any(value is function for value in vars(module).values())
    ]


def write_trace(tracer: Tracer, path: str) -> None:
    """Write spans and counters as one JSON document."""
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(tracer.export(), handle)


# --------------------------------------------------------------------------- #
# Span arithmetic
# --------------------------------------------------------------------------- #
def union_length(intervals: Iterable[Tuple[float, float]]) -> float:
    """Total length covered by possibly overlapping ``(start, end)`` intervals."""
    total = 0.0
    cursor = float("-inf")
    for start, end in sorted(intervals):
        start = max(start, cursor)
        if end > start:
            total += end - start
            cursor = end
    return total


def clip(intervals: Iterable[Tuple[float, float]], windows: Sequence[Tuple[float, float]]) -> List[Tuple[float, float]]:
    """The parts of *intervals* that fall inside any of *windows*."""
    out = []
    for start, end in intervals:
        for low, high in windows:
            lo, hi = max(start, low), min(end, high)
            if hi > lo:
                out.append((lo, hi))
    return out


def self_times(spans: Sequence[Sequence[Any]]) -> List[float]:
    """Each span's duration minus the part of it its child spans cover.

    *spans* are exported rows ``[name, start, end, parent, ...]`` whose
    ``parent`` indexes into the same sequence.
    """
    children: Dict[int, List[Tuple[float, float]]] = {}
    for row in spans:
        parent = row[3]
        if parent is not None:
            children.setdefault(parent, []).append((row[1], row[2]))
    result = []
    for index, row in enumerate(spans):
        start, end = row[1], row[2]
        covered = union_length(clip(children.get(index, ()), [(start, end)]))
        result.append(max(end - start - covered, 0.0))
    return result
