"""The :class:`SynthesisSession` façade — one stable surface for everything.

A session owns the cell library, a (by default cached) PPA evaluator, and a
model registry, and exposes the operations every client of this codebase
used to hand-wire for itself: load a design, evaluate its PPA, map it to a
netlist, run an optimization flow, generate labelled datasets, and train
delay/area predictors.  Requests and results are typed dataclasses so the
CLI, the examples, and the experiment harness all speak the same language.

Typical use::

    from repro.api import OptimizeRequest, SynthesisSession

    session = SynthesisSession()
    result = session.optimize(OptimizeRequest(design="EX68", flow="baseline"))
    print(result.final.delay_ps, session.cache_stats)
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Union

from repro.aig.graph import Aig, AigStats
from repro.api.evaluators import CachedEvaluator, CacheStats, ParallelEvaluator
from repro.api.registry import (
    ModelRegistry,
    available_evaluators,
    available_flows,
    create_evaluator,
    create_flow,
)
from repro.errors import OptimizationError
from repro.evaluation import Evaluator, GroundTruthEvaluator, PpaResult
from repro.library.library import CellLibrary
from repro.mapping.mapper import MappingOptions
from repro.opt.annealing import AnnealingConfig, AnnealingResult
from repro.opt.flows import FlowResult, OptimizationFlow
from repro.utils.rng import RngLike

DesignLike = Union[str, Path, Aig]


def load_design(design: DesignLike) -> Aig:
    """Resolve a design reference to an AIG.

    Accepts an :class:`Aig` (returned as-is), a path to an AIGER
    (``.aag``/``.aig``), BENCH, BLIF, or structural-Verilog (``.v``) file,
    or a registered benchmark name (``EX00`` … ``EX68``, ``mult``).
    """
    if isinstance(design, Aig):
        return design
    path = Path(design)
    suffix = path.suffix.lower()
    if suffix == ".aag":
        from repro.io.aiger import read_aag

        return read_aag(path)
    if suffix == ".aig":
        from repro.io.aiger_binary import read_aig_binary

        return read_aig_binary(path)
    if suffix == ".bench":
        from repro.io.bench import read_bench

        return read_bench(path)
    if suffix == ".blif":
        from repro.io.blif import read_blif

        return read_blif(path)
    if suffix == ".v":
        from repro.io.verilog_read import read_aig_verilog

        return read_aig_verilog(path)
    from repro.designs.registry import build_design

    return build_design(str(design))


# --------------------------------------------------------------------------- #
# Request / result dataclasses
# --------------------------------------------------------------------------- #
@dataclass
class EvalRequest:
    """One PPA evaluation request."""

    design: DesignLike
    keep_netlist: bool = False
    use_cache: bool = True


@dataclass
class OptimizeRequest:
    """One optimization-flow run.

    ``delay_model`` / ``area_model`` accept a model object, a name
    registered on the session, or a path to a model JSON file.
    """

    design: DesignLike
    flow: str = "baseline"
    iterations: int = 30
    delay_weight: float = 1.0
    area_weight: float = 1.0
    seed: RngLike = None
    annealing: Optional[AnnealingConfig] = None
    delay_model: Any = None
    area_model: Any = None
    validate_every: int = 10
    catalog: Optional[Sequence[List[str]]] = None


@dataclass
class OptimizeResult:
    """Outcome of :meth:`SynthesisSession.optimize`."""

    request: OptimizeRequest
    flow: str
    initial: PpaResult
    final: PpaResult
    flow_result: FlowResult
    flow_instance: OptimizationFlow

    @property
    def annealing(self) -> AnnealingResult:
        """The underlying SA trace."""
        return self.flow_result.annealing

    @property
    def delay_ps(self) -> float:
        """Ground-truth delay of the best AIG found."""
        return self.final.delay_ps

    @property
    def area_um2(self) -> float:
        """Ground-truth area of the best AIG found."""
        return self.final.area_um2

    @property
    def best_aig(self) -> Aig:
        """The best AIG found by the flow."""
        return self.flow_result.annealing.best_aig

    @property
    def delay_improvement_percent(self) -> float:
        """Delay reduction relative to the unoptimized design."""
        if self.initial.delay_ps == 0:
            return 0.0
        return (self.initial.delay_ps - self.final.delay_ps) / self.initial.delay_ps * 100.0


@dataclass
class TrainResult:
    """Outcome of :meth:`SynthesisSession.train_model`."""

    model: Any
    target: str
    corpora: Dict[str, Any]
    dataset: Any
    mean_fit_error_percent: float
    max_fit_error_percent: float


# --------------------------------------------------------------------------- #
# The session façade
# --------------------------------------------------------------------------- #
class SynthesisSession:
    """Owns library + evaluator + models; serves all evaluation/optimization.

    Parameters
    ----------
    library:
        Cell library to map onto (defaults to the bundled sky130-lite).
    mapping_options:
        Technology-mapper knobs shared by every evaluation.
    cache:
        Memoise PPA results on the AIG's exact graph key (default on).
    cache_entries:
        Optional LRU bound on the number of cached results.
    parallel_workers:
        When > 1, batch evaluations (dataset labelling, ``evaluate_many``)
        fan out across a process pool of this size.
    evaluator_kind:
        Name of a registered evaluator strategy ("ground-truth", "cached",
        "parallel", "incremental"); resolved through the evaluator registry
        and used as-is.  ``"incremental"`` is an alias of ``"cached"``.
    evaluator:
        Fully custom evaluator; overrides all of the above wiring.
    """

    def __init__(
        self,
        library: Optional[CellLibrary] = None,
        mapping_options: Optional[MappingOptions] = None,
        cache: bool = True,
        cache_entries: Optional[int] = None,
        parallel_workers: Optional[int] = None,
        evaluator_kind: Optional[str] = None,
        evaluator: Optional[Evaluator] = None,
    ) -> None:
        if evaluator is not None:
            self._evaluator = evaluator
        elif evaluator_kind is not None:
            self._evaluator = create_evaluator(
                evaluator_kind,
                library=library,
                mapping_options=mapping_options,
                cache_entries=cache_entries,
                parallel_workers=parallel_workers,
            )
        else:
            base: Evaluator
            if parallel_workers is not None and parallel_workers > 1:
                base = ParallelEvaluator(
                    library, mapping_options, max_workers=parallel_workers
                )
            else:
                base = GroundTruthEvaluator(library, mapping_options)
            self._evaluator = (
                CachedEvaluator(base, max_entries=cache_entries) if cache else base
            )
        self.models = ModelRegistry()
        self._netlist_evaluator: Optional[GroundTruthEvaluator] = None
        self._mapping_options = mapping_options

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    @property
    def evaluator(self) -> Evaluator:
        """The evaluator all session operations share."""
        return self._evaluator

    @property
    def library(self) -> CellLibrary:
        """The session's cell library."""
        return self._evaluator.library

    @property
    def cache_stats(self) -> Optional[CacheStats]:
        """Hit/miss counters when the session caches, else ``None``."""
        if isinstance(self._evaluator, CachedEvaluator):
            return self._evaluator.stats
        return None

    @staticmethod
    def flows() -> List[str]:
        """Names of the registered optimization flows."""
        return available_flows()

    @staticmethod
    def evaluator_kinds() -> List[str]:
        """Names of the registered evaluator strategies."""
        return available_evaluators()

    # ------------------------------------------------------------------ #
    # Designs and evaluation
    # ------------------------------------------------------------------ #
    def load_design(self, design: DesignLike) -> Aig:
        """Resolve a name/path/AIG reference to an :class:`Aig`."""
        return load_design(design)

    def stats(self, design: DesignLike) -> AigStats:
        """Proxy-metric summary (PIs, POs, AND count, depth) of a design."""
        return self.load_design(design).stats()

    def evaluate(self, request: Union[EvalRequest, DesignLike]) -> PpaResult:
        """Ground-truth PPA of one design (cached when the session caches).

        Netlist-keeping requests bypass the cache (cached entries drop their
        netlists to stay small) and run on a dedicated evaluator that shares
        this session's library.
        """
        if not isinstance(request, EvalRequest):
            request = EvalRequest(design=request)
        aig = self.load_design(request.design)
        if request.keep_netlist:
            result = self._netlist_eval().evaluate(aig, keep_netlist=True)
            if isinstance(self._evaluator, CachedEvaluator):
                self._evaluator.put(aig, result)
            return result
        if not request.use_cache and isinstance(self._evaluator, CachedEvaluator):
            return self._evaluator.inner.evaluate(aig)
        return self._evaluator.evaluate(aig)

    def evaluate_many(self, designs: Sequence[DesignLike]) -> List[PpaResult]:
        """Batch PPA evaluation — deduplicated and, if configured, parallel."""
        aigs = [self.load_design(d) for d in designs]
        return self._evaluator.evaluate_many(aigs)

    def map(self, design: DesignLike) -> PpaResult:
        """Map a design and return the full result including netlist + timing."""
        return self.evaluate(EvalRequest(design=design, keep_netlist=True))

    def transform(self, design: DesignLike, script, verify: bool = False):
        """Apply a named transformation script; returns the engine's result."""
        from repro.transforms.engine import apply_script

        return apply_script(self.load_design(design), script, verify=verify)

    # ------------------------------------------------------------------ #
    # Optimization flows
    # ------------------------------------------------------------------ #
    def optimize(
        self, request: Optional[OptimizeRequest] = None, **kwargs: Any
    ) -> OptimizeResult:
        """Run an optimization flow described by *request* (or kwargs).

        The flow is built from the flow registry with this session's
        evaluator injected, so in-loop ground-truth evaluations share the
        session cache.
        """
        if request is None:
            request = OptimizeRequest(**kwargs)
        elif kwargs:
            request = replace(request, **kwargs)
        aig = self.load_design(request.design)
        flow = create_flow(
            request.flow,
            evaluator=self._evaluator,
            delay_model=self.models.resolve(request.delay_model),
            area_model=self.models.resolve(request.area_model),
            validate_every=request.validate_every,
        )
        config = request.annealing or AnnealingConfig(
            iterations=request.iterations, keep_history=False
        )
        initial = self._evaluator.evaluate(aig)
        flow_result = flow.run(
            aig,
            config=config,
            delay_weight=request.delay_weight,
            area_weight=request.area_weight,
            rng=request.seed,
            catalog=request.catalog,
        )
        return OptimizeResult(
            request=request,
            flow=flow_result.flow,
            initial=initial,
            final=flow_result.ground_truth,
            flow_result=flow_result,
            flow_instance=flow,
        )

    # ------------------------------------------------------------------ #
    # Datasets and models
    # ------------------------------------------------------------------ #
    def generate_corpora(
        self,
        designs: Sequence[DesignLike],
        samples: int = 30,
        seed: int = 2024,
        max_script_length: int = 2,
    ) -> Dict[str, Any]:
        """Generate labelled variant corpora, one per design.

        Labelling runs through the session evaluator, so duplicate variant
        structures are cache hits and batches fan out across workers when
        the session is parallel.
        """
        from repro.datagen.generator import DatasetGenerator, GenerationConfig

        generator = DatasetGenerator(
            GenerationConfig(
                samples_per_design=samples,
                seed=seed,
                max_script_length=max_script_length,
            ),
            evaluator=self._evaluator,
        )
        corpora: Dict[str, Any] = {}
        for design in designs:
            aig = self.load_design(design)
            name = aig.name if isinstance(design, Aig) else str(design)
            corpora[name] = generator.generate_for_aig(name, aig, rng=seed)
        return corpora

    def build_dataset(self, corpora: Dict[str, Any], target: str = "delay") -> Any:
        """Assemble generated corpora into a :class:`TimingDataset`."""
        from repro.datagen.generator import DatasetGenerator

        generator = DatasetGenerator(evaluator=self._evaluator)
        if target == "area":
            return generator.area_dataset(corpora)
        if target != "delay":
            raise OptimizationError("dataset target must be 'delay' or 'area'")
        return generator.to_dataset(corpora)

    def train_model(
        self,
        designs: Sequence[DesignLike],
        samples: int = 30,
        target: str = "delay",
        seed: int = 2025,
        params: Any = None,
        register_as: Optional[str] = None,
        max_script_length: int = 2,
    ) -> TrainResult:
        """Generate a labelled dataset and fit a GBDT predictor on it.

        The returned :attr:`TrainResult.dataset` is labelled with *target*
        (and always carries areas alongside), so a second model for the
        other metric can be fitted from the same corpora without
        regenerating anything.
        """
        if target not in ("delay", "area"):
            raise OptimizationError("train target must be 'delay' or 'area'")
        from repro.ml.gbdt import GbdtParams, GradientBoostingRegressor
        from repro.ml.metrics import percent_error_stats

        corpora = self.generate_corpora(
            designs, samples=samples, seed=seed, max_script_length=max_script_length
        )
        dataset = self.build_dataset(corpora, target=target)
        labels = dataset.labels
        model = GradientBoostingRegressor(params or GbdtParams(), rng=seed)
        model.fit(dataset.features, labels)
        stats = percent_error_stats(labels, model.predict(dataset.features))
        if register_as:
            self.models.register(register_as, model)
        return TrainResult(
            model=model,
            target=target,
            corpora=corpora,
            dataset=dataset,
            mean_fit_error_percent=stats.mean,
            max_fit_error_percent=stats.max,
        )

    def predict(self, design: DesignLike, model: Any) -> float:
        """Predict post-mapping delay (or area) of a design with *model*."""
        from repro.features.extract import FeatureExtractor

        resolved = self.models.resolve(model)
        if resolved is None:
            raise OptimizationError("predict requires a model")
        aig = self.load_design(design)
        features = FeatureExtractor().extract(aig).reshape(1, -1)
        return float(resolved.predict(features)[0])

    # ------------------------------------------------------------------ #
    def close(self) -> None:
        """Release pooled resources held by the evaluator, if any."""
        evaluator = self._evaluator
        inner = getattr(evaluator, "inner", None)
        for candidate in (evaluator, inner):
            close = getattr(candidate, "close", None)
            if callable(close):
                close()

    def __enter__(self) -> "SynthesisSession":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def _netlist_eval(self) -> GroundTruthEvaluator:
        if self._netlist_evaluator is None:
            self._netlist_evaluator = GroundTruthEvaluator(
                self.library, self._mapping_options, keep_netlist=True
            )
        return self._netlist_evaluator


_DEFAULT_SESSION: Optional[SynthesisSession] = None


def default_session() -> SynthesisSession:
    """The process-wide shared session (built on first use, cached)."""
    global _DEFAULT_SESSION
    if _DEFAULT_SESSION is None:
        _DEFAULT_SESSION = SynthesisSession()
    return _DEFAULT_SESSION


# --------------------------------------------------------------------------- #
# Persistent session pools (per-worker evaluator reuse)
# --------------------------------------------------------------------------- #
class SessionPool:
    """Process-local pool of persistent sessions, one per configuration.

    The campaign engine's pool workers used to build a fresh evaluator for
    every cell, throwing away the warmed cell-library index, mapper, and PPA
    cache each time.  A :class:`SessionPool` keys one long-lived
    :class:`SynthesisSession` by (evaluation-context fingerprint, evaluator
    kind), so consecutive cells of the same design running in the same
    worker share all of that state.  Keys with
    different library/options fingerprints never share a session, which is
    what keeps pooled results independent of which cells happened to land
    on which worker.

    Pooled cached sessions are LRU-bounded (*cache_entries*) so arbitrarily
    long campaigns cannot grow a worker's memory without limit.
    """

    def __init__(self, cache_entries: Optional[int] = 4096) -> None:
        self.cache_entries = cache_entries
        self._sessions: Dict[Any, SynthesisSession] = {}

    def __len__(self) -> int:
        return len(self._sessions)

    def keys(self) -> List[Any]:
        """The configuration keys with a live session."""
        return list(self._sessions)

    def sessions(self) -> List[SynthesisSession]:
        """The live pooled sessions (introspection/stats aggregation)."""
        return list(self._sessions.values())

    def get(
        self,
        evaluator_kind: str = "cached",
        context: str = "",
        library: Optional[CellLibrary] = None,
        mapping_options: Optional[MappingOptions] = None,
    ) -> SynthesisSession:
        """The persistent session for this exact evaluation configuration.

        *context* is an opaque evaluation-context fingerprint (the campaign
        cell's library/options identity); an explicitly passed *library* or
        *mapping_options* is folded into the key as well, so two callers
        with different libraries can never be handed each other's session.
        The session is built on first use and reused — warm — afterwards.
        """
        from dataclasses import astuple

        kind = evaluator_kind.strip().lower().replace("-", "_")
        key = (
            context,
            kind,
            None if library is None else library.fingerprint(),
            None if mapping_options is None else astuple(mapping_options),
        )
        session = self._sessions.get(key)
        if session is None:
            session = SynthesisSession(
                library=library,
                mapping_options=mapping_options,
                evaluator_kind=kind,
                cache_entries=self.cache_entries,
            )
            self._sessions[key] = session
        return session

    def clear(self) -> None:
        """Close and drop every pooled session."""
        for session in self._sessions.values():
            session.close()
        self._sessions.clear()


_WORKER_SESSION_POOLS = threading.local()
_ALL_WORKER_SESSION_POOLS: List[SessionPool] = []
_WORKER_POOL_REGISTRY_LOCK = threading.Lock()


def worker_session_pool() -> SessionPool:
    """This worker's session pool, built on first use.

    The pool is **thread-local**: campaign pool workers are single-threaded
    processes, so they keep exactly the process-wide behaviour they had
    before, while the synthesis service's worker *threads* each get their
    own pool — two jobs executing concurrently in one process never share
    (and never race on) a live :class:`SynthesisSession`.
    """
    pool = getattr(_WORKER_SESSION_POOLS, "pool", None)
    if pool is None:
        pool = SessionPool()
        _WORKER_SESSION_POOLS.pool = pool
        with _WORKER_POOL_REGISTRY_LOCK:
            _ALL_WORKER_SESSION_POOLS.append(pool)
    return pool


def all_worker_session_pools() -> List[SessionPool]:
    """Every live worker session pool in this process (all threads).

    Introspection only — the service's ``/stats`` endpoint aggregates cache
    counters across worker threads through this.
    """
    with _WORKER_POOL_REGISTRY_LOCK:
        return list(_ALL_WORKER_SESSION_POOLS)
