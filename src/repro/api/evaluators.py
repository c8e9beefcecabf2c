"""Pluggable PPA evaluators: cached and process-parallel wrappers.

The optimization flows and the dataset labeler only see the
:class:`~repro.evaluation.Evaluator` protocol; these wrappers change *how*
the mapping + STA work gets done without changing *what* the callers observe:

* :class:`CachedEvaluator` memoises results on the exact graph key
  (:meth:`repro.aig.graph.Aig.exact_key`) paired with the library/options
  identity.  Simulated annealing revisits graphs constantly (rejected moves
  return to the previous AIG, scripts often reconverge to the same graph)
  and perturbation-based data generation produces duplicates, so the
  repeated-mapping hot path becomes a dictionary hit.  The key is exact by
  necessity: mapping results are sensitive to node numbering (cut
  truncation breaks ties by variable id), so the order-insensitive
  structural fingerprint used before this was not a sound cache key.
* :class:`ParallelEvaluator` fans batches across a process pool for dataset
  labelling and Pareto sweeps, falling back to in-process evaluation when
  the pool cannot be used (single item, one worker, or a sandbox that
  forbids subprocesses).
"""

from __future__ import annotations

import os
from collections import OrderedDict
from dataclasses import astuple, dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.aig.graph import Aig
from repro.evaluation import Evaluator, GroundTruthEvaluator, PpaResult
from repro.library.library import CellLibrary
from repro.mapping.mapper import MappingOptions
from repro.utils.pool import exit_with_parent


def evaluator_context_key(evaluator: Evaluator) -> str:
    """Identity of the library + mapping configuration behind an evaluator.

    Structural AIG fingerprints alone are not sound cache keys: the same
    structure maps to different delay/area under a different cell library or
    different mapper knobs.  This key captures both so cached results can
    never leak across evaluation contexts.
    """
    options = getattr(evaluator, "mapping_options", None)
    if options is None:
        mapper = getattr(evaluator, "mapper", None)
        options = getattr(mapper, "options", None)
    if options is None:
        serial = getattr(evaluator, "_serial", None)
        options = getattr(getattr(serial, "mapper", None), "options", None)
    if options is None:
        # Unknown evaluator type: its options are invisible, so fold the
        # type into the key. Custom evaluators that want full cache safety
        # under option changes should expose a `mapping_options` attribute.
        options_key: object = f"<{type(evaluator).__module__}.{type(evaluator).__qualname__}>"
    else:
        options_key = astuple(options)
    return f"{evaluator.library.fingerprint()}|{options_key}"


__all__ = [
    "CacheStats",
    "CachedEvaluator",
    "Evaluator",
    "GroundTruthEvaluator",
    "ParallelEvaluator",
    "evaluator_context_key",
]


@dataclass
class CacheStats:
    """Hit/miss counters of one :class:`CachedEvaluator`."""

    hits: int = 0
    misses: int = 0

    @property
    def total(self) -> int:
        """Total number of evaluation requests seen."""
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Fraction of requests served from the cache (0.0 when empty)."""
        if self.total == 0:
            return 0.0
        return self.hits / self.total


class CachedEvaluator:
    """Memoises an inner evaluator on the exact graph representation.

    Results are stored without netlists/timing reports (they are dropped by
    the inner evaluator's default configuration), so entries are a few
    hundred bytes each.  An optional *max_entries* bound evicts the least
    recently used entry when exceeded.
    """

    def __init__(
        self,
        inner: Optional[Evaluator] = None,
        max_entries: Optional[int] = None,
        library: Optional[CellLibrary] = None,
    ) -> None:
        if max_entries is not None and max_entries < 1:
            raise ValueError("max_entries must be positive or None")
        self.inner: Evaluator = inner if inner is not None else GroundTruthEvaluator(library)
        self.max_entries = max_entries
        self.stats = CacheStats()
        self._cache: "OrderedDict[Tuple[str, str], PpaResult]" = OrderedDict()

    @property
    def library(self) -> CellLibrary:
        """The inner evaluator's cell library."""
        return self.inner.library

    def __len__(self) -> int:
        return len(self._cache)

    def clear(self) -> None:
        """Drop all cached results and reset the hit/miss counters."""
        self._cache.clear()
        self.stats = CacheStats()

    def evaluate(self, aig: Aig) -> PpaResult:
        """Return the cached PPA of *aig*'s structure, computing it on miss.

        The key pairs the exact graph digest with the inner evaluator's
        library/options identity, so neither a structurally-similar-but-
        renumbered graph nor a swapped inner evaluator can ever be served a
        result computed for different inputs.
        """
        key = (evaluator_context_key(self.inner), aig.exact_key())
        cached = self._cache.get(key)
        if cached is not None:
            self._cache.move_to_end(key)
            self.stats.hits += 1
            return cached
        result = self.inner.evaluate(aig)
        self.stats.misses += 1
        self._store(key, result)
        return result

    def evaluate_many(self, aigs: Sequence[Aig]) -> List[PpaResult]:
        """Batch evaluation with intra-batch deduplication.

        Only one representative per distinct graph is forwarded to the
        inner evaluator (whose own ``evaluate_many`` may run in parallel);
        duplicates within the batch are cache hits.
        """
        context = evaluator_context_key(self.inner)
        keys = [(context, aig.exact_key()) for aig in aigs]
        pending: Dict[Tuple[str, str], Aig] = {}
        for key, aig in zip(keys, aigs):
            if key not in self._cache and key not in pending:
                pending[key] = aig
        fresh: Dict[Tuple[str, str], PpaResult] = {}
        if pending:
            computed = self.inner.evaluate_many(list(pending.values()))
            fresh = dict(zip(pending.keys(), computed))
            for key, result in fresh.items():
                self._store(key, result)
        results: List[PpaResult] = []
        counted_fresh: set = set()
        for key, aig in zip(keys, aigs):
            if key in fresh:
                # Held locally, so max_entries eviction within this batch
                # never forces a recompute.
                result = fresh[key]
                if key in counted_fresh:
                    self.stats.hits += 1
                else:
                    counted_fresh.add(key)
                    self.stats.misses += 1
            else:
                result = self._cache.get(key)
                if result is not None:
                    self._cache.move_to_end(key)
                    self.stats.hits += 1
                else:
                    # Cached at scan time but evicted by this batch's stores.
                    result = self.inner.evaluate(aig)
                    self.stats.misses += 1
                    self._store(key, result)
            results.append(result)
        return results

    def __call__(self, aig: Aig) -> PpaResult:
        return self.evaluate(aig)

    def put(self, aig: Aig, result: PpaResult) -> None:
        """Seed the cache with an externally computed result.

        Netlist and timing payloads are stripped so cached entries stay
        lightweight regardless of how the result was produced.
        """
        key = (evaluator_context_key(self.inner), aig.exact_key())
        if result.netlist is not None or result.timing is not None:
            result = PpaResult(
                delay_ps=result.delay_ps,
                area_um2=result.area_um2,
                num_gates=result.num_gates,
            )
        self._store(key, result)

    def snapshot_items(self) -> List[Tuple[Tuple[str, str], PpaResult]]:
        """The cache contents, LRU order, for warm-start persistence."""
        return list(self._cache.items())

    def seed_result(
        self, context: str, exact_key: str, result: PpaResult
    ) -> bool:
        """Seed one entry by raw (context, exact key) — warm-start loading.

        Unlike :meth:`put` this needs no live graph, so snapshot entries
        restore without re-parsing designs.  Existing entries win (they
        were computed in-process); returns whether the entry was inserted.
        """
        key = (context, exact_key)
        if key in self._cache:
            return False
        if result.netlist is not None or result.timing is not None:
            result = PpaResult(
                delay_ps=result.delay_ps,
                area_um2=result.area_um2,
                num_gates=result.num_gates,
            )
        self._store(key, result)
        return True

    def _store(self, key: Tuple[str, str], result: PpaResult) -> None:
        self._cache[key] = result
        self._cache.move_to_end(key)
        if self.max_entries is not None:
            while len(self._cache) > self.max_entries:
                self._cache.popitem(last=False)


# --------------------------------------------------------------------------- #
# Process-parallel evaluation
# --------------------------------------------------------------------------- #
_WORKER_EVALUATOR: Optional[GroundTruthEvaluator] = None


def _worker_init(
    library: Optional[CellLibrary], options: Optional[MappingOptions]
) -> None:
    global _WORKER_EVALUATOR
    _WORKER_EVALUATOR = GroundTruthEvaluator(library, options)
    exit_with_parent()


def _worker_evaluate(aig: Aig) -> PpaResult:
    assert _WORKER_EVALUATOR is not None, "worker pool not initialised"
    return _WORKER_EVALUATOR.evaluate(aig)


class ParallelEvaluator:
    """Fans ``evaluate_many`` batches across a process pool.

    Single evaluations run in-process (pool dispatch would only add
    latency).  The pool is created lazily on the first batch and shut down
    by :meth:`close` or by using the evaluator as a context manager.  When a
    pool cannot be spawned or dies mid-batch the whole batch is re-run
    serially, so results never depend on the execution backend.
    """

    def __init__(
        self,
        library: Optional[CellLibrary] = None,
        mapping_options: Optional[MappingOptions] = None,
        max_workers: Optional[int] = None,
        min_batch_size: int = 2,
    ) -> None:
        self.max_workers = max_workers if max_workers is not None else (os.cpu_count() or 1)
        if self.max_workers < 1:
            raise ValueError("max_workers must be at least 1")
        if min_batch_size < 1:
            raise ValueError("min_batch_size must be at least 1")
        self.min_batch_size = min_batch_size
        self._mapping_options = mapping_options
        self._serial = GroundTruthEvaluator(library, mapping_options)
        self._pool = None
        self._pool_broken = False

    @property
    def library(self) -> CellLibrary:
        """The cell library used by both the in-process and pooled workers."""
        return self._serial.library

    def evaluate(self, aig: Aig) -> PpaResult:
        """Evaluate one AIG in-process."""
        return self._serial.evaluate(aig)

    def evaluate_many(self, aigs: Sequence[Aig]) -> List[PpaResult]:
        """Evaluate a batch, in parallel when it is large enough."""
        batch = list(aigs)
        if (
            len(batch) < self.min_batch_size
            or self.max_workers == 1
            or self._pool_broken
        ):
            return self._serial.evaluate_many(batch)
        pool = self._ensure_pool()
        if pool is None:
            return self._serial.evaluate_many(batch)
        chunksize = max(1, len(batch) // (self.max_workers * 4))
        try:
            return list(pool.map(_worker_evaluate, batch, chunksize=chunksize))
        # repro-lint: ignore[C3] -- the fallback *is* the recording: the
        # batch is re-run serially and the _pool_broken latch preserves the
        # failure state; the exception type carries no extra signal here.
        except Exception:
            # Broken pool / unpicklable payload: degrade to serial and stop
            # trying to parallelise until close() resets the latch.
            self.close()
            self._pool_broken = True
            return self._serial.evaluate_many(batch)

    def __call__(self, aig: Aig) -> PpaResult:
        return self.evaluate(aig)

    def _ensure_pool(self):
        if self._pool is None:
            try:
                from concurrent.futures import ProcessPoolExecutor

                self._pool = ProcessPoolExecutor(
                    max_workers=self.max_workers,
                    initializer=_worker_init,
                    initargs=(self._serial.library, self._mapping_options),
                )
            # repro-lint: ignore[C3] -- failure to build the pool is
            # recorded in the _pool_broken latch; callers degrade to serial.
            except Exception:
                self._pool_broken = True
                self._pool = None
        return self._pool

    def close(self) -> None:
        """Shut down the worker pool (idempotent).

        Also clears the broken-pool latch, so a context-managed evaluator
        that degraded to serial after a transient pool failure tries the
        pool again on its next use.
        """
        if self._pool is not None:
            self._pool.shutdown(wait=False, cancel_futures=True)
            self._pool = None
        self._pool_broken = False

    def __enter__(self) -> "ParallelEvaluator":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __del__(self) -> None:  # pragma: no cover - interpreter shutdown
        try:
            self.close()
        # repro-lint: ignore[C3] -- __del__ during interpreter shutdown must
        # never raise; there is nowhere left to record the error.
        except Exception:
            pass
