"""Service-layer API: sessions, typed requests, and pluggable evaluators.

This package is the single stable surface clients should program against:

* :class:`SynthesisSession` — façade owning library, evaluator, and models;
* :class:`OptimizeRequest` / :class:`OptimizeResult` / :class:`EvalRequest`
  / :class:`TrainResult` — typed request/response dataclasses;
* :class:`~repro.evaluation.Evaluator` protocol with three implementations:
  :class:`~repro.evaluation.GroundTruthEvaluator` (mapping + STA),
  :class:`CachedEvaluator` (exact-key memoised), and
  :class:`ParallelEvaluator` (process-pool batches);
* flow/evaluator/model registries for plugging in new strategies.
"""

from repro.api.evaluators import (
    CachedEvaluator,
    CacheStats,
    Evaluator,
    GroundTruthEvaluator,
    ParallelEvaluator,
    evaluator_context_key,
)
from repro.api.registry import (
    ModelRegistry,
    available_evaluators,
    available_flows,
    create_evaluator,
    create_flow,
    register_evaluator,
    register_flow,
)
from repro.api.session import (
    EvalRequest,
    OptimizeRequest,
    OptimizeResult,
    SessionPool,
    SynthesisSession,
    TrainResult,
    default_session,
    load_design,
    all_worker_session_pools,
    worker_session_pool,
)
from repro.evaluation import PpaResult, evaluate_aig

__all__ = [
    "CacheStats",
    "CachedEvaluator",
    "EvalRequest",
    "Evaluator",
    "GroundTruthEvaluator",
    "ModelRegistry",
    "OptimizeRequest",
    "OptimizeResult",
    "ParallelEvaluator",
    "PpaResult",
    "SessionPool",
    "SynthesisSession",
    "TrainResult",
    "available_evaluators",
    "available_flows",
    "create_evaluator",
    "create_flow",
    "default_session",
    "evaluate_aig",
    "evaluator_context_key",
    "load_design",
    "register_evaluator",
    "register_flow",
    "all_worker_session_pools",
    "worker_session_pool",
]
