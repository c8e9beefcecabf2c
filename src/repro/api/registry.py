"""Registries for optimization flows, evaluators, and trained models.

The flow registry maps stable public names ("baseline", "ground-truth",
"ml", "hybrid") to factories that build the corresponding
:class:`~repro.opt.flows.OptimizationFlow` with an injected evaluator, so
new flows can be plugged in without touching the session or the CLI.  The
evaluator registry does the same for PPA evaluation strategies
("ground-truth", "cached", "parallel", and "incremental", an alias of
"cached"), which is what ``SynthesisSession(evaluator_kind=...)`` and the
CLI's ``--evaluator`` flag resolve through.  The model registry lets
sessions refer to trained predictors by name or by the JSON path produced
by ``repro train``.
"""

from __future__ import annotations

from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Union

from repro.errors import OptimizationError
from repro.evaluation import Evaluator
from repro.opt.flows import BaselineFlow, GroundTruthFlow, MlFlow, OptimizationFlow

FlowFactory = Callable[..., OptimizationFlow]

_FLOW_FACTORIES: Dict[str, FlowFactory] = {}


def _canonical(name: str) -> str:
    return name.strip().lower().replace("-", "_")


def register_flow(name: str, factory: FlowFactory, overwrite: bool = False) -> None:
    """Register *factory* under *name* ("-" and "_" are interchangeable).

    Factories are called with keyword arguments ``evaluator``, ``delay_model``,
    ``area_model``, ``extractor`` and ``validate_every``; each factory picks
    the ones it needs and must ignore the rest.
    """
    key = _canonical(name)
    if not overwrite and key in _FLOW_FACTORIES:
        raise OptimizationError(f"flow {name!r} is already registered")
    _FLOW_FACTORIES[key] = factory


def available_flows() -> List[str]:
    """Sorted names of all registered flows."""
    return sorted(_FLOW_FACTORIES)


def create_flow(
    name: str,
    evaluator: Optional[Evaluator] = None,
    delay_model: Any = None,
    area_model: Any = None,
    extractor: Any = None,
    validate_every: int = 10,
) -> OptimizationFlow:
    """Instantiate the registered flow *name* with the given collaborators."""
    key = _canonical(name)
    factory = _FLOW_FACTORIES.get(key)
    if factory is None:
        raise OptimizationError(
            f"unknown flow {name!r}; available: {', '.join(available_flows())}"
        )
    return factory(
        evaluator=evaluator,
        delay_model=delay_model,
        area_model=area_model,
        extractor=extractor,
        validate_every=validate_every,
    )


def _make_baseline(evaluator=None, **_: Any) -> OptimizationFlow:
    return BaselineFlow(evaluator=evaluator)


def _make_ground_truth(evaluator=None, **_: Any) -> OptimizationFlow:
    return GroundTruthFlow(evaluator=evaluator)


def _make_ml(
    evaluator=None, delay_model=None, area_model=None, extractor=None, **_: Any
) -> OptimizationFlow:
    if delay_model is None:
        raise OptimizationError("the 'ml' flow requires a delay model")
    return MlFlow(
        delay_model, area_model=area_model, extractor=extractor, evaluator=evaluator
    )


def _make_hybrid(
    evaluator=None,
    delay_model=None,
    area_model=None,
    extractor=None,
    validate_every: int = 10,
    **_: Any,
) -> OptimizationFlow:
    from repro.opt.hybrid import HybridFlow

    if delay_model is None:
        raise OptimizationError("the 'hybrid' flow requires a delay model")
    return HybridFlow(
        delay_model,
        area_model=area_model,
        validate_every=validate_every,
        extractor=extractor,
        evaluator=evaluator,
    )


register_flow("baseline", _make_baseline)
register_flow("ground_truth", _make_ground_truth)
register_flow("ml", _make_ml)
register_flow("hybrid", _make_hybrid)


# --------------------------------------------------------------------------- #
# Evaluator registry
# --------------------------------------------------------------------------- #
EvaluatorFactory = Callable[..., Evaluator]

_EVALUATOR_FACTORIES: Dict[str, EvaluatorFactory] = {}


def register_evaluator(
    name: str, factory: EvaluatorFactory, overwrite: bool = False
) -> None:
    """Register an evaluator *factory* under *name* ("-"/"_" interchangeable).

    Factories are called with keyword arguments ``library``,
    ``mapping_options``, ``cache_entries`` and ``parallel_workers``; each
    factory picks the ones it needs and must ignore the rest.
    """
    key = _canonical(name)
    if not overwrite and key in _EVALUATOR_FACTORIES:
        raise OptimizationError(f"evaluator {name!r} is already registered")
    _EVALUATOR_FACTORIES[key] = factory


def available_evaluators() -> List[str]:
    """Sorted names of all registered evaluator kinds."""
    return sorted(_EVALUATOR_FACTORIES)


def create_evaluator(name: str, **kwargs: Any) -> Evaluator:
    """Instantiate the registered evaluator kind *name*."""
    key = _canonical(name)
    factory = _EVALUATOR_FACTORIES.get(key)
    if factory is None:
        raise OptimizationError(
            f"unknown evaluator {name!r}; available: {', '.join(available_evaluators())}"
        )
    return factory(**kwargs)


def _make_ground_truth_evaluator(
    library=None, mapping_options=None, **_: Any
) -> Evaluator:
    from repro.evaluation import GroundTruthEvaluator

    return GroundTruthEvaluator(library, mapping_options)


def _make_cached_evaluator(
    library=None, mapping_options=None, cache_entries: Optional[int] = None, **_: Any
) -> Evaluator:
    from repro.api.evaluators import CachedEvaluator
    from repro.evaluation import GroundTruthEvaluator

    return CachedEvaluator(
        GroundTruthEvaluator(library, mapping_options), max_entries=cache_entries
    )


def _make_parallel_evaluator(
    library=None, mapping_options=None, parallel_workers: Optional[int] = None, **_: Any
) -> Evaluator:
    from repro.api.evaluators import ParallelEvaluator

    return ParallelEvaluator(library, mapping_options, max_workers=parallel_workers)


register_evaluator("ground_truth", _make_ground_truth_evaluator)
register_evaluator("cached", _make_cached_evaluator)
register_evaluator("parallel", _make_parallel_evaluator)
# Kept as an alias of "cached" so campaign specs, cell ids and stores that
# name it stay valid.
register_evaluator("incremental", _make_cached_evaluator)


class ModelRegistry:
    """Named trained models, resolvable by name, path, or passthrough object."""

    def __init__(self) -> None:
        self._models: Dict[str, Any] = {}

    def register(self, name: str, model: Any) -> None:
        """Store *model* under *name*, replacing any previous entry."""
        self._models[name] = model

    def names(self) -> List[str]:
        """Sorted names of registered models."""
        return sorted(self._models)

    def resolve(self, model: Any) -> Any:
        """Turn a model reference into a model object.

        Accepts ``None`` (returned as-is), a registered name, a path to a
        model JSON saved by :func:`repro.ml.model_io.save_gbdt`, or an
        already-constructed model object (anything with ``predict``).
        """
        if model is None:
            return None
        if isinstance(model, (str, Path)):
            key = str(model)
            if key in self._models:
                return self._models[key]
            path = Path(model)
            if path.exists():
                from repro.ml.model_io import load_gbdt

                loaded = load_gbdt(path)
                self._models[key] = loaded
                return loaded
            raise OptimizationError(
                f"unknown model {key!r}: not a registered name and not a file"
            )
        if not hasattr(model, "predict"):
            raise OptimizationError(
                f"model object {model!r} has no predict() method"
            )
        return model
