"""Learning curve: prediction accuracy versus training-set size.

The paper labels 40 000 AIG variants per design; this reproduction defaults
to far fewer for runtime reasons.  The learning-curve experiment quantifies
what that scaling knob costs: the delay model is retrained on increasing
numbers of variants per training design and evaluated, at every size, on the
full corpora of the unseen test designs.  The resulting curve shows how
quickly accuracy saturates and supports the scaled-down defaults documented
in DESIGN.md.

Each curve point (one training-set size) is an independent model fit, so
every point is one campaign-engine cell: pass a file-backed (or sharded)
store to resume an interrupted curve, and ``max_workers > 1`` to fit the
points concurrently.  Cell identities fingerprint the labelled corpora by
content — regenerating the data invalidates every resumed point.
"""

from __future__ import annotations

import hashlib
from dataclasses import astuple, dataclass
from typing import Any, Dict, List, Optional, Sequence

import numpy as np

from repro.campaign.runner import EngineCell, run_cells
from repro.campaign.schedule import SchedulerLike
from repro.campaign.spec import cell_id_for
from repro.campaign.store import CellResultStore, ResultStore
from repro.datagen.generator import DatasetGenerator, DesignCorpus, GenerationConfig
from repro.errors import CampaignError
from repro.experiments.config import ExperimentConfig
from repro.experiments.report import format_table
from repro.ml.gbdt import GbdtParams, GradientBoostingRegressor
from repro.utils.timer import Timer
from repro.ml.metrics import percent_error_stats

_CELL_FN = "repro.experiments.learning_curve:run_learning_curve_cell"


@dataclass
class LearningCurvePoint:
    """Accuracy of a model trained with *samples_per_design* variants."""

    samples_per_design: int
    train_error_percent: float
    test_error_percent: float
    training_seconds: float


@dataclass
class LearningCurveResult:
    """The full accuracy-versus-data curve."""

    points: List[LearningCurvePoint]
    train_designs: List[str]
    test_designs: List[str]

    @property
    def best_test_error(self) -> float:
        """Smallest unseen-design error over the curve."""
        return min(point.test_error_percent for point in self.points)

    def format_table(self) -> str:
        rows = [
            (
                point.samples_per_design,
                f"{point.train_error_percent:.2f}%",
                f"{point.test_error_percent:.2f}%",
                f"{point.training_seconds:.2f}s",
            )
            for point in self.points
        ]
        return format_table(
            ["samples/design", "train mean %err", "unseen mean %err", "train time"],
            rows,
            title="Learning curve — delay-prediction error vs training-set size",
        )


def corpora_fingerprint(corpora: Dict[str, DesignCorpus]) -> str:
    """Content identity of labelled corpora for campaign cell ids.

    Hashes the features and delay labels of every design, so regenerated
    (or re-labelled) data invalidates any resumed curve point exactly like
    editing a design file invalidates its optimize cells.
    """
    digest = hashlib.sha256()
    for name in sorted(corpora):
        corpus = corpora[name]
        digest.update(name.encode("utf-8"))
        digest.update(np.ascontiguousarray(corpus.features).tobytes())
        digest.update(np.ascontiguousarray(corpus.delays_ps).tobytes())
    return digest.hexdigest()[:16]


#: corpora shared with in-process (and fork-inherited pool) cell workers,
#: keyed by content fingerprint so stale data can never be picked up.
_CORPORA_REGISTRY: Dict[str, Dict[str, DesignCorpus]] = {}


def _register_corpora(fingerprint: str, corpora: Dict[str, DesignCorpus]) -> None:
    if len(_CORPORA_REGISTRY) >= 2 and fingerprint not in _CORPORA_REGISTRY:
        _CORPORA_REGISTRY.pop(next(iter(_CORPORA_REGISTRY)))
    _CORPORA_REGISTRY[fingerprint] = corpora


def _corpora_travel_inline() -> bool:
    """Whether cell payloads must carry the corpora themselves.

    Serial cells run in this process and pool workers on fork platforms
    inherit the registry, so the multi-megabyte corpora only need to ride
    inside every payload (pickled once per cell) on spawn-style platforms.
    """
    import multiprocessing

    try:
        return multiprocessing.get_start_method() != "fork"
    # repro-lint: ignore[C3] -- capability probe: a platform with
    # no start method at all gets the conservative default (assume spawn).
    except Exception:  # pragma: no cover - platform without a start method
        return True


def _mean_error(
    model: GradientBoostingRegressor, corpora: Dict[str, DesignCorpus], designs: Sequence[str]
) -> float:
    errors = []
    for design in designs:
        corpus = corpora[design]
        stats = percent_error_stats(corpus.delays_ps, model.predict(corpus.features))
        errors.append(stats.mean)
    return float(np.mean(errors)) if errors else 0.0


def run_learning_curve_cell(payload: Dict[str, Any]) -> Dict[str, Any]:
    """Fit the delay model at one training-set size and score it."""
    corpora: Optional[Dict[str, DesignCorpus]] = _CORPORA_REGISTRY.get(
        str(payload["corpora"])
    )
    if corpora is None:
        corpora = payload["corpora_obj"]
    count = int(payload["samples_per_design"])
    train_designs = list(payload["train_designs"])
    test_designs = list(payload["test_designs"])
    params = GbdtParams(*payload["gbdt_params"])

    features = []
    labels = []
    for design in train_designs:
        corpus = corpora[design]
        take = min(count, corpus.features.shape[0])
        features.append(corpus.features[:take])
        labels.append(corpus.delays_ps[:take])
    train_features = np.vstack(features)
    train_labels = np.concatenate(labels)

    with Timer() as training_timer:
        model = GradientBoostingRegressor(params, rng=int(payload["seed"]))
        model.fit(train_features, train_labels)
    elapsed = training_timer.elapsed

    return {
        "samples_per_design": count,
        "train_error_percent": _mean_error(model, corpora, train_designs),
        "test_error_percent": _mean_error(model, corpora, test_designs),
        "training_seconds": elapsed,
    }


def run_learning_curve(
    config: Optional[ExperimentConfig] = None,
    sample_counts: Optional[Sequence[int]] = None,
    corpora: Optional[Dict[str, DesignCorpus]] = None,
    store: Optional[CellResultStore] = None,
    max_workers: int = 1,
    scheduler: SchedulerLike = None,
) -> LearningCurveResult:
    """Train the delay model at several training-set sizes and evaluate each.

    When *corpora* is supplied it must contain at least ``max(sample_counts)``
    variants per training design; smaller training sets are produced by
    truncation so every point reuses the same labelled data (no re-labelling).
    The per-size sweep runs through the campaign engine: *store* makes it
    resumable, *max_workers* fits curve points concurrently.
    """
    cfg = config or ExperimentConfig()
    if sample_counts is None:
        largest = cfg.samples_per_design
        sample_counts = sorted({max(4, largest // 4), max(6, largest // 2), largest})
    if not sample_counts:
        raise ValueError("sample_counts must not be empty")
    largest = max(sample_counts)

    generator = DatasetGenerator(
        GenerationConfig(samples_per_design=largest, seed=cfg.seed)
    )
    if corpora is None:
        corpora = generator.generate(cfg.all_designs(), rng=cfg.seed)

    train_designs = [d for d in cfg.train_designs if d in corpora]
    test_designs = [d for d in cfg.test_designs if d in corpora]
    data_fingerprint = corpora_fingerprint(corpora)
    _register_corpora(data_fingerprint, corpora)
    ship_inline = max_workers > 1 and _corpora_travel_inline()
    params_tuple = list(astuple(cfg.gbdt_params))

    cells: List[EngineCell] = []
    counts = sorted(sample_counts)
    for count in counts:
        identity = {
            "experiment": "learning_curve",
            "samples_per_design": count,
            "train_designs": train_designs,
            "test_designs": test_designs,
            "corpora": data_fingerprint,
            "gbdt_params": params_tuple,
            "seed": cfg.seed,
        }
        payload = dict(identity)
        if ship_inline:
            payload["corpora_obj"] = corpora
        cells.append(
            EngineCell(cell_id=cell_id_for(identity), fn=_CELL_FN, payload=payload)
        )
    result_store = store if store is not None else ResultStore()
    run_cells(cells, result_store, max_workers=max_workers, scheduler=scheduler)

    latest = result_store.latest()
    points: List[LearningCurvePoint] = []
    for count, cell in zip(counts, cells):
        record = latest.get(cell.cell_id)
        if record is None or record.get("status") != "ok":
            error = record.get("error", "never executed") if record else "never executed"
            raise CampaignError(
                f"learning-curve cell for {count} samples/design failed: {error}"
            )
        points.append(
            LearningCurvePoint(
                samples_per_design=int(record["samples_per_design"]),
                train_error_percent=float(record["train_error_percent"]),
                test_error_percent=float(record["test_error_percent"]),
                training_seconds=float(record["training_seconds"]),
            )
        )

    return LearningCurveResult(
        points=points, train_designs=train_designs, test_designs=test_designs
    )
