"""Pieces every workload shares: seeds, set-up timing, the label-and-fit pass, digests."""

from __future__ import annotations

import hashlib
import json
import resource
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from layerbench.summary import median, mape_pct
from layerbench.tracer import now

#: The paper's split: models learn on the train specs, are scored on the test specs.
TRAIN_SPECS = ("EX00", "EX08", "EX28", "EX68")
TEST_SPECS = ("EX02", "EX11", "EX16", "EX54")

#: Set-up is repeated this many times per run and its median reported.
SETUP_REPEATS = 3

#: The scoring recipe: workloads without a labelling step of their own
#: label, fit and score this corpus outside their own timing, so every
#: workload reports model error and training throughput.  label_train also
#: reports the error of SCORE_TREES-tree fits of its labels.
SCORE_TRAIN_VARIANTS = 16
SCORE_TEST_VARIANTS = 8
SCORE_TREES = 50


def derive(seed: int, *labels: Any) -> int:
    """A sub-seed that depends only on the workload seed and *labels*."""
    material = ":".join(str(part) for part in (seed,) + labels)
    return int(hashlib.sha256(material.encode("utf-8")).hexdigest()[:8], 16)


def peak_rss_mb() -> float:
    """Peak resident set size of this process, in MB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


@dataclass
class Context:
    """What the command line hands a workload."""

    workload: str
    seed: int
    seconds: float
    trace: bool
    root: Path
    work: Path
    started: float
    #: In a traced run: what the untraced run of the same seed measured
    #: (``count`` of units, timed ``seconds``), so both time the same work.
    reference: Optional[Dict[str, Any]] = None


def run_record_path(work: Path, workload: str, seed: int) -> Path:
    return work / "runs" / f"{workload}-seed{seed}.json"


def save_run_record(ctx: Context, **fields: Any) -> None:
    """Record how much work an untraced run timed, for the traced run that follows."""
    path = run_record_path(ctx.work, ctx.workload, ctx.seed)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(fields, sort_keys=True), encoding="utf-8")


@dataclass
class Outcome:
    """A workload's measurements and verdicts."""

    end_to_end: Dict[str, float] = field(default_factory=dict)
    per_layer: Dict[str, float] = field(default_factory=dict)
    attempted: int = 0
    problems: List[str] = field(default_factory=list)
    #: Deterministic outputs (QoR, MAPE, service records) for cross-run checks.
    digest: Dict[str, Any] = field(default_factory=dict)

    def check(self, ok: bool, message: str) -> bool:
        """Count one verdict; record *message* when it fails."""
        self.attempted += 1
        if not ok:
            self.problems.append(message)
        return ok


def timed_setup(ctx: Context, build: Callable[[], Any]) -> Tuple[Any, float]:
    """Run *build* :data:`SETUP_REPEATS` times; return the last product and set-up seconds.

    Set-up seconds are the process's time to its first build (imports) plus
    the median build time.
    """
    imports = now() - ctx.started
    durations = []
    product = None
    for _ in range(SETUP_REPEATS):
        if product is not None and hasattr(product, "close"):
            product.close()
        start = now()
        product = build()
        durations.append(now() - start)
    return product, imports + median(durations)


@dataclass(frozen=True)
class Row:
    """One seeded design variant of the corpus."""

    spec: str
    seed: int
    train: bool


def corpus(seed: int, train_variants: int, test_variants: int) -> List[Row]:
    """Seeded variants of the train specs (fit rows) and the test specs (scored rows)."""
    rows = [Row(spec, derive(seed, "label", spec, i), True) for spec in TRAIN_SPECS for i in range(train_variants)]
    rows += [Row(spec, derive(seed, "label", spec, i), False) for spec in TEST_SPECS for i in range(test_variants)]
    return rows


def build_rows(rows: Sequence[Row]) -> List[Any]:
    """Fresh graphs (no cached cuts or cut arrays) for *rows*."""
    from repro.designs.registry import build_design

    return [build_design(row.spec, seed=row.seed, use_cache=False) for row in rows]


@dataclass
class Fitted:
    """One label-and-fit pass: cold labels and features per row, two GBDTs, test error."""

    seconds: float
    window: Tuple[float, float]
    sample_seconds: List[float]
    fit_seconds: float
    boosting_rounds: int
    delays: List[float]
    areas: List[float]
    delay_model: Any
    area_model: Any
    delay_mape: Optional[float]
    area_mape: Optional[float]

    def key(self) -> Tuple[Any, ...]:
        return (tuple(self.delays), tuple(self.areas), self.delay_mape, self.area_mape)


class Labeller:
    """Cold labels (through a fresh session's cached evaluator) and features of *aigs*, in steps.

    The labeller owns the graphs and drops each one once it is labelled, so
    peak memory does not grow with the number of passes a run makes.
    """

    def __init__(self, library: Any, aigs: List[Any]) -> None:
        from repro.api import SynthesisSession
        from repro.features.extract import FeatureExtractor

        self.aigs: List[Optional[Any]] = aigs
        self.session = SynthesisSession(library=library)
        self.extractor = FeatureExtractor()
        self.labels: List[Any] = []
        self.features: List[Any] = []
        self.sample_seconds: List[float] = []

    def step(self, count: int) -> None:
        """Label the next *count* graphs (fewer when fewer are left)."""
        for index in range(len(self.labels), min(len(self.labels) + count, len(self.aigs))):
            aig, self.aigs[index] = self.aigs[index], None
            began = now()
            self.labels.append(self.session.evaluator.evaluate(aig))
            self.features.append(self.extractor.extract(aig))
            self.sample_seconds.append(now() - began)


def fit_and_score(labeller: Labeller, rows: Sequence[Row], params: Any, seed: int, start: float) -> Fitted:
    """Fit delay and area GBDTs on the train rows of a finished *labeller*, score its test rows."""
    import numpy as np

    from repro.ml.gbdt import GradientBoostingRegressor

    matrix = np.vstack(labeller.features)
    train = np.array([row.train for row in rows])
    delays = np.array([ppa.delay_ps for ppa in labeller.labels])
    areas = np.array([ppa.area_um2 for ppa in labeller.labels])
    fit_start = now()
    delay_model = GradientBoostingRegressor(params, rng=derive(seed, "fit", "delay"))
    delay_model.fit(matrix[train], delays[train])
    area_model = GradientBoostingRegressor(params, rng=derive(seed, "fit", "area"))
    area_model.fit(matrix[train], areas[train])
    fit_seconds = now() - fit_start
    test = ~train
    delay_mape = area_mape = None
    if test.any():
        delay_mape = mape_pct(delays[test].tolist(), delay_model.predict(matrix[test]).tolist())
        area_mape = mape_pct(areas[test].tolist(), area_model.predict(matrix[test]).tolist())
    end = now()
    return Fitted(
        end - start, (start, end), labeller.sample_seconds, fit_seconds, 2 * params.n_estimators,
        delays.tolist(), areas.tolist(), delay_model, area_model, delay_mape, area_mape,
    )


def label_and_fit(library: Any, rows: Sequence[Row], aigs: List[Any], params: Any, seed: int) -> Fitted:
    """Label *aigs* through a fresh session's cached evaluator, fit on train rows, score test rows."""
    labeller = Labeller(library, aigs)
    start = now()
    labeller.step(len(rows))
    return fit_and_score(labeller, rows, params, seed, start)


class ScoringRecipe:
    """Model error and training throughput for the workloads without a labelling step of their own.

    The recipe labels a smaller corpus of label_train's shape, fits two
    :data:`SCORE_TREES`-tree GBDTs and scores the test rows.  Its graphs are
    built untimed when it is made; :meth:`step` labels a few of them, so a
    workload can spread the labelling over its run and the throughput
    averages over as much of the host's speed drift as the workload's own
    metrics do.
    """

    def __init__(self, library: Any, seed: int) -> None:
        self.seed = seed
        self.rows = corpus(seed, SCORE_TRAIN_VARIANTS, SCORE_TEST_VARIANTS)
        self.labeller = Labeller(library, build_rows(self.rows))
        self.seconds = 0.0

    def step(self, count: int) -> None:
        start = now()
        self.labeller.step(count)
        self.seconds += now() - start

    def finish(self) -> Dict[str, float]:
        """Label what is left, fit and score; the three stand-in metrics."""
        from repro.ml.gbdt import GbdtParams

        self.step(len(self.rows))
        fitted = fit_and_score(self.labeller, self.rows, GbdtParams(n_estimators=SCORE_TREES), self.seed, now())
        return {
            "train_samples_per_s": len(self.rows) / (self.seconds + fitted.seconds),
            "delay_mape_pct": fitted.delay_mape,
            "area_mape_pct": fitted.area_mape,
        }


def check_digest(ctx: Context, outcome: Outcome) -> None:
    """Compare this run's deterministic outputs with earlier runs of the same seed.

    The digest maps output keys (a design, a job id) to values; keys seen
    by both runs must agree.  A run that timed more work adds its new keys.
    """
    path = ctx.work / "digests" / f"{ctx.workload}-seed{ctx.seed}.json"
    current = json.loads(json.dumps(outcome.digest))
    previous = json.loads(path.read_text(encoding="utf-8")) if path.exists() else {}
    differing = sorted(key for key in set(previous) & set(current) if previous[key] != current[key])
    outcome.check(
        not differing, f"outputs {differing[:3]} differ from an earlier run with seed {ctx.seed}"
    )
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps({**current, **previous}, sort_keys=True), encoding="utf-8")


def overhead_pct(untraced: float, traced: float) -> float:
    """Traced wall time over untraced wall time of the same work, as a percentage."""
    return (traced / untraced - 1.0) * 100.0 if untraced > 0 else 0.0
