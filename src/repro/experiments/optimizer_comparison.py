"""Search-algorithm comparison under the ML cost function.

The paper argues its delay/area predictors are not tied to simulated
annealing ("our models can also be integrated into other conventional
approaches besides SA").  This experiment substantiates that claim: the same
ML cost function drives simulated annealing, a greedy steepest-descent
search, and a genetic algorithm, each given (approximately) the same number
of cost evaluations, and the resulting best AIGs are compared on their
*ground-truth* post-mapping delay and area.

Each algorithm is one campaign-engine cell, so the comparison can be
resumed from a file-backed store or fanned across workers like any other
suite run (an injected evaluator forces serial in-process execution so its
shared state stays meaningful).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional

from repro.aig.graph import Aig
from repro.campaign.runner import EngineCell, run_cells
from repro.campaign.schedule import SchedulerLike
from repro.campaign.spec import cell_id_for, model_fingerprint
from repro.campaign.store import CellResultStore, ResultStore
from repro.designs.registry import build_design
from repro.errors import CampaignError
from repro.evaluation import GroundTruthEvaluator
from repro.experiments.config import ExperimentConfig
from repro.experiments.report import format_table
from repro.opt.annealing import AnnealingConfig, SimulatedAnnealing
from repro.opt.budget import genetic_config_for_budget, greedy_config_for_budget
from repro.opt.cost import MlCost, ProxyCost
from repro.opt.genetic import GeneticOptimizer
from repro.opt.greedy import GreedyOptimizer

_CELL_FN = "repro.experiments.optimizer_comparison:run_optimizer_cell"


def delay_guard_tolerance(budget: int) -> float:
    """Allowed final-vs-initial delay ratio for the benchmark sanity guard.

    Every algorithm keeps the best candidate seen, so at realistic budgets
    the optimized design can only be marginally worse than the unoptimized
    one under the *ground-truth* metric (the ML cost ranks candidates with
    a model, so a small inversion is possible).  At tiny smoke budgets
    (single-digit evaluations) the searches are still in their random
    opening moves and the model has almost nothing to choose between, so
    the guard must widen rather than flake — the historical ±10 % band is
    only statistically sound from a few dozen evaluations up.
    """
    if budget >= 24:
        return 1.10
    if budget >= 8:
        return 1.25
    return 1.50


@dataclass
class OptimizerRow:
    """Outcome of one search algorithm on one design."""

    algorithm: str
    cost_function: str
    ground_truth_delay_ps: float
    ground_truth_area_um2: float
    cost_evaluations: int
    runtime_seconds: float


@dataclass
class OptimizerComparisonResult:
    """All algorithms, plus the unoptimized reference point."""

    design: str
    initial_delay_ps: float
    initial_area_um2: float
    rows: List[OptimizerRow]

    def best_row(self) -> OptimizerRow:
        """Row with the smallest ground-truth delay (ties broken by area)."""
        return min(
            self.rows, key=lambda row: (row.ground_truth_delay_ps, row.ground_truth_area_um2)
        )

    def row(self, algorithm: str) -> OptimizerRow:
        """Row of a specific algorithm."""
        for candidate in self.rows:
            if candidate.algorithm == algorithm:
                return candidate
        raise KeyError(f"no result for algorithm {algorithm!r}")

    def format_table(self) -> str:
        rows = [
            (
                row.algorithm,
                row.cost_function,
                f"{row.ground_truth_delay_ps:.1f}",
                f"{row.ground_truth_area_um2:.1f}",
                row.cost_evaluations,
                f"{row.runtime_seconds:.2f}s",
            )
            for row in self.rows
        ]
        table = format_table(
            ["algorithm", "cost", "delay (ps)", "area (um2)", "evaluations", "runtime"],
            rows,
            title=f"Search-algorithm comparison on {self.design} (ground-truth PPA of best AIG)",
        )
        return (
            table
            + f"\nunoptimized reference: delay = {self.initial_delay_ps:.1f} ps, "
            + f"area = {self.initial_area_um2:.1f} um2"
        )


def run_optimizer_cell(payload: Dict[str, Any]) -> Dict[str, Any]:
    """Run one search algorithm on one design and report ground-truth PPA."""
    algorithm = str(payload["algorithm"])
    cost_kind = str(payload["cost_function"])
    budget = int(payload["budget"])
    seed = int(payload["seed"])
    aig: Aig = payload["aig"] if payload.get("aig") is not None else build_design(
        str(payload["design"])
    )
    evaluator = payload.get("evaluator")
    if evaluator is None:
        # No injected shared evaluator: use this worker's persistent
        # ground-truth session so the mapper stays warm across cells.
        from repro.campaign.cells import session_for_cell

        evaluator = session_for_cell({"evaluator": "ground_truth"}).evaluator
    if cost_kind == "ml":
        cost = MlCost(payload["delay_model"], area_model=payload.get("area_model"))
    else:
        cost = ProxyCost()

    if algorithm == "simulated_annealing":
        result = SimulatedAnnealing(
            cost, AnnealingConfig(iterations=budget, keep_history=False), rng=seed
        ).run(aig)
        evaluations = result.iterations_run + 1
    elif algorithm == "greedy":
        result = GreedyOptimizer(
            cost, greedy_config_for_budget(budget), rng=seed
        ).run(aig)
        evaluations = result.evaluations
    elif algorithm == "genetic":
        result = GeneticOptimizer(
            cost, genetic_config_for_budget(budget), rng=seed
        ).run(aig)
        evaluations = result.evaluations
    else:
        raise CampaignError(f"unknown algorithm {algorithm!r}")

    ppa = evaluator.evaluate(result.best_aig)
    return {
        # design/budget are what the cost scheduler's observed-runtime
        # calibration groups and normalises on — keep them in the record.
        "design": str(payload["design"]),
        "budget": budget,
        "algorithm": algorithm,
        "cost_function": cost_kind,
        "ground_truth_delay_ps": ppa.delay_ps,
        "ground_truth_area_um2": ppa.area_um2,
        "cost_evaluations": evaluations,
        "runtime_seconds": result.runtime_seconds,
    }


def run_optimizer_comparison(
    delay_model,
    config: Optional[ExperimentConfig] = None,
    design: Optional[str] = None,
    area_model=None,
    initial: Optional[Aig] = None,
    include_proxy_baseline: bool = True,
    evaluator=None,
    store: Optional[CellResultStore] = None,
    max_workers: int = 1,
    scheduler: SchedulerLike = None,
) -> OptimizerComparisonResult:
    """Drive SA, greedy search, and a GA with the same ML cost function.

    The evaluation budget of every algorithm is derived from
    ``config.sa_iterations`` so the comparison is evaluation-count fair.
    An injected *evaluator* (cached or parallel) serves every
    ground-truth check, so repeated and structurally overlapping best-AIG
    evaluations share one state pool; injecting one forces serial execution
    (a process pool would silently fork that shared state).
    """
    cfg = config or ExperimentConfig()
    design_name = design or (cfg.test_designs[0] if cfg.test_designs else cfg.train_designs[0])
    aig = initial if initial is not None else build_design(design_name)
    shared_evaluator = evaluator
    if shared_evaluator is not None:
        max_workers = 1
    initial_ppa = (shared_evaluator or GroundTruthEvaluator()).evaluate(aig)

    budget = max(cfg.sa_iterations, 4)
    matrix = [
        ("simulated_annealing", "ml", cfg.seed),
        ("greedy", "ml", cfg.seed + 1),
        ("genetic", "ml", cfg.seed + 2),
    ]
    if include_proxy_baseline:
        # Proxy-cost SA baseline for context (the conventional flow).
        matrix.append(("simulated_annealing", "proxy", cfg.seed))

    cells: List[EngineCell] = []
    for algorithm, cost_kind, seed in matrix:
        identity = {
            "experiment": "optimizer_comparison",
            "design": design_name,
            "aig_key": aig.exact_key() if initial is not None else None,
            "algorithm": algorithm,
            "cost_function": cost_kind,
            "budget": budget,
            "seed": seed,
            # Retraining a model must invalidate resumed cells that used it.
            "delay_model": model_fingerprint(delay_model) if cost_kind == "ml" else None,
            "area_model": model_fingerprint(area_model) if cost_kind == "ml" else None,
        }
        payload = dict(identity)
        payload.update(
            {
                "aig": initial,
                "delay_model": delay_model,
                "area_model": area_model,
                "evaluator": shared_evaluator,
            }
        )
        cells.append(
            EngineCell(cell_id=cell_id_for(identity), fn=_CELL_FN, payload=payload)
        )

    result_store = store if store is not None else ResultStore()
    run_cells(cells, result_store, max_workers=max_workers, scheduler=scheduler)

    latest = result_store.latest()
    rows: List[OptimizerRow] = []
    for cell in cells:
        record = latest.get(cell.cell_id)
        if record is None or record.get("status") != "ok":
            error = record.get("error", "never executed") if record else "never executed"
            raise CampaignError(
                f"optimizer cell {cell.payload['algorithm']}/"
                f"{cell.payload['cost_function']} failed: {error}"
            )
        rows.append(
            OptimizerRow(
                algorithm=str(record["algorithm"]),
                cost_function=str(record["cost_function"]),
                ground_truth_delay_ps=float(record["ground_truth_delay_ps"]),
                ground_truth_area_um2=float(record["ground_truth_area_um2"]),
                cost_evaluations=int(record["cost_evaluations"]),
                runtime_seconds=float(record["runtime_seconds"]),
            )
        )
    return OptimizerComparisonResult(
        design=design_name,
        initial_delay_ps=initial_ppa.delay_ps,
        initial_area_um2=initial_ppa.area_um2,
        rows=rows,
    )
