"""Fig. 2 — per-iteration runtime of the baseline vs ground-truth flows.

The paper times one iteration of the original (proxy-driven) optimization
flow against one iteration of the ground-truth flow (which adds technology
mapping and STA) on the eight benchmark designs and observes slowdowns of up
to roughly 20x, growing with design size.  This experiment measures the same
two quantities per design with the SA engine's stage timers.  Each design is
one campaign-engine cell, so the sweep is resumable from a file-backed (or
sharded) store and fans across a process pool like any other suite run; the
cells deliberately build *fresh* flows and evaluators — runtime is the
quantity being measured, so nothing here may come out of a warm cache.

Note on absolute ratios: the paper's transformations run inside ABC (C code),
so its per-iteration baseline cost is very small; in this pure-Python stack
the transformation step is relatively more expensive and the overall ratio is
smaller, but the qualitative result — the ground-truth flow's overhead is the
mapping + STA step and grows with design size — is unchanged.  Table IV's
comparison of the *added* per-iteration cost (mapping+STA vs ML inference) is
unaffected by this difference.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence

from repro.campaign.runner import EngineCell, run_cells
from repro.campaign.schedule import SchedulerLike
from repro.campaign.spec import cell_id_for, default_context_fingerprint
from repro.campaign.store import CellResultStore, ResultStore
from repro.designs.registry import build_design
from repro.errors import CampaignError
from repro.experiments.config import ExperimentConfig
from repro.experiments.report import format_table
from repro.opt.annealing import AnnealingConfig
from repro.opt.flows import BaselineFlow, GroundTruthFlow, measure_iteration_runtime

_CELL_FN = "repro.experiments.fig2_runtime:run_fig2_cell"


@dataclass
class RuntimeComparison:
    """Per-design baseline vs ground-truth per-iteration runtime."""

    design: str
    num_ands: int
    baseline_seconds: float
    ground_truth_seconds: float

    @property
    def slowdown(self) -> float:
        """Ground-truth flow runtime divided by baseline runtime."""
        if self.baseline_seconds <= 0:
            return float("inf")
        return self.ground_truth_seconds / self.baseline_seconds


@dataclass
class Fig2Result:
    """All per-design runtime comparisons."""

    rows: List[RuntimeComparison]

    @property
    def max_slowdown(self) -> float:
        """Largest slowdown over the designs (paper: ~20x)."""
        return max(row.slowdown for row in self.rows)

    @property
    def mean_slowdown(self) -> float:
        """Mean slowdown over the designs."""
        return sum(row.slowdown for row in self.rows) / len(self.rows)

    def format_table(self) -> str:
        rows = [
            (
                f"{row.design} ({row.num_ands})",
                row.baseline_seconds,
                row.ground_truth_seconds,
                f"{row.slowdown:.1f}x",
            )
            for row in sorted(self.rows, key=lambda r: r.num_ands)
        ]
        table = format_table(
            ["design (#nodes)", "baseline s/iter", "ground-truth s/iter", "slowdown"],
            rows,
            title="Fig. 2 reproduction — per-iteration runtime, baseline vs ground truth",
            float_format="{:.4f}",
        )
        return table + (
            f"\nmean slowdown = {self.mean_slowdown:.1f}x, "
            f"max slowdown = {self.max_slowdown:.1f}x"
        )


def run_fig2_cell(payload: Dict[str, Any]) -> Dict[str, Any]:
    """Time baseline vs ground-truth iterations on one design.

    Flows and evaluators are built fresh inside the cell: the measured
    quantity *is* the from-scratch per-iteration cost, so warm worker
    sessions must not serve it.
    """
    name = str(payload["design"])
    iterations = int(payload["iterations"])
    seed = int(payload["seed"])
    aig = build_design(name)
    run_config = AnnealingConfig(iterations=iterations, keep_history=False)
    base_rt = measure_iteration_runtime(
        BaselineFlow(), aig, iterations=iterations, rng=seed, config=run_config
    )
    gt_rt = measure_iteration_runtime(
        GroundTruthFlow(), aig, iterations=iterations, rng=seed, config=run_config
    )
    return {
        "design": name,
        # The cost scheduler normalises observed runtimes by this budget.
        "iterations": iterations,
        "num_ands": aig.num_ands,
        "baseline_seconds": base_rt.total_seconds,
        "ground_truth_seconds": gt_rt.total_seconds,
    }


def run_fig2_runtime(
    config: Optional[ExperimentConfig] = None,
    designs: Optional[Sequence[str]] = None,
    catalog: Optional[Sequence[List[str]]] = None,
    store: Optional[CellResultStore] = None,
    max_workers: int = 1,
    scheduler: SchedulerLike = None,
) -> Fig2Result:
    """Measure baseline vs ground-truth per-iteration runtime on each design.

    The per-design sweep runs through the campaign engine: *store*
    (file- or directory-backed) makes it resumable, *max_workers* fans
    designs across a process pool, *scheduler* picks the submission order.
    """
    cfg = config or ExperimentConfig()
    names = list(designs) if designs is not None else cfg.all_designs()
    # The measured ground-truth cost depends on the cell library and mapper
    # configuration, so resumed cells must invalidate when those change.
    context = default_context_fingerprint()
    cells: List[EngineCell] = []
    for name in names:
        identity = {
            "experiment": "fig2_runtime",
            "design": name,
            "iterations": cfg.runtime_iterations,
            "seed": cfg.seed,
            "context": context,
        }
        cells.append(
            EngineCell(cell_id=cell_id_for(identity), fn=_CELL_FN, payload=dict(identity))
        )
    result_store = store if store is not None else ResultStore()
    run_cells(cells, result_store, max_workers=max_workers, scheduler=scheduler)

    latest = result_store.latest()
    rows: List[RuntimeComparison] = []
    for name, cell in zip(names, cells):
        record = latest.get(cell.cell_id)
        if record is None or record.get("status") != "ok":
            error = record.get("error", "never executed") if record else "never executed"
            raise CampaignError(f"fig2 cell for design {name!r} failed: {error}")
        rows.append(
            RuntimeComparison(
                design=name,
                num_ands=int(record["num_ands"]),
                baseline_seconds=float(record["baseline_seconds"]),
                ground_truth_seconds=float(record["ground_truth_seconds"]),
            )
        )
    return Fig2Result(rows=rows)
