"""Cost-aware scheduling of pending campaign cells.

With a process pool, matrix order is a bad draining order: the big designs
tend to sit at one end of the matrix, so the pool spends its tail waiting on
a handful of late-submitted slow cells.  A :class:`Scheduler` reorders the
*pending* cells before submission — and only reorders them: execution order
never affects cell results (each cell derives its randomness from its own
id), and the engine appends records in canonical matrix order regardless,
so the store contents are identical under every scheduler.

Two policies ship:

* :class:`MatrixScheduler` (``"matrix"``) — the legacy order, exactly as
  the spec expanded.
* :class:`CostScheduler` (``"cost"``) — longest-expected-cost first.  The
  expected cost of a cell is design size × flow weight × optimizer budget,
  and whenever the result store already holds observed runtimes for the
  same (design, flow, optimizer, evaluator) group — from a previous run, a
  resumed run, or another machine's shard — the observed per-iteration
  runtime replaces the static model, so the schedule refines itself online
  as the campaign progresses.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Mapping, Optional, Protocol, Sequence, Tuple, Union

from repro.errors import CampaignError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (runner imports us)
    from repro.campaign.runner import EngineCell
    from repro.campaign.store import CellResultStore

#: relative per-iteration weight of each flow (mapping + STA dominate).
DEFAULT_FLOW_WEIGHTS: Dict[str, float] = {
    "baseline": 1.0,
    "ml": 2.5,
    "hybrid": 4.0,
    "ground_truth": 6.0,
}

#: relative weight of each evaluation strategy inside a cell.
DEFAULT_EVALUATOR_WEIGHTS: Dict[str, float] = {
    "ground_truth": 1.0,
    "cached": 0.8,
    "parallel": 1.0,
    "incremental": 0.8,
}

_DEFAULT_DESIGN_SIZE = 250.0


class Scheduler(Protocol):
    """Orders pending cells before the engine submits them."""

    def order(
        self, cells: Sequence["EngineCell"], store: "CellResultStore"
    ) -> List["EngineCell"]:  # pragma: no cover - protocol
        """Return a permutation of *cells* in submission order."""
        ...


class MatrixScheduler:
    """The legacy policy: submit cells exactly in matrix order."""

    name = "matrix"

    def order(
        self, cells: Sequence["EngineCell"], store: "CellResultStore"
    ) -> List["EngineCell"]:
        """Pending cells unchanged."""
        return list(cells)


def design_size_estimate(design: object) -> float:
    """Rough node-count proxy for a design reference.

    Registry names resolve to their spec's target AND count; external
    netlist files use the file size in bytes / 16 (AIGER/BENCH lines are a
    few tens of bytes per node); anything unknown gets a neutral default so
    scheduling degrades to flow weight × budget.
    """
    from pathlib import Path

    text = str(design)
    try:
        from repro.designs.registry import DESIGN_SPECS

        spec = DESIGN_SPECS.get(text.upper())
        if spec is not None:
            return float(spec.target_ands)
    # repro-lint: ignore[C3] -- optional registry probe: on failure the
    # estimator falls through to the name/path heuristics below.
    except Exception:  # pragma: no cover - registry import failure
        pass
    if text.lower() == "mult":
        return 1000.0
    path = Path(text)
    try:
        if path.is_file():
            return max(1.0, path.stat().st_size / 16.0)
    except OSError:  # pragma: no cover - unreadable path
        pass
    return _DEFAULT_DESIGN_SIZE


def _cell_budget(payload: Mapping[str, object]) -> float:
    for key in ("iterations", "budget", "samples_per_design", "repeats"):
        value = payload.get(key)
        if isinstance(value, (int, float)) and not isinstance(value, bool) and value > 0:
            return float(value)
    return 1.0


def _group_field(payload: Mapping[str, object], key: str) -> str:
    """A string-valued payload field, or ``"?"``.

    Payloads may carry live objects under these keys (the optimizer
    comparison injects an evaluator *object*); only plain strings are
    usable group labels — an object repr would embed a memory address and
    never match the stored record's group.
    """
    value = payload.get(key)
    return value if isinstance(value, str) else "?"


def _cost_group(payload: Mapping[str, object]) -> Tuple[str, str, str, str]:
    """The observed-runtime calibration group of a cell."""
    return (
        _group_field(payload, "design"),
        _group_field(payload, "flow"),
        _group_field(payload, "optimizer"),
        _group_field(payload, "evaluator"),
    )


class CostScheduler:
    """Longest-expected-cost-first submission order.

    Ties keep matrix order (the sort is stable on the original index), so
    the result is always a permutation of matrix order and two runs over
    the same store state produce the same schedule.
    """

    name = "cost"

    def __init__(
        self,
        flow_weights: Optional[Mapping[str, float]] = None,
        evaluator_weights: Optional[Mapping[str, float]] = None,
    ) -> None:
        self.flow_weights = dict(flow_weights or DEFAULT_FLOW_WEIGHTS)
        self.evaluator_weights = dict(evaluator_weights or DEFAULT_EVALUATOR_WEIGHTS)
        self._calibration: Dict[Tuple[str, str, str, str], Tuple[float, int]] = {}

    # ------------------------------------------------------------------ #
    def set_calibration(
        self,
        calibration: Mapping[Tuple[str, str, str, str], Mapping[str, float]],
    ) -> None:
        """Fold persisted per-group runtime observations into the model.

        *calibration* maps cost groups to ``{"sum", "count"}`` aggregates
        of observed per-iteration runtimes — the shape of a ``costs.json``
        sidecar (:func:`repro.campaign.warmstart.load_costs`).  The engine
        calls this on resume so a fresh store still schedules with last
        run's measured runtimes; observations folded here combine with the
        current store's own records in :meth:`observed_costs`.
        """
        cleaned: Dict[Tuple[str, str, str, str], Tuple[float, int]] = {}
        for group, value in calibration.items():
            try:
                total = float(value["sum"])
                count = int(value["count"])
            except (KeyError, TypeError, ValueError):
                continue
            if count > 0 and total > 0:
                cleaned[tuple(group)] = (total, count)
        self._calibration = cleaned
    def static_cost(self, payload: Mapping[str, object]) -> float:
        """Model cost of a cell: design size × flow weight × budget."""
        size = design_size_estimate(payload.get("design", ""))
        flow = self.flow_weights.get(_group_field(payload, "flow"), 1.0)
        evaluator = self.evaluator_weights.get(_group_field(payload, "evaluator"), 1.0)
        return size * flow * evaluator * _cell_budget(payload)

    def observed_costs(
        self, store: "CellResultStore"
    ) -> Dict[Tuple[str, str, str, str], float]:
        """Mean observed per-iteration runtime per calibration group.

        Combines the store's own records with any persisted calibration
        loaded through :meth:`set_calibration` (both are per-iteration
        sums/counts, so they merge exactly).
        """
        sums: Dict[Tuple[str, str, str, str], float] = {}
        counts: Dict[Tuple[str, str, str, str], int] = {}
        for group, (total, count) in self._calibration.items():
            sums[group] = total
            counts[group] = count
        for record in store.latest().values():
            if record.get("status") != "ok":
                continue
            seconds = record.get("cell_seconds")
            if not isinstance(seconds, (int, float)) or seconds <= 0:
                continue
            group = _cost_group(record)
            per_iteration = float(seconds) / _cell_budget(record)
            sums[group] = sums.get(group, 0.0) + per_iteration
            counts[group] = counts.get(group, 0) + 1
        return {group: sums[group] / counts[group] for group in sums}

    def expected_costs(
        self, cells: Sequence["EngineCell"], store: "CellResultStore"
    ) -> List[float]:
        """Expected cost of every cell, observed runtimes taking precedence."""
        observed = self.observed_costs(store)
        costs: List[float] = []
        for cell in cells:
            group = _cost_group(cell.payload)
            per_iteration = observed.get(group)
            if per_iteration is not None:
                costs.append(per_iteration * _cell_budget(cell.payload))
            else:
                costs.append(self.static_cost(cell.payload))
        return costs

    def order(
        self, cells: Sequence["EngineCell"], store: "CellResultStore"
    ) -> List["EngineCell"]:
        """Pending cells, slowest expected first (stable on matrix order)."""
        costs = self.expected_costs(cells, store)
        indexed = sorted(
            range(len(cells)), key=lambda index: (-costs[index], index)
        )
        return [cells[index] for index in indexed]


SCHEDULERS: Dict[str, type] = {
    MatrixScheduler.name: MatrixScheduler,
    CostScheduler.name: CostScheduler,
}

SchedulerLike = Union[str, Scheduler, None]


def resolve_scheduler(scheduler: SchedulerLike) -> Scheduler:
    """Turn a policy name (or ``None`` / an instance) into a scheduler."""
    if scheduler is None:
        return MatrixScheduler()
    if isinstance(scheduler, str):
        key = scheduler.strip().lower().replace("-", "_")
        factory = SCHEDULERS.get(key)
        if factory is None:
            raise CampaignError(
                f"unknown scheduler {scheduler!r}; available: {sorted(SCHEDULERS)}"
            )
        return factory()
    if not hasattr(scheduler, "order"):
        raise CampaignError(f"scheduler {scheduler!r} has no order() method")
    return scheduler
