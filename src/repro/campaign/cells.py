"""The standard campaign cell worker: one design × flow × optimizer × seed.

This module is imported by name inside pool workers, so everything here must
be importable from a fresh process and the cell function must accept one
plain payload dict (see :meth:`repro.campaign.spec.CampaignCell.payload`).

Each cell derives its randomness from a non-consuming
:func:`~repro.utils.rng.spawn_rng` stream keyed by the cell id — never from
process-global state — so the same cell computes bitwise-identical results
in any worker, at any worker count, in any scheduling order.

Cells are *logically* self-contained but share heavyweight state through
this process's persistent :class:`~repro.api.session.SessionPool`, keyed by
(evaluation-context fingerprint, evaluator kind): the cell library index,
technology mapper, and PPA cache stay warm across consecutive cells of the
same design in the same worker.  Sharing is sound because every evaluator
keys its state on the exact graph plus the library/options identity — a
pooled evaluator returns the same numbers a fresh one would, just faster.

Nested-pool guard: when the cell asks for the ``"parallel"`` evaluator but
is already executing inside the engine's process pool
(:func:`~repro.campaign.runner.in_pooled_worker`), the inner evaluator is
forced serial — a pool-per-worker would oversubscribe the host without
changing any result (the parallel evaluator's serial fallback computes
identical numbers by contract).
"""

from __future__ import annotations

import random
from typing import Any, Dict, Optional, Tuple

from repro.campaign.spec import OPTIMIZERS, canonical_name
from repro.errors import CampaignError
from repro.utils.rng import ensure_rng, spawn_rng


def cell_rng(cell_id: str, seed: int) -> random.Random:
    """The cell's private RNG stream, a pure function of (cell id, seed)."""
    parent = ensure_rng(seed)
    stream = int(cell_id[:12], 16)
    return spawn_rng(parent, stream=stream)


#: loaded models keyed by (reference, content fingerprint) — the fingerprint
#: makes retraining a model file in place a cache miss, never a stale hit.
_MODEL_CACHE: Dict[Tuple[str, Optional[str]], Any] = {}


def _load_model(reference: Optional[str], fingerprint: Optional[str] = None):
    if not reference:
        return None
    key = (str(reference), fingerprint)
    model = _MODEL_CACHE.get(key)
    if model is None:
        from repro.ml.model_io import load_gbdt

        model = load_gbdt(reference)
        if len(_MODEL_CACHE) >= 8:  # campaigns use at most a couple of models
            _MODEL_CACHE.pop(next(iter(_MODEL_CACHE)))
        _MODEL_CACHE[key] = model
    return model


def session_for_cell(payload: Dict[str, Any]):
    """The persistent worker session serving *payload*'s evaluation context.

    Applies the nested-pool guard: ``"parallel"`` cells running inside the
    engine's pool get the serial ground-truth evaluator instead (identical
    numbers, no pool-inside-pool).
    """
    from repro.api.session import worker_session_pool
    from repro.campaign.runner import in_pooled_worker

    kind = canonical_name(str(payload.get("evaluator", "cached")))
    if kind == "parallel" and in_pooled_worker():
        kind = "ground_truth"
    session = worker_session_pool().get(
        evaluator_kind=kind, context=str(payload.get("context", ""))
    )
    warm_dir = payload.get("_warmstart_dir")
    if warm_dir:
        from repro.campaign.warmstart import seed_session

        # Idempotent per (session, directory); entries only seed when the
        # snapshot context matches this session's library/options identity.
        seed_session(session, str(warm_dir))
    return session


def run_optimize_cell(payload: Dict[str, Any]) -> Dict[str, Any]:
    """Execute one optimize cell and return its (JSON-serialisable) result."""
    from repro.api.registry import create_flow
    from repro.api.session import load_design
    from repro.opt.annealing import AnnealingConfig

    optimizer = str(payload["optimizer"])
    if optimizer not in OPTIMIZERS:
        raise CampaignError(f"unknown optimizer {optimizer!r}")
    iterations = int(payload["iterations"])
    delay_weight = float(payload["delay_weight"])
    area_weight = float(payload["area_weight"])
    seed = int(payload["seed"])
    rng = cell_rng(str(payload["cell_id"]), seed)

    aig = load_design(str(payload["design"]))
    session = session_for_cell(payload)
    evaluator = session.evaluator
    flow = create_flow(
        str(payload["flow"]),
        evaluator=evaluator,
        delay_model=_load_model(
            payload.get("delay_model"), payload.get("delay_model_fingerprint")
        ),
        area_model=_load_model(
            payload.get("area_model"), payload.get("area_model_fingerprint")
        ),
    )
    initial = evaluator.evaluate(aig)

    if optimizer == "sa":
        flow_result = flow.run(
            aig,
            config=AnnealingConfig(iterations=iterations, keep_history=False),
            delay_weight=delay_weight,
            area_weight=area_weight,
            rng=rng,
        )
        best_aig = flow_result.annealing.best_aig
        final = flow_result.ground_truth
        evaluations = flow_result.annealing.iterations_run + 1
        runtime = flow_result.annealing.runtime_seconds
        stage_totals = dict(flow_result.annealing.stage_timer.totals)
    else:
        cost = flow.make_cost(delay_weight, area_weight)
        if optimizer == "greedy":
            from repro.opt.budget import greedy_config_for_budget
            from repro.opt.greedy import GreedyOptimizer

            result = GreedyOptimizer(
                cost, greedy_config_for_budget(iterations), rng=rng
            ).run(aig)
        else:  # genetic
            from repro.opt.budget import genetic_config_for_budget
            from repro.opt.genetic import GeneticOptimizer

            result = GeneticOptimizer(
                cost, genetic_config_for_budget(iterations), rng=rng
            ).run(aig)
        best_aig = result.best_aig
        final = evaluator.evaluate(best_aig)
        evaluations = result.evaluations
        runtime = result.runtime_seconds
        stage_totals = dict(result.stage_timer.totals)

    record: Dict[str, Any] = {
        key: payload[key]
        for key in (
            "design",
            "design_fingerprint",
            "flow",
            "optimizer",
            "evaluator",
            "seed",
            "iterations",
            "delay_weight",
            "area_weight",
            "context",
        )
    }
    record.update(
        {
            "initial_delay_ps": initial.delay_ps,
            "initial_area_um2": initial.area_um2,
            "final_delay_ps": final.delay_ps,
            "final_area_um2": final.area_um2,
            "num_ands_before": aig.num_ands,
            "num_ands_after": best_aig.num_ands,
            "evaluations": evaluations,
            "runtime_seconds": runtime,
            "stage_seconds": stage_totals,
        }
    )
    warm_dir = payload.get("_warmstart_dir")
    if warm_dir:
        from repro.api.session import worker_session_pool
        from repro.campaign.warmstart import save_snapshot

        # Persist whatever this worker's caches learned; pool workers own
        # their caches, so the save must happen here, in-worker.
        save_snapshot(str(warm_dir), worker_session_pool())
    return record
