"""Cold-path benchmark — vectorized cold map+STA and warm-start resume.

Two numbers back the cold-path work, and this script measures both in one
run and writes them as ``benchmarks/results/BENCH_coldmap.json``:

* **Cold map+STA**: technology mapping plus full STA on a freshly built
  design (cold per-graph caches), measured twice in the same process —
  once with ``dp_arrays.try_full_dp`` patched to return ``None`` (the
  mapper then runs the scalar reference DP) and once with the vectorized
  DP — so the reported speedup is self-contained rather than pinned to
  another machine's reference numbers.
* **Cold-vs-warm campaign resume**: a tiny campaign runs once against a
  sharded store (writing the warm-start snapshot sidecar), then the same
  cells are re-executed into a fresh in-memory store twice from a cold
  worker pool — once without and once with the snapshot — counting
  ground-truth evaluations each way.

The script doubles as the CI gate against silent regressions: it exits
nonzero when the vectorized DP did not actually run on the benchmark
design (``last_dp_stats.used_vectorized`` false — a silent scalar
fallback) or when the warm resume fails to perform strictly fewer
ground-truth evaluations than the cold resume.

Run directly::

    PYTHONPATH=src python benchmarks/bench_coldmap.py \
        [--output benchmarks/results/BENCH_coldmap.json] [--design EX08] \
        [--repeats 3] [--tiny]

``--tiny`` is the CI smoke configuration: single repeat, smaller resume
campaign, same gates.  Numbers scale with hardware; the committed JSON was
produced by a full-size run in the development container.
"""

from __future__ import annotations

import argparse
import json
import platform
import tempfile
import time
from pathlib import Path

from repro.campaign import (
    CampaignSpec,
    ResultStore,
    ShardedResultStore,
    engine_cells,
    ground_truth_evaluations,
    run_cells,
    warmstart_dir_for,
)
from repro.campaign.warmstart import WARMSTART_PAYLOAD_KEY, load_entries
from repro.designs.registry import build_design
from repro.library.sky130_lite import load_sky130_lite
from repro.mapping import dp_arrays
from repro.mapping.mapper import TechnologyMapper
from repro.sta.analysis import analyze_timing


def _cold_map_sta(design: str, repeats: int, scalar: bool):
    """Best-of-N cold map+STA wall clock; returns (seconds, DpStats)."""
    library = load_sky130_lite()
    vector_dp = dp_arrays.try_full_dp
    if scalar:
        # The mapper looks the DP up at call time; None means "run scalar".
        dp_arrays.try_full_dp = lambda mapper, aig: None
    try:
        best = float("inf")
        stats = None
        for _ in range(repeats):
            aig = build_design(design)  # fresh graph: cold per-graph caches
            mapper = TechnologyMapper(library)
            t0 = time.perf_counter()
            netlist = mapper.map(aig)
            analyze_timing(netlist)
            best = min(best, time.perf_counter() - t0)
            stats = mapper.last_dp_stats
        return best, stats
    finally:
        dp_arrays.try_full_dp = vector_dp


def _fresh_worker_pool() -> None:
    import repro.api.session as session_module

    session_module._WORKER_SESSION_POOLS.pool = None


def _resume_campaign(spec: CampaignSpec, warm_dir: Path | None) -> int:
    """Re-run the spec's cells cold-pool into a throwaway store.

    Returns the number of ground-truth evaluations the worker performed;
    with *warm_dir* set the cells seed from the snapshot sidecar first.
    """
    from repro.api.session import worker_session_pool
    import repro.campaign.warmstart as warmstart_module

    _fresh_worker_pool()
    warmstart_module._PERSISTED.clear()
    cells = engine_cells(spec)
    if warm_dir is not None:
        cells = [
            type(cell)(
                cell_id=cell.cell_id,
                fn=cell.fn,
                payload={**cell.payload, WARMSTART_PAYLOAD_KEY: str(warm_dir)},
            )
            for cell in cells
        ]
    summary = run_cells(cells, ResultStore(), warm_start=False)
    if not summary.ok:
        raise RuntimeError(f"resume cells failed: {summary.failed}")
    return ground_truth_evaluations(worker_session_pool())


def run_warm_resume(iterations: int) -> dict:
    """Cold-vs-warm resume evaluation counts for a tiny campaign."""
    spec = CampaignSpec(
        designs=("EX00",),
        flows=("baseline",),
        optimizers=("greedy",),
        evaluators=("cached",),
        seeds=(1, 2),
        iterations=iterations,
    )
    with tempfile.TemporaryDirectory() as tmp:
        store = ShardedResultStore(Path(tmp) / "store")
        _fresh_worker_pool()
        summary = run_cells(engine_cells(spec), store)
        if not summary.ok:
            raise RuntimeError(f"campaign cells failed: {summary.failed}")
        warm_dir = warmstart_dir_for(store)
        snapshot_entries = len(load_entries(warm_dir))
        cold = _resume_campaign(spec, None)
        warm = _resume_campaign(spec, warm_dir)
        _fresh_worker_pool()
    return {
        "cells": len(engine_cells(spec)),
        "iterations": iterations,
        "snapshot_entries": snapshot_entries,
        "cold_ground_truth_evaluations": cold,
        "warm_ground_truth_evaluations": warm,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--output",
        default=str(Path(__file__).parent / "results" / "BENCH_coldmap.json"),
    )
    parser.add_argument("--design", default="EX08")
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument(
        "--tiny",
        action="store_true",
        help="CI smoke configuration: one repeat, smaller resume campaign",
    )
    args = parser.parse_args(argv)
    repeats = 1 if args.tiny else args.repeats
    resume_iters = 3 if args.tiny else 6

    aig = build_design(args.design)
    scalar_s, scalar_stats = _cold_map_sta(args.design, repeats, scalar=True)
    vector_s, vector_stats = _cold_map_sta(args.design, repeats, scalar=False)
    used_vectorized = bool(vector_stats is not None and vector_stats.used_vectorized)
    cold_map_sta = {
        "design": args.design,
        "num_ands": aig.num_ands,
        "depth": aig.depth(),
        "scalar_s": scalar_s,
        "vector_s": vector_s,
        "speedup": round(scalar_s / vector_s, 2) if vector_s > 0 else None,
        "used_vectorized": used_vectorized,
        "vector_nodes": getattr(vector_stats, "vector_nodes", 0),
        "scalar_nodes": getattr(vector_stats, "scalar_nodes", 0),
        "scalar_run_fell_back": bool(
            scalar_stats is None or not scalar_stats.used_vectorized
        ),
    }

    warm_resume = run_warm_resume(resume_iters)

    gates = {
        # A silent scalar fallback on the benchmark design fails the job.
        "vectorized_dp": used_vectorized,
        # A warm resume must do strictly fewer ground-truth evaluations.
        "warm_resume_strictly_fewer": (
            warm_resume["warm_ground_truth_evaluations"]
            < warm_resume["cold_ground_truth_evaluations"]
        ),
    }

    payload = {
        "schema": "bench_coldmap/v1",
        "config": {
            "design": args.design,
            "repeats": repeats,
            "tiny": args.tiny,
            "resume_iterations": resume_iters,
            "python": platform.python_version(),
            "machine": platform.machine(),
        },
        "cold_map_sta": cold_map_sta,
        "warm_resume": warm_resume,
        "gates": gates,
    }

    output = Path(args.output)
    output.parent.mkdir(parents=True, exist_ok=True)
    output.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    print(json.dumps(payload, indent=2, sort_keys=True))
    if not all(gates.values()):
        failed = sorted(name for name, ok in gates.items() if not ok)
        print(f"GATE FAILURE: {failed}")
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
