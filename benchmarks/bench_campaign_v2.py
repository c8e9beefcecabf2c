"""Campaign engine v2 — persistent worker-session reuse across cells.

PR 3's engine built a fresh evaluator for every cell, throwing away the
parsed cell library, the mapper, and the PPA cache each time.  The v2
engine serves cells from a per-worker persistent
:class:`~repro.api.session.SessionPool` keyed by (evaluation context,
evaluator kind), so consecutive cells of the same design share all of that
state — the initial evaluation of every seed of a design, and every
structure the searches revisit across seeds, become cache hits.

This benchmark runs the same one-design × several-seeds matrix twice in
one process: cold (the session pool is wiped after every cell — the v1
cost model) and warm (v2 default).  It records wall clock and the number of
ground-truth mapping+STA evaluations actually performed, and asserts the
warm run's store is identical modulo timing while doing strictly fewer
evaluations.

* ``REPRO_BENCH_CAMPAIGN_ITERS`` — SA iterations per cell (default 6)
"""

import os
import time

from conftest import run_once

from repro.api.session import worker_session_pool
from repro.campaign import CampaignSpec, ResultStore, run_campaign, strip_timing
from repro.experiments.report import format_table


def _spec() -> CampaignSpec:
    iterations = int(os.environ.get("REPRO_BENCH_CAMPAIGN_ITERS", 6))
    return CampaignSpec(
        designs=("EX68",),
        flows=("ground_truth",),
        optimizers=("sa",),
        evaluators=("cached",),
        seeds=(1, 2, 3, 4),
        iterations=iterations,
    )


def _pool_misses() -> int:
    """Ground-truth evaluations performed by the pooled cached sessions."""
    pool = worker_session_pool()
    total = 0
    for key in pool.keys():
        session = pool.get(evaluator_kind=key[1], context=key[0])
        stats = session.cache_stats
        if stats is not None:
            total += stats.misses
    return total


def test_campaign_session_reuse(benchmark, save_result, tmp_path):
    spec = _spec()
    cells = len(spec.expand())

    # Warm-up pass so design construction and library parsing are cached
    # before either measured run.
    worker_session_pool().clear()
    run_campaign(spec, ResultStore(), max_workers=1)
    worker_session_pool().clear()

    cold_misses = [0]

    def per_cell_reset(record) -> None:
        # v1 behaviour: throw the session (evaluator, mapper, cache) away
        # after every cell, accounting for its evaluations first.
        cold_misses[0] += _pool_misses()
        worker_session_pool().clear()

    # v1 had no warm-start sidecar, so the per-cell baseline must not read
    # the one its own file-backed store writes.
    cold_store = ResultStore(tmp_path / "cold.jsonl")
    start = time.perf_counter()
    summary_cold = run_campaign(
        spec, cold_store, max_workers=1, on_record=per_cell_reset, warm_start=False
    )
    cold_seconds = time.perf_counter() - start
    worker_session_pool().clear()

    def warm_run():
        store = ResultStore(tmp_path / "warm.jsonl")
        begin = time.perf_counter()
        summary = run_campaign(spec, store, max_workers=1)
        return time.perf_counter() - begin, store, summary

    warm_seconds, warm_store, summary_warm = run_once(benchmark, warm_run)
    warm_misses = _pool_misses()
    warm_sessions = len(worker_session_pool())
    speedup = cold_seconds / warm_seconds if warm_seconds > 0 else 0.0

    table = format_table(
        ["sessions", "cells", "wall clock (s)", "gt evaluations", "speedup"],
        [
            ("per-cell (v1)", cells, f"{cold_seconds:.2f}", cold_misses[0], "1.00x"),
            (
                "pooled (v2)",
                cells,
                f"{warm_seconds:.2f}",
                warm_misses,
                f"{speedup:.2f}x",
            ),
        ],
        title=(
            "Campaign v2 session reuse — 1 design × 4 seeds, ground-truth "
            "flow, one worker"
        ),
    )
    save_result("campaign_session_reuse", table)
    worker_session_pool().clear()

    assert summary_cold.ok and summary_warm.ok
    assert summary_cold.executed == cells and summary_warm.executed == cells
    # Reuse must never change results: identical stores modulo wall clock.
    assert [strip_timing(r) for r in cold_store.records] == [
        strip_timing(r) for r in warm_store.records
    ]
    # One persistent session served every cell of the shared context…
    assert warm_sessions == 1
    # …and cross-cell reuse saved real mapping+STA work: every cell of the
    # same design evaluates the same initial AIG (and the searches revisit
    # structures across seeds), so the pooled run must perform strictly
    # fewer ground-truth evaluations than the per-cell-session run.
    assert 0 < warm_misses < cold_misses[0]
