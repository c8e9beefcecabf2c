"""Warm-start sidecar tests: snapshot round-trips, invalidation, resumes.

The acceptance bar for warm-start persistence is behavioural: a resumed
campaign seeded from a snapshot must perform strictly fewer ground-truth
evaluations than a cold resume over the same cells while producing
identical records (modulo wall-clock fields), and a snapshot written under
one library/options identity must never seed a session evaluating under
another.
"""

from __future__ import annotations

import json
import random

import pytest

from repro.aig.random_graphs import random_aig
from repro.api.evaluators import CachedEvaluator, evaluator_context_key
from repro.api.session import SessionPool, SynthesisSession
from repro.campaign import (
    CampaignSpec,
    ResultStore,
    ShardedResultStore,
    engine_cells,
    ground_truth_evaluations,
    run_cells,
    save_snapshot,
    seed_session,
    strip_timing,
    warmstart_dir_for,
)
from repro.campaign.schedule import CostScheduler
from repro.campaign.warmstart import (
    WARMSTART_PAYLOAD_KEY,
    load_entries,
)
from repro.library.genlib import parse_genlib
from repro.library.library import CellLibrary

ALT_GENLIB = """
GATE INVB 0.9 Y=!A;
  PIN A 1.9 8.0 3.4
GATE NANDB 1.5 Y=!(A&B);
  PIN A 2.7 12.0 6.1
  PIN B 2.5 16.0 5.3
GATE ANDB 2.4 Y=A&B;
  PIN A 2.2 22.0 5.0
  PIN B 2.2 20.0 4.6
"""


@pytest.fixture(autouse=True)
def _clean_warmstart_state():
    import repro.campaign.warmstart as ws

    ws._PERSISTED.clear()
    yield
    ws._PERSISTED.clear()


@pytest.fixture()
def alt_library():
    return CellLibrary("altb", parse_genlib(ALT_GENLIB))


def _aigs(count: int, base: int = 0):
    return [
        random_aig(5, 3, 40 + 3 * i, rng=random.Random(900 + base + i), name=f"w{i}")
        for i in range(count)
    ]


# --------------------------------------------------------------------------- #
# Sidecar locations
# --------------------------------------------------------------------------- #
def test_sidecar_locations(tmp_path):
    sharded = ShardedResultStore(tmp_path / "store")
    assert warmstart_dir_for(sharded) == tmp_path / "store" / "warmstart"

    single = ResultStore(tmp_path / "run.jsonl")
    assert warmstart_dir_for(single) == tmp_path / "run.jsonl.warmstart"

    memory = ResultStore()
    assert warmstart_dir_for(memory) is None


def test_snapshot_sidecar_invisible_to_shard_enumeration(tmp_path):
    store = ShardedResultStore(tmp_path / "store")
    store.append({"cell_id": "c1", "status": "ok"})
    (tmp_path / "store" / "warmstart").mkdir()
    (tmp_path / "store" / "warmstart" / "w.jsonl").write_text("{}\n")
    assert all("warmstart" not in str(p) for p in store.shard_paths())


# --------------------------------------------------------------------------- #
# Snapshot save/load round-trips
# --------------------------------------------------------------------------- #
def test_cached_evaluator_snapshot_round_trip(tmp_path, library):
    pool = SessionPool()
    session = pool.get(evaluator_kind="cached")
    results = [session.evaluator.evaluate(aig) for aig in _aigs(4)]
    assert save_snapshot(tmp_path / "ws", pool) == 4
    entries = load_entries(tmp_path / "ws")
    assert len(entries) == 4
    context = evaluator_context_key(session.evaluator.inner)
    assert {ctx for ctx, _ in entries} == {context}

    fresh_pool = SessionPool()
    fresh = fresh_pool.get(evaluator_kind="cached")
    assert seed_session(fresh, tmp_path / "ws") == 4
    for aig, reference in zip(_aigs(4), results):
        got = fresh.evaluator.evaluate(aig)
        assert got.delay_ps == reference.delay_ps
        assert got.area_um2 == reference.area_um2
        assert got.num_gates == reference.num_gates
    assert fresh.evaluator.stats.misses == 0
    assert fresh.evaluator.stats.hits == 4
    # Idempotent per (session, directory).
    assert seed_session(fresh, tmp_path / "ws") == 0


def test_snapshot_context_mismatch_never_seeds(tmp_path, alt_library):
    pool = SessionPool()
    session = pool.get(evaluator_kind="cached")
    for aig in _aigs(3):
        session.evaluator.evaluate(aig)
    assert save_snapshot(tmp_path / "ws", pool) == 3

    # Different library content => different fingerprint => zero entries
    # seeded, even for identical graphs.
    other = SessionPool().get(evaluator_kind="cached", library=alt_library)
    assert seed_session(other, tmp_path / "ws") == 0
    other.evaluator.evaluate(_aigs(1)[0])
    assert other.evaluator.stats.misses == 1


def test_snapshot_save_is_incremental_per_writer(tmp_path, library):
    pool = SessionPool()
    session = pool.get(evaluator_kind="cached")
    session.evaluator.evaluate(_aigs(2)[0])
    assert save_snapshot(tmp_path / "ws", pool) == 1
    # Nothing new: no rewrite.
    assert save_snapshot(tmp_path / "ws", pool) == 0
    session.evaluator.evaluate(_aigs(2)[1])
    assert save_snapshot(tmp_path / "ws", pool) == 1
    assert len(load_entries(tmp_path / "ws")) == 2


def test_loader_skips_torn_and_malformed_lines(tmp_path):
    ws = tmp_path / "ws"
    ws.mkdir()
    good = {
        "context": "ctx",
        "exact_key": "k1",
        "delay_ps": 10.0,
        "area_um2": 2.0,
        "num_gates": 3,
    }
    (ws / "a.jsonl").write_text(
        json.dumps(good)
        + "\n"
        + '{"context": "ctx", "exact_key": "k2", "delay'  # torn tail
    )
    (ws / "b.jsonl").write_text('{"not": "an entry"}\n[1, 2]\nnot json\n')
    entries = load_entries(ws)
    assert list(entries) == [("ctx", "k1")]


def test_seeding_never_overwrites_in_process_results(tmp_path, library):
    evaluator = CachedEvaluator(library=library)
    aig = _aigs(1)[0]
    reference = evaluator.evaluate(aig)
    context = evaluator_context_key(evaluator.inner)
    # A conflicting snapshot entry for the same key loses to the live one.
    assert not evaluator.seed_result(
        context, aig.exact_key(), type(reference)(1.0, 1.0, 1)
    )
    assert evaluator.evaluate(aig).delay_ps == reference.delay_ps


# --------------------------------------------------------------------------- #
# Engine integration: warm resume does strictly less ground-truth work
# --------------------------------------------------------------------------- #
def _fresh_worker_pool():
    import repro.api.session as session_module

    session_module._WORKER_SESSION_POOLS.pool = None


def _spec(seeds=(1, 2)):
    return CampaignSpec(
        designs=("EX00",),
        flows=("baseline",),
        optimizers=("greedy",),
        evaluators=("cached",),
        seeds=seeds,
        iterations=6,
    )


def test_run_cells_maintains_sidecars_and_warm_resume_wins(tmp_path):
    from repro.api.session import worker_session_pool

    store = ShardedResultStore(tmp_path / "store")
    summary = run_cells(engine_cells(_spec()), store)
    assert summary.ok
    warm_dir = warmstart_dir_for(store)
    assert warm_dir.is_dir() and load_entries(warm_dir)

    def resume(warm: bool):
        _fresh_worker_pool()
        cells = engine_cells(_spec())
        if warm:
            cells = [
                type(cell)(
                    cell_id=cell.cell_id,
                    fn=cell.fn,
                    payload={
                        **cell.payload,
                        WARMSTART_PAYLOAD_KEY: str(warm_dir),
                    },
                )
                for cell in cells
            ]
        resume_store = ResultStore()
        result = run_cells(cells, resume_store, warm_start=False)
        assert result.ok
        records = [
            strip_timing(record) for record in resume_store.records
        ]
        return ground_truth_evaluations(worker_session_pool()), records

    cold_evals, cold_records = resume(warm=False)
    import repro.campaign.warmstart as ws

    ws._PERSISTED.clear()
    warm_evals, warm_records = resume(warm=True)
    # Strictly fewer ground-truth evaluations, identical records.
    assert warm_evals < cold_evals
    assert warm_records == cold_records
    _fresh_worker_pool()


def test_run_cells_warm_start_off_leaves_no_sidecars(tmp_path):
    store = ShardedResultStore(tmp_path / "store")
    summary = run_cells(engine_cells(_spec()), store, warm_start=False)
    assert summary.ok
    assert not warmstart_dir_for(store).exists()
    _fresh_worker_pool()


def test_in_memory_store_never_gets_sidecars():
    store = ResultStore()
    summary = run_cells(engine_cells(_spec()), store)
    assert summary.ok
    _fresh_worker_pool()


# --------------------------------------------------------------------------- #
# Cost scheduling on resume: the store is the one record of cell runtimes
# --------------------------------------------------------------------------- #
def _resume_schedule(root, open_store):
    """Run two seeds, resume with four; check the resumed schedule's costs."""
    store = open_store()
    summary = run_cells(engine_cells(_spec()), store, scheduler="cost")
    assert summary.ok
    records = list(store.latest().values())
    assert {record["iterations"] for record in records} == {6}
    mean = sum(record["cell_seconds"] / 6.0 for record in records) / len(records)

    seen = []

    class Recording(CostScheduler):
        def order(self, cells, store):
            seen.append(self.expected_costs(cells, store))
            return super().order(cells, store)

    # Resume on a reopened store with two more seeds: the pending cells'
    # expected costs come from the first run's records alone.
    resumed = run_cells(
        engine_cells(_spec(seeds=(1, 2, 3, 4))), open_store(), scheduler=Recording()
    )
    assert resumed.ok
    assert (resumed.skipped, resumed.executed) == (2, 2)
    assert seen == [pytest.approx([mean * 6.0] * 2)]
    assert seen[0] != CostScheduler().expected_costs(
        engine_cells(_spec(seeds=(1, 2, 3, 4)))[2:], ResultStore()
    )
    # The store and the warm-start snapshots are all that is on disk.
    assert not [path for path in sorted(root.rglob("*")) if "costs" in path.name]
    _fresh_worker_pool()


def test_run_cells_loads_costs_into_cost_scheduler(tmp_path):
    _resume_schedule(
        tmp_path / "sharded",
        lambda: ShardedResultStore(tmp_path / "sharded" / "store"),
    )
    _resume_schedule(
        tmp_path / "single",
        lambda: ResultStore(tmp_path / "single" / "store.jsonl"),
    )
