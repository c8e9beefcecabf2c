"""Warm-start sidecar tests: snapshot round-trips, invalidation, costs.

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
    costs_path_for,
    engine_cells,
    ground_truth_evaluations,
    load_costs,
    merge_costs,
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
    assert costs_path_for(sharded) == tmp_path / "store" / "costs.json"

    single = ResultStore(tmp_path / "run.jsonl")
    assert warmstart_dir_for(single) == tmp_path / "run.jsonl.warmstart"
    assert costs_path_for(single) == tmp_path / "run.jsonl.costs.json"

    memory = ResultStore()
    assert warmstart_dir_for(memory) is None
    assert costs_path_for(memory) is None


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


def _spec():
    return CampaignSpec(
        designs=("EX00",),
        flows=("baseline",),
        optimizers=("greedy",),
        evaluators=("cached",),
        seeds=(1, 2),
        iterations=6,
    )


def test_run_cells_maintains_sidecars_and_warm_resume_wins(tmp_path):
    from repro.api.session import worker_session_pool

    store = ShardedResultStore(tmp_path / "store")
    summary = run_cells(engine_cells(_spec()), store)
    assert summary.ok
    warm_dir = warmstart_dir_for(store)
    assert warm_dir.is_dir() and load_entries(warm_dir)
    assert load_costs(costs_path_for(store))

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
    assert not costs_path_for(store).exists()
    _fresh_worker_pool()


def test_in_memory_store_never_gets_sidecars():
    store = ResultStore()
    summary = run_cells(engine_cells(_spec()), store)
    assert summary.ok
    _fresh_worker_pool()


# --------------------------------------------------------------------------- #
# Cost calibration sidecar
# --------------------------------------------------------------------------- #
def test_costs_round_trip_and_merge(tmp_path):
    path = tmp_path / "costs.json"
    group = ("EX00", "baseline", "greedy", "cached")
    merge_costs(path, {group: (1.5, 3)})
    assert load_costs(path) == {group: {"sum": 1.5, "count": 3}}
    # Merging folds sums and counts like a shard merge.
    merge_costs(path, {group: (0.5, 1)})
    assert load_costs(path) == {group: {"sum": 2.0, "count": 4}}
    # Corrupt files degrade to empty calibration.
    path.write_text("not json")
    assert load_costs(path) == {}


def test_cost_scheduler_uses_persisted_calibration(tmp_path):
    spec = _spec()
    cells = engine_cells(spec)
    group = ("EX00", "baseline", "greedy", "cached")
    scheduler = CostScheduler()
    store = ResultStore()
    # Static model: no observations anywhere.
    static = scheduler.expected_costs(cells, store)
    scheduler.set_calibration({group: {"sum": 10.0, "count": 2}})
    calibrated = scheduler.expected_costs(cells, store)
    # iterations=6 => per-iteration mean 5.0 * budget 6 = 30.0 per cell.
    assert calibrated == [30.0] * len(cells)
    assert calibrated != static


def test_run_cells_loads_costs_into_cost_scheduler(tmp_path):
    store = ShardedResultStore(tmp_path / "store")
    summary = run_cells(engine_cells(_spec()), store, scheduler="cost")
    assert summary.ok
    costs = load_costs(costs_path_for(store))
    assert costs
    # A fresh store + the sidecar: the scheduler starts calibrated.
    scheduler = CostScheduler()
    scheduler.set_calibration(costs)
    fresh = ResultStore()
    expected = scheduler.expected_costs(engine_cells(_spec()), fresh)
    group = ("EX00", "baseline", "greedy", "cached")
    mean = costs[group]["sum"] / costs[group]["count"]
    assert expected == [mean * 6.0] * len(expected)
    _fresh_worker_pool()
