"""Chaos differential suite: seeded fault schedules must converge.

Each schedule runs a two-writer sharded lease campaign under a seeded
:mod:`repro.devtools.faults` plan — real subprocess writers, real crashes
(``os._exit``), real torn writes — then resumes until the campaign
completes, and asserts the merged store's canonical view is identical to a
fault-free run modulo :data:`~repro.campaign.store.TIMING_FIELDS`.  The
schedules collectively cover every fault kind: worker crashes, transient
errors, torn appends, failing filesystem writes, hung cells, and stalled
lease heartbeats.

Every rule carries ``max=`` with a durable ``dir=`` state directory:
without the durable cap a fault would re-fire identically on every resume
and no schedule could ever converge — the cap *is* the "fault happened,
now recover" semantics.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.campaign import EngineCell, ResultStore, ShardedResultStore, run_cells
from repro.campaign.store import canonical_records, strip_timing
from repro.devtools.faults import FAULT_PLAN_ENV

TESTS_DIR = Path(__file__).parent
SRC_DIR = TESTS_DIR.parent / "src"

CELL_COUNT = 12
MAX_ROUNDS = 8


# --------------------------------------------------------------------------- #
# Harness
# --------------------------------------------------------------------------- #
def _cells(count, fn, count_log=None, **extra):
    cells = []
    for index in range(count):
        payload = {"x": index, "name": f"cell-{index:02d}", **extra}
        if count_log is not None:
            payload["count_log"] = str(count_log)
        cells.append({"cell_id": f"cell-{index:02d}", "fn": fn, "payload": payload})
    return cells


def _driver_env(fault_plan=None):
    env = dict(os.environ)
    env["PYTHONPATH"] = f"{SRC_DIR}{os.pathsep}{TESTS_DIR}"
    env.pop(FAULT_PLAN_ENV, None)
    if fault_plan:
        env[FAULT_PLAN_ENV] = fault_plan
    return env


def _launch(config_path, log_path, env):
    log = open(log_path, "w", encoding="utf-8")
    # Files, not pipes: a crashed writer's orphaned pool children would
    # hold a pipe open and hang the harness.
    proc = subprocess.Popen(
        [sys.executable, str(TESTS_DIR / "fabric_driver.py"), str(config_path)],
        stdout=log,
        stderr=subprocess.STDOUT,
        env=env,
    )
    proc._log_handle = log
    return proc


def _write_config(tmp_path, name, **config):
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(config), encoding="utf-8")
    return path


def _reference_canonical(cells):
    """The fault-free ground truth: same cells, in-process, no fault plan."""
    store = ResultStore()
    summary = run_cells(
        [EngineCell(c["cell_id"], c["fn"], c["payload"]) for c in cells], store
    )
    assert summary.ok
    return [strip_timing(record) for record in canonical_records(store)]


def _fired_events(state_dir):
    path = Path(state_dir) / "fired.jsonl"
    if not path.exists():
        return []
    return [
        json.loads(line)
        for line in path.read_text(encoding="utf-8").splitlines()
        if line.strip()
    ]


# --------------------------------------------------------------------------- #
# Schedules
#
# Plan templates may reference {state} (durable fault-state dir) and
# {store} (the shard directory).  torn_append/oserror rules match on the
# full shard path so they hit the result shards and never the .leases/
# or .progress/ sidecars (whose filenames also contain the writer name).
# They match either writer's shard ({store}/w): ``nth`` counts per process,
# and either writer may drain every cell.  ``must_fire`` lists the rule
# indices that every run of the schedule has to fire.
# --------------------------------------------------------------------------- #
SCHEDULES = [
    {
        "id": "crash-worker",
        "plan": "dir={state};crash@cell:nth=3,max=1",
    },
    {
        "id": "transient-errors",
        "plan": "seed=7;dir={state};error@cell:p=0.4,max=3",
    },
    {
        "id": "torn-append",
        "plan": "dir={state};torn_append@store_append:nth=2,max=1,match={store}/w",
        "must_fire": (0,),
    },
    {
        "id": "flaky-fs",
        "plan": "dir={state};oserror@store_append:nth=3,max=2,match={store}/w",
    },
    {
        "id": "hung-cell",
        "plan": "dir={state};hang@cell:nth=1,max=1,match=cell-05,delay=4",
        "timeout_s": 1.5,
    },
    {
        "id": "stalled-heartbeat",
        "plan": "dir={state};heartbeat_stall@lease_heartbeat:nth=1,max=1,match=w1,delay=4",
        "ttl_s": 1.0,
        "fn": "fabric_driver:slow_cell",
        "cell_extra": {"sleep_s": 0.35},
    },
    {
        "id": "crash-flush",
        "plan": "dir={state};crash@flush:nth=4,max=1",
    },
    {
        "id": "crash-and-errors",
        "plan": "seed=11;dir={state};crash@cell:nth=5,max=1;error@cell:p=0.3,max=2",
    },
    {
        "id": "torn-and-flush-error",
        "plan": (
            "dir={state};torn_append@store_append:nth=3,max=1,match={store}/w;"
            "error@flush:nth=2,max=1"
        ),
        "must_fire": (0,),
    },
]


@pytest.mark.slow
@pytest.mark.parametrize("schedule", SCHEDULES, ids=lambda s: s["id"])
def test_fault_schedule_converges_to_fault_free_store(tmp_path, schedule):
    store_dir = tmp_path / "cstore"
    state_dir = tmp_path / "fault-state"
    count_log = tmp_path / "count.log"
    fn = schedule.get("fn", "fabric_driver:count_cell")
    cell_extra = schedule.get("cell_extra", {})
    cells = _cells(CELL_COUNT, fn, count_log=count_log, **cell_extra)
    all_ids = {cell["cell_id"] for cell in cells}
    plan = schedule["plan"].format(state=state_dir, store=store_dir)
    env = _driver_env(fault_plan=plan)

    configs = {}
    for shard in ("w1", "w2"):
        configs[shard] = _write_config(
            tmp_path,
            f"cfg-{shard}",
            store=str(store_dir),
            shard=shard,
            cells=cells,
            lease_ttl_s=schedule.get("ttl_s", 2.0),
            lease_poll_s=0.05,
            timeout_s=schedule.get("timeout_s"),
        )

    rounds = 0
    for round_index in range(MAX_ROUNDS):
        reader = ShardedResultStore(store_dir, shard="chaos-reader")
        if all_ids <= reader.completed_ids():
            break
        rounds += 1
        procs = [
            _launch(configs[shard], tmp_path / f"{shard}-r{round_index}.log", env)
            for shard in ("w1", "w2")
        ]
        for proc in procs:
            proc.wait(timeout=180)  # crash exit codes are expected here

    reader = ShardedResultStore(store_dir, shard="chaos-reader")
    assert all_ids <= reader.completed_ids(), (
        f"schedule {schedule['id']} did not converge in {MAX_ROUNDS} rounds"
    )
    # The fault genuinely fired (the schedule exercised its failure mode).
    fired_rules = {event["rule"] for event in _fired_events(state_dir)}
    assert fired_rules, f"schedule {schedule['id']} never fired"
    for rule in schedule.get("must_fire", ()):
        assert rule in fired_rules, (
            f"schedule {schedule['id']} never fired rule {rule}"
        )
    # Differential: canonical view identical to the fault-free run, modulo
    # wall-clock fields — crash markers, injected-error records, and
    # control markers are all superseded in the canonical projection.
    merged = [strip_timing(record) for record in canonical_records(reader)]
    reference = _reference_canonical(
        _cells(CELL_COUNT, fn, count_log=None, **cell_extra)
    )
    assert merged == reference
    assert all(record["status"] == "ok" for record in merged)
    # Ground truth: every cell genuinely executed at least once somewhere
    # (journal recovery replays records, it never invents them).
    executed = set(count_log.read_text(encoding="utf-8").split())
    assert executed == all_ids
    assert rounds >= 1  # the schedule actually perturbed at least one run


# --------------------------------------------------------------------------- #
# Crash under the cost scheduler: the progress journal, not re-execution
# --------------------------------------------------------------------------- #
@pytest.mark.slow
def test_cost_scheduler_crash_resume_re_executes_nothing(tmp_path):
    """A flush-storm crash under cost scheduling recovers from the journal.

    The cost scheduler submits the 10 cells in exact reverse canonical
    order (expected cost rises with ``iterations``), and the collection
    loop lands them in that same order, so every record buffers — and
    journals — until the canonical head (cell-00) finally arrives and the
    whole buffer flushes at once.  ``crash@flush:nth=4`` kills the writer
    inside that storm: cells 00–02 are durable in the store, 01–09 sit in
    the journal.  The resume must fold the 7 missing records back from the
    journal and execute *zero* cells — the execution-counter log is the
    ground truth that nothing ran twice.
    """
    store_path = tmp_path / "store.jsonl"
    state_dir = tmp_path / "fault-state"
    count_log = tmp_path / "count.log"
    cells = []
    for index in range(10):
        cells.append(
            {
                "cell_id": f"cell-{index:02d}",
                "fn": "fabric_driver:count_cell",
                "payload": {
                    "x": index,
                    "name": f"cell-{index:02d}",
                    "count_log": str(count_log),
                    "iterations": index + 1,  # cost: reverse canonical order
                },
            }
        )
    config = _write_config(
        tmp_path,
        "cfg",
        store=str(store_path),
        cells=cells,
        workers=2,
        scheduler="cost",
        summary_out=str(tmp_path / "summary.json"),
    )
    env = _driver_env(fault_plan=f"dir={state_dir};crash@flush:nth=4,max=1")

    crashed = _launch(config, tmp_path / "run1.log", env)
    assert crashed.wait(timeout=180) == 70  # the injected crash, nothing else
    first_store = ResultStore(store_path)
    assert first_store.completed_ids() == {"cell-00", "cell-01", "cell-02"}
    journal_path = tmp_path / "store.progress"
    assert journal_path.exists()

    resumed = _launch(config, tmp_path / "run2.log", env)
    assert resumed.wait(timeout=180) == 0
    summary = json.loads((tmp_path / "summary.json").read_text(encoding="utf-8"))
    assert summary["recovered"] == 7
    assert summary["executed"] == 0
    assert summary["skipped"] == 3

    # Ground truth: all 10 cells executed exactly once, all in run 1.
    executions = count_log.read_text(encoding="utf-8").split()
    assert sorted(executions) == sorted(cell["cell_id"] for cell in cells)
    # The journal is consumed, and the store matches a fault-free run.
    assert not journal_path.exists()
    final = ResultStore(store_path)
    merged = [strip_timing(record) for record in canonical_records(final)]
    reference_cells = [
        {**cell, "payload": {k: v for k, v in cell["payload"].items()
                             if k != "count_log"}}
        for cell in cells
    ]
    assert merged == _reference_canonical(reference_cells)
