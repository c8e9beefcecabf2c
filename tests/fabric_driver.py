"""Subprocess writer driver for the fault-fabric tests.

The lease and chaos suites need *real* concurrent writer processes — ones
that can be ``kill -9``'d, crash via injected faults (``os._exit`` cannot
be faked in-process), and genuinely race on a shared store directory.
This module is both the cell-worker namespace those writers resolve
functions from (``"fabric_driver:count_cell"`` works because the tests
directory is on PYTHONPATH) and a ``__main__`` entry point that runs one
engine invocation from a JSON config file::

    python tests/fabric_driver.py config.json

Config keys: ``store`` (``.jsonl`` file → single-file store, else sharded
directory), ``shard``, ``cells`` (list of ``{cell_id, fn, payload}``),
``workers``, ``scheduler``, ``timeout_s``, ``retries``, ``lease_ttl_s``,
``lease_poll_s``, ``quarantine_after``, ``summary_out`` (JSON summary file
— written on clean exit only, so a crashed writer leaves none).

Cell workers append one line per *execution start* to the shared
``count_log`` named in their payload (O_APPEND line writes are atomic on
local filesystems), giving the tests ground-truth execution counters that
survive any combination of crashes and resumes.
"""

from __future__ import annotations

import json
import os
import sys
import time
from pathlib import Path


def _mark_execution(payload) -> None:
    log = payload.get("count_log")
    if log:
        with open(log, "a", encoding="utf-8") as handle:
            handle.write(f"{payload['name']}\n")
            handle.flush()


def count_cell(payload):
    """Deterministic result + one execution-counter line."""
    _mark_execution(payload)
    x = int(payload["x"])
    return {"value": x * x + 1, "name": payload["name"]}


def slow_cell(payload):
    """Like :func:`count_cell`, but slow enough to be killed mid-flight."""
    _mark_execution(payload)
    time.sleep(float(payload.get("sleep_s", 0.3)))
    x = int(payload["x"])
    return {"value": x * x + 1, "name": payload["name"]}


def pid_cell(payload):
    """Appends the executing process id to ``pid_log``, then sleeps."""
    with open(payload["pid_log"], "a", encoding="utf-8") as handle:
        handle.write(f"{os.getpid()}\n")
    time.sleep(float(payload["sleep_s"]))
    return {"name": payload["name"]}


def flaky_cell(payload):
    """Fails until a counter file shows ``succeed_after`` attempts."""
    _mark_execution(payload)
    counter = Path(payload["counter"])
    attempts = int(counter.read_text()) if counter.exists() else 0
    attempts += 1
    counter.write_text(str(attempts))
    if attempts < int(payload["succeed_after"]):
        raise RuntimeError(f"flaky failure #{attempts}")
    return {"value": int(payload["x"]), "name": payload["name"]}


def poison_cell(payload):
    """Always fails — quarantine fodder."""
    _mark_execution(payload)
    raise RuntimeError("poison cell: fails on every writer")


def main(argv) -> int:
    from repro.campaign import EngineCell, ResultStore, ShardedResultStore, run_cells

    config = json.loads(Path(argv[0]).read_text(encoding="utf-8"))
    store_path = Path(config["store"])
    if store_path.suffix == ".jsonl":
        store = ResultStore(store_path)
    else:
        store = ShardedResultStore(store_path, shard=config.get("shard"))
    cells = [
        EngineCell(cell["cell_id"], cell["fn"], cell["payload"])
        for cell in config["cells"]
    ]
    summary = run_cells(
        cells,
        store,
        max_workers=int(config.get("workers", 1)),
        scheduler=config.get("scheduler"),
        timeout_s=config.get("timeout_s"),
        retries=int(config.get("retries", 0)),
        retry_backoff_s=float(config.get("retry_backoff_s", 0.05)),
        lease_ttl_s=config.get("lease_ttl_s"),
        lease_poll_s=config.get("lease_poll_s"),
        quarantine_after=config.get("quarantine_after"),
    )
    out = {
        "total": summary.total,
        "skipped": summary.skipped,
        "executed": summary.executed,
        "recovered": summary.recovered,
        "failed": summary.failed,
        "quarantined": summary.quarantined,
    }
    if config.get("summary_out"):
        Path(config["summary_out"]).write_text(json.dumps(out), encoding="utf-8")
    print(json.dumps(out))
    return 0 if summary.ok else 1


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
