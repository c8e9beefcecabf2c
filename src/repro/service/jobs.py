"""Job management for the synthesis service: the campaign engine as backend.

A submitted job **is** a one-cell campaign.  The submitted netlist is
written content-addressed under the store directory, wrapped in a
:class:`~repro.campaign.spec.CampaignSpec` with exactly one design × flow ×
optimizer × evaluator × seed point, and the resulting cell id is the job
id.  Everything the campaign engine already guarantees therefore holds for
the service for free:

* **Dedup** — two byte-identical submissions (same netlist content, same
  parameters) hash to the same cell id, so the second submission attaches
  to the first job (or is served from the store when it already finished)
  without a single new evaluation.
* **Durability** — the job store *is* two crash-safe
  :class:`~repro.campaign.store.ResultStore` JSONL files: ``jobs.jsonl``
  journals every submission (with its full cell payload), ``results.jsonl``
  records every outcome.  Kill the server at any point; the restarted
  manager re-enqueues exactly the journalled jobs with no result record.
* **Execution** — worker threads drain a queue through
  :func:`~repro.campaign.runner.run_cells` (one cell at a time, with the
  service's timeout/retry policy), and each worker thread reuses its own
  persistent :func:`~repro.api.session.worker_session_pool` sessions, so
  consecutive jobs against the same library keep the warmed mapper and PPA
  cache.

``workers=0`` is valid and means "accept and journal, never execute" —
used by the durability tests and by accept-only front-end processes.
"""

from __future__ import annotations

import contextlib
import hashlib
import os
import queue
import sys
import tempfile
import threading
from pathlib import Path
from typing import Any, Dict, List, Optional, Set, Tuple

from repro.campaign.runner import OPTIMIZE_CELL_FN, EngineCell, run_cells
from repro.campaign.spec import CampaignSpec
from repro.campaign.store import ResultStore
from repro.errors import CampaignError, ServiceError
from repro.service.config import ServiceConfig

#: upload format name -> file suffix accepted by the io readers.
FORMAT_SUFFIXES: Dict[str, str] = {
    "aag": ".aag",
    "aig": ".aig",
    "bench": ".bench",
    "blif": ".blif",
    "v": ".v",
    "verilog": ".v",
}

#: job parameters a submission may set, with their defaults and casts.
_PARAM_DEFAULTS: Dict[str, Any] = {
    "flow": "baseline",
    "optimizer": "sa",
    "evaluator": "cached",
    "seed": 0,
    "iterations": 12,
    "delay_weight": 1.0,
    "area_weight": 1.0,
}
_PARAM_CASTS: Dict[str, Any] = {
    "flow": str,
    "optimizer": str,
    "evaluator": str,
    "seed": int,
    "iterations": int,
    "delay_weight": float,
    "area_weight": float,
}


class InvalidJobError(ServiceError):
    """The submission is structurally invalid (missing/bad fields)."""


class BudgetExceededError(ServiceError):
    """The submission asks for more optimizer iterations than allowed."""


class QueueFullError(ServiceError):
    """The service already holds ``max_queue`` unfinished jobs."""


class UnknownJobError(ServiceError):
    """No job with the requested id was ever submitted."""


class _LockedStore:
    """Thread-safe facade over a :class:`ResultStore`.

    The single-file store is written by one engine process by design; the
    service funnels several worker threads into one store, so every store
    operation the engine touches is serialised here.
    """

    def __init__(self, store: ResultStore) -> None:
        self._store = store
        self._lock = threading.RLock()

    def append(self, record: Dict[str, Any]) -> None:
        with self._lock:
            self._store.append(record)

    @property
    def records(self) -> List[Dict[str, Any]]:
        with self._lock:
            return self._store.records

    def __len__(self) -> int:
        with self._lock:
            return len(self._store)

    def latest(self) -> Dict[str, Dict[str, Any]]:
        with self._lock:
            return self._store.latest()

    def completed_ids(self) -> Set[str]:
        with self._lock:
            return self._store.completed_ids()

    def failed_ids(self) -> Set[str]:
        with self._lock:
            return self._store.failed_ids()

    def result_for(self, cell_id: str) -> Optional[Dict[str, Any]]:
        with self._lock:
            return self._store.result_for(cell_id)


def _parse_params(submission: Dict[str, Any]) -> Dict[str, Any]:
    """Extract and type-check the optimization parameters of a submission."""
    params: Dict[str, Any] = {}
    for name, default in _PARAM_DEFAULTS.items():
        value = submission.get(name, default)
        try:
            params[name] = _PARAM_CASTS[name](value)
        except (TypeError, ValueError) as exc:
            raise InvalidJobError(f"bad job parameter {name}={value!r}: {exc}") from exc
    return params


def _decode_netlist(submission: Dict[str, Any]) -> bytes:
    """The upload bytes of a submission (text, or base64 for binary AIGER)."""
    netlist = submission.get("netlist")
    if not isinstance(netlist, str) or not netlist:
        raise InvalidJobError("job submission needs a non-empty 'netlist' string")
    encoding = str(submission.get("encoding", "text"))
    if encoding == "base64":
        import base64
        import binascii

        try:
            return base64.b64decode(netlist, validate=True)
        except (binascii.Error, ValueError) as exc:
            raise InvalidJobError(f"bad base64 netlist: {exc}") from exc
    if encoding != "text":
        raise InvalidJobError(f"unknown netlist encoding {encoding!r}")
    return netlist.encode("utf-8")


class JobManager:
    """Owns the job store, the queue, and the background worker threads."""

    def __init__(self, config: ServiceConfig) -> None:
        config.validate()
        self.config = config
        self.store_dir = Path(config.store)
        self.uploads_dir = self.store_dir / "uploads"
        self.uploads_dir.mkdir(parents=True, exist_ok=True)
        self._journal = _LockedStore(ResultStore(self.store_dir / "jobs.jsonl"))
        self._results = _LockedStore(ResultStore(self.store_dir / "results.jsonl"))
        self._lock = threading.RLock()
        self._queue: "queue.Queue[EngineCell]" = queue.Queue()
        self._pending: Set[str] = set()  # queued or running, not yet recorded
        self._running: Set[str] = set()
        self._executed_cells = 0
        self._stop = threading.Event()
        self._workers: List[threading.Thread] = []
        self._resume()
        for index in range(config.workers):
            worker = threading.Thread(
                target=self._worker_loop, name=f"repro-service-worker-{index}", daemon=True
            )
            worker.start()
            self._workers.append(worker)

    # ------------------------------------------------------------------ #
    # Submission
    # ------------------------------------------------------------------ #
    def submit(self, submission: Dict[str, Any]) -> Tuple[Dict[str, Any], bool]:
        """Accept one job; returns ``(job, created)``.

        ``created`` is ``False`` when the submission deduplicated against an
        existing job — either attached to a queued/running one or served
        directly from a completed result.  Raises
        :class:`~repro.errors.NetlistParseError` for malformed netlists,
        :class:`InvalidJobError`/:class:`BudgetExceededError` for bad
        parameters, and :class:`QueueFullError` at capacity.
        """
        if not isinstance(submission, dict):
            raise InvalidJobError("job submission must be a JSON object")
        fmt = str(submission.get("format", "")).strip().lower()
        suffix = FORMAT_SUFFIXES.get(fmt)
        if suffix is None:
            raise InvalidJobError(
                f"unknown netlist format {fmt!r}; available: {sorted(set(FORMAT_SUFFIXES))}"
            )
        params = _parse_params(submission)
        if params["iterations"] < 1:
            raise InvalidJobError("iterations must be >= 1")
        if params["iterations"] > self.config.max_budget:
            raise BudgetExceededError(
                f"iterations={params['iterations']} exceeds the service budget cap "
                f"of {self.config.max_budget}"
            )
        data = _decode_netlist(submission)
        design_path = self._store_upload(data, suffix)
        self._validate_netlist(design_path)
        cell = self._build_cell(design_path, params)
        job_id = cell.cell_id

        with self._lock:
            record = self._results.result_for(job_id)
            if record is not None and record.get("status") == "ok":
                return self._job_locked(job_id), False
            if job_id in self._pending:
                return self._job_locked(job_id), False
            if len(self._pending) >= self.config.max_queue:
                raise QueueFullError(
                    f"service queue is full ({self.config.max_queue} unfinished jobs)"
                )
            self._journal.append(
                {
                    "cell_id": job_id,
                    "status": "queued",
                    "fn": cell.fn,
                    "payload": cell.payload,
                    "request": {"format": fmt, "design_path": str(design_path), **params},
                }
            )
            self._pending.add(job_id)
            self._queue.put(cell)
            return self._job_locked(job_id), True

    def _store_upload(self, data: bytes, suffix: str) -> Path:
        """Write the upload content-addressed; identical content shares a file.

        The shared path matters: the campaign spec fingerprints file designs
        by content *and* keys the cell identity on the design token (the
        path), so identical netlists must resolve to one path for two
        submissions to collide onto one cell id.
        """
        digest = hashlib.sha256(data).hexdigest()[:16]
        path = self.uploads_dir / f"{digest}{suffix}"
        if not path.exists():
            # Each writer renames its own temp file: concurrent identical
            # uploads may all pass the exists() check, and the content is
            # addressed by its hash, so whichever rename lands last leaves
            # the same bytes.
            fd, tmp = tempfile.mkstemp(
                prefix=f".{path.name}.", suffix=".tmp", dir=self.uploads_dir
            )
            try:
                with os.fdopen(fd, "wb") as handle:
                    handle.write(data)
                os.replace(tmp, path)
            except BaseException:
                with contextlib.suppress(OSError):
                    os.unlink(tmp)
                raise
        return path

    @staticmethod
    def _validate_netlist(path: Path) -> None:
        """Parse the upload now so malformed netlists fail at submit (400)."""
        from repro.api.session import load_design

        load_design(path)

    def _build_cell(self, design_path: Path, params: Dict[str, Any]) -> EngineCell:
        try:
            spec = CampaignSpec(
                designs=[design_path],
                flows=[params["flow"]],
                optimizers=[params["optimizer"]],
                evaluators=[params["evaluator"]],
                seeds=[params["seed"]],
                iterations=params["iterations"],
                delay_weight=params["delay_weight"],
                area_weight=params["area_weight"],
            )
            cells = spec.expand()
        except CampaignError as exc:
            raise InvalidJobError(str(exc)) from exc
        assert len(cells) == 1  # one design × one matrix point
        cell = cells[0]
        return EngineCell(cell_id=cell.cell_id, fn=OPTIMIZE_CELL_FN, payload=cell.payload())

    # ------------------------------------------------------------------ #
    # Execution
    # ------------------------------------------------------------------ #
    def _resume(self) -> None:
        """Re-enqueue every journalled job without a result record.

        This is the whole crash-recovery story: the journal holds the full
        engine cell of every accepted job, the result store holds every
        outcome, and their difference is exactly the work lost to a crash
        (including jobs that were *running* when the process died — they
        have no result record, so they run again).
        """
        # Runs from __init__ before the worker threads start, so there is no
        # contention — but holding the lock anyway keeps every _pending /
        # _queue access uniformly guarded (and statically checkable).
        with self._lock:
            results = self._results.latest()
            for job_id, entry in sorted(self._journal.latest().items()):
                if job_id in results:
                    continue
                cell = EngineCell(
                    cell_id=job_id,
                    fn=str(entry.get("fn", OPTIMIZE_CELL_FN)),
                    payload=dict(entry.get("payload", {})),
                )
                self._pending.add(job_id)
                self._queue.put(cell)

    def _worker_loop(self) -> None:
        while not self._stop.is_set():
            try:
                # repro-lint: ignore[C1] -- queue.Queue is internally
                # synchronised; _lock guards the bookkeeping sets, not the
                # queue handoff itself.
                cell = self._queue.get(timeout=0.1)
            except queue.Empty:
                continue
            try:
                self._execute(cell)
            finally:
                self._queue.task_done()

    def _execute(self, cell: EngineCell) -> None:
        with self._lock:
            self._running.add(cell.cell_id)
        try:
            summary = run_cells(
                [cell],
                self._results,  # repro-lint: ignore[C1] -- sharded store, append path is internally synchronised
                max_workers=1,
                timeout_s=self.config.timeout_s,
                retries=self.config.retries,
            )
            with self._lock:
                self._executed_cells += summary.executed
        except Exception as exc:  # engine/store failure: record, don't die
            try:
                self._results.append(
                    {
                        "cell_id": cell.cell_id,
                        "status": "error",
                        "error": f"{type(exc).__name__}: {exc}",
                    }
                )
            except Exception as store_exc:
                # Double fault: the result store itself failed while we were
                # recording a job failure.  The journal still holds the job
                # (it resumes on restart); surface the store failure instead
                # of hiding it.
                print(
                    f"repro service: result store append failed for job "
                    f"{cell.cell_id}: {type(store_exc).__name__}: {store_exc} "
                    f"(original error: {type(exc).__name__}: {exc})",
                    file=sys.stderr,
                )
        finally:
            with self._lock:
                self._running.discard(cell.cell_id)
                self._pending.discard(cell.cell_id)

    def close(self) -> None:
        """Stop the worker threads (queued jobs stay journalled for resume)."""
        self._stop.set()
        for worker in self._workers:
            worker.join(timeout=5.0)

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    def job(self, job_id: str) -> Dict[str, Any]:
        """The current view of one job; raises :class:`UnknownJobError`."""
        with self._lock:
            return self._job_locked(job_id)

    def _job_locked(self, job_id: str) -> Dict[str, Any]:
        entry = self._journal.latest().get(job_id)
        record = self._results.result_for(job_id)
        if entry is None and record is None:
            raise UnknownJobError(f"unknown job id {job_id!r}")
        if record is not None and job_id not in self._pending:
            state = "done" if record.get("status") == "ok" else "error"
        elif job_id in self._running:
            state = "running"
        else:
            state = "queued"
        job: Dict[str, Any] = {"job_id": job_id, "state": state}
        if entry is not None:
            job["request"] = dict(entry.get("request", {}))
        if state == "error" and record is not None:
            job["error"] = record.get("error")
        return job

    def result(self, job_id: str) -> Optional[Dict[str, Any]]:
        """The result record of a finished job, else ``None`` (still pending).

        Raises :class:`UnknownJobError` for ids never submitted.
        """
        with self._lock:
            self._job_locked(job_id)  # 404 for unknown ids
            if job_id in self._pending:
                return None
            return self._results.result_for(job_id)

    def jobs(self) -> List[Dict[str, Any]]:
        """Every known job, sorted by id."""
        with self._lock:
            ids = set(self._journal.latest()) | set(self._results.latest())
            return [self._job_locked(job_id) for job_id in sorted(ids)]

    def stats(self) -> Dict[str, Any]:
        """Service counters: job states, executed cells, evaluator cache."""
        from repro.api.session import all_worker_session_pools

        with self._lock:
            states = {"queued": 0, "running": 0, "done": 0, "error": 0}
            ids = set(self._journal.latest()) | set(self._results.latest())
            for job_id in ids:
                states[self._job_locked(job_id)["state"]] += 1
            executed = self._executed_cells
        hits = misses = 0
        for pool in all_worker_session_pools():
            for session in pool.sessions():
                cache_stats = session.cache_stats
                if cache_stats is not None:
                    hits += cache_stats.hits
                    misses += cache_stats.misses
        return {
            "jobs": states,
            "executed_cells": executed,
            "evaluations": {"cache_hits": hits, "cache_misses": misses},
            "workers": self.config.workers,
            "queue_capacity": self.config.max_queue,
            "store": str(self.store_dir),
        }
