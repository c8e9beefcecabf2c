"""The campaign execution engine: resumable, process-parallel cell runs.

The engine is deliberately generic: a cell is just a deterministic id, a
fully-qualified worker function (``"package.module:function"``), and a
picklable payload.  :func:`run_cells` skips every cell whose id already has
a successful record in the result store (single-file
:class:`~repro.campaign.store.ResultStore` or sharded
:class:`~repro.campaign.shards.ShardedResultStore`), hands the remainder to
a pluggable :class:`~repro.campaign.schedule.Scheduler` for submission
ordering, runs them — across a process pool when asked — and appends each
outcome as it lands, so a killed run resumes by executing only the missing
cells.

Records are appended in **canonical matrix order** regardless of the
scheduler's submission order or which worker finishes first, and each cell
derives all of its randomness from its own id and seed (via non-consuming
:func:`repro.utils.rng.spawn_rng` streams), so single-file store contents
are identical — modulo wall-clock fields — at any worker count and under
any scheduler, and sharded runs agree on their canonical view.

Failure is a first-class input to the engine, not an afterthought:

* ``lease_ttl_s`` turns a sharded run into a **fabric writer** that claims
  cells through :class:`~repro.campaign.leases.LeaseManager` — concurrent
  writers split the pending set with zero duplicate executions, and a
  ``kill -9``'d writer's cells are stolen by survivors after the TTL.
* ``quarantine_after`` bounds the retry loop for **poison cells**: a cell
  with that many uncleared failed attempts across all writers (timeouts and
  reclaim crash markers included) is marked ``status: "quarantined"`` and
  skipped until ``repro campaign requeue`` clears it.
* Out-of-order completed records buffered for canonical order are journaled
  durably (:class:`~repro.campaign.progress.ProgressJournal`) and folded
  back in on resume, so a crash mid-pool re-executes nothing.
* :func:`repro.devtools.faults.fault_hook` sites (``cell``, ``flush``, and
  the stores' ``store_append``) let the chaos differential suite inject
  deterministic failures and assert the whole fabric converges to the
  fault-free store.

On top of the generic engine, :func:`run_campaign` executes a
:class:`~repro.campaign.spec.CampaignSpec` with the standard optimize-cell
worker, and :func:`campaign_status` reports completed/failed/pending counts
for a spec against a store.  The experiment modules (Fig. 2, Fig. 5,
Table IV, the optimizer comparison, the learning curve) drive their own
cell kinds through the same engine.
"""

from __future__ import annotations

import hashlib
import importlib
import os
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Set

from repro.campaign.leases import LeaseManager, lease_manager_for
from repro.campaign.progress import ProgressJournal, progress_journal_for
from repro.campaign.quarantine import (
    effective_failures,
    mark_quarantined,
    quarantine_markers,
    quarantined_ids,
)
from repro.campaign.schedule import SchedulerLike, resolve_scheduler
from repro.campaign.spec import CampaignCell, CampaignSpec
from repro.campaign.store import CellResultStore
from repro.campaign.warmstart import WARMSTART_PAYLOAD_KEY, warmstart_dir_for
from repro.devtools.faults import fault_hook
from repro.errors import CampaignError
from repro.utils.pool import exit_with_parent

#: worker function used for standard campaign optimize cells.
OPTIMIZE_CELL_FN = "repro.campaign.cells:run_optimize_cell"

#: set to "1" in pool-worker processes so cell code can detect that it is
#: already running under the engine's process pool (the nested-pool guard).
POOLED_ENV = "REPRO_CAMPAIGN_POOLED"


def in_pooled_worker() -> bool:
    """Whether this process is a campaign-engine pool worker."""
    return os.environ.get(POOLED_ENV) == "1"


@dataclass(frozen=True)
class EngineCell:
    """One schedulable unit: id + worker function + picklable payload."""

    cell_id: str
    fn: str
    payload: Dict[str, Any]


@dataclass
class EngineSummary:
    """Outcome of one :func:`run_cells` invocation."""

    total: int
    skipped: int
    executed: int
    failed: List[str] = field(default_factory=list)
    #: cells whose completed records were folded back from a progress
    #: journal instead of re-executing (crash recovery).
    recovered: int = 0
    #: cells skipped (or newly marked) as quarantined poison cells.
    quarantined: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        """Whether every executed cell succeeded."""
        return not self.failed


def _resolve_fn(path: str) -> Callable[[Dict[str, Any]], Dict[str, Any]]:
    module_name, _, func_name = path.partition(":")
    if not module_name or not func_name:
        raise CampaignError(f"cell fn must be 'module:function', got {path!r}")
    module = importlib.import_module(module_name)
    fn = getattr(module, func_name, None)
    if not callable(fn):
        raise CampaignError(f"cell fn {path!r} does not resolve to a callable")
    return fn


def execute_cell(cell_id: str, fn_path: str, payload: Dict[str, Any]) -> Dict[str, Any]:
    """Run one cell (in whatever process this is) and return its record.

    Worker exceptions become ``status: "error"`` records rather than
    propagating, so one bad cell never aborts the rest of a campaign.
    """
    # repro-lint: ignore[D4] -- this IS the timing plumbing: the elapsed
    # time lands in "cell_seconds", a TIMING_FIELDS member every comparison
    # strips; Timer is not importable in spawn-context pool workers before
    # _pool_worker_init runs.
    start = time.perf_counter()
    try:
        # Fault site "cell": inside the try, so an injected transient error
        # becomes an ordinary error record; an injected crash kills this
        # (worker) process; an injected hang overruns the cell timeout.
        fault_hook("cell", key=cell_id)
        result = _resolve_fn(fn_path)(payload) or {}
        record: Dict[str, Any] = {"cell_id": cell_id, "status": "ok"}
        record.update(result)
    except Exception as exc:
        record = {
            "cell_id": cell_id,
            "status": "error",
            "error": f"{type(exc).__name__}: {exc}",
        }
    record["cell_seconds"] = time.perf_counter() - start  # repro-lint: ignore[D4] -- see above
    return record


def _timeout_child(conn, cell_id: str, fn_path: str, payload: Dict[str, Any]) -> None:
    """Subprocess entry point for timeout-enforced cell execution."""
    try:
        record = execute_cell(cell_id, fn_path, payload)
    except BaseException as exc:  # execute_cell already catches Exception
        record = {
            "cell_id": cell_id,
            "status": "error",
            "error": f"{type(exc).__name__}: {exc}",
        }
    try:
        conn.send(record)
    finally:
        conn.close()


def _execute_with_timeout(
    cell_id: str, fn_path: str, payload: Dict[str, Any], timeout_s: float
) -> Dict[str, Any]:
    """Run one cell in a child process, killing it after *timeout_s* seconds.

    A dedicated (spawned) child per cell is the only way to actually free a
    slot pinned by a hung worker — threads cannot be killed, and a pool
    worker stuck in C code ignores everything short of SIGKILL.  Where
    subprocesses are unavailable (sandboxes, or a daemonic pool worker that
    may not fork) the cell runs in-process and the timeout is best-effort
    unenforced — results are identical either way, only the hang protection
    is lost.
    """
    import multiprocessing

    # repro-lint: ignore[D4] -- feeds the "cell_seconds" TIMING_FIELDS
    # member (stripped by every comparison), same as execute_cell.
    start = time.perf_counter()
    try:
        # spawn, not fork: the service calls this from worker threads, and
        # forking a multi-threaded process can deadlock the child.
        ctx = multiprocessing.get_context("spawn")
        parent_conn, child_conn = ctx.Pipe(duplex=False)
        proc = ctx.Process(
            target=_timeout_child, args=(child_conn, cell_id, fn_path, payload)
        )
        proc.start()
    # repro-lint: ignore[C3] -- spawn-unavailable platforms fall back to
    # in-process execution; the cell still runs and records its own status.
    except Exception:
        return execute_cell(cell_id, fn_path, payload)
    child_conn.close()
    try:
        if parent_conn.poll(timeout_s):
            try:
                record: Dict[str, Any] = parent_conn.recv()
            except (EOFError, OSError):
                record = {
                    "cell_id": cell_id,
                    "status": "error",
                    "error": "WorkerDied: cell worker exited without a result",
                }
        else:
            record = {
                "cell_id": cell_id,
                "status": "error",
                "error": f"TimeoutError: cell exceeded timeout_s={timeout_s}",
                "timed_out": True,
            }
    finally:
        if proc.is_alive():
            proc.terminate()
            proc.join(5.0)
            if proc.is_alive():  # pragma: no cover - stuck in uninterruptible IO
                proc.kill()
                proc.join(5.0)
        else:
            proc.join()
        parent_conn.close()
    record.setdefault("cell_seconds", time.perf_counter() - start)  # repro-lint: ignore[D4] -- see above
    return record


def _retry_jitter(cell_id: str, attempt: int) -> float:
    """Deterministic backoff jitter in ``[0.5, 1.5)``, keyed by cell id.

    Pool workers retrying simultaneously-failed cells would otherwise sleep
    in lockstep and hammer whatever shared resource failed them, all at the
    same instant; hashing the cell id (PYTHONHASHSEED-independent) spreads
    the retries while keeping every run of the same cell identical.
    """
    material = f"{cell_id}:{attempt}".encode("utf-8")
    digest = hashlib.sha256(material).digest()
    return 0.5 + int.from_bytes(digest[:8], "big") / float(1 << 64)


def execute_cell_with_policy(
    cell_id: str,
    fn_path: str,
    payload: Dict[str, Any],
    timeout_s: Optional[float] = None,
    retries: int = 0,
    retry_backoff_s: float = 0.05,
) -> Dict[str, Any]:
    """Run one cell under an opt-in timeout/retry policy.

    With *timeout_s* set, the cell runs in a dedicated child process that is
    terminated at the deadline, so a hung cell records an ``error`` result
    (with ``timed_out: true``) and frees its slot instead of pinning a
    worker forever.  A failing cell is re-executed up to *retries* times
    with exponential backoff (``retry_backoff_s * 2**attempt``, jittered
    per cell id by :func:`_retry_jitter`); when any retry policy is active
    the returned record carries an ``attempts`` count, and if any attempt
    failed, an ``attempt_errors`` list preserving every failed attempt's
    error in order — so a flaky-then-ok cell is distinguishable from a
    clean one, and a hard failure shows its full history instead of only
    the last message.  With the default arguments this is exactly
    :func:`execute_cell`.
    """
    if timeout_s is not None and timeout_s <= 0:
        raise CampaignError("timeout_s must be positive (or None to disable)")
    if retries < 0:
        raise CampaignError("retries must be >= 0")
    if retry_backoff_s < 0:
        raise CampaignError("retry_backoff_s must be >= 0")
    attempt = 0
    attempt_errors: List[str] = []
    while True:
        if timeout_s is None:
            record = execute_cell(cell_id, fn_path, payload)
        else:
            record = _execute_with_timeout(cell_id, fn_path, payload, timeout_s)
        if record.get("status") != "ok":
            attempt_errors.append(str(record.get("error", "")))
        if record.get("status") == "ok" or attempt >= retries:
            if retries:
                record["attempts"] = attempt + 1
                if attempt_errors:
                    record["attempt_errors"] = list(attempt_errors)
            return record
        backoff = retry_backoff_s * (2.0**attempt) * _retry_jitter(cell_id, attempt)
        if backoff > 0:
            time.sleep(backoff)
        attempt += 1


def _pool_worker_init() -> None:
    """Mark pool workers so nested-parallelism guards can trigger.

    Workers also exit once this writer is gone, so a crashed or killed
    writer leaves no orphaned pool behind.
    """
    os.environ[POOLED_ENV] = "1"
    exit_with_parent()


class _CanonicalAppender:
    """Flushes completed records to the store in canonical matrix order.

    Cells may *execute* in any order (cost scheduling, pool racing); the
    store layout must not depend on that, so records are buffered until
    every earlier-in-matrix record has landed.  With a *journal*, each
    successful record that has to wait is appended durably the moment it
    lands, and :meth:`fold_journal` replays those records on resume — so a
    crash under a cost-scheduled pool (where the buffered region is large)
    re-executes nothing, while the store layout stays identical to an
    uninterrupted run.  A record is only dropped from the buffer once the
    store accepted it, so a failing ``append`` propagates without losing
    anything.
    """

    def __init__(
        self,
        canonical: Sequence[EngineCell],
        record_result: Callable[[Dict[str, Any]], None],
        journal: Optional[ProgressJournal] = None,
    ) -> None:
        self._order = [cell.cell_id for cell in canonical]
        self._record_result = record_result
        self._journal = journal
        self._pending: Dict[str, Dict[str, Any]] = {}
        self._next = 0
        self.added: set = set()
        #: cells satisfied from the journal rather than executed.
        self.recovered: set = set()

    def add(self, record: Dict[str, Any], from_journal: bool = False) -> None:
        cell_id = str(record["cell_id"])
        self.added.add(cell_id)
        if from_journal:
            self.recovered.add(cell_id)
        self._pending[cell_id] = record
        while self._next < len(self._order):
            ready = self._pending.get(self._order[self._next])
            if ready is None:
                break
            self._record_result(ready)
            del self._pending[self._order[self._next]]
            self._next += 1
        if (
            self._journal is not None
            and not from_journal
            and cell_id in self._pending
            and record.get("status") == "ok"
        ):
            # The record is waiting for earlier-in-matrix cells: make it
            # durable now so a crash does not force its re-execution.
            self._journal.append(record)

    def fold_journal(self, eligible: Set[str]) -> int:
        """Replay journalled records for *eligible* cells; returns the count."""
        if self._journal is None:
            return 0
        folded = 0
        for record in self._journal.load():
            cell_id = str(record["cell_id"])
            if cell_id in eligible and cell_id not in self.added:
                self.add(record, from_journal=True)
                folded += 1
        return folded

    @property
    def drained(self) -> bool:
        return self._next == len(self._order)


def _run_pool(
    scheduled: Sequence[EngineCell],
    workers: int,
    appender: _CanonicalAppender,
    timeout_s: Optional[float] = None,
    retries: int = 0,
    retry_backoff_s: float = 0.05,
) -> List[EngineCell]:
    """Execute *scheduled* on a process pool; return cells that did not land.

    Pool-level failures (no subprocess support, broken pool mid-run) are
    swallowed — the caller re-runs the leftovers serially, so results never
    depend on whether a pool was actually available.  Store failures while
    flushing a record are *not* swallowed: a store that cannot record is
    fatal to the campaign, and nothing buffered is lost on the way out.
    """
    try:
        from concurrent.futures import ProcessPoolExecutor

        pool = ProcessPoolExecutor(max_workers=workers, initializer=_pool_worker_init)
    # repro-lint: ignore[C3] -- no pool means nothing ran: every cell is
    # returned unexecuted and the caller runs them serially.
    except Exception:
        return list(scheduled)
    with pool:
        futures = []
        try:
            for cell in scheduled:
                futures.append(
                    (
                        pool.submit(
                            execute_cell_with_policy,
                            cell.cell_id,
                            cell.fn,
                            cell.payload,
                            timeout_s=timeout_s,
                            retries=retries,
                            retry_backoff_s=retry_backoff_s,
                        ),
                        cell,
                    )
                )
        # repro-lint: ignore[C3] -- submission failure is recovered, not
        # swallowed: submitted futures are still collected, the remainder
        # is re-run serially by the caller.
        except Exception:
            # Submission failed (broken/unsupported pool); whatever was
            # submitted is still collected below, the rest runs serially.
            pass
        # Collect in submission order; the appender re-serialises the
        # store layout to canonical matrix order either way.
        for future, cell in futures:
            try:
                record = future.result()
            # repro-lint: ignore[C3] -- a crashed worker leaves its cell in
            # the unexecuted remainder, which re-runs serially with per-cell
            # error recording; nothing is lost.
            except Exception:
                continue
            appender.add(record)
    return [cell for cell in scheduled if cell.cell_id not in appender.added]


def _ordered(
    policy, to_run: Sequence[EngineCell], store: CellResultStore
) -> List[EngineCell]:
    """Apply *policy* to *to_run*, enforcing the permutation contract."""
    scheduled = policy.order(list(to_run), store)
    if sorted(cell.cell_id for cell in scheduled) != sorted(
        cell.cell_id for cell in to_run
    ):
        raise CampaignError(
            f"scheduler {type(policy).__name__} must return a permutation of "
            "the pending cells"
        )
    return scheduled


def _execute_batch(
    batch: Sequence[EngineCell],
    store: CellResultStore,
    appender: _CanonicalAppender,
    policy,
    max_workers: int,
    timeout_s: Optional[float],
    retries: int,
    retry_backoff_s: float,
) -> int:
    """Run one canonical-order batch (pool first, serial leftovers).

    The appender may already hold journal-recovered records for some of the
    batch; only the rest execute.  Returns the number of cells executed.
    """
    to_run = [cell for cell in batch if cell.cell_id not in appender.recovered]
    scheduled = _ordered(policy, to_run, store)
    leftover: Sequence[EngineCell] = to_run
    if max_workers > 1 and len(scheduled) > 1:
        pooled_leftover = _run_pool(
            scheduled,
            min(max_workers, len(scheduled)),
            appender,
            timeout_s=timeout_s,
            retries=retries,
            retry_backoff_s=retry_backoff_s,
        )
        leftover_ids = {cell.cell_id for cell in pooled_leftover}
        # Serial fallback keeps canonical order so appends stay prompt.
        leftover = [cell for cell in to_run if cell.cell_id in leftover_ids]
    for cell in leftover:
        appender.add(
            execute_cell_with_policy(
                cell.cell_id,
                cell.fn,
                cell.payload,
                timeout_s=timeout_s,
                retries=retries,
                retry_backoff_s=retry_backoff_s,
            )
        )
    if batch and not appender.drained:
        raise CampaignError("engine bug: not every pending cell produced a record")
    return len(to_run)


def _run_leased(
    pending: Sequence[EngineCell],
    store: CellResultStore,
    manager: LeaseManager,
    policy,
    record_result: Callable[[Dict[str, Any]], None],
    journal: Optional[ProgressJournal],
    max_workers: int,
    timeout_s: Optional[float],
    retries: int,
    retry_backoff_s: float,
    quarantine_after: Optional[int],
    poll_s: float,
    newly_quarantined: List[str],
) -> Dict[str, int]:
    """Drain *pending* as one writer of a multi-writer lease fabric.

    Cells are claimed in rounds of a few pool-widths, so concurrent writers
    split the work dynamically instead of one greedy writer hoarding the
    whole pending list.  Cells held by a *live* writer are left alone and
    re-polled; cells whose lease expired (dead writer) are stolen, charged
    one crash-marker failure, and executed here.  The loop ends when every
    pending cell is completed, quarantined, or failed by some writer this
    run — an error landed by any writer is not retried again within the
    same invocation, mirroring the single-writer engine's one-execution-
    per-cell-per-run semantics.
    """
    chunk = max(4, max_workers * 2)
    initial_failed = store.failed_ids()
    executed_ids: Set[str] = set()
    recovered = 0
    executed = 0
    with manager:
        while True:
            completed_now = store.completed_ids()
            quarantined_now = quarantined_ids(store, quarantine_after)
            # Failures that appeared after this run started (any writer's)
            # are final for this invocation; pre-existing ones are retried.
            fresh_failures = store.failed_ids() - initial_failed
            remaining = [
                cell
                for cell in pending
                if cell.cell_id not in completed_now
                and cell.cell_id not in executed_ids
                and cell.cell_id not in quarantined_now
                and cell.cell_id not in fresh_failures
            ]
            if not remaining:
                break
            mine: List[EngineCell] = []
            for cell in remaining:
                if len(mine) >= chunk:
                    break
                if manager.acquire(cell.cell_id):
                    mine.append(cell)
            if not mine:
                # Everything left is held by live writers: wait for their
                # records (or their TTL expiry) and look again.
                time.sleep(poll_s)
                continue
            batch: List[EngineCell] = []
            for cell in mine:
                thief_victim = manager.stolen_from(cell.cell_id)
                if thief_victim is not None:
                    # A reclaimed cell was in flight on a dead writer:
                    # charge one failed attempt so repeat offenders (cells
                    # that *kill* their writers) reach quarantine.
                    store.append(
                        {
                            "cell_id": cell.cell_id,
                            "status": "error",
                            "error": (
                                "WriterCrashed: lease held by "
                                f"{thief_victim!r} expired"
                            ),
                            "crashed": True,
                            "stolen_from": thief_victim,
                        }
                    )
                    if quarantine_after:
                        failures = effective_failures(store).get(cell.cell_id, 0)
                        if failures >= quarantine_after:
                            mark_quarantined(
                                store,
                                cell.cell_id,
                                failures,
                                error="WriterCrashed: repeatedly killed its writer",
                            )
                            newly_quarantined.append(cell.cell_id)
                            manager.release(cell.cell_id)
                            continue
                batch.append(cell)
            if not batch:
                continue
            appender = _CanonicalAppender(batch, record_result, journal=journal)
            recovered += appender.fold_journal({cell.cell_id for cell in batch})
            executed += _execute_batch(
                batch,
                store,
                appender,
                policy,
                max_workers,
                timeout_s,
                retries,
                retry_backoff_s,
            )
            executed_ids.update(cell.cell_id for cell in batch)
    if journal is not None:
        journal.clear()
    return {"recovered": recovered, "executed": executed}


def run_cells(
    cells: Sequence[EngineCell],
    store: CellResultStore,
    max_workers: int = 1,
    on_record: Optional[Callable[[Dict[str, Any]], None]] = None,
    scheduler: SchedulerLike = None,
    timeout_s: Optional[float] = None,
    retries: int = 0,
    retry_backoff_s: float = 0.05,
    lease_ttl_s: Optional[float] = None,
    lease_poll_s: Optional[float] = None,
    quarantine_after: Optional[int] = None,
    warm_start: bool = True,
) -> EngineSummary:
    """Execute every cell not already completed in *store*.

    Duplicate ids are executed once; completed ids are skipped; failed ids
    are retried.  *scheduler* (``"matrix"``, ``"cost"``, or a
    :class:`~repro.campaign.schedule.Scheduler` instance) picks the pool
    *submission* order of the pending cells; records always land in the
    store in canonical matrix order, so the resulting store is scheduler-
    and worker-count-independent.  Serial execution (``max_workers == 1``,
    or pool leftovers) runs in canonical order directly — cost scheduling
    only helps a pool drain, and canonical serial order keeps every record
    durable the moment its cell completes.

    *timeout_s* / *retries* / *retry_backoff_s* opt each cell into the
    :func:`execute_cell_with_policy` timeout/retry policy: a cell that
    exceeds *timeout_s* records an ``error`` result (``timed_out: true``)
    and frees its slot, and failing cells are re-executed up to *retries*
    times with jittered exponential backoff before their error record is
    final.

    *lease_ttl_s* opts a **sharded** store into the multi-writer lease
    fabric: cells are claimed via TTL'd leases before executing, so
    concurrent writers on one store directory never execute the same cell
    twice and a dead writer's cells migrate to survivors (see
    :mod:`repro.campaign.leases`); *lease_poll_s* tunes how often a writer
    re-checks cells other writers hold.  *quarantine_after* bounds poison
    cells: a cell with that many uncleared failures across writers is
    marked quarantined and skipped until requeued (see
    :mod:`repro.campaign.quarantine`).

    *warm_start* (default on, file-backed stores only) maintains the
    :mod:`repro.campaign.warmstart` sidecar: each cell payload is handed
    the snapshot directory (under :data:`~repro.campaign.warmstart.
    WARMSTART_PAYLOAD_KEY`) so workers seed their pooled evaluator caches
    from previous runs and persist what they learn.  Warm starting never
    changes any record (caches return exactly what recomputation would);
    it only removes repeated ground-truth evaluations.
    """
    if max_workers < 1:
        raise CampaignError("max_workers must be at least 1")
    if timeout_s is not None and timeout_s <= 0:
        raise CampaignError("timeout_s must be positive (or None to disable)")
    if retries < 0:
        raise CampaignError("retries must be >= 0")
    if retry_backoff_s < 0:
        raise CampaignError("retry_backoff_s must be >= 0")
    if lease_ttl_s is not None and lease_ttl_s <= 0:
        raise CampaignError("lease_ttl_s must be positive (or None to disable)")
    if lease_poll_s is not None and lease_poll_s <= 0:
        raise CampaignError("lease_poll_s must be positive (or None for default)")
    if quarantine_after is not None and quarantine_after < 1:
        raise CampaignError("quarantine_after must be >= 1 (or None to disable)")
    policy = resolve_scheduler(scheduler)
    warm_dir = warmstart_dir_for(store) if warm_start else None
    lease_manager: Optional[LeaseManager] = None
    if lease_ttl_s is not None:
        # Raises for single-writer stores, which have nothing to lease.
        lease_manager = lease_manager_for(store, lease_ttl_s)
    unique: List[EngineCell] = []
    seen: set = set()
    for cell in cells:
        if cell.cell_id in seen:
            continue
        seen.add(cell.cell_id)
        unique.append(cell)
    completed = store.completed_ids()
    quarantined_at_entry = quarantined_ids(store, quarantine_after)
    pending = [
        cell
        for cell in unique
        if cell.cell_id not in completed and cell.cell_id not in quarantined_at_entry
    ]
    if warm_dir is not None:
        # Hand every worker the snapshot directory through its payload;
        # cell functions that do not understand the key ignore it.
        pending = [
            EngineCell(
                cell_id=cell.cell_id,
                fn=cell.fn,
                payload={**cell.payload, WARMSTART_PAYLOAD_KEY: str(warm_dir)},
            )
            for cell in pending
        ]
    skipped = sum(1 for cell in unique if cell.cell_id in completed)
    quarantined_cells = sorted(
        cell.cell_id
        for cell in unique
        if cell.cell_id in quarantined_at_entry and cell.cell_id not in completed
    )
    journal = progress_journal_for(store)
    failed: List[str] = []

    def record_result(record: Dict[str, Any]) -> None:
        cell_id = str(record["cell_id"])
        # Fault site "flush": an injected crash here dies between execution
        # and durability — exactly the window the progress journal covers.
        fault_hook("flush", key=cell_id)
        store.append(record)
        if record.get("status") != "ok":
            failed.append(cell_id)
            if quarantine_after:
                failures = effective_failures(store).get(cell_id, 0)
                if failures >= quarantine_after:
                    mark_quarantined(
                        store, cell_id, failures, error=record.get("error")
                    )
                    quarantined_cells.append(cell_id)
        if lease_manager is not None:
            lease_manager.release(cell_id)
        if on_record is not None:
            on_record(record)

    if lease_manager is not None:
        poll_s = (
            lease_poll_s
            if lease_poll_s is not None
            else min(0.5, lease_manager.ttl_s / 4.0)
        )
        outcome = _run_leased(
            pending,
            store,
            lease_manager,
            policy,
            record_result,
            journal,
            max_workers,
            timeout_s,
            retries,
            retry_backoff_s,
            quarantine_after,
            poll_s,
            quarantined_cells,
        )
        recovered = outcome["recovered"]
        executed = outcome["executed"]
    else:
        appender = _CanonicalAppender(pending, record_result, journal=journal)
        recovered = appender.fold_journal({cell.cell_id for cell in pending})
        executed = _execute_batch(
            pending,
            store,
            appender,
            policy,
            max_workers,
            timeout_s,
            retries,
            retry_backoff_s,
        )
        if journal is not None and appender.drained:
            journal.clear()
    return EngineSummary(
        total=len(unique),
        skipped=skipped,
        executed=executed,
        failed=failed,
        recovered=recovered,
        quarantined=sorted(set(quarantined_cells)),
    )


# --------------------------------------------------------------------------- #
# Campaign-level wrappers
# --------------------------------------------------------------------------- #
def engine_cells(spec: CampaignSpec) -> List[EngineCell]:
    """The spec's cells wired to the standard optimize-cell worker."""
    return [
        EngineCell(cell_id=cell.cell_id, fn=OPTIMIZE_CELL_FN, payload=cell.payload())
        for cell in spec.expand()
    ]


def run_campaign(
    spec: CampaignSpec,
    store: CellResultStore,
    max_workers: int = 1,
    on_record: Optional[Callable[[Dict[str, Any]], None]] = None,
    scheduler: SchedulerLike = None,
    timeout_s: Optional[float] = None,
    retries: int = 0,
    retry_backoff_s: float = 0.05,
    lease_ttl_s: Optional[float] = None,
    lease_poll_s: Optional[float] = None,
    quarantine_after: Optional[int] = None,
    warm_start: bool = True,
) -> EngineSummary:
    """Run (or resume) *spec* against *store*; only missing cells execute."""
    return run_cells(
        engine_cells(spec),
        store,
        max_workers=max_workers,
        on_record=on_record,
        scheduler=scheduler,
        timeout_s=timeout_s,
        retries=retries,
        retry_backoff_s=retry_backoff_s,
        lease_ttl_s=lease_ttl_s,
        lease_poll_s=lease_poll_s,
        quarantine_after=quarantine_after,
        warm_start=warm_start,
    )


@dataclass
class CampaignStatus:
    """Progress of a spec against a store."""

    total: int
    completed: int
    failed: int
    pending_ids: List[str] = field(default_factory=list)
    #: quarantined poison cells — excluded from pending, so a campaign can
    #: reach ``done`` around them; ``repro campaign requeue`` re-arms them.
    quarantined_ids: List[str] = field(default_factory=list)

    @property
    def pending(self) -> int:
        """Number of cells still to run (includes failed cells to retry)."""
        return len(self.pending_ids)

    @property
    def quarantined(self) -> int:
        """Number of quarantined cells awaiting a requeue."""
        return len(self.quarantined_ids)

    @property
    def done(self) -> bool:
        """Whether every non-quarantined cell has a successful record."""
        return self.pending == 0


def campaign_status(
    spec: CampaignSpec,
    store: CellResultStore,
    quarantine_after: Optional[int] = None,
) -> CampaignStatus:
    """How much of *spec* the *store* already covers.

    With *quarantine_after* set, quarantine is derived from the failure
    counts (the same predicate the engine skips by); without it, cells
    whose winning record is a quarantine marker are surfaced.
    """
    ids = [cell.cell_id for cell in spec.expand()]
    completed = store.completed_ids()
    failed = store.failed_ids()
    if quarantine_after:
        quarantined = quarantined_ids(store, quarantine_after)
    else:
        quarantined = {
            str(record["cell_id"]) for record in quarantine_markers(store)
        }
    quarantined = (quarantined & set(ids)) - completed
    pending_ids = [
        cell_id
        for cell_id in ids
        if cell_id not in completed and cell_id not in quarantined
    ]
    return CampaignStatus(
        total=len(ids),
        completed=sum(1 for cell_id in ids if cell_id in completed),
        failed=sum(1 for cell_id in ids if cell_id in failed),
        pending_ids=pending_ids,
        quarantined_ids=sorted(quarantined),
    )
