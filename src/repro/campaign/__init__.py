"""Campaign engine: resumable, process-parallel, multi-machine suite runs.

The paper's headline results are suite-level — every flow × optimizer ×
seed over the benchmark designs.  This package turns that sweep into a
first-class, declarative object:

* :class:`CampaignSpec` — the designs × flows × optimizers × evaluators ×
  seeds matrix, expanded into independent :class:`CampaignCell` units keyed
  by a deterministic content hash;
* :class:`ResultStore` / :class:`ShardedResultStore` — crash-safe,
  append-only JSONL stores; the sharded variant keeps one single-writer
  file per worker/machine in a shared directory, merged on read, so
  several machines can chew on one spec (``repro campaign merge`` compacts
  the shards into one canonical file);
* :func:`run_campaign` / :func:`run_cells` — the process-parallel engine
  with a pluggable :class:`~repro.campaign.schedule.Scheduler` seam
  (``"matrix"`` legacy order, ``"cost"`` slowest-expected-first), appending
  records in canonical matrix order so stores are bitwise-reproducible —
  modulo timing fields — at any worker count, under either scheduler, and
  across shard layouts;
* :func:`campaign_report` / :func:`diff_stores` — per-design medians,
  train/test splits, stage-time breakdowns, and store-vs-baseline diffs
  with per-cell regressions highlighted.

Failure handling is part of the engine contract: TTL'd cell leases with
work stealing (:class:`LeaseManager`) let concurrent writers split one spec
with zero duplicate executions, poison cells are quarantined after a
configurable failure count (:func:`requeue_cells` re-arms them), and
out-of-order completed records are journaled durably
(:class:`ProgressJournal`) so crashes re-execute nothing.  The
:mod:`repro.devtools.faults` harness injects deterministic failures at the
engine's fault sites to prove all of it converges to the fault-free store.

Cells executing in pool workers share per-worker persistent
:class:`~repro.api.session.SynthesisSession` state (library index, mapper,
PPA cache) through :func:`repro.api.session.worker_session_pool`, keyed by
evaluation context so different libraries never share a session.
"""

from repro.campaign.leases import Lease, LeaseManager, lease_manager_for
from repro.campaign.progress import ProgressJournal, progress_journal_for
from repro.campaign.quarantine import (
    DEFAULT_QUARANTINE_AFTER,
    effective_failures,
    mark_quarantined,
    quarantine_markers,
    quarantined_ids,
    requeue_cells,
)
from repro.campaign.report import (
    CampaignDiff,
    CampaignReport,
    CellDelta,
    campaign_report,
    design_role,
    diff_stores,
)
from repro.campaign.runner import (
    CampaignStatus,
    EngineCell,
    EngineSummary,
    campaign_status,
    engine_cells,
    execute_cell,
    execute_cell_with_policy,
    in_pooled_worker,
    run_campaign,
    run_cells,
)
from repro.campaign.schedule import (
    CostScheduler,
    MatrixScheduler,
    Scheduler,
    resolve_scheduler,
)
from repro.campaign.shards import (
    ShardedResultStore,
    default_shard_name,
    merge_store,
    open_store,
)
from repro.campaign.spec import (
    OPTIMIZERS,
    CampaignCell,
    CampaignSpec,
    cell_id_for,
    design_token,
)
from repro.campaign.store import (
    TIMING_FIELDS,
    CellResultStore,
    ResultStore,
    canonical_records,
    compact_store,
    strip_timing,
)
from repro.campaign.warmstart import (
    ground_truth_evaluations,
    save_snapshot,
    seed_session,
    warmstart_dir_for,
)

__all__ = [
    "DEFAULT_QUARANTINE_AFTER",
    "OPTIMIZERS",
    "TIMING_FIELDS",
    "CampaignCell",
    "CampaignDiff",
    "CampaignReport",
    "CampaignSpec",
    "CampaignStatus",
    "CellDelta",
    "CellResultStore",
    "CostScheduler",
    "EngineCell",
    "EngineSummary",
    "Lease",
    "LeaseManager",
    "MatrixScheduler",
    "ProgressJournal",
    "ResultStore",
    "Scheduler",
    "ShardedResultStore",
    "campaign_report",
    "campaign_status",
    "canonical_records",
    "cell_id_for",
    "compact_store",
    "default_shard_name",
    "design_role",
    "design_token",
    "diff_stores",
    "effective_failures",
    "engine_cells",
    "execute_cell",
    "ground_truth_evaluations",
    "execute_cell_with_policy",
    "in_pooled_worker",
    "lease_manager_for",
    "mark_quarantined",
    "merge_store",
    "open_store",
    "progress_journal_for",
    "quarantine_markers",
    "quarantined_ids",
    "requeue_cells",
    "resolve_scheduler",
    "run_campaign",
    "run_cells",
    "save_snapshot",
    "seed_session",
    "strip_timing",
    "warmstart_dir_for",
]
