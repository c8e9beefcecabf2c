"""Warm-start sidecars: PPA cache snapshots and cost-scheduler calibration.

A campaign's result store records *which cells finished*; it says nothing
about the expensive per-graph PPA work those cells performed along the way.
A restarted campaign therefore used to resume with stone-cold evaluator
caches: every pooled session re-mapped and re-timed graphs whose results a
previous run had already computed.  This module persists the two kinds of
cheap-but-valuable state next to the store so a resume starts warm:

* **Cache snapshots** (``warmstart/`` sidecar directory).  The exact-key
  result caches of the pooled sessions (:class:`~repro.api.evaluators.
  CachedEvaluator`'s memo tables) are appended as JSONL entries keyed by
  ``(context, exact_key)``.  The *context* string is the
  :func:`~repro.api.evaluators.evaluator_context_key` of the producing
  evaluator (library content fingerprint + mapping options), so a snapshot
  written under one library/option configuration can never seed a session
  evaluating under another: a changed library changes the fingerprint and
  every stale entry simply stops matching.  Entries are payload-free
  (delay/area/gate count only): the exact-key results are what turn a
  resumed optimizer's revisits into cache hits instead of ground-truth
  evaluations.
* **Cost calibration** (``costs.json`` sidecar).  Observed per-iteration
  cell runtimes, summed per ``(design, flow, optimizer, evaluator)``
  group.  :meth:`~repro.campaign.schedule.CostScheduler.set_calibration`
  folds them into its observed-cost model, so a resumed (or fresh-store)
  run schedules with last run's measured runtimes instead of the static
  size×weight model.

Both sidecars follow the store's multi-writer discipline: snapshot entries
land in single-writer ``<host>-<pid>-<thread>.jsonl`` files (append-only,
merged with **sorted** enumeration so the merge order is deterministic),
and ``costs.json`` is merged read-modify-write through an atomic rename —
concurrent writers may lose each other's increments but can never corrupt
the file.  All persistence here is best-effort: an unreadable or
unwritable sidecar degrades to a cold start, never to a failed cell.
"""

from __future__ import annotations

import json
import os
import socket
import threading
from pathlib import Path
from typing import Any, Dict, Iterator, List, Mapping, Optional, Tuple, Union

from repro.evaluation import PpaResult

#: sidecar directory name for cache snapshots under a sharded store.
WARMSTART_DIRNAME = "warmstart"

#: sidecar file name for cost calibration next to a sharded store.
COSTS_FILENAME = "costs.json"

#: payload key through which the engine hands workers the snapshot directory.
WARMSTART_PAYLOAD_KEY = "_warmstart_dir"

SNAPSHOT_SUFFIX = ".jsonl"

_ENTRY_FIELDS = ("context", "exact_key", "delay_ps", "area_um2", "num_gates")

_STATE_LOCK = threading.Lock()
#: per-directory set of (context, exact_key) pairs known to be durable —
#: loaded from disk or appended by this process — so repeated snapshot
#: saves after every cell write only genuinely new entries.
_PERSISTED: Dict[str, set] = {}


def _sanitize(name: str) -> str:
    cleaned = "".join(ch if ch.isalnum() or ch in "-_." else "-" for ch in name)
    return cleaned.strip(".") or "writer"


def _writer_name() -> str:
    """This thread's single-writer snapshot file stem.

    Thread identity is part of the name because the synthesis service runs
    one session pool per worker *thread* in a single process.
    """
    return _sanitize(
        f"{socket.gethostname()}-{os.getpid()}-{threading.get_ident()}"
    )


# --------------------------------------------------------------------------- #
# Sidecar locations
# --------------------------------------------------------------------------- #
def warmstart_dir_for(store: Any) -> Optional[Path]:
    """Snapshot sidecar directory of *store*, or ``None`` when in-memory.

    Sharded stores (directories) keep the sidecar inside the store
    directory (shard enumeration globs ``*.jsonl`` non-recursively, so the
    subdirectory is invisible to it); single-file stores get a derived
    sibling directory.
    """
    path = getattr(store, "path", None)
    if path is None:
        return None
    path = Path(path)
    if hasattr(store, "shard_paths"):
        return path / WARMSTART_DIRNAME
    return path.with_name(path.name + ".warmstart")


def costs_path_for(store: Any) -> Optional[Path]:
    """Cost-calibration sidecar path of *store*, or ``None`` when in-memory."""
    path = getattr(store, "path", None)
    if path is None:
        return None
    path = Path(path)
    if hasattr(store, "shard_paths"):
        return path / COSTS_FILENAME
    return path.with_name(path.name + ".costs.json")


# --------------------------------------------------------------------------- #
# Snapshot entries
# --------------------------------------------------------------------------- #
def _valid_entry(entry: Any) -> bool:
    if not isinstance(entry, dict):
        return False
    if not all(field in entry for field in _ENTRY_FIELDS):
        return False
    if not isinstance(entry["context"], str) or not isinstance(
        entry["exact_key"], str
    ):
        return False
    for field in ("delay_ps", "area_um2", "num_gates"):
        if not isinstance(entry[field], (int, float)) or isinstance(
            entry[field], bool
        ):
            return False
    return True


def load_entries(
    directory: Union[str, Path],
) -> Dict[Tuple[str, str], Dict[str, Any]]:
    """All snapshot entries under *directory*, keyed by (context, exact_key).

    Files are read in sorted name order and later files win on duplicate
    keys, so the merged view is independent of filesystem enumeration
    order.  Torn tail lines and malformed entries are skipped — a snapshot
    can only ever make a resume warmer, never fail it.
    """
    entries: Dict[Tuple[str, str], Dict[str, Any]] = {}
    directory = Path(directory)
    if not directory.is_dir():
        return entries
    for path in sorted(directory.glob(f"*{SNAPSHOT_SUFFIX}")):
        try:
            text = path.read_text(encoding="utf-8")
        except OSError:
            continue
        for line in text.splitlines():
            line = line.strip()
            if not line:
                continue
            try:
                entry = json.loads(line)
            except json.JSONDecodeError:
                # Torn tail from a killed writer; later lines of other
                # files are unaffected.
                continue
            if not _valid_entry(entry):
                continue
            entries[(entry["context"], entry["exact_key"])] = entry
    return entries


def _entry_result(entry: Mapping[str, Any]) -> PpaResult:
    return PpaResult(
        delay_ps=float(entry["delay_ps"]),
        area_um2=float(entry["area_um2"]),
        num_gates=int(entry["num_gates"]),
    )


def _session_cache_items(session: Any) -> Iterator[Tuple[str, str, PpaResult]]:
    """(context, exact_key, result) triples of one session's result caches."""
    from repro.api.evaluators import CachedEvaluator

    evaluator = session.evaluator
    if isinstance(evaluator, CachedEvaluator):
        for (context, exact_key), result in evaluator.snapshot_items():
            yield context, exact_key, result


def seed_session(session: Any, directory: Union[str, Path]) -> int:
    """Seed *session*'s result cache from the snapshot under *directory*.

    Only entries whose ``context`` equals the session evaluator's own
    :func:`~repro.api.evaluators.evaluator_context_key` are loaded — the
    content-fingerprint guard that keeps results from a different library
    or mapper configuration out.  Idempotent per (session, directory): the
    read happens once and later calls return 0 immediately.  Returns the
    number of entries seeded.
    """
    from repro.api.evaluators import CachedEvaluator, evaluator_context_key

    resolved = str(Path(directory).resolve())
    seeded_dirs = getattr(session, "_warmstart_seeded", None)
    if seeded_dirs is None:
        seeded_dirs = set()
        session._warmstart_seeded = seeded_dirs
    if resolved in seeded_dirs:
        return 0
    seeded_dirs.add(resolved)

    entries = load_entries(directory)
    if not entries:
        return 0
    # Everything read back is already durable in the sidecar: remember it
    # so this process's snapshot saves never re-append loaded entries.
    with _STATE_LOCK:
        _PERSISTED.setdefault(resolved, set()).update(entries.keys())

    evaluator = session.evaluator
    count = 0
    if isinstance(evaluator, CachedEvaluator):
        context = evaluator_context_key(evaluator.inner)
        for (ctx, exact_key), entry in entries.items():
            if ctx != context:
                continue
            if evaluator.seed_result(ctx, exact_key, _entry_result(entry)):
                count += 1
    return count


def save_snapshot(
    directory: Union[str, Path], pool: Optional[Any] = None
) -> int:
    """Append this process's not-yet-persisted cache entries to the sidecar.

    Walks every pooled session's result cache (default: this worker
    thread's :func:`~repro.api.session.worker_session_pool`), appends the
    entries not already known durable to this writer's own snapshot file,
    and returns how many were written.  Best-effort: an unwritable sidecar
    returns 0 rather than failing the calling cell.
    """
    if pool is None:
        from repro.api.session import worker_session_pool

        pool = worker_session_pool()
    directory = Path(directory)
    resolved = str(directory.resolve())
    with _STATE_LOCK:
        persisted = _PERSISTED.setdefault(resolved, set())

    fresh: List[Tuple[Tuple[str, str], Dict[str, Any]]] = []
    for session in pool.sessions():
        for context, exact_key, result in _session_cache_items(session):
            key = (context, exact_key)
            if key in persisted:
                continue
            fresh.append(
                (
                    key,
                    {
                        "context": context,
                        "exact_key": exact_key,
                        "delay_ps": result.delay_ps,
                        "area_um2": result.area_um2,
                        "num_gates": result.num_gates,
                    },
                )
            )
    if not fresh:
        return 0
    payload = "".join(
        json.dumps(entry, sort_keys=True) + "\n" for _, entry in fresh
    )
    try:
        directory.mkdir(parents=True, exist_ok=True)
        path = directory / f"{_writer_name()}{SNAPSHOT_SUFFIX}"
        with open(path, "ab") as handle:
            handle.write(payload.encode("utf-8"))
    except OSError:
        return 0
    with _STATE_LOCK:
        persisted.update(key for key, _ in fresh)
    return len(fresh)


def ground_truth_evaluations(pool: Any) -> int:
    """Real (non-cache-served) evaluations performed by *pool*'s sessions.

    These are the cache misses of the cached sessions.  The cold-vs-warm
    resume benchmark compares this across resumes.
    """
    total = 0
    for session in pool.sessions():
        stats = session.cache_stats
        if stats is not None:
            total += stats.misses
    return total


# --------------------------------------------------------------------------- #
# Cost calibration sidecar
# --------------------------------------------------------------------------- #
def load_costs(
    path: Union[str, Path],
) -> Dict[Tuple[str, str, str, str], Dict[str, float]]:
    """Parse a ``costs.json`` sidecar into ``{group: {"sum", "count"}}``.

    Group keys are stored as JSON-encoded four-element lists.  Malformed
    files or entries yield an empty/partial mapping — calibration is an
    optimisation, never a correctness input.
    """
    path = Path(path)
    try:
        raw = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError):
        return {}
    if not isinstance(raw, dict):
        return {}
    costs: Dict[Tuple[str, str, str, str], Dict[str, float]] = {}
    for key, value in raw.items():
        try:
            group = json.loads(key)
        except json.JSONDecodeError:
            continue
        if not (
            isinstance(group, list)
            and len(group) == 4
            and all(isinstance(part, str) for part in group)
            and isinstance(value, dict)
        ):
            continue
        total = value.get("sum")
        count = value.get("count")
        if (
            isinstance(total, (int, float))
            and isinstance(count, (int, float))
            and not isinstance(total, bool)
            and not isinstance(count, bool)
            and count > 0
            and total > 0
        ):
            costs[tuple(group)] = {"sum": float(total), "count": int(count)}
    return costs


def merge_costs(
    path: Union[str, Path],
    observations: Mapping[Tuple[str, str, str, str], Tuple[float, int]],
) -> None:
    """Fold new per-group (sum, count) observations into a costs sidecar.

    Read-merge-write through an atomic rename: a concurrent writer's
    increments may be lost to the race (the sums are scheduling hints, not
    results), but the file is always a complete, valid JSON document.
    Best-effort: an unwritable sidecar is silently skipped.
    """
    path = Path(path)
    merged = load_costs(path)
    for group, (total, count) in observations.items():
        if count <= 0 or total <= 0:
            continue
        current = merged.get(tuple(group), {"sum": 0.0, "count": 0})
        merged[tuple(group)] = {
            "sum": current["sum"] + float(total),
            "count": current["count"] + int(count),
        }
    if not merged:
        return
    document = {
        json.dumps(list(group)): value for group, value in merged.items()
    }
    tmp = path.with_name(f"{path.name}.{_writer_name()}.tmp")
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp.write_text(
            json.dumps(document, sort_keys=True, indent=1) + "\n",
            encoding="utf-8",
        )
        os.replace(tmp, path)
    except OSError:
        try:
            tmp.unlink()
        except OSError:
            pass
