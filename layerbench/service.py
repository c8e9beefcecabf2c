"""The service_jobs workload: a closed loop of two callers against ``repro serve``."""

from __future__ import annotations

import json
import os
import random
import shutil
import signal
import subprocess
import sys
import threading
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

from repro.campaign.store import strip_timing

from layerbench.common import Context, Outcome, ScoringRecipe, derive, save_run_record, timed_setup
from layerbench.layers import finish_trace
from layerbench.summary import TAIL_SAMPLES, geomean, min_samples_for_tail, percentile
from layerbench.tracer import now

#: Callers, one thread each; every caller waits for its job's result before
#: submitting the next (closed loop).  Two, because the machine has two cores.
CALLERS = 2
#: Positions (submission index mod 5) that repeat one of the caller's earlier
#: jobs: three in five, a bit over half, so the median job is a repeat and
#: p90 a fresh one.  Which earlier job a repeat names is seeded.
REPEAT_SLOTS = (1, 3, 4)
#: Fresh designs prepared per caller; a caller that uses them all stops.
FRESH_PER_CALLER = 80
#: Short SA budget of a fresh job.
ITERATIONS = 1
#: Result polling interval, well under the ~0.2-1 s a fresh job takes (a
#: repeat is answered on its first poll).  Faster polling mostly adds request
#: handling that competes with the workers for the interpreter.
POLL_S = 0.05
#: Enough jobs that TAIL_SAMPLES of them lie beyond p90.
MIN_JOBS = min_samples_for_tail(0.9, TAIL_SAMPLES)
#: Bound on server start-up, on any one HTTP request and on any one job.
TIMEOUT_S = 60.0


@dataclass(frozen=True)
class Submission:
    netlist: str
    fmt: str
    params: Tuple[Tuple[str, Any], ...]
    #: Index of the submission it repeats in the caller's list, or None.
    repeats: Optional[int] = None


@dataclass
class Completed:
    submission: Submission
    job_id: str = ""
    status: int = 0
    latency: float = 0.0
    record: Optional[Dict[str, Any]] = None
    error: str = ""


class Stream:
    """One caller's seeded submission sequence: fresh designs and repeats."""

    def __init__(self, seed: int, caller: int) -> None:
        from repro.designs.registry import build_design
        from repro.io import dumps_aag, dumps_bench

        self._rng = random.Random(derive(seed, "stream", caller))
        self.fresh: List[Submission] = []
        for index in range(FRESH_PER_CALLER):
            # Spec, format and flow cycle in a fixed pattern so every run
            # holds the same mix; the designs and SA seeds are seeded.
            spec = ("EX00", "EX68")[index % 2]
            aig = build_design(spec, seed=derive(seed, "job", caller, index), use_cache=False)
            fmt = ("aag", "bench")[index // 2 % 2]
            text = dumps_aag(aig) if fmt == "aag" else dumps_bench(aig)
            params = (
                ("flow", ("baseline", "ground-truth")[index // 4 % 2]),
                ("iterations", ITERATIONS),
                ("seed", self._rng.randrange(1 << 16)),
            )
            self.fresh.append(Submission(text, fmt, params))
        self.sent: List[Submission] = []
        self._used = 0

    def next(self) -> Optional[Submission]:
        if len(self.sent) % 5 in REPEAT_SLOTS:
            index = self._rng.randrange(len(self.sent))
            original = self.sent[index]
            first = original.repeats if original.repeats is not None else index
            item = Submission(original.netlist, original.fmt, original.params, first)
        elif self._used < len(self.fresh):
            item = self.fresh[self._used]
            self._used += 1
        else:
            return None
        self.sent.append(item)
        return item


class Server:
    """A ``repro serve`` process with its default two workers."""

    def __init__(self, ctx: Context, trace_out: Optional[Path] = None) -> None:
        from repro.service import ServiceClient

        self.store = ctx.work / "service" / "store"
        shutil.rmtree(self.store, ignore_errors=True)
        store = os.path.relpath(self.store, ctx.root)  # records hold this path: keep it run-independent
        serve = ["--port", "0", "--store", store]
        if trace_out is None:
            command = [sys.executable, "-m", "repro", "serve", *serve]
        else:
            command = [sys.executable, str(Path(__file__).with_name("serve_traced.py")), str(trace_out), *serve]
        env = dict(os.environ, PYTHONPATH=str(ctx.root / "src"))
        self.process = subprocess.Popen(command, cwd=ctx.root, env=env, stdout=subprocess.PIPE, text=True)
        watchdog = threading.Timer(TIMEOUT_S, self.process.kill)  # a server that never boots
        watchdog.start()
        try:
            line = self.process.stdout.readline()
        finally:
            watchdog.cancel()
        if "listening on" not in line:
            self.close()
            raise RuntimeError(f"repro serve did not start: {line!r}")
        self.client = ServiceClient(line.split()[-1], timeout=TIMEOUT_S)
        self.client.healthz()

    def peak_rss_mb(self) -> float:
        for line in Path(f"/proc/{self.process.pid}/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
        raise RuntimeError("no VmHWM for the server process")

    def close(self) -> None:
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGINT)
            try:
                self.process.wait(timeout=TIMEOUT_S)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
        self.process.stdout.close()


def closed_loop(server: Server, streams: List[Stream], seconds: float, counts: Optional[List[int]] = None) -> Tuple[List[List[Completed]], float, float]:
    """Two callers submit, poll and submit again until *seconds* and :data:`MIN_JOBS`, or *counts* jobs each."""
    lock = threading.Lock()
    done = [0]
    results: List[List[Completed]] = [[] for _ in streams]
    start = now()

    def caller(index: int) -> None:
        client = server.client
        while True:
            if counts is not None:
                if len(results[index]) >= counts[index]:
                    return
            else:
                with lock:
                    if done[0] >= MIN_JOBS and now() - start >= seconds:
                        return
            submission = streams[index].next()
            if submission is None:
                return
            item = Completed(submission)
            began = now()
            try:
                job = client.submit(submission.netlist, submission.fmt, **dict(submission.params))
                item.job_id, item.status = job["job_id"], job["_status"]
                item.record = client.wait(item.job_id, timeout=TIMEOUT_S, poll_s=POLL_S)
            except Exception as exc:  # a failed job is counted, the loop goes on
                item.error = f"{type(exc).__name__}: {exc}"
            item.latency = now() - began
            results[index].append(item)
            with lock:
                done[0] += 1

    threads = [threading.Thread(target=caller, args=(index,)) for index in range(len(streams))]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return results, start, now()


def verify(results: List[List[Completed]], stats: Dict[str, Any], outcome: Outcome) -> Dict[str, Dict[str, Any]]:
    """Per-job verdicts; returns the distinct jobs' records by job id."""
    records: Dict[str, Dict[str, Any]] = {}
    for caller in results:
        for item in caller:
            ok = not item.error and item.record is not None and item.record.get("status") == "ok"
            if not outcome.check(ok, f"job {item.job_id or '?'} failed: {item.error or item.record}"):
                continue
            if item.submission.repeats is not None:
                original = caller[item.submission.repeats]
                outcome.check(
                    item.job_id == original.job_id and item.status == 200
                    and strip_timing(item.record) == strip_timing(original.record or {}),
                    f"repeat of job {original.job_id} got {item.job_id} (HTTP {item.status}) or a different record",
                )
            records[item.job_id] = item.record
    outcome.check(
        stats.get("executed_cells") == len(records),
        f"/stats executed_cells {stats.get('executed_cells')} != {len(records)} distinct jobs",
    )
    return records


def run(ctx: Context, names: Dict[str, List[str]]) -> Outcome:
    trace_out = ctx.work / "service" / "server-trace.json" if ctx.trace else None

    @dataclass
    class Setup:
        streams: List[Stream]
        server: Server

        def close(self) -> None:
            self.server.close()

    def build() -> Setup:
        return Setup([Stream(ctx.seed, caller) for caller in range(CALLERS)], Server(ctx, trace_out))

    setup, setup_s = timed_setup(ctx, build)
    outcome = Outcome()
    counts = ctx.reference.get("per_caller") if ctx.reference else None
    try:
        results, start, end = closed_loop(setup.server, setup.streams, ctx.seconds, counts)
        stats = setup.server.client.stats()
        server_rss = setup.server.peak_rss_mb()
    finally:
        setup.close()  # a traced server writes its spans as it stops
    records = verify(results, stats, outcome)
    outcome.digest = {job: strip_timing(record) for job, record in records.items()}
    if ctx.trace:
        doc = json.loads(trace_out.read_text(encoding="utf-8"))
        finish_trace(ctx, names, [doc], [(start, end)], outcome)
        return outcome

    from repro.library.sky130_lite import load_sky130_lite

    save_run_record(ctx, count=sum(len(c) for c in results), per_caller=[len(c) for c in results], seconds=end - start)
    jobs = [item for caller in results for item in caller]
    distinct = list(records.values())
    latencies = [item.latency for item in jobs]
    outcome.end_to_end = {
        "setup_s": setup_s,
        "peak_rss_mb": server_rss,
        # Loop seconds per SA iteration the service ran.  The jobs' own
        # runtime_seconds include waiting for the interpreter while the other
        # worker runs, so their sum swings with how the two jobs overlapped.
        "iter_s": (end - start) / sum(r["iterations"] for r in distinct),
        "final_delay_ps": geomean([r["final_delay_ps"] for r in distinct]),
        "final_area_um2": geomean([r["final_area_um2"] for r in distinct]),
        **ScoringRecipe(load_sky130_lite(), ctx.seed).finish(),
        "job_latency_p50_s": percentile(latencies, 0.5),
        "job_latency_p90_s": percentile(latencies, 0.9),
        "jobs_per_s": len(jobs) / (end - start),
    }
    return outcome
