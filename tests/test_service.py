"""Synthesis service: HTTP surface, dedup, durability, capacity, budget."""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

import repro
from repro.errors import NetlistParseError
from repro.service import (
    BudgetExceededError,
    InvalidJobError,
    JobManager,
    QueueFullError,
    ServiceClient,
    ServiceClientError,
    ServiceConfig,
    UnknownJobError,
    create_service,
)

BENCH = "INPUT(a)\nINPUT(b)\nOUTPUT(f)\nf = AND(a, b)\n"
BENCH2 = "INPUT(a)\nINPUT(b)\nOUTPUT(f)\nf = OR(a, b)\n"
BENCH3 = "INPUT(a)\nOUTPUT(f)\nf = NOT(a)\n"

FAST = {"iterations": 2, "seed": 1}


@pytest.fixture()
def service_factory(tmp_path):
    """Boot in-process services on free ports; tear them all down after."""
    services = []

    def make(**overrides):
        options = {
            "host": "127.0.0.1",
            "port": 0,
            "workers": 1,
            "store": str(tmp_path / "store"),
            "max_queue": 8,
            "max_budget": 64,
        }
        options.update(overrides)
        service = create_service(ServiceConfig(**options))
        thread = threading.Thread(target=service.serve_forever, daemon=True)
        thread.start()
        services.append(service)
        return service, ServiceClient(service.url)

    yield make
    for service in services:
        service.close()


# --------------------------------------------------------------------------- #
# Config
# --------------------------------------------------------------------------- #
def test_config_env_overrides_and_precedence():
    env = {
        "REPRO_SERVICE_HOST": "0.0.0.0",
        "REPRO_SERVICE_PORT": "9000",
        "REPRO_SERVICE_WORKERS": "5",
        "REPRO_SERVICE_STORE": "/data/jobs",
        "REPRO_SERVICE_MAX_QUEUE": "7",
        "REPRO_SERVICE_MAX_BUDGET": "99",
        "REPRO_SERVICE_TIMEOUT_S": "2.5",
        "REPRO_SERVICE_RETRIES": "1",
        "REPRO_SERVICE_MAX_UPLOAD": "1000",
    }
    config = ServiceConfig.from_env(environ=env)
    assert config.host == "0.0.0.0"
    assert config.port == 9000
    assert config.workers == 5
    assert config.store == "/data/jobs"
    assert config.max_queue == 7
    assert config.max_budget == 99
    assert config.timeout_s == 2.5
    assert config.retries == 1
    assert config.max_upload_bytes == 1000
    # explicit overrides beat the environment
    config = ServiceConfig.from_env(environ=env, port=0, workers=2)
    assert config.port == 0 and config.workers == 2
    # defaults apply with an empty environment
    config = ServiceConfig.from_env(environ={})
    assert config.host == "127.0.0.1" and config.timeout_s is None


def test_config_rejects_nonsense():
    from repro.errors import ServiceError

    for bad in (
        {"port": 70000},
        {"workers": -1},
        {"max_queue": 0},
        {"max_budget": 0},
        {"timeout_s": 0.0},
        {"retries": -1},
        {"store": ""},
    ):
        with pytest.raises(ServiceError):
            ServiceConfig(**bad).validate()
    with pytest.raises(ServiceError):
        ServiceConfig.from_env(environ={"REPRO_SERVICE_PORT": "not-a-port"})


# --------------------------------------------------------------------------- #
# Submit → poll → result
# --------------------------------------------------------------------------- #
def test_submit_poll_done_roundtrip(service_factory):
    service, client = service_factory()
    assert client.healthz()["status"] == "ok"
    job = client.submit(BENCH, "bench", **FAST)
    assert job["_status"] == 201
    assert job["state"] in ("queued", "running", "done")
    record = client.wait(job["job_id"])
    assert record["status"] == "ok"
    assert record["final_delay_ps"] > 0
    assert record["final_area_um2"] > 0
    assert client.job(job["job_id"])["state"] == "done"
    listed = client.jobs()
    assert [entry["job_id"] for entry in listed] == [job["job_id"]]


def test_resubmission_served_from_cache_zero_new_evaluations(service_factory):
    service, client = service_factory()
    job = client.submit(BENCH, "bench", **FAST)
    client.wait(job["job_id"])
    before = client.stats()
    job2 = client.submit(BENCH, "bench", **FAST)
    assert job2["_status"] == 200  # dedup, not created
    assert job2["job_id"] == job["job_id"]
    assert job2["state"] == "done"
    record = client.result(job2["job_id"])
    assert record["status"] == "ok"
    after = client.stats()
    assert after["executed_cells"] == before["executed_cells"]
    assert (
        after["evaluations"]["cache_misses"] == before["evaluations"]["cache_misses"]
    )


def test_different_parameters_are_different_jobs(service_factory):
    service, client = service_factory()
    one = client.submit(BENCH, "bench", iterations=2, seed=1)
    two = client.submit(BENCH, "bench", iterations=3, seed=1)
    three = client.submit(BENCH2, "bench", iterations=2, seed=1)
    assert len({one["job_id"], two["job_id"], three["job_id"]}) == 3


def test_concurrent_identical_submissions_execute_once(service_factory):
    service, client = service_factory()
    results = []
    errors = []
    barrier = threading.Barrier(8)

    def submit():
        try:
            barrier.wait(timeout=10)
            results.append(client.submit(BENCH3, "bench", **FAST))
        except Exception as exc:  # pragma: no cover - surfaced via assert
            errors.append(exc)

    threads = [threading.Thread(target=submit) for _ in range(8)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=30)
    assert not errors
    assert len(results) == 8
    job_ids = {job["job_id"] for job in results}
    assert len(job_ids) == 1  # all eight collapsed onto one cell id
    assert sum(1 for job in results if job["_status"] == 201) == 1
    client.wait(job_ids.pop())
    stats = client.stats()
    assert stats["executed_cells"] == 1
    assert stats["jobs"]["done"] == 1


# --------------------------------------------------------------------------- #
# Rejection paths
# --------------------------------------------------------------------------- #
def test_malformed_upload_is_400_parse_error(service_factory):
    service, client = service_factory()
    for netlist, fmt in (
        ("complete garbage ((", "bench"),
        ("aag 1 1 0 1\n", "aag"),
        ("f = AND(a", "bench"),
        ("module m(", "v"),
    ):
        with pytest.raises(ServiceClientError) as excinfo:
            client.submit(netlist, fmt)
        assert excinfo.value.status == 400
        assert excinfo.value.payload["error"] == "parse_error"


def test_bad_parameters_are_400_invalid_request(service_factory):
    service, client = service_factory()
    cases = [
        {"format": "nope"},
        {"format": "bench", "iterations": "many"},
        {"format": "bench", "optimizer": "quantum"},
        {"format": "bench", "flow": "does-not-exist"},
    ]
    for case in cases:
        with pytest.raises(ServiceClientError) as excinfo:
            client._request("POST", "/jobs", {"netlist": BENCH, **case})
        assert excinfo.value.status == 400
        assert excinfo.value.payload["error"] == "invalid_request"


def test_over_budget_rejected_at_submit(service_factory):
    service, client = service_factory(max_budget=8)
    with pytest.raises(ServiceClientError) as excinfo:
        client.submit(BENCH, "bench", iterations=9)
    assert excinfo.value.status == 400
    assert excinfo.value.payload["error"] == "budget_exceeded"
    # the cap itself is accepted
    job = client.submit(BENCH, "bench", iterations=8)
    assert job["_status"] == 201


def test_queue_full_is_429(service_factory):
    service, client = service_factory(workers=0, max_queue=2)
    client.submit(BENCH, "bench", **FAST)
    client.submit(BENCH2, "bench", **FAST)
    with pytest.raises(ServiceClientError) as excinfo:
        client.submit(BENCH3, "bench", **FAST)
    assert excinfo.value.status == 429
    assert excinfo.value.payload["error"] == "queue_full"
    # resubmitting a queued job attaches instead of consuming a slot
    again = client.submit(BENCH, "bench", **FAST)
    assert again["_status"] == 200 and again["state"] == "queued"


def test_unknown_job_is_404(service_factory):
    service, client = service_factory()
    for path in ("/jobs/deadbeef", "/jobs/deadbeef/result", "/no/such/route"):
        with pytest.raises(ServiceClientError) as excinfo:
            client._request("GET", path)
        assert excinfo.value.status == 404


def test_pending_result_is_202(service_factory):
    service, client = service_factory(workers=0)
    job = client.submit(BENCH, "bench", **FAST)
    assert client.result(job["job_id"]) is None  # 202 while queued
    assert client.job(job["job_id"])["state"] == "queued"


def test_oversized_body_is_413(service_factory):
    service, client = service_factory()
    big = "x" * (service.config.max_upload_bytes + 100)
    with pytest.raises(ServiceClientError) as excinfo:
        client.submit(big, "bench")
    assert excinfo.value.status == 413


# --------------------------------------------------------------------------- #
# Durability
# --------------------------------------------------------------------------- #
def test_manager_resumes_unfinished_jobs_from_store(tmp_path):
    store = str(tmp_path / "store")
    accept_only = JobManager(ServiceConfig(workers=0, store=store))
    job, created = accept_only.submit({"netlist": BENCH, "format": "bench", **FAST})
    assert created and job["state"] == "queued"
    accept_only.close()  # worker never ran; journal has the job, results don't

    resumed = JobManager(ServiceConfig(workers=1, store=store))
    try:
        deadline = time.monotonic() + 60
        while resumed.job(job["job_id"])["state"] != "done":
            assert time.monotonic() < deadline, "resumed job never completed"
            time.sleep(0.05)
        record = resumed.result(job["job_id"])
        assert record["status"] == "ok"
        assert resumed.stats()["executed_cells"] == 1
    finally:
        resumed.close()


def test_identical_uploads_racing_past_the_exists_check(tmp_path, monkeypatch):
    """Two writers of one upload both pass the exists() check, and both
    finish writing, before either renames into place; both must succeed."""
    manager = JobManager(ServiceConfig(workers=0, store=str(tmp_path / "store")))
    real_replace = os.replace
    both_written = threading.Barrier(2, timeout=10)

    def gated_replace(src, dst, *args, **kwargs):
        if Path(dst).parent == manager.uploads_dir:
            both_written.wait()
        return real_replace(src, dst, *args, **kwargs)

    # Path.replace delegates to os.replace, so this gates either spelling.
    monkeypatch.setattr(os, "replace", gated_replace)
    results = []
    errors = []

    def submit():
        try:
            results.append(
                manager.submit({"netlist": BENCH3, "format": "bench", **FAST})
            )
        except Exception as exc:  # pragma: no cover - surfaced via assert
            errors.append(exc)

    try:
        threads = [threading.Thread(target=submit) for _ in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
    finally:
        manager.close()
    assert not any(thread.is_alive() for thread in threads)
    assert not errors
    assert len({job["job_id"] for job, _ in results}) == 1
    assert sorted(created for _, created in results) == [False, True]
    uploads = sorted(path.name for path in manager.uploads_dir.iterdir())
    assert len(uploads) == 1 and uploads[0].endswith(".bench")
    assert (manager.uploads_dir / uploads[0]).read_text() == BENCH3


def test_manager_level_submit_errors(tmp_path):
    manager = JobManager(ServiceConfig(workers=0, store=str(tmp_path / "store")))
    try:
        with pytest.raises(NetlistParseError):
            manager.submit({"netlist": "garbage ((", "format": "bench"})
        with pytest.raises(InvalidJobError):
            manager.submit({"netlist": BENCH, "format": "wat"})
        with pytest.raises(InvalidJobError):
            manager.submit({"netlist": BENCH, "format": "bench", "iterations": 0})
        with pytest.raises(BudgetExceededError):
            manager.submit({"netlist": BENCH, "format": "bench", "iterations": 10_000})
        with pytest.raises(UnknownJobError):
            manager.job("deadbeef")
        manager.submit({"netlist": BENCH, "format": "bench", **FAST})
        with pytest.raises(QueueFullError):
            for index in range(128):
                manager.submit(
                    {"netlist": BENCH, "format": "bench", "seed": index, **{"iterations": 2}}
                )
    finally:
        manager.close()


def _spawn_server(store: str, workers: int, env: dict) -> "tuple[subprocess.Popen, str]":
    process = subprocess.Popen(
        [
            sys.executable,
            "-c",
            "import sys; from repro.cli import main; sys.exit(main(sys.argv[1:]))",
            "serve",
            "--port",
            "0",
            "--workers",
            str(workers),
            "--store",
            store,
        ],
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
        env=env,
    )
    line = process.stdout.readline().strip()
    assert "listening on http://" in line, f"unexpected server boot line: {line!r}"
    return process, line.split("listening on ", 1)[1]


def test_sigkill_server_restarted_server_completes_job(tmp_path):
    src_dir = str(Path(repro.__file__).parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = src_dir + os.pathsep + env.get("PYTHONPATH", "")
    store = str(tmp_path / "store")

    # Accept-only server: the job is journalled but can never execute.
    process, url = _spawn_server(store, workers=0, env=env)
    try:
        client = ServiceClient(url)
        job = client.submit(BENCH, "bench", **FAST)
        assert job["state"] == "queued"
        assert client.result(job["job_id"]) is None
    finally:
        os.kill(process.pid, signal.SIGKILL)  # no shutdown hook runs
        process.wait(timeout=30)

    # A fresh server over the same store resumes and completes the job.
    process, url = _spawn_server(store, workers=1, env=env)
    try:
        client = ServiceClient(url)
        record = client.wait(job["job_id"], timeout=120)
        assert record["status"] == "ok"
        assert record["cell_id"] == job["job_id"]
        resubmit = client.submit(BENCH, "bench", **FAST)
        assert resubmit["_status"] == 200 and resubmit["state"] == "done"
    finally:
        process.kill()
        process.wait(timeout=30)
