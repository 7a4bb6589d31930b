"""Simulation service core and its HTTP API (stubbed job execution)."""

import json
import socket
import time
import urllib.error
import urllib.request

import pytest

from repro.errors import AdmissionError, CircuitOpenError, QueueFullError
from repro.obs.manifest import RunManifest
from repro.obs.metrics import MetricsRegistry
from repro.obs.spans import Tracer
from repro.resilience.policy import PointFailure, SweepOutcome
from repro.service import OPEN, SimulationService, serve_in_thread


class Workload:
    """Stub workload: enough identity for admission and manifests."""

    segments = 2
    references_per_segment = 100
    seed = 7


def ok_runner(job):
    return SweepOutcome(results=[object()] * len(job.points))


def partial_runner(job):
    failure = PointFailure(
        key=0, kind="crash", error_type="BrokenProcessPool", message="died"
    )
    return SweepOutcome(
        results=[None] + [object()] * (len(job.points) - 1),
        failures=[failure],
    )


def payload(n=1):
    return {
        "points": [
            {"l1": "4K-16", "l2": "64K-32", "associativity": 2 + 2 * i}
            for i in range(n)
        ]
    }


def make_service(tmp_path, **kwargs):
    kwargs.setdefault("workload", Workload())
    kwargs.setdefault("spool_dir", tmp_path / "spool")
    kwargs.setdefault("job_runner", ok_runner)
    kwargs.setdefault("metrics", MetricsRegistry())
    kwargs.setdefault("tracer", Tracer())
    return SimulationService(**kwargs)


def wait_for_job(service, job_id, timeout=10.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        record = service.job(job_id)
        if record["status"] in ("done", "partial", "failed"):
            return record
        time.sleep(0.01)
    pytest.fail(f"job {job_id} did not finish: {service.job(job_id)}")


class TestSubmission:
    def test_submit_executes_and_completes(self, tmp_path):
        service = make_service(tmp_path)
        service.start()
        record = service.submit(payload(2))
        assert record["status"] in ("queued", "running", "done")
        final = wait_for_job(service, record["id"])
        assert final["status"] == "done"
        assert final["summary"]["completed"] == 2
        assert service.drain(grace=5.0)

    def test_bad_payload_rejected_and_not_registered(self, tmp_path):
        service = make_service(tmp_path)
        with pytest.raises(AdmissionError):
            service.submit({"points": []})
        assert service.jobs() == []

    def test_queue_full_rejects_and_unregisters(self, tmp_path):
        # No workers started: the queue fills immediately.
        service = make_service(tmp_path, queue_size=1)
        service.submit(payload())
        with pytest.raises(QueueFullError):
            service.submit(payload(2))
        assert len(service.jobs()) == 1

    def test_checkpoint_keyed_by_config_hash(self, tmp_path):
        service = make_service(tmp_path)
        first = service.submit(payload())
        second = service.submit(payload())
        other = service.submit(payload(2))
        assert first["checkpoint"] == second["checkpoint"]
        assert first["checkpoint"] != other["checkpoint"]
        assert first["config_hash"] in first["checkpoint"]


class TestBreaker:
    def test_consecutive_partial_jobs_open_execute_breaker(self, tmp_path):
        service = make_service(
            tmp_path,
            job_runner=partial_runner,
            breaker_threshold=2,
            breaker_reset=30.0,
        )
        service.start()
        first = wait_for_job(service, service.submit(payload())["id"])
        assert first["status"] == "partial"
        second = wait_for_job(service, service.submit(payload())["id"])
        assert second["status"] == "partial"
        assert service.execute_breaker.state == OPEN
        ready, reason = service.ready()
        assert not ready and "breaker" in reason

    def test_crashing_runner_counts_as_failure(self, tmp_path):
        def crashing(job):
            raise RuntimeError("pool exploded")

        service = make_service(
            tmp_path, job_runner=crashing, breaker_threshold=1
        )
        service.start()
        record = wait_for_job(service, service.submit(payload())["id"])
        assert record["status"] == "failed"
        assert "RuntimeError" in record["error"]
        assert service.execute_breaker.state == OPEN

    def test_breaker_open_requeues_rather_than_drops(self, tmp_path):
        service = make_service(
            tmp_path,
            job_runner=partial_runner,
            breaker_threshold=1,
            breaker_reset=0.3,
        )
        service.start()
        wait_for_job(service, service.submit(payload())["id"])
        assert service.execute_breaker.state == OPEN
        # Submitted while open: the worker must hold it (requeue), then
        # run it as the half-open probe after the reset timeout.
        service.job_runner = ok_runner
        record = wait_for_job(
            service, service.submit(payload(2))["id"], timeout=15.0
        )
        assert record["status"] == "done"
        assert service.execute_breaker.state == "closed"
        assert service.ready() == (True, "ok")

    def test_client_errors_do_not_trip_ingest_breaker(self, tmp_path):
        service = make_service(tmp_path, breaker_threshold=2)
        for _ in range(5):
            with pytest.raises(AdmissionError):
                service.submit({"points": []})
        assert service.ingest_breaker.state == "closed"


class TestDrain:
    def test_drain_finishes_backlog_and_writes_manifest(self, tmp_path):
        service = make_service(tmp_path)
        service.start()
        ids = [service.submit(payload(i + 1))["id"] for i in range(3)]
        assert service.drain(grace=10.0)
        for job_id in ids:
            assert service.job(job_id)["status"] == "done"
        manifest = RunManifest.load(tmp_path / "spool" / "manifest.json")
        assert manifest.data["tool"] == "repro-serve"
        assert len(manifest.data["config"]["jobs"]) == 3
        assert (tmp_path / "spool" / "trace.jsonl").exists()

    def test_draining_service_rejects_and_flips_readiness(self, tmp_path):
        service = make_service(tmp_path)
        service.start()
        assert service.drain(grace=5.0)
        assert service.draining
        ready, reason = service.ready()
        assert not ready and reason == "draining"
        with pytest.raises(QueueFullError):
            service.submit(payload())

    def test_hung_job_abandoned_to_checkpoint(self, tmp_path):
        release = []

        def hanging(job):
            while not release:
                time.sleep(0.02)
            return ok_runner(job)

        service = make_service(tmp_path, job_runner=hanging)
        service.start()
        record = service.submit(payload())
        deadline = time.monotonic() + 5.0
        while service.job(record["id"])["status"] != "running":
            assert time.monotonic() < deadline
            time.sleep(0.01)
        assert not service.drain(grace=0.2)  # not a clean drain
        final = service.job(record["id"])
        assert final["status"] == "checkpointed"
        assert final["checkpoint"] is not None
        release.append(True)  # let the worker thread exit


class TestWatchdogIntegration:
    def test_stall_trips_execute_breaker(self, tmp_path):
        service = make_service(tmp_path, job_deadline=60.0)
        # Simulate the watchdog verdict directly: a worker busy past
        # its deadline is reported as an execute failure.
        service.execute_breaker.failure_threshold = 1
        service._on_stall("worker-0", 61.0)
        assert service.execute_breaker.state == OPEN
        snapshot = service.execute_breaker.snapshot()
        assert snapshot["last_failures"][0]["kind"] == "timeout"


class HttpClient:
    """Tiny urllib wrapper returning (status, body_dict, headers)."""

    def __init__(self, base):
        self.base = base

    def get(self, path):
        try:
            with urllib.request.urlopen(self.base + path) as response:
                return response.status, json.loads(response.read()), dict(
                    response.headers
                )
        except urllib.error.HTTPError as error:
            return error.code, json.loads(error.read()), dict(error.headers)

    def post(self, path, payload):
        request = urllib.request.Request(
            self.base + path,
            data=json.dumps(payload).encode("utf-8"),
            method="POST",
        )
        try:
            with urllib.request.urlopen(request) as response:
                return response.status, json.loads(response.read()), dict(
                    response.headers
                )
        except urllib.error.HTTPError as error:
            return error.code, json.loads(error.read()), dict(error.headers)


@pytest.fixture
def http_service(tmp_path):
    service = make_service(tmp_path)
    service.start()
    server, thread = serve_in_thread(service)
    host, port = server.address
    yield service, HttpClient(f"http://{host}:{port}")
    server.shutdown()
    server.server_close()
    service.drain(grace=5.0)


class TestHttpApi:
    def test_healthz(self, http_service):
        _, client = http_service
        assert client.get("/healthz")[:2] == (200, {"ok": True})

    def test_readyz_ok_then_503_when_breaker_open(self, http_service):
        service, client = http_service
        status, body, _ = client.get("/readyz")
        assert (status, body["ready"]) == (200, True)
        service.execute_breaker.failure_threshold = 1
        service.execute_breaker.record_failure()
        status, body, _ = client.get("/readyz")
        assert (status, body["ready"]) == (503, False)

    def test_submit_and_poll_job(self, http_service):
        service, client = http_service
        status, record, _ = client.post("/jobs", payload(2))
        assert status == 202
        wait_for_job(service, record["id"])
        status, final, _ = client.get(f"/jobs/{record['id']}")
        assert status == 200
        assert final["status"] == "done"
        status, listing, _ = client.get("/jobs")
        assert status == 200 and len(listing["jobs"]) == 1

    def test_bad_job_is_400(self, http_service):
        _, client = http_service
        status, body, _ = client.post("/jobs", {"points": []})
        assert status == 400
        assert "non-empty" in body["error"]

    def test_malformed_json_is_400(self, http_service):
        _, client = http_service
        request = urllib.request.Request(
            client.base + "/jobs", data=b"{not json", method="POST"
        )
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request)
        assert excinfo.value.code == 400

    def test_negative_content_length_is_400(self, http_service):
        # A raw request: urllib would never send a negative length.
        _, client = http_service
        host, port = client.base[len("http://"):].split(":")
        with socket.create_connection((host, int(port)), timeout=3.0) as sock:
            sock.sendall(
                b"POST /jobs HTTP/1.1\r\nHost: test\r\n"
                b"Content-Length: -1\r\n\r\n"
            )
            response = sock.makefile("rb").readline()
        assert response.split()[1] == b"400"

    def test_unknown_routes_are_404(self, http_service):
        _, client = http_service
        assert client.get("/nope")[0] == 404
        assert client.get("/jobs/ghost")[0] == 404
        assert client.post("/nope", {})[0] == 404

    def test_429_carries_retry_after_header(self, tmp_path):
        service = make_service(tmp_path, queue_size=1, retry_after=3.0)
        # Workers never started: the queue stays full.
        server, _ = serve_in_thread(service)
        try:
            host, port = server.address
            client = HttpClient(f"http://{host}:{port}")
            assert client.post("/jobs", payload())[0] == 202
            status, body, headers = client.post("/jobs", payload(2))
            assert status == 429
            assert headers["Retry-After"] == "3"
            assert body["retry_after"] == 3.0
        finally:
            server.shutdown()
            server.server_close()

    def test_503_when_ingest_breaker_open(self, http_service):
        service, client = http_service
        service.ingest_breaker.failure_threshold = 1
        service.ingest_breaker.record_failure()
        status, _, headers = client.post("/jobs", payload())
        assert status == 503
        assert "Retry-After" in headers

    def test_metrics_snapshot_shape(self, http_service):
        service, client = http_service
        record = client.post("/jobs", payload())[1]
        wait_for_job(service, record["id"])
        status, body, _ = client.get("/metrics")
        assert status == 200
        assert body["ready"] is True
        assert body["queue"]["capacity"] == 16
        assert body["breakers"]["execute"]["state"] == "closed"
        assert body["jobs"] == {"done": 1}
        counters = body["metrics"]["counters"]
        assert counters["service.jobs.done"] == 1
        assert counters["service.admission.accepted"] == 1


class TestFlightRecorder:
    def test_job_record_carries_trace_id(self, tmp_path):
        service = make_service(tmp_path)
        service.start()
        record = service.submit(payload())
        assert isinstance(record["trace_id"], str)
        assert len(record["trace_id"]) == 16
        wait_for_job(service, record["id"])
        assert service.job(record["id"])["trace_id"] == record["trace_id"]
        assert service.drain(grace=5.0)

    def test_job_trace_assembles_span_tree(self, tmp_path):
        service = make_service(tmp_path)
        service.start()
        record = service.submit(payload())
        wait_for_job(service, record["id"])
        trace = service.job_trace(record["id"])
        assert trace["job"] == record["id"]
        assert trace["trace_id"] == record["trace_id"]
        (root,) = trace["tree"]
        assert root["name"] == "job"
        assert root["parent_span_id"] is None
        child_names = {child["name"] for child in root["children"]}
        assert {"admission", "queue_wait", "service_job"} <= child_names
        for child in root["children"]:
            assert child["trace_id"] == record["trace_id"]
            assert child["parent_span_id"] == root["span_id"]
        assert trace["spans"] >= 4
        assert service.drain(grace=5.0)

    def test_job_trace_unknown_job_is_none(self, tmp_path):
        assert make_service(tmp_path).job_trace("ghost") is None

    def test_status_latency_block_populates(self, tmp_path):
        service = make_service(tmp_path)
        service.start()
        record = service.submit(payload())
        wait_for_job(service, record["id"])
        assert service.drain(grace=5.0)
        latency = service.status()["latency"]
        for name in (
            "latency.admission_seconds",
            "latency.queue_wait_seconds",
            "latency.execute_seconds",
            "latency.job_seconds",
        ):
            summary = latency[name]
            assert summary["count"] == 1
            for quantile in ("p50", "p95", "p99", "p999"):
                assert summary[quantile] >= 0.0
        # e2e covers execute: its quantile cannot be below execute's.
        assert (
            latency["latency.job_seconds"]["p50"]
            >= latency["latency.execute_seconds"]["p50"] * 0.5
        )

    def test_latency_block_visible_before_first_job(self, tmp_path):
        latency = make_service(tmp_path).status()["latency"]
        assert latency["latency.job_seconds"]["count"] == 0

    def test_http_trace_endpoint(self, http_service):
        service, client = http_service
        record = client.post("/jobs", payload())[1]
        wait_for_job(service, record["id"])
        status, trace, _ = client.get(f"/jobs/{record['id']}/trace")
        assert status == 200
        assert trace["trace_id"] == record["trace_id"]
        assert trace["tree"][0]["name"] == "job"
        from repro.obs.validate import validate_job_trace

        assert validate_job_trace(trace) == []

    def test_http_trace_unknown_job_is_404(self, http_service):
        _, client = http_service
        assert client.get("/jobs/ghost/trace")[0] == 404

    def test_failed_job_still_records_latency_and_trace(self, tmp_path):
        def boom(job):
            raise RuntimeError("runner died")

        service = make_service(tmp_path, job_runner=boom)
        service.start()
        record = service.submit(payload())
        final = wait_for_job(service, record["id"])
        assert final["status"] == "failed"
        trace = service.job_trace(record["id"])
        (root,) = trace["tree"]
        assert root["attrs"]["status"] == "failed"
        names = {child["name"] for child in root["children"]}
        assert "service_job" in names
        (execute,) = [
            c for c in root["children"] if c["name"] == "service_job"
        ]
        assert execute["attrs"]["error"] is True
        latency = service.status()["latency"]
        assert latency["latency.job_seconds"]["count"] == 1
        service.drain(grace=5.0)


class TestCircuitOpenErrorShape:
    def test_submit_surfaces_circuit_open(self, tmp_path):
        service = make_service(tmp_path)
        service.ingest_breaker.failure_threshold = 1
        service.ingest_breaker.record_failure()
        with pytest.raises(CircuitOpenError):
            service.submit(payload())


class TestStorageIntegrity:
    """Disk faults degrade gracefully; the scrubber flips readiness."""

    @staticmethod
    def enospc_runner(job):
        import errno
        import os

        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

    def test_enospc_fails_job_and_trips_breaker(self, tmp_path):
        service = make_service(
            tmp_path,
            job_runner=self.enospc_runner,
            breaker_threshold=1,
        )
        service.start()
        final = wait_for_job(service, service.submit(payload())["id"])
        assert final["status"] == "failed"
        assert "No space left" in final["error"]
        assert service.execute_breaker.state == OPEN
        assert not service.ready()[0]
        assert service.metrics.snapshot()["counters"]["storage.errors"] == 1

    def test_healthz_carries_storage_detail_until_clean_job(self, tmp_path):
        service = make_service(
            tmp_path,
            job_runner=self.enospc_runner,
            breaker_threshold=10,  # stay closed: isolate the health detail
        )
        service.start()
        wait_for_job(service, service.submit(payload())["id"])
        health = service.health()
        assert health["ok"] is True
        assert "No space left" in health["storage"]["last_error"]
        assert "No space left" in service.status()["storage"]["last_error"]
        # A fully successful job clears the stashed detail.
        service.job_runner = ok_runner
        wait_for_job(service, service.submit(payload(2))["id"])
        assert service.health() == {"ok": True}
        assert service.drain(grace=5.0)

    def test_healthz_http_payload_gains_storage_block(self, tmp_path):
        service = make_service(
            tmp_path, job_runner=self.enospc_runner, breaker_threshold=10
        )
        service.start()
        server, _ = serve_in_thread(service)
        try:
            host, port = server.address
            client = HttpClient(f"http://{host}:{port}")
            assert client.get("/healthz")[:2] == (200, {"ok": True})
            wait_for_job(service, service.submit(payload())["id"])
            status, body, _ = client.get("/healthz")
            assert status == 200
            assert body["ok"] is True
            assert "No space left" in body["storage"]["last_error"]
        finally:
            server.shutdown()
            server.server_close()
            service.drain(grace=5.0)

    def test_scrubber_flips_readiness_on_unrepairable(self, tmp_path):
        service = make_service(tmp_path, scrub_interval=3600.0)
        service.spool_dir.mkdir(parents=True, exist_ok=True)
        corrupt = service.spool_dir / "deadbeefdeadbeef.ckpt"
        corrupt.write_text(
            'F1 00000000 7 {"a": 1}\nF1 00000000 7 {"b": 2}\n',
            encoding="utf-8",
        )
        service.scrubber.scrub_once()
        ready, reason = service.ready()
        assert not ready
        assert "repro-fsck" in reason
        snapshot = service.status()["storage"]
        assert snapshot["scrubber"]["healthy"] is False
        assert snapshot["scrubber"]["passes"] == 1
        # The operator repairs offline; the next pass clears readiness.
        corrupt.unlink()
        service.scrubber.scrub_once()
        assert service.ready()[0]

    def test_scrubber_lifecycle_with_service(self, tmp_path):
        service = make_service(tmp_path, scrub_interval=0.01)
        service.start()
        deadline = time.monotonic() + 5.0
        while service.scrubber.passes == 0 and time.monotonic() < deadline:
            time.sleep(0.01)
        assert service.scrubber.passes >= 1
        assert (
            service.metrics.snapshot()["counters"]["storage.scrub.scans"]
            >= 1
        )
        assert service.drain(grace=5.0)
        passes = service.scrubber.passes
        time.sleep(0.05)
        assert service.scrubber.passes == passes  # stopped with drain

    def test_status_storage_block_without_scrubber(self, tmp_path):
        service = make_service(tmp_path)
        snapshot = service.status()["storage"]
        assert snapshot["counters"]["storage.errors"] == 0
        assert snapshot["counters"]["storage.scrub.scans"] == 0
        assert snapshot["last_error"] is None
        assert snapshot["scrubber"] is None
