"""The /dashboard endpoints: content, verdict parity, drain, stability."""

import json
import urllib.error
import urllib.request

import pytest

from repro.obs.bench import BenchHistory, TimingResult, build_entry
from repro.obs.compare import compare_entries
from repro.obs.metrics import MetricsRegistry
from repro.obs.validate import validate_dashboard
from repro.service import serve_in_thread

from tests.service.test_server import make_service, payload, wait_for_job


def write_history(path, medians=(1.0,)):
    history = BenchHistory()
    for index, median in enumerate(medians):
        history.append(
            build_entry(
                config={"references": 4000},
                config_hash="feed",
                results={
                    "l2_replay_fused_engine": {
                        "timing": TimingResult(
                            [median - 0.01, median, median + 0.01], warmup=1
                        ).to_dict(),
                        "requests": 4000,
                    }
                },
                sha=chr(ord("a") + index) * 40,
            ),
            dedupe=False,
        )
    return history.save(path)


def get(server, path):
    host, port = server.address
    request = urllib.request.Request(f"http://{host}:{port}{path}")
    try:
        with urllib.request.urlopen(request, timeout=10) as response:
            return response.status, response.read(), response.headers
    except urllib.error.HTTPError as error:
        return error.code, error.read(), error.headers


@pytest.fixture()
def served(tmp_path):
    service = make_service(tmp_path)
    service.start()
    server, _ = serve_in_thread(service)
    yield service, server
    server.shutdown()
    server.server_close()
    if not service.draining:
        service.drain(grace=5.0)


class TestEmptyHistory:
    def test_text_without_configured_history(self, served):
        service, server = served
        code, body, headers = get(server, "/dashboard.txt")
        assert code == 200
        assert headers["Content-Type"].startswith("text/plain")
        text = body.decode("ascii")
        assert "repro-serve dashboard" in text
        assert "ready: yes" in text
        assert "no history configured" in text
        assert "jobs: none submitted" in text

    def test_empty_history_file(self, tmp_path):
        service = make_service(
            tmp_path, bench_history_path=tmp_path / "absent.json"
        )
        service.start()
        server, _ = serve_in_thread(service)
        try:
            code, body, _ = get(server, "/dashboard.txt")
            assert code == 200
            assert "no benchmark entries yet" in body.decode("ascii")
        finally:
            server.shutdown()
            server.server_close()
            service.drain(grace=5.0)


class TestPopulatedHistory:
    def test_verdict_matches_bench_compare(self, tmp_path):
        # Acceptance criterion: the dashboard's regression verdict is
        # the same compare_entries result repro-bench-compare computes
        # on the same history file and default pair selection.
        history_path = write_history(
            tmp_path / "BENCH.json", medians=(1.0, 2.0)
        )
        history = BenchHistory.load(history_path)
        expected = compare_entries(
            history.entries[0],
            history.entries[1],
            baseline_index=0,
            candidate_index=1,
        )
        assert expected["verdict"] == "timing-regression"

        service = make_service(tmp_path, bench_history_path=history_path)
        service.start()
        server, _ = serve_in_thread(service)
        try:
            code, body, _ = get(server, "/dashboard.json")
            assert code == 200
            document = json.loads(body)
            verdict = document["trajectory"]["verdict"]
            assert verdict["verdict"] == expected["verdict"]
            assert verdict["timing"] == expected["timing"]
            assert verdict["baseline"]["index"] == 0
            assert verdict["candidate"]["index"] == 1

            code, body, _ = get(server, "/dashboard.txt")
            assert "verdict: timing-regression" in body.decode("ascii")
            code, body, _ = get(server, "/dashboard")
            assert b"timing-regression" in body
        finally:
            server.shutdown()
            server.server_close()
            service.drain(grace=5.0)

    def test_payload_passes_validator_with_jobs(self, tmp_path):
        history_path = write_history(tmp_path / "BENCH.json")
        service = make_service(tmp_path, bench_history_path=history_path)
        service.start()
        server, _ = serve_in_thread(service)
        try:
            record = service.submit(payload())
            wait_for_job(service, record["id"])
            code, body, _ = get(server, "/dashboard.json")
            document = json.loads(body)
            assert validate_dashboard(document) == []
            assert document["jobs"][0]["status"] == "done"
            code, body, _ = get(server, "/dashboard.txt")
            text = body.decode("ascii")
            assert record["id"] in text
            assert "replay:" in text
        finally:
            server.shutdown()
            server.server_close()
            service.drain(grace=5.0)


class TestDraining:
    def test_503_with_full_body_while_draining(self, served):
        service, server = served
        service.drain(grace=5.0)
        for path in ("/dashboard", "/dashboard.txt", "/dashboard.json"):
            code, body, _ = get(server, path)
            assert code == 503, path
            assert body, path
        code, body, _ = get(server, "/dashboard.txt")
        assert "ready: NO (draining)" in body.decode("ascii")


class TestByteStability:
    def test_two_renders_identical(self, tmp_path):
        history_path = write_history(
            tmp_path / "BENCH.json", medians=(1.0, 1.1)
        )
        service = make_service(tmp_path, bench_history_path=history_path)
        service.start()
        server, _ = serve_in_thread(service)
        try:
            record = service.submit(payload())
            wait_for_job(service, record["id"])
            _, first, _ = get(server, "/dashboard.txt")
            _, second, _ = get(server, "/dashboard.txt")
            assert first == second
            first.decode("ascii")  # pure ASCII or this raises
        finally:
            server.shutdown()
            server.server_close()
            service.drain(grace=5.0)


class TestStatusReplayBlock:
    def test_metrics_snapshot_has_replay_counters(self, tmp_path):
        service = make_service(tmp_path)
        status = service.status()
        replay = status["replay"]
        assert replay["counters"] == {
            "miss_stream.artifact_hits": 0,
            "miss_stream.artifact_misses": 0,
        }
        # The get-or-create read also materializes them in the
        # registry snapshot, so /metrics always shows the namespace.
        counters = status["metrics"]["counters"]
        assert "miss_stream.artifact_hits" in counters
        assert "miss_stream.artifact_misses" in counters

    def test_counters_flow_through(self, tmp_path):
        metrics = MetricsRegistry()
        metrics.counter("miss_stream.artifact_hits").inc()
        metrics.counter("miss_stream.artifact_misses").inc(3)
        service = make_service(tmp_path, metrics=metrics)
        replay = service.status()["replay"]
        assert replay["counters"]["miss_stream.artifact_hits"] == 1
        assert replay["counters"]["miss_stream.artifact_misses"] == 3
