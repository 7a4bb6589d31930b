"""``repro-obs-validate`` on corrupted inputs: loud, pointed failures."""

import json

import pytest

from repro.obs.bench import BENCH_HISTORY_SCHEMA_VERSION, BenchHistory
from repro.obs.manifest import MANIFEST_SCHEMA_VERSION, RunManifest
from repro.obs.spans import Tracer
from repro.obs.validate import (
    SUPPORTED_DASHBOARD_SCHEMA_VERSION,
    SUPPORTED_REPORT_SCHEMA_VERSION,
    main,
    validate_dashboard,
    validate_history,
    validate_history_file,
    validate_job_trace,
    validate_manifest,
    validate_manifest_file,
    validate_report,
    validate_span,
    validate_trace_file,
)


@pytest.fixture
def valid_manifest_path(tmp_path):
    """A freshly built, schema-valid manifest on disk."""
    manifest = RunManifest.build(tool="test", config={"a": 1})
    return manifest.write(tmp_path / "manifest.json")


@pytest.fixture
def valid_trace_path(tmp_path):
    """A real single-span JSONL trace on disk."""
    tracer = Tracer()
    with tracer.span("phase"):
        pass
    path = tmp_path / "trace.jsonl"
    tracer.write_jsonl(path)
    return path


class TestCorruptTrace:
    def test_truncated_jsonl_line_fails_with_line_number(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        # A valid record followed by a mid-write truncation.
        tracer = Tracer()
        with tracer.span("phase"):
            pass
        tracer.write_jsonl(path)
        with open(path, "a", encoding="utf-8") as handle:
            handle.write('{"name": "l2_replay", "path": "l2_re')
        errors = validate_trace_file(path)
        assert len(errors) == 1
        assert "malformed JSONL" in errors[0]
        assert ":2:" in errors[0]  # points at the truncated line

    def test_cli_exits_nonzero_on_truncated_trace(
        self, valid_manifest_path, tmp_path, capsys
    ):
        bad = tmp_path / "trace.jsonl"
        bad.write_text('{"name": "x"')
        assert main([str(valid_manifest_path), "--trace", str(bad)]) == 1
        assert "malformed JSONL" in capsys.readouterr().err

    def test_wrong_shape_record_fails(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        path.write_text(json.dumps({"name": "x", "depth": 0}) + "\n")
        errors = validate_trace_file(path)
        assert any("missing required key 'path'" in e for e in errors)


class TestCorruptManifest:
    def test_missing_config_hash_is_pointed_at(self, valid_manifest_path):
        data = json.loads(valid_manifest_path.read_text())
        del data["config_hash"]
        errors = validate_manifest(data)
        assert errors == ["manifest: missing required key 'config_hash'"]

    def test_newer_schema_version_rejected(self, valid_manifest_path):
        data = json.loads(valid_manifest_path.read_text())
        data["schema_version"] = MANIFEST_SCHEMA_VERSION + 1
        errors = validate_manifest(data)
        assert len(errors) == 1
        assert "newer than the supported" in errors[0]

    def test_cli_exits_nonzero_on_missing_config_hash(
        self, valid_manifest_path, capsys
    ):
        data = json.loads(valid_manifest_path.read_text())
        del data["config_hash"]
        valid_manifest_path.write_text(json.dumps(data))
        assert main([str(valid_manifest_path)]) == 1
        assert "config_hash" in capsys.readouterr().err

    def test_unparseable_json_reported_with_path(self, tmp_path, capsys):
        path = tmp_path / "manifest.json"
        path.write_text("{not json")
        assert main([str(path)]) == 1
        assert str(path) in capsys.readouterr().err


class TestCorruptHistory:
    def make_history(self, tmp_path):
        history = BenchHistory()
        history.append(
            {
                "created_unix": 0.0,
                "git_sha": "a" * 40,
                "config_hash": "cafe",
                "config": {},
                "environment": {},
                "workload": None,
                "results": {},
                "probe_counts": {},
                "summary": {},
            }
        )
        return history.save(tmp_path / "BENCH.json")

    def test_valid_history_passes(self, tmp_path):
        path = self.make_history(tmp_path)
        assert validate_history_file(path) == []

    def test_newer_schema_version_rejected(self, tmp_path):
        path = self.make_history(tmp_path)
        data = json.loads(path.read_text())
        data["schema_version"] = BENCH_HISTORY_SCHEMA_VERSION + 1
        errors = validate_history(data)
        assert len(errors) == 1
        assert "newer than the supported" in errors[0]

    def test_entry_missing_config_hash_is_pointed_at(self, tmp_path):
        path = self.make_history(tmp_path)
        data = json.loads(path.read_text())
        del data["entries"][0]["config_hash"]
        errors = validate_history(data)
        assert errors == [
            "history entry[0]: missing required key 'config_hash'"
        ]

    def test_bad_timing_block_is_pointed_at(self, tmp_path):
        path = self.make_history(tmp_path)
        data = json.loads(path.read_text())
        data["entries"][0]["results"]["x"] = {"timing": {"samples": []}}
        errors = validate_history(data)
        assert any("timing: missing required key 'median_seconds'" in e
                   for e in errors)

    def test_cli_history_flag_exits_nonzero(self, tmp_path, capsys):
        path = tmp_path / "BENCH.json"
        path.write_text(json.dumps({"schema_version": 1}))
        assert main(["--history", str(path)]) == 1
        err = capsys.readouterr().err
        assert "benchmark" in err and "entries" in err

    def test_cli_history_flag_passes_valid(self, tmp_path, capsys):
        path = self.make_history(tmp_path)
        assert main(["--history", str(path)]) == 0
        assert "schema-valid" in capsys.readouterr().out


class TestCliArguments:
    def test_nothing_to_validate_errors(self, capsys):
        with pytest.raises(SystemExit):
            main([])

    def test_manifest_and_trace_and_history_together(
        self, valid_manifest_path, valid_trace_path, tmp_path, capsys
    ):
        history = TestCorruptHistory().make_history(tmp_path)
        assert main(
            [
                str(valid_manifest_path),
                "--trace", str(valid_trace_path),
                "--history", str(history),
            ]
        ) == 0
        assert "schema-valid" in capsys.readouterr().out


def make_span(**overrides):
    """A minimal schema-valid span record with causal identity."""
    record = {
        "name": "phase", "path": "phase", "depth": 0, "start": 0.0,
        "wall_seconds": 0.1, "cpu_seconds": 0.1, "attrs": {}, "index": 0,
        "trace_id": "a" * 16, "span_id": "b" * 16, "parent_span_id": None,
    }
    record.update(overrides)
    return record


class TestSpanIdentity:
    def test_well_formed_ids_pass(self):
        assert validate_span(make_span()) == []

    def test_legacy_record_without_id_fields_stays_valid(self):
        record = make_span()
        for key in ("trace_id", "span_id", "parent_span_id"):
            del record[key]
        assert validate_span(record) == []

    def test_none_ids_pass(self):
        assert validate_span(
            make_span(trace_id=None, span_id=None, parent_span_id=None)
        ) == []

    @pytest.mark.parametrize("bad", [
        "A" * 16,       # uppercase
        "a" * 15,       # too short
        "a" * 17,       # too long
        "g" * 16,       # not hex
        "",
    ])
    def test_malformed_id_rejected(self, bad):
        errors = validate_span(make_span(trace_id=bad))
        assert len(errors) == 1
        assert "not a 16-hex-char id" in errors[0]

    def test_wrong_id_type_rejected(self):
        errors = validate_span(make_span(span_id=42))
        assert any("key 'span_id' has type int" in e for e in errors)


def make_job_trace(**overrides):
    """A minimal schema-valid ``/jobs/<id>/trace`` payload."""
    trace, root_id = "a" * 16, "c" * 16
    child = make_span(
        name="service_job", path="service_job",
        trace_id=trace, span_id="d" * 16, parent_span_id=root_id,
    )
    child["children"] = []
    root = make_span(
        name="job", path="job", wall_seconds=1.0, index=1,
        attrs={"job": "job-1", "status": "done"},
        trace_id=trace, span_id=root_id, parent_span_id=None,
    )
    root["children"] = [child]
    document = {
        "job": "job-1", "trace_id": trace, "status": "done",
        "spans": 2, "tree": [root],
    }
    document.update(overrides)
    return document


class TestJobTraceValidation:
    def test_valid_flight_record_passes(self):
        assert validate_job_trace(make_job_trace()) == []

    def test_not_an_object(self):
        assert validate_job_trace([]) == ["job-trace: not a JSON object"]

    def test_missing_envelope_key_pointed(self):
        document = make_job_trace()
        del document["status"]
        errors = validate_job_trace(document)
        assert any("missing required key 'status'" in e for e in errors)

    def test_span_count_must_match_tree(self):
        errors = validate_job_trace(make_job_trace(spans=5))
        assert errors == ["job-trace: 'spans' is 5 but the tree holds 2"]

    def test_child_must_nest_under_parent_span_id(self):
        document = make_job_trace()
        document["tree"][0]["children"][0]["parent_span_id"] = "e" * 16
        errors = validate_job_trace(document)
        assert any(
            "tree[0].children[0]" in e and "does not match" in e
            for e in errors
        )

    def test_malformed_nested_node_located(self):
        document = make_job_trace()
        del document["tree"][0]["children"][0]["wall_seconds"]
        errors = validate_job_trace(document)
        assert any(
            "tree[0].children[0]" in e and "'wall_seconds'" in e
            for e in errors
        )

    def test_bad_id_inside_tree_located(self):
        document = make_job_trace()
        document["tree"][0]["trace_id"] = "NOT-HEX"
        errors = validate_job_trace(document)
        assert any(
            "tree[0]" in e and "not a 16-hex-char id" in e for e in errors
        )

    def test_node_missing_children_list(self):
        document = make_job_trace()
        del document["tree"][0]["children"][0]["children"]
        errors = validate_job_trace(document)
        assert any("non-list 'children'" in e for e in errors)


class TestJobTraceCliFlag:
    def test_valid_file_passes(self, tmp_path, capsys):
        path = tmp_path / "job-trace.json"
        path.write_text(json.dumps(make_job_trace()))
        assert main(["--job-trace", str(path)]) == 0
        assert "schema-valid" in capsys.readouterr().out

    def test_invalid_file_exits_1(self, tmp_path, capsys):
        path = tmp_path / "job-trace.json"
        path.write_text(json.dumps(make_job_trace(spans=99)))
        assert main(["--job-trace", str(path)]) == 1
        assert "tree holds" in capsys.readouterr().err

    def test_combines_with_manifest_and_trace(
        self, valid_manifest_path, valid_trace_path, tmp_path, capsys
    ):
        path = tmp_path / "job-trace.json"
        path.write_text(json.dumps(make_job_trace()))
        assert main(
            [
                str(valid_manifest_path),
                "--trace", str(valid_trace_path),
                "--job-trace", str(path),
            ]
        ) == 0
        assert "schema-valid" in capsys.readouterr().out


def make_report(**overrides):
    """A minimal schema-valid trajectory-report payload."""
    report = {
        "schema_version": 1,
        "kind": "bench-trajectory",
        "benchmark": "simulator_throughput",
        "history_schema_version": 1,
        "entry_count": 1,
        "entries": [{"index": 0, "git_sha": "a" * 40, "config_hash": "feed"}],
        "series": [
            {
                "name": "l2_replay_fused_engine",
                "points": [
                    {
                        "index": 0,
                        "git_sha": "a" * 40,
                        "config_hash": "feed",
                        "median_seconds": 1.0,
                        "ci_low_seconds": 0.9,
                        "ci_high_seconds": 1.1,
                        "requests_per_second": 4000.0,
                    }
                ],
            }
        ],
        "verdict": {
            "verdict": "ok",
            "baseline": {"index": 0},
            "candidate": {"index": 0},
            "timing": [],
            "probe_drift": [],
            "notes": [],
        },
    }
    report.update(overrides)
    return report


def make_dashboard(**overrides):
    """A minimal schema-valid dashboard payload."""
    document = {
        "schema_version": 1,
        "kind": "service-dashboard",
        "status": {
            "ready": True,
            "reason": "ok",
            "draining": False,
            "queue": {"depth": 0, "capacity": 16},
            "breakers": {},
            "jobs": {},
            "replay": {"counters": {}},
            "metrics": {"counters": {}, "gauges": {}, "histograms": {}},
        },
        "jobs": [{"id": "job-1", "status": "done"}],
        "trajectory": None,
    }
    document.update(overrides)
    return document


class TestReportValidation:
    def test_valid_report_passes(self):
        assert validate_report(make_report()) == []

    def test_empty_report_passes(self):
        report = make_report(
            entry_count=0, entries=[], series=[], verdict=None
        )
        assert validate_report(report) == []

    def test_missing_key_is_pointed(self):
        report = make_report()
        del report["series"]
        errors = validate_report(report)
        assert any("missing required key 'series'" in e for e in errors)

    def test_wrong_kind_rejected(self):
        errors = validate_report(make_report(kind="something-else"))
        assert any("bench-trajectory" in e for e in errors)

    def test_newer_schema_version_rejected(self):
        errors = validate_report(
            make_report(schema_version=SUPPORTED_REPORT_SCHEMA_VERSION + 1)
        )
        assert any("newer than the supported" in e for e in errors)

    def test_malformed_series_point_located(self):
        report = make_report()
        del report["series"][0]["points"][0]["median_seconds"]
        errors = validate_report(report)
        assert any(
            "series[0].points[0]" in e and "median_seconds" in e
            for e in errors
        )

    def test_incomplete_verdict_rejected(self):
        report = make_report()
        del report["verdict"]["timing"]
        errors = validate_report(report)
        assert any("verdict missing 'timing'" in e for e in errors)

    def test_not_an_object(self):
        assert validate_report([]) == ["report: not a JSON object"]


class TestDashboardValidation:
    def test_valid_dashboard_passes(self):
        assert validate_dashboard(make_dashboard()) == []

    def test_nested_trajectory_is_validated_too(self):
        bad_report = make_report(kind="wrong")
        errors = validate_dashboard(make_dashboard(trajectory=bad_report))
        assert any("bench-trajectory" in e for e in errors)

    def test_missing_status_block_fields(self):
        document = make_dashboard()
        del document["status"]["replay"]
        errors = validate_dashboard(document)
        assert any(
            "dashboard status" in e and "'replay'" in e for e in errors
        )

    def test_job_rows_need_identity(self):
        errors = validate_dashboard(make_dashboard(jobs=[{"points": 1}]))
        assert any("jobs[0]" in e and "'id'" in e for e in errors)

    def test_newer_schema_version_rejected(self):
        errors = validate_dashboard(
            make_dashboard(
                schema_version=SUPPORTED_DASHBOARD_SCHEMA_VERSION + 1
            )
        )
        assert any("newer than the supported" in e for e in errors)

    def test_v2_requires_latency_block(self):
        errors = validate_dashboard(make_dashboard(schema_version=2))
        assert any(
            "'latency'" in e and "schema v2" in e for e in errors
        )

    def test_v2_with_latency_block_passes(self):
        document = make_dashboard(schema_version=2)
        document["status"]["latency"] = {
            "latency.job_seconds": {
                "count": 1, "p50": 0.1, "p95": 0.1, "p99": 0.1,
                "p999": 0.1,
            }
        }
        assert validate_dashboard(document) == []

    def test_v1_without_latency_stays_valid(self):
        # Pre-quantile dashboards never carried the block.
        assert validate_dashboard(make_dashboard(schema_version=1)) == []

    def test_v3_dashboard_is_valid(self):
        document = make_dashboard(schema_version=3)
        document["status"]["latency"] = {}
        assert validate_dashboard(document) == []


class TestReportCliFlags:
    def test_report_and_dashboard_flags(self, tmp_path, capsys):
        report_path = tmp_path / "trajectory.json"
        report_path.write_text(json.dumps(make_report()))
        dashboard_path = tmp_path / "dashboard.json"
        dashboard_path.write_text(json.dumps(make_dashboard()))
        assert main(
            [
                "--report", str(report_path),
                "--dashboard", str(dashboard_path),
            ]
        ) == 0
        assert "schema-valid" in capsys.readouterr().out

    def test_invalid_report_exits_1(self, tmp_path, capsys):
        path = tmp_path / "trajectory.json"
        path.write_text(json.dumps(make_report(kind="wrong")))
        assert main(["--report", str(path)]) == 1
        assert "bench-trajectory" in capsys.readouterr().err

    def test_bench_manifest_validates(self, tmp_path):
        # The manifest run_benchmarks writes next to the history file
        # is an ordinary RunManifest; the positional argument covers it.
        manifest = RunManifest.build(
            tool="run_benchmarks", config={"references": 4000}
        )
        path = manifest.write(tmp_path / "BENCH_simulator.manifest.json")
        assert validate_manifest_file(path) == []

