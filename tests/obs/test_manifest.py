"""Run manifests: content hashing, building, writing, validation."""

import json

from repro.obs.manifest import (
    MANIFEST_SCHEMA_VERSION,
    RunManifest,
    config_hash,
    describe_workload,
    git_sha,
)
from repro.obs.metrics import MetricsRegistry
from repro.obs.spans import Tracer
from repro.obs.validate import (
    validate_manifest,
    validate_manifest_file,
)
from repro.trace.synthetic import AtumWorkload


class TestConfigHash:
    def test_stable_across_key_order(self):
        assert config_hash({"a": 1, "b": 2}) == config_hash({"b": 2, "a": 1})

    def test_distinguishes_configs(self):
        assert config_hash({"a": 1}) != config_hash({"a": 2})

    def test_handles_non_json_values(self):
        # Exotic values fall back to repr-canonicalization.
        assert config_hash({"geometry": (4096, 16)})


class TestGitSha:
    def test_best_effort_in_repo_or_none(self, tmp_path):
        sha = git_sha()
        assert sha is None or (len(sha) == 40 and set(sha) <= set("0123456789abcdef"))
        assert git_sha(cwd=tmp_path) is None


class TestDescribeWorkload:
    def test_none(self):
        assert describe_workload(None) is None

    def test_atum_workload_identity(self):
        workload = AtumWorkload(
            segments=2, references_per_segment=100, seed=7
        )
        description = describe_workload(workload)
        assert description["type"] == "AtumWorkload"
        assert description["seed"] == 7
        assert description["segments"] == 2
        assert description["references_per_segment"] == 100
        assert "cache_key" in description


class TestBuildAndValidate:
    def test_built_manifest_is_schema_valid(self):
        tracer = Tracer()
        with tracer.span("phase"):
            pass
        metrics = MetricsRegistry()
        metrics.counter("engine.accesses").inc(5)
        manifest = RunManifest.build(
            tool="test",
            config={"l2": "64K-32"},
            workload=AtumWorkload(segments=1, references_per_segment=10),
            tracer=tracer,
            metrics=metrics,
        )
        assert validate_manifest(manifest.data) == []
        assert manifest.data["schema_version"] == MANIFEST_SCHEMA_VERSION
        assert manifest.phases["phase"]["count"] == 1
        assert manifest.data["metrics"]["counters"]["engine.accesses"] == 5
        assert manifest.failures == []

    def test_failures_recorded(self):
        manifest = RunManifest.build(
            tool="test", config={}, failures=[{"error": "boom"}],
        )
        assert manifest.failures == [{"error": "boom"}]
        assert validate_manifest(manifest.data) == []

    def test_write_and_load_round_trip(self, tmp_path):
        manifest = RunManifest.build(tool="test", config={"a": 1})
        path = manifest.write(tmp_path / "nested" / "manifest.json")
        loaded = RunManifest.load(path)
        assert loaded.data == json.loads(manifest.to_json())
        assert validate_manifest_file(path) == []

    def test_validate_catches_missing_and_mistyped(self):
        errors = validate_manifest({"schema_version": "nope"})
        assert any("missing required key" in error for error in errors)
        assert any("schema_version" in error for error in errors)

    def test_validate_rejects_newer_schema(self):
        manifest = RunManifest.build(tool="test", config={})
        manifest.data["schema_version"] = MANIFEST_SCHEMA_VERSION + 1
        assert any(
            "newer than" in error
            for error in validate_manifest(manifest.data)
        )

    def test_validate_rejects_malformed_failures(self):
        manifest = RunManifest.build(tool="test", config={})
        manifest.data["failures"] = ["not-a-dict"]
        assert any(
            "failures[0]" in error
            for error in validate_manifest(manifest.data)
        )
