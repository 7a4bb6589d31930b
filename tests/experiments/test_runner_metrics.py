"""Observability through the runners: exact metric merges, failure
wrapping, and provenance emission.

The headline invariant (mirroring the probe-counter discipline of
``test_parallel_runner.py``): the ``engine.*`` counters merged from
:meth:`~repro.experiments.runner.ExperimentRunner.run_points` workers
must equal the serial run's counters bit-identically for a fixed
workload seed.
"""

import json
from dataclasses import replace

import pytest

from repro.cache.hierarchy import clear_miss_stream_cache
from repro.errors import SweepPointError
from repro.experiments.runner import ExperimentRunner, SweepPoint
from repro.obs.jsonl import read_jsonl
from repro.obs.metrics import MetricsRegistry
from repro.obs.spans import Tracer
from repro.obs.validate import validate_manifest_file, validate_trace_file
from repro.resilience.policy import RetryPolicy
from repro.trace.synthetic import AtumWorkload
from tests import faultkit
from tests.faultkit import FaultPlan, FaultSpec


def small_workload():
    return AtumWorkload(segments=3, references_per_segment=4_000, seed=19)


def engine_counters(registry):
    """The deterministic ``engine.*`` counter slice of a snapshot."""
    return {
        name: value
        for name, value in registry.snapshot()["counters"].items()
        if name.startswith("engine.")
    }


class TestBitIdenticalMetrics:
    def test_parallel_sweep_engine_counters_match_serial(self):
        workload = small_workload()
        points = [
            SweepPoint("4K-16", "64K-32", 2),
            SweepPoint("4K-16", "64K-32", 4),
            SweepPoint("8K-16", "64K-32", 4),
        ]
        serial_metrics = MetricsRegistry()
        serial_runner = ExperimentRunner(
            workload, metrics=serial_metrics, tracer=Tracer()
        )
        for point in points:
            serial_runner.run(point.l1, point.l2, point.associativity)
        sweep_metrics = MetricsRegistry()
        ExperimentRunner(
            workload, processes=2,
            metrics=sweep_metrics, tracer=Tracer(),
        ).run_points(points)
        serial = engine_counters(serial_metrics)
        assert serial["engine.accesses"] > 0
        assert engine_counters(sweep_metrics) == serial

    def test_runner_counters_track_replays_and_cache_hits(self):
        """A replay looks its L1 up in the memo once, and a result-cache
        hit not at all: from a cold memo, one miss and no hit."""
        clear_miss_stream_cache()
        metrics = MetricsRegistry()
        runner = ExperimentRunner(
            small_workload(), metrics=metrics, tracer=Tracer()
        )
        runner.run("4K-16", "64K-32", 4)
        runner.run("4K-16", "64K-32", 4)
        counters = metrics.snapshot()["counters"]
        assert counters["runner.replays"] == 1
        assert counters["runner.result_cache_hits"] == 1
        assert counters["miss_stream.cache_misses"] == 1
        assert "miss_stream.cache_hits" not in counters


class TestFailureWrapping:
    @pytest.mark.parametrize("processes", [1, 2])
    def test_worker_failure_names_the_point(self, processes, tmp_path):
        good = SweepPoint("4K-16", "64K-32", 4)
        # A bad L2 fails in the worker; a bad L1 is skipped by the
        # parent's capture and then fails in the worker the same way.
        for field in ("l2", "l1"):
            bad = replace(good, **{field: "not-a-geometry"})
            obs_dir = tmp_path / field
            runner = ExperimentRunner(
                small_workload(), processes=processes,
                metrics=MetricsRegistry(), tracer=Tracer(),
            )
            with pytest.raises(SweepPointError) as excinfo:
                runner.run_points([good, bad], failure_policy="fail_fast")
            runner.write_obs(obs_dir)
            message = str(excinfo.value)
            assert "not-a-geometry" in message
            # The failure record is structured: kind, exception class,
            # worker traceback, and a human-readable summary line.
            (record,) = runner.failures
            assert record["error_type"] == "ConfigurationError"
            assert "not-a-geometry" in record["message"]
            assert "ConfigurationError" in record["traceback"]
            assert "not-a-geometry" in record["error"]
            manifest = json.loads((obs_dir / "manifest.json").read_text())
            (persisted,) = manifest["failures"]
            assert persisted["error"] == record["error"]
            assert persisted["point"][field] == "not-a-geometry"


class TestProvenanceEmission:
    def test_experiment_runner_obs_dir(self, tmp_path):
        runner = ExperimentRunner(
            small_workload(), metrics=MetricsRegistry(), tracer=Tracer(),
        )
        runner.run("4K-16", "64K-32", 4)
        runner.run("4K-16", "64K-32", 4)
        runner.write_obs(tmp_path)
        assert validate_manifest_file(tmp_path / "manifest.json") == []
        assert validate_trace_file(tmp_path / "trace.jsonl") == []
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["tool"] == "ExperimentRunner"
        # One record per replay: the second run was a result-cache hit.
        (point,) = manifest["config"]["points"]
        assert point["l2"] == "64K-32"
        assert manifest["config"]["processes"] is None
        assert manifest["workload"]["seed"] == 19
        assert "l2_replay" in manifest["phases"]
        assert manifest["metrics"]["counters"]["engine.accesses"] > 0

    def test_sweep_runner_obs_dir(self, tmp_path):
        runner = ExperimentRunner(
            small_workload(), processes=1,
            metrics=MetricsRegistry(), tracer=Tracer(),
        )
        runner.run_points([SweepPoint("4K-16", "64K-32", 4)])
        runner.write_obs(tmp_path)
        assert validate_manifest_file(tmp_path / "manifest.json") == []
        assert validate_trace_file(tmp_path / "trace.jsonl") == []
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["tool"] == "ExperimentRunner"
        assert manifest["config"]["processes"] == 1
        assert manifest["config"]["points"][0]["l1"] == "4K-16"
        assert manifest["failures"] == []
        assert "sweep" in manifest["phases"]

    def test_sweep_manifest_records_the_parents_captures(self, tmp_path):
        """The parent's L1 captures land in the sweep's own registry,
        so its manifest says what they cost: two L1s captured, in one
        pass over the trace."""
        clear_miss_stream_cache()
        runner = ExperimentRunner(
            small_workload(), processes=2,
            metrics=MetricsRegistry(), tracer=Tracer(),
        )
        try:
            outcome = runner.run_points([
                SweepPoint("4K-16", "64K-32", 4),
                SweepPoint("8K-16", "64K-32", 4),
            ])
        finally:
            clear_miss_stream_cache()
        assert outcome.ok
        runner.write_obs(tmp_path)
        metrics = json.loads((tmp_path / "manifest.json").read_text())["metrics"]
        assert metrics["counters"]["miss_stream.cache_misses"] == 2
        assert metrics["histograms"]["miss_stream.capture_seconds"]["count"] == 1

    def test_sweep_trace_is_one_tree_across_the_pool(self, tmp_path):
        """Worker spans, a retried attempt included, nest under one sweep."""
        runner = ExperimentRunner(
            small_workload(), processes=2,
            metrics=MetricsRegistry(), tracer=Tracer(),
        )
        points = [
            SweepPoint("4K-16", "64K-32", 2),
            SweepPoint("4K-16", "64K-32", 4),
        ]
        faultkit.activate(
            FaultPlan([FaultSpec("raise", at=1, attempts=frozenset({1}))])
        )
        try:
            outcome = runner.run_points(
                points, retry=RetryPolicy(max_attempts=2)
            )
        finally:
            faultkit.deactivate()
        assert outcome.ok
        runner.write_obs(tmp_path)
        records = list(read_jsonl(tmp_path / "trace.jsonl"))
        by_id = {record["span_id"]: record for record in records}
        assert len(by_id) == len(records)
        (sweep,) = [r for r in records if r["name"] == "sweep"]
        tasks = [r for r in records if r["name"] == "pool_task"]
        assert tasks
        for task in tasks:
            assert task["trace_id"] == sweep["trace_id"]
            assert task["parent_span_id"] == sweep["span_id"]
        point_1 = {
            t["attrs"]["attempt"]: t for t in tasks if t["attrs"]["key"] == 1
        }
        assert point_1[1]["attrs"].get("error") is True
        assert 2 in point_1
        replays = [r for r in records if r["name"] == "l2_replay"]
        assert replays
        for replay in replays:
            assert by_id[replay["parent_span_id"]]["name"] == "pool_task"
