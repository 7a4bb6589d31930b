"""Fault-tolerant sweep path: bit-identical results, resume, manifests."""

import pytest

from repro.errors import CheckpointError, IntegrityError, SweepPointError
from repro.experiments.runner import (
    ExperimentRunner,
    SweepPoint,
    config_result_from_dict,
    config_result_to_dict,
)
from repro.obs.manifest import RunManifest
from repro.obs.metrics import MetricsRegistry
from repro.obs.spans import Tracer
from repro.resilience.checkpoint import SweepCheckpoint
from repro.resilience.policy import RetryPolicy, SweepOutcome
from tests import faultkit
from tests.faultkit import (
    FaultPlan,
    FaultSpec,
    InjectedCrashError,
    IOFaultPlan,
    IOFaultSpec,
    activate_io_plan,
    deactivate_io_plan,
)

from .test_parallel_runner import assert_results_identical

from repro.trace.synthetic import AtumWorkload


def tiny_workload():
    return AtumWorkload(segments=2, references_per_segment=1_500, seed=11)


POINTS = [
    SweepPoint("4K-16", "64K-32", 2),
    SweepPoint("4K-16", "64K-32", 4),
    SweepPoint("8K-16", "64K-32", 4),
]

RETRY = RetryPolicy(max_attempts=3)


@pytest.fixture(autouse=True)
def clean_plan():
    faultkit.deactivate()
    deactivate_io_plan()
    yield
    faultkit.deactivate()
    deactivate_io_plan()


def make_runner(**kwargs):
    kwargs.setdefault("workload", tiny_workload())
    kwargs.setdefault("processes", 2)
    kwargs.setdefault("metrics", MetricsRegistry())
    return ExperimentRunner(**kwargs)


@pytest.fixture(scope="module")
def baseline():
    runner = ExperimentRunner(
        tiny_workload(), metrics=MetricsRegistry(), tracer=Tracer()
    )
    return [
        config_result_to_dict(
            runner.run(point.l1, point.l2, point.associativity)
        )
        for point in POINTS
    ]


def assert_matches_baseline(outcome, baseline, skip=()):
    for index, expected in enumerate(baseline):
        if index in skip:
            continue
        assert config_result_to_dict(outcome.results[index]) == expected, (
            f"point {index} diverged from the fault-free run"
        )


class TestResilientPathEquivalence:
    def test_returns_sweep_outcome(self, baseline):
        outcome = make_runner().run_points(POINTS, failure_policy="collect")
        assert isinstance(outcome, SweepOutcome)
        assert outcome.ok and outcome.completed() == len(POINTS)
        assert_matches_baseline(outcome, baseline)

    def test_config_result_dict_round_trip(self, baseline):
        restored = config_result_from_dict(baseline[0])
        assert config_result_to_dict(restored) == baseline[0]

    def test_serial_resilient_identical(self, baseline):
        outcome = make_runner(processes=1).run_points(
            POINTS, failure_policy="collect"
        )
        assert_matches_baseline(outcome, baseline)


class TestInjectedFailures:
    def test_transient_crash_retried_and_bit_identical(self, baseline):
        faultkit.activate(
            FaultPlan([FaultSpec("raise", at=1, attempts=frozenset({1}))])
        )
        outcome = make_runner().run_points(
            POINTS, failure_policy="retry_then_collect", retry=RETRY
        )
        assert outcome.ok and outcome.retries >= 1
        assert_matches_baseline(outcome, baseline)

    def test_persistent_crash_collected_others_unharmed(
        self, baseline, tmp_path
    ):
        faultkit.activate(FaultPlan([FaultSpec("raise", at=1)]))
        runner = make_runner()
        outcome = runner.run_points(
            POINTS, failure_policy="retry_then_collect", retry=RETRY
        )
        runner.write_obs(tmp_path)
        assert not outcome.ok
        assert outcome.results[1] is None
        assert_matches_baseline(outcome, baseline, skip={1})
        (failure,) = outcome.failures
        assert failure.key == 1
        assert failure.error_type == "InjectedFaultError"
        assert failure.traceback
        assert failure.attempts == RETRY.max_attempts
        assert failure.point["associativity"] == POINTS[1].associativity
        assert failure.signature is not None
        # The degraded run is visibly degraded in its provenance manifest.
        manifest = RunManifest.load(tmp_path / "manifest.json")
        assert manifest.failures
        assert "InjectedFaultError" in manifest.failures[0]["error"]
        assert manifest.failures[0]["error_type"] == "InjectedFaultError"
        assert manifest.failures[0]["traceback"]

    def test_worker_exit_recreates_pool(self, baseline):
        faultkit.activate(
            FaultPlan([FaultSpec("exit", at=2, attempts=frozenset({1}))])
        )
        outcome = make_runner().run_points(
            POINTS, failure_policy="retry_then_collect", retry=RETRY
        )
        assert outcome.ok and outcome.pool_restarts >= 1
        assert_matches_baseline(outcome, baseline)

    def test_hung_point_reaped_and_retried(self, baseline):
        faultkit.activate(
            FaultPlan(
                [FaultSpec("hang", at=0, attempts=frozenset({1}), seconds=120)]
            )
        )
        outcome = make_runner().run_points(
            POINTS,
            failure_policy="retry_then_collect",
            retry=RetryPolicy(max_attempts=3, timeout=1.0),
        )
        assert outcome.ok and outcome.timeouts == 1
        assert_matches_baseline(outcome, baseline)

    def test_corrupt_payload_rejected_not_merged(self, baseline):
        faultkit.activate(FaultPlan([FaultSpec("corrupt", at=0)]))
        outcome = make_runner().run_points(POINTS, failure_policy="collect")
        assert outcome.results[0] is None
        (failure,) = outcome.failures
        assert failure.error_type == "SimulationError"
        assert "malformed result for point 0" in failure.message
        assert_matches_baseline(outcome, baseline, skip={0})

    def test_transient_corruption_retried_clean(self, baseline):
        faultkit.activate(
            FaultPlan([FaultSpec("corrupt", at=0, attempts=frozenset({1}))])
        )
        outcome = make_runner().run_points(
            POINTS, failure_policy="retry_then_collect", retry=RETRY
        )
        assert outcome.ok and outcome.retries == 1
        assert_matches_baseline(outcome, baseline)

    def test_fail_fast_raises_and_records(self):
        faultkit.activate(FaultPlan([FaultSpec("raise", at=0)]))
        runner = make_runner()
        with pytest.raises(SweepPointError) as excinfo:
            runner.run_points(POINTS, failure_policy="fail_fast")
        assert excinfo.value.failure is not None
        assert runner.failures and runner.failures[0]["key"] == 0


class TestCheckpointResume:
    def test_interrupted_sweep_resumes_bit_identically(
        self, baseline, tmp_path
    ):
        path = tmp_path / "sweep.ckpt"
        faultkit.activate(FaultPlan([FaultSpec("raise", at=2)]))
        interrupted = make_runner().run_points(
            POINTS, failure_policy="collect", checkpoint=path
        )
        assert interrupted.completed() == len(POINTS) - 1
        faultkit.deactivate()
        metrics = MetricsRegistry()
        resumed = make_runner(metrics=metrics).run_points(
            POINTS, failure_policy="collect", checkpoint=path
        )
        assert resumed.ok
        assert resumed.resumed == len(POINTS) - 1
        assert_matches_baseline(resumed, baseline)
        counters = metrics.snapshot()["counters"]
        assert counters["resilience.checkpoint_resumed"] == len(POINTS) - 1

    def test_fully_checkpointed_sweep_runs_nothing(self, baseline, tmp_path):
        path = tmp_path / "sweep.ckpt"
        make_runner().run_points(
            POINTS, failure_policy="collect", checkpoint=path
        )
        resumed = make_runner().run_points(
            POINTS, failure_policy="collect", checkpoint=path
        )
        assert resumed.resumed == len(POINTS)
        assert_matches_baseline(resumed, baseline)

    def test_checkpoint_accepts_prebuilt_store(self, baseline, tmp_path):
        runner = make_runner()
        checkpoint = SweepCheckpoint(
            tmp_path / "sweep.ckpt", config_hash=runner.sweep_config_hash()
        )
        outcome = runner.run_points(
            POINTS[:1], failure_policy="collect", checkpoint=checkpoint
        )
        assert outcome.ok
        assert len(checkpoint.results) == 1

    def test_wrong_workload_checkpoint_refused(self, tmp_path):
        path = tmp_path / "sweep.ckpt"
        make_runner().run_points(
            POINTS[:1], failure_policy="collect", checkpoint=path
        )
        other = make_runner(
            workload=AtumWorkload(
                segments=2, references_per_segment=1_500, seed=99
            )
        )
        with pytest.raises(CheckpointError, match="refusing to resume"):
            other.run_points(
                POINTS[:1], failure_policy="collect", checkpoint=path
            )

    def test_sweep_config_hash_stable_across_instances(self):
        assert (
            make_runner().sweep_config_hash()
            == make_runner().sweep_config_hash()
        )


def flip_byte(path, offset):
    """Rot one bit of ``path`` at byte ``offset``."""
    raw = bytearray(path.read_bytes())
    raw[offset] ^= 0x01
    path.write_bytes(bytes(raw))


def middle_of_line(path, number):
    """Byte offset of the middle of 1-based line ``number`` of ``path``."""
    lines = path.read_bytes().split(b"\n")
    return sum(len(line) + 1 for line in lines[: number - 1]) + (
        len(lines[number - 1]) // 2
    )


class TestStorageFaults:
    def test_torn_write_at_every_checkpoint_write_resumes(
        self, baseline, tmp_path
    ):
        # A recording dry run enumerates the injection points. The
        # header's atomic write lands on "sweep.ckpt.tmp", which the
        # path= substring matches too.
        recorder = activate_io_plan(IOFaultPlan(), record=True)
        try:
            dry = make_runner().run_points(
                POINTS, checkpoint=tmp_path / "dry.ckpt"
            )
        finally:
            deactivate_io_plan()
        assert dry.ok
        writes = sum(
            1
            for op, path in recorder.operations
            if op == "write" and ".ckpt" in path
        )
        # One header write and one append per point.
        assert writes == len(POINTS) + 1

        for nth in range(1, writes + 1):
            checkpoint = tmp_path / f"torn-{nth}" / "sweep.ckpt"
            activate_io_plan(
                IOFaultPlan(
                    [IOFaultSpec("torn", "write", path=".ckpt", nth=nth)]
                )
            )
            try:
                with pytest.raises(InjectedCrashError):
                    make_runner().run_points(POINTS, checkpoint=checkpoint)
            finally:
                deactivate_io_plan()
            # No repair step: load() compacts the torn tail itself.
            resumed = make_runner().run_points(POINTS, checkpoint=checkpoint)
            assert resumed.ok
            assert resumed.resumed == max(0, nth - 2), nth
            assert_matches_baseline(resumed, baseline)

    def test_bitrot_is_detected_never_believed(self, baseline, tmp_path):
        checkpoint = tmp_path / "sweep.ckpt"
        assert make_runner().run_points(POINTS, checkpoint=checkpoint).ok
        flip_byte(checkpoint, middle_of_line(checkpoint, 2))
        with pytest.raises(
            IntegrityError,
            match="line 2: .*move the checkpoint aside and rerun to "
            "recompute its points",
        ):
            make_runner().run_points(POINTS, checkpoint=checkpoint)

        # Moved aside, the rotten checkpoint is never read again: the
        # sweep recomputes every point, bit-identically.
        checkpoint.rename(tmp_path / "sweep.ckpt.rotten")
        recomputed = make_runner().run_points(POINTS, checkpoint=checkpoint)
        assert recomputed.ok and recomputed.resumed == 0
        assert_matches_baseline(recomputed, baseline)


class TestProgress:
    def test_resumed_sweep_reports_done(self, tmp_path, monkeypatch, capsys):
        path = tmp_path / "sweep.ckpt"
        make_runner().run_points(POINTS[:2], checkpoint=path)
        monkeypatch.setenv("REPRO_PROGRESS", "1")
        capsys.readouterr()
        resumed = make_runner().run_points(POINTS, checkpoint=path)
        assert resumed.ok and resumed.resumed == 2
        lines = [
            line
            for line in capsys.readouterr().err.splitlines()
            if line.startswith("[sweep]")
        ]
        assert lines and lines[-1].endswith("done"), lines
