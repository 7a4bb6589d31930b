"""The parallel sweep path is bit-identical to the serial runner.

Point-sharded sweeps
(:class:`~repro.experiments.runner.ParallelSweepRunner`) must
reproduce the serial :meth:`~repro.experiments.runner.ExperimentRunner.run`
results exactly for a fixed workload seed: every worker derives its
trace deterministically from the shared seed.

The runner replays through the fused engine only; the per-scheme
:class:`~repro.cache.observers.ProbeObserver` path survives here as an
independent oracle for it.
"""

import os

import pytest

import repro.cache.hierarchy as hierarchy
from repro.cache.direct_mapped import DirectMappedCache
from repro.cache.hierarchy import (
    cached_miss_stream,
    cached_miss_streams,
    capture_miss_stream,
    clear_miss_stream_cache,
    replay_miss_stream,
)
from repro.cache.observers import MruDistanceObserver, ProbeObserver
from repro.cache.set_associative import SetAssociativeCache
from repro.experiments.configs import DEFAULT_TAG_BITS, parse_geometry
from repro.experiments.runner import (
    ExperimentRunner,
    ParallelSweepRunner,
    SweepPoint,
    _assemble_result,
    _scheme_plan,
    config_result_to_dict,
)
from repro.obs.metrics import MetricsRegistry
from repro.obs.spans import Tracer
from repro.resilience.policy import SweepOutcome
from repro.trace.synthetic import AtumWorkload


def small_workload():
    return AtumWorkload(segments=3, references_per_segment=4_000, seed=19)


def assert_results_identical(actual, expected):
    assert actual.global_miss_ratio == expected.global_miss_ratio
    assert actual.local_miss_ratio == expected.local_miss_ratio
    assert actual.fraction_writebacks == expected.fraction_writebacks
    assert actual.l1_miss_ratio == expected.l1_miss_ratio
    assert actual.writeback_miss_ratio == expected.writeback_miss_ratio
    assert actual.mru_distribution == expected.mru_distribution
    assert actual.mru_update_fraction == expected.mru_update_fraction
    assert set(actual.schemes) == set(expected.schemes)
    for label, scheme in expected.schemes.items():
        got = actual.schemes[label]
        assert got.hits == scheme.hits, label
        assert got.misses == scheme.misses, label
        assert got.total == scheme.total, label
        assert got.readin_hits == scheme.readin_hits, label


def observer_reference(
    workload,
    l1,
    l2,
    associativity,
    tag_bits=DEFAULT_TAG_BITS,
    transforms=("xor",),
    mru_list_lengths=(),
    extra_tag_bits=(),
    writeback_optimization=True,
):
    """The result :meth:`ExperimentRunner.run` must produce, built by
    hand: one :class:`ProbeObserver` per scheme of the runner's plan
    and an :class:`MruDistanceObserver`, attached to a plain L2, over
    a stream captured apart from the memo. The L1 miss ratio comes
    from that L1's own counters, which the stream's ratio must equal."""
    l1, l2 = parse_geometry(l1), parse_geometry(l2)
    l1_cache = DirectMappedCache(l1.capacity_bytes, l1.block_size)
    stream = capture_miss_stream(workload.pairs(), l1_cache)
    l1_miss_ratio = l1_cache.stats.readin_miss_ratio
    assert stream.readin_miss_ratio == l1_miss_ratio
    cache = SetAssociativeCache(l2.capacity_bytes, l2.block_size, associativity)
    plan = _scheme_plan(
        associativity, tag_bits, tuple(transforms),
        tuple(mru_list_lengths), tuple(extra_tag_bits),
    )
    accumulators = {}
    for label, scheme in plan:
        observer = ProbeObserver(
            scheme, writeback_optimization=writeback_optimization, label=label
        )
        accumulators[label] = observer.accumulator
        cache.attach(observer)
    distance = MruDistanceObserver(associativity)
    cache.attach(distance)
    replay_miss_stream(stream, cache)
    return _assemble_result(
        l1, l2, associativity, cache.stats, stream.processor_references,
        l1_miss_ratio, accumulators, distance,
    )


ORACLE_OPTIONS = dict(mru_list_lengths=(2,), transforms=("xor", "swap"))


def test_run_matches_observer_oracle():
    workload = small_workload()
    expected = observer_reference(
        workload, "4K-16", "64K-32", 4, **ORACLE_OPTIONS
    )
    result = ExperimentRunner(workload).run(
        "4K-16", "64K-32", 4, **ORACLE_OPTIONS
    )
    assert config_result_to_dict(result) == config_result_to_dict(expected)


def test_parallel_sweep_matches_observer_oracle():
    workload = small_workload()
    expected = observer_reference(
        workload, "4K-16", "64K-32", 4, **ORACLE_OPTIONS
    )
    point = SweepPoint("4K-16", "64K-32", 4, **ORACLE_OPTIONS)
    (result,) = ParallelSweepRunner(workload, processes=2).run_points(
        [point]
    ).results
    assert config_result_to_dict(result) == config_result_to_dict(expected)


@pytest.mark.parametrize("processes", [1, 2])
def test_parallel_sweep_matches_serial(processes):
    workload = small_workload()
    points = [
        SweepPoint("4K-16", "64K-32", 2),
        SweepPoint("4K-16", "64K-32", 4),
        SweepPoint("8K-16", "64K-32", 4),
        SweepPoint("4K-16", "128K-32", 4, mru_list_lengths=(1,)),
    ]
    serial_runner = ExperimentRunner(workload)
    expected = [
        serial_runner.run(
            p.l1, p.l2, p.associativity,
            tag_bits=p.tag_bits,
            transforms=p.transforms,
            mru_list_lengths=p.mru_list_lengths,
            extra_tag_bits=p.extra_tag_bits,
            writeback_optimization=p.writeback_optimization,
        )
        for p in points
    ]
    parallel = ParallelSweepRunner(workload, processes=processes)
    results = parallel.run_points(points).results
    assert len(results) == len(points)
    for got, want in zip(results, expected):
        assert_results_identical(got, want)


def test_parallel_sweep_empty():
    outcome = ParallelSweepRunner(small_workload()).run_points([])
    assert outcome == SweepOutcome()


def test_sweep_config_hash_is_pinned():
    """Checkpoints written by earlier versions must still resume: the
    sweep identity hash may not drift."""
    workload = AtumWorkload(segments=2, references_per_segment=2_000, seed=19)
    sweep = ParallelSweepRunner(workload)
    assert sweep.sweep_config_hash() == "149789745f53fd13"


def test_cached_miss_stream_is_shared():
    """Same workload + L1 geometry: one capture, shared object."""
    clear_miss_stream_cache()
    workload = small_workload()
    first = cached_miss_stream(workload, 4096, 16)
    second = cached_miss_stream(small_workload(), 4096, 16)
    assert first is second
    other = cached_miss_stream(workload, 8192, 16)
    assert other is not first
    clear_miss_stream_cache()


def test_cached_miss_streams_captures_only_what_it_lacks(monkeypatch):
    """With 4K-16 memoized, asking for 4K-16 and 8K-16 makes one pass
    that captures 8K-16 alone; asking again is all hits."""
    passes = []
    capture = hierarchy.capture_miss_streams

    def recording(batches, l1s):
        passes.append([l1.capacity_bytes for l1 in l1s])
        return capture(batches, l1s)

    monkeypatch.setattr(hierarchy, "capture_miss_streams", recording)
    clear_miss_stream_cache()
    workload = small_workload()
    metrics, tracer = MetricsRegistry(), Tracer()
    try:
        held = cached_miss_stream(workload, 4096, 16)
        both = cached_miss_streams(
            workload, [(4096, 16), (8192, 16)], tracer=tracer, metrics=metrics
        )
        assert passes == [[4096], [8192]]
        again = cached_miss_streams(
            workload, [(8192, 16), (4096, 16)], tracer=tracer, metrics=metrics
        )
    finally:
        clear_miss_stream_cache()
    assert passes == [[4096], [8192]]
    assert both[0] is held
    assert again == [both[1], held]
    snapshot = metrics.snapshot()
    assert snapshot["counters"]["miss_stream.cache_misses"] == 1
    assert snapshot["counters"]["miss_stream.cache_hits"] == 3
    assert snapshot["histograms"]["miss_stream.capture_seconds"]["count"] == 1
    (span,) = [r for r in tracer.records if r.name == "l1_capture"]
    assert span.attrs["capacity_bytes"] == [8192]


class TestCaptureOncePerL1:
    """A sweep captures all the L1s of its submitted points in one trace
    pass, in the parent, before the pool forks; workers replay the
    inherited memo."""

    POINTS = [
        SweepPoint(l1, "64K-32", a)
        for a in (2, 4) for l1 in ("4K-16", "8K-16")
    ]

    @pytest.fixture
    def passes(self, tmp_path, monkeypatch):
        """Every ``capture_miss_streams`` pass as ``(pid, L1 capacity,
        ...)``.

        The wrapper appends to a file, so a pass in a forked worker,
        which inherits the wrapper, is recorded too.
        """
        log = tmp_path / "passes.log"
        log.touch()
        capture = hierarchy.capture_miss_streams

        def recording(batches, l1s):
            fields = [os.getpid()] + [l1.capacity_bytes for l1 in l1s]
            with open(log, "a") as handle:
                handle.write(" ".join(map(str, fields)) + "\n")
            return capture(batches, l1s)

        monkeypatch.setattr(hierarchy, "capture_miss_streams", recording)
        clear_miss_stream_cache()
        yield lambda: [
            tuple(map(int, line.split()))
            for line in log.read_text().splitlines()
        ]
        clear_miss_stream_cache()

    def sweeper(self, tracer):
        return ParallelSweepRunner(
            small_workload(), processes=2,
            metrics=MetricsRegistry(), tracer=tracer,
        )

    def test_each_l1_captured_once_in_the_parent(self, passes):
        tracer = Tracer()
        assert self.sweeper(tracer).run_points(self.POINTS).ok
        assert passes() == [(os.getpid(), 4096, 8192)]
        (sweep,) = [r for r in tracer.records if r.name == "sweep"]
        (capture,) = [r for r in tracer.records if r.name == "l1_capture"]
        assert capture.attrs["capacity_bytes"] == [4096, 8192]
        assert capture.attrs["block_size"] == [16, 16]
        assert capture.parent_span_id == sweep.span_id

    def test_resumed_points_are_not_captured(self, passes, tmp_path):
        checkpoint = tmp_path / "sweep.ckpt"
        only_4k = [p for p in self.POINTS if p.l1 == "4K-16"]
        first = self.sweeper(Tracer()).run_points(
            only_4k, checkpoint=checkpoint
        )
        assert first.ok
        assert passes() == [(os.getpid(), 4096)]
        clear_miss_stream_cache()
        rest = self.sweeper(Tracer()).run_points(
            self.POINTS, checkpoint=checkpoint
        )
        assert rest.ok and rest.resumed == len(only_4k)
        assert passes()[1:] == [(os.getpid(), 8192)]
        clear_miss_stream_cache()
        tracer = Tracer()
        again = self.sweeper(tracer).run_points(
            self.POINTS, checkpoint=checkpoint
        )
        assert again.ok and again.resumed == len(self.POINTS)
        assert len(passes()) == 2
        assert not [r for r in tracer.records if r.name == "l1_capture"]

    def test_invalid_l1_fails_alone_and_the_rest_share_one_pass(
        self, passes
    ):
        """``3K-16`` parses but makes no L1 (192 lines is not a power of
        two): the parent leaves it out of its pass, and its point fails
        in its worker as its own ``ConfigurationError``."""
        points = [
            SweepPoint(l1, "64K-32", 4) for l1 in ("4K-16", "3K-16", "8K-16")
        ]
        outcome = self.sweeper(Tracer()).run_points(
            points, failure_policy="collect"
        )
        assert outcome.completed() == 2
        assert outcome.results[0] is not None
        assert outcome.results[1] is None
        assert outcome.results[2] is not None
        (failure,) = outcome.failures
        assert failure.key == 1
        assert failure.error_type == "ConfigurationError"
        assert passes() == [(os.getpid(), 4096, 8192)]
