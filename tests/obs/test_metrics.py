"""Metrics registry: instruments, snapshots, and exact merging."""

import math
import pickle
import random

import pytest

from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    QuantileHistogram,
    get_metrics,
    set_metrics,
)


class TestInstruments:
    def test_counter_increments(self):
        counter = Counter()
        counter.inc()
        counter.inc(4)
        assert counter.value == 5

    def test_counter_rejects_negative(self):
        with pytest.raises(ValueError):
            Counter().inc(-1)

    def test_gauge_last_write_wins(self):
        gauge = Gauge()
        gauge.set(3)
        gauge.set(7)
        assert gauge.value == 7

    def test_histogram_summary(self):
        histogram = Histogram()
        for value in (2.0, 8.0, 5.0):
            histogram.observe(value)
        assert histogram.count == 3
        assert histogram.total == 15.0
        assert histogram.min == 2.0
        assert histogram.max == 8.0
        assert histogram.mean == 5.0

    def test_empty_histogram_mean(self):
        assert Histogram().mean == 0.0


class TestHistogramMergeEdgeCases:
    def test_merge_empty_snapshot_is_a_noop(self):
        histogram = Histogram()
        histogram.observe(3.0)
        histogram.merge_dict(Histogram().to_dict())
        assert histogram.to_dict() == {
            "count": 1, "total": 3.0, "min": 3.0, "max": 3.0,
        }

    def test_merge_into_empty_adopts_extremes(self):
        source = Histogram()
        source.observe(2.0)
        source.observe(8.0)
        target = Histogram()
        target.merge_dict(source.to_dict())
        assert target.to_dict() == source.to_dict()

    def test_merge_none_extremes_both_sides(self):
        target = Histogram()
        target.merge_dict({"count": 0, "total": 0.0, "min": None, "max": None})
        assert target.min is None and target.max is None

    def test_merge_legacy_dict_missing_keys(self):
        histogram = Histogram()
        histogram.observe(5.0)
        histogram.merge_dict({})
        assert histogram.count == 1 and histogram.total == 5.0
        histogram.merge_dict({"count": 2})
        assert histogram.count == 3
        assert histogram.min == 5.0 and histogram.max == 5.0


class TestQuantileHistogram:
    def test_empty(self):
        histogram = QuantileHistogram()
        assert histogram.quantile(0.5) == 0.0
        assert histogram.mean == 0.0
        assert histogram.summary()["p999"] == 0.0

    def test_quantile_rejects_out_of_range(self):
        histogram = QuantileHistogram()
        for bad in (0.0, -0.1, 1.5):
            with pytest.raises(ValueError):
                histogram.quantile(bad)

    def test_constant_stream_is_exact(self):
        histogram = QuantileHistogram()
        for _ in range(100):
            histogram.observe(0.125)
        for q in (0.5, 0.95, 0.99, 0.999, 1.0):
            assert histogram.quantile(q) == 0.125

    def test_non_positive_values_counted_separately(self):
        histogram = QuantileHistogram()
        histogram.observe(0.0)
        histogram.observe(-1.0)
        histogram.observe(4.0)
        assert histogram.zero_count == 2
        assert histogram.count == 3
        assert sum(histogram.buckets.values()) == 1
        # Rank 1 and 2 land in the non-positive block -> min covers it.
        assert histogram.quantile(0.5) == -1.0

    def test_extremes_are_exact(self):
        histogram = QuantileHistogram()
        for value in (0.010, 0.020, 0.500):
            histogram.observe(value)
        assert histogram.min == 0.010
        assert histogram.max == 0.500
        assert histogram.quantile(1.0) == 0.500

    def test_to_dict_keys_are_json_stable(self):
        histogram = QuantileHistogram()
        histogram.observe(0.5)
        data = histogram.to_dict()
        assert all(isinstance(k, str) for k in data["buckets"])
        assert pickle.loads(pickle.dumps(data)) == data

    def test_merge_tolerates_sparse_dicts(self):
        histogram = QuantileHistogram()
        histogram.observe(1.5)
        histogram.merge_dict({})
        histogram.merge_dict({"count": 1, "zero_count": 1})
        assert histogram.count == 2
        assert histogram.zero_count == 1


def _true_quantile(samples, q):
    """Exact rank-based quantile matching the sketch's rank rule."""
    ordered = sorted(samples)
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[rank - 1]


def _streams():
    """Deterministic uniform, Zipf-ish, and constant latency streams."""
    rng = random.Random(1989)
    uniform = [rng.uniform(0.001, 2.0) for _ in range(4000)]
    zipf = [0.001 * (1.0 / rng.random()) ** 0.7 for _ in range(4000)]
    constant = [0.042] * 1000
    return {"uniform": uniform, "zipf": zipf, "constant": constant}


class TestQuantileDifferential:
    """The sketch vs the exact quantile, unsharded and merged.

    The contract: the estimate is the upper bound of the bucket
    holding the requested rank, so it is >= the true rank value and
    within one bucket's relative width (``2 ** (1/RESOLUTION)``)
    above it — and merging shards changes *nothing* about the bucket
    counts, so merged quantiles equal unsharded ones exactly.
    """

    WIDTH = 2.0 ** (1.0 / QuantileHistogram.RESOLUTION)

    @pytest.mark.parametrize("name", ["uniform", "zipf", "constant"])
    def test_estimate_within_one_bucket_of_truth(self, name):
        samples = _streams()[name]
        histogram = QuantileHistogram()
        for value in samples:
            histogram.observe(value)
        for q in (0.5, 0.9, 0.95, 0.99, 0.999, 1.0):
            truth = _true_quantile(samples, q)
            estimate = histogram.quantile(q)
            assert truth <= estimate <= truth * self.WIDTH * (1 + 1e-12), (
                f"{name} q={q}: true {truth}, estimate {estimate}"
            )

    @pytest.mark.parametrize("name", ["uniform", "zipf", "constant"])
    @pytest.mark.parametrize("shards", [2, 3, 7])
    def test_merged_equals_unsharded(self, name, shards):
        samples = _streams()[name]
        unsharded = QuantileHistogram()
        for value in samples:
            unsharded.observe(value)
        merged = QuantileHistogram()
        for shard_index in range(shards):
            worker = QuantileHistogram()
            for value in samples[shard_index::shards]:
                worker.observe(value)
            merged.merge_dict(worker.to_dict())
        assert merged.count == unsharded.count
        assert merged.zero_count == unsharded.zero_count
        assert merged.buckets == unsharded.buckets
        assert merged.min == unsharded.min
        assert merged.max == unsharded.max
        # Only the float total depends on summation order.
        assert merged.total == pytest.approx(unsharded.total)
        for q in (0.5, 0.9, 0.95, 0.99, 0.999, 1.0):
            assert merged.quantile(q) == unsharded.quantile(q)

    def test_merge_is_order_independent(self):
        samples = _streams()["uniform"]
        parts = [samples[i::3] for i in range(3)]
        dicts = []
        for part in parts:
            worker = QuantileHistogram()
            for value in part:
                worker.observe(value)
            dicts.append(worker.to_dict())
        forward, backward = QuantileHistogram(), QuantileHistogram()
        for data in dicts:
            forward.merge_dict(data)
        for data in reversed(dicts):
            backward.merge_dict(data)
        assert forward.buckets == backward.buckets
        assert forward.summary()["p99"] == backward.summary()["p99"]


class TestRegistry:
    def test_get_or_create_returns_same_instrument(self):
        registry = MetricsRegistry()
        assert registry.counter("x") is registry.counter("x")
        assert registry.gauge("g") is registry.gauge("g")
        assert registry.histogram("h") is registry.histogram("h")

    def test_snapshot_is_plain_and_picklable(self):
        registry = MetricsRegistry()
        registry.counter("engine.accesses").inc(10)
        registry.gauge("engine.channels").set(3)
        registry.histogram("miss_stream.capture_seconds").observe(0.5)
        snapshot = registry.snapshot()
        assert pickle.loads(pickle.dumps(snapshot)) == snapshot
        assert snapshot["counters"] == {"engine.accesses": 10}
        assert snapshot["gauges"] == {"engine.channels": 3}
        assert snapshot["histograms"]["miss_stream.capture_seconds"]["count"] == 1

    def test_merge_counters_is_exact_addition(self):
        shards = []
        for amount in (3, 5, 9):
            registry = MetricsRegistry()
            registry.counter("engine.accesses").inc(amount)
            shards.append(registry.snapshot())
        merged = MetricsRegistry()
        for snapshot in shards:
            merged.merge_snapshot(snapshot)
        assert merged.counter("engine.accesses").value == 17

    def test_merge_order_independent_for_counters_and_histograms(self):
        a = MetricsRegistry()
        a.counter("c").inc(2)
        a.histogram("h").observe(1.0)
        b = MetricsRegistry()
        b.counter("c").inc(5)
        b.histogram("h").observe(4.0)
        ab = MetricsRegistry()
        ab.merge_snapshot(a.snapshot())
        ab.merge_snapshot(b.snapshot())
        ba = MetricsRegistry()
        ba.merge_snapshot(b.snapshot())
        ba.merge_snapshot(a.snapshot())
        assert (
            ab.snapshot()["counters"] == ba.snapshot()["counters"]
        )
        assert (
            ab.snapshot()["histograms"] == ba.snapshot()["histograms"]
        )

    def test_merge_registry_object(self):
        a = MetricsRegistry()
        a.counter("c").inc(1)
        b = MetricsRegistry()
        b.counter("c").inc(2)
        a.merge(b)
        assert a.counter("c").value == 3

    def test_quantile_histogram_get_or_create_and_snapshot(self):
        registry = MetricsRegistry()
        registry.quantile_histogram("latency.job_seconds").observe(0.5)
        assert registry.quantile_histogram(
            "latency.job_seconds"
        ) is registry.quantile_histogram("latency.job_seconds")
        snapshot = registry.snapshot()
        block = snapshot["quantile_histograms"]["latency.job_seconds"]
        assert block["count"] == 1
        assert pickle.loads(pickle.dumps(snapshot)) == snapshot

    def test_merge_snapshot_folds_quantile_histograms(self):
        a = MetricsRegistry()
        a.quantile_histogram("q").observe(1.0)
        b = MetricsRegistry()
        b.quantile_histogram("q").observe(2.0)
        merged = MetricsRegistry()
        merged.merge_snapshot(a.snapshot())
        merged.merge_snapshot(b.snapshot())
        assert merged.quantile_histogram("q").count == 2
        assert merged.quantile_histogram("q").max == 2.0

    def test_merge_snapshot_tolerates_missing_quantile_block(self):
        registry = MetricsRegistry()
        registry.merge_snapshot(
            {"counters": {"c": 1}, "gauges": {}, "histograms": {}}
        )
        assert registry.counter("c").value == 1

    def test_clear(self):
        registry = MetricsRegistry()
        registry.counter("c").inc()
        registry.clear()
        assert registry.snapshot() == {
            "counters": {}, "gauges": {}, "histograms": {},
            "quantile_histograms": {},
        }


class TestGlobalRegistry:
    def test_set_metrics_swaps_and_restores(self):
        isolated = MetricsRegistry()
        previous = set_metrics(isolated)
        try:
            assert get_metrics() is isolated
        finally:
            set_metrics(previous)
        assert get_metrics() is previous
