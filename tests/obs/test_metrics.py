"""Metrics registry: instruments, snapshots, and exact merging."""

import pickle

import pytest

from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
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

    def test_merge_snapshot_ignores_unknown_blocks(self):
        # A block this registry does not know (say, from a snapshot an
        # older version wrote) merges as a no-op.
        registry = MetricsRegistry()
        registry.merge_snapshot(
            {
                "counters": {"c": 1}, "gauges": {}, "histograms": {},
                "retired": {"r": {"count": 1}},
            }
        )
        assert registry.counter("c").value == 1
        assert "retired" not in registry.snapshot()

    def test_clear(self):
        registry = MetricsRegistry()
        registry.counter("c").inc()
        registry.clear()
        assert registry.snapshot() == {
            "counters": {}, "gauges": {}, "histograms": {},
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
