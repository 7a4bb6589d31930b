"""Bounded job queue: capacity, watermark hysteresis, drain semantics."""

import threading

import pytest

from repro.errors import ConfigurationError, QueueFullError
from repro.obs.metrics import MetricsRegistry
from repro.service.queue import BoundedJobQueue


def make_queue(**kwargs):
    kwargs.setdefault("metrics", MetricsRegistry())
    return BoundedJobQueue(**kwargs)


class TestBasics:
    def test_fifo_order(self):
        queue = make_queue(capacity=4)
        for item in ("a", "b", "c"):
            queue.offer(item)
        assert [queue.take(0.01) for _ in range(3)] == ["a", "b", "c"]

    def test_take_times_out_empty(self):
        assert make_queue(capacity=1).take(timeout=0.01) is None

    def test_depth_tracks_contents(self):
        queue = make_queue(capacity=4)
        assert queue.depth == 0
        queue.offer("a")
        assert queue.depth == 1
        queue.take(0.01)
        assert queue.depth == 0

    def test_capacity_validated(self):
        with pytest.raises(ConfigurationError):
            make_queue(capacity=0)

    def test_watermarks_validated(self):
        with pytest.raises(ConfigurationError):
            make_queue(capacity=2, high_watermark=3)
        with pytest.raises(ConfigurationError):
            make_queue(capacity=4, high_watermark=2, low_watermark=3)


class TestBackpressure:
    def test_hard_capacity_rejects(self):
        queue = make_queue(capacity=1, high_watermark=1, low_watermark=0)
        queue.offer("a")
        with pytest.raises(QueueFullError):
            queue.offer("b")

    def test_rejection_carries_retry_after(self):
        queue = make_queue(capacity=1, retry_after=2.5)
        queue.offer("a")
        with pytest.raises(QueueFullError) as excinfo:
            queue.offer("b")
        assert excinfo.value.retry_after == 2.5

    def test_shedding_starts_at_high_watermark(self):
        queue = make_queue(capacity=4, high_watermark=2, low_watermark=1)
        queue.offer("a")
        assert not queue.shedding
        queue.offer("b")
        assert queue.shedding
        # Still below hard capacity, but shedding rejects anyway.
        with pytest.raises(QueueFullError):
            queue.offer("c")

    def test_hysteresis_resumes_below_low_watermark(self):
        queue = make_queue(capacity=4, high_watermark=2, low_watermark=1)
        queue.offer("a")
        queue.offer("b")
        assert queue.shedding
        queue.take(0.01)  # depth 1 == low watermark -> shedding clears
        assert not queue.shedding
        queue.offer("c")  # accepted again
        assert queue.depth == 2

    def test_shed_transition_counted_once(self):
        metrics = MetricsRegistry()
        queue = make_queue(
            capacity=4, high_watermark=2, low_watermark=0, metrics=metrics
        )
        queue.offer("a")
        queue.offer("b")
        with pytest.raises(QueueFullError):
            queue.offer("c")
        snapshot = metrics.snapshot()
        assert snapshot["counters"]["service.queue.shed_transitions"] == 1
        assert snapshot["counters"]["service.queue.rejected"] == 1
        assert snapshot["counters"]["service.queue.accepted"] == 2


class TestDrain:
    def test_closed_queue_rejects_offers(self):
        queue = make_queue(capacity=4)
        queue.close()
        with pytest.raises(QueueFullError):
            queue.offer("a")

    def test_closed_queue_still_drains_backlog(self):
        queue = make_queue(capacity=4)
        queue.offer("a")
        queue.offer("b")
        queue.close()
        assert queue.take(0.01) == "a"
        assert queue.take(0.01) == "b"
        assert queue.take(0.01) is None

    def test_close_wakes_blocked_taker(self):
        queue = make_queue(capacity=4)
        seen = []

        def taker():
            seen.append(queue.take(timeout=5.0))

        thread = threading.Thread(target=taker)
        thread.start()
        queue.close()
        thread.join(timeout=2.0)
        assert not thread.is_alive()
        assert seen == [None]


class TestRequeue:
    def test_requeue_goes_to_front(self):
        queue = make_queue(capacity=4)
        queue.offer("a")
        queue.offer("b")
        first = queue.take(0.01)
        queue.requeue(first)
        assert queue.take(0.01) == "a"

    def test_requeue_bypasses_shedding_and_capacity(self):
        queue = make_queue(capacity=1, high_watermark=1, low_watermark=0)
        queue.offer("a")
        item = queue.take(0.01)
        queue.offer("b")  # back at capacity
        queue.requeue(item)  # accepted work is never dropped
        assert queue.depth == 2
        assert queue.take(0.01) == "a"


class TestSnapshot:
    def test_snapshot_fields(self):
        queue = make_queue(capacity=3, high_watermark=2, low_watermark=1)
        queue.offer("a")
        snapshot = queue.snapshot()
        assert snapshot == {
            "depth": 1,
            "capacity": 3,
            "high_watermark": 2,
            "low_watermark": 1,
            "shedding": False,
            "closed": False,
        }


class TestRetryAfter:
    def reject_hint(self, queue):
        with pytest.raises(QueueFullError) as excinfo:
            queue.offer("overflow")
        return excinfo.value.retry_after

    def test_rejections_quote_exact_base(self):
        queue = make_queue(capacity=1, retry_after=2.5)
        queue.offer("a")
        assert [self.reject_hint(queue) for _ in range(5)] == [2.5] * 5

    def test_draining_rejection_quotes_exact_base(self):
        queue = make_queue(capacity=4, retry_after=2.0)
        queue.close()
        assert self.reject_hint(queue) == 2.0
