"""Metrics registry: counters, gauges, and histograms, mergeable.

The publishing discipline mirrors the fused engine's accounting: hot
loops touch nothing here; components accumulate privately and publish
*once per phase* (the engine at finalize, a worker at task end). A
registry snapshot is a plain nested dict — picklable, JSON-able — so
worker processes return snapshots alongside their results and the
parent merges them with :meth:`MetricsRegistry.merge_snapshot`:

- counters add,
- gauges keep the last written value,
- histograms combine count/total/min/max.

Deterministic counters (e.g. ``engine.accesses``) therefore merge to
*bit-identical* totals regardless of sharding — the same discipline the
probe differential tests enforce — while timing histograms (e.g.
``miss_stream.capture_seconds``) merge to a faithful distribution.

Metric namespaces, by producing layer:

- ``engine.*`` / ``runner.*`` — simulation and sweep execution;
- ``resilience.*`` — the fault-tolerant executor (retries, pool
  restarts, timeouts).
"""

from __future__ import annotations

from typing import Any, Dict, Optional, Union

Number = Union[int, float]


class Counter:
    """A monotonically increasing count (merges by addition)."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value: Number = 0

    def inc(self, amount: Number = 1) -> None:
        """Add ``amount`` (default 1); negative amounts are rejected."""
        if amount < 0:
            raise ValueError(f"counter increment must be >= 0, got {amount}")
        self.value += amount

    def __repr__(self) -> str:
        return f"Counter(value={self.value})"


class Gauge:
    """A point-in-time value (merges by last-write-wins)."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value: Number = 0

    def set(self, value: Number) -> None:
        """Record the current value."""
        self.value = value

    def __repr__(self) -> str:
        return f"Gauge(value={self.value})"


class Histogram:
    """A streaming summary of observed values: count/total/min/max.

    Deliberately bucket-free: the consumers here need totals and
    extremes (mean is ``total / count``), and four scalars merge
    exactly across any sharding.
    """

    __slots__ = ("count", "total", "min", "max")

    def __init__(self) -> None:
        self.count: int = 0
        self.total: float = 0.0
        self.min: Optional[float] = None
        self.max: Optional[float] = None

    def observe(self, value: Number) -> None:
        """Record one observation."""
        self.count += 1
        self.total += value
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value

    @property
    def mean(self) -> float:
        """Average of the observations so far (0.0 when empty)."""
        if self.count == 0:
            return 0.0
        return self.total / self.count

    def to_dict(self) -> Dict[str, Any]:
        """Plain-dict form used in snapshots."""
        return {
            "count": self.count,
            "total": self.total,
            "min": self.min,
            "max": self.max,
        }

    def merge_dict(self, data: Dict[str, Any]) -> None:
        """Fold a snapshot dict of another histogram into this one.

        Tolerates sparse/legacy dicts: missing ``count``/``total``
        merge as zero and missing or ``None`` ``min``/``max`` leave
        this side's extremes alone, so a snapshot from an older worker
        (or an empty one) merges as a no-op rather than a ``KeyError``.
        """
        self.count += data.get("count", 0)
        self.total += data.get("total", 0.0)
        for key, better in (("min", min), ("max", max)):
            other = data.get(key)
            if other is None:
                continue
            mine = getattr(self, key)
            setattr(self, key, other if mine is None else better(mine, other))

    def __repr__(self) -> str:
        return f"Histogram(count={self.count}, total={self.total})"


class MetricsRegistry:
    """Named counters, gauges, and histograms for one process/phase.

    Instruments are created on first use (``registry.counter("x")``),
    so publishers never pre-register. Names are conventionally
    dotted component paths: ``engine.accesses``,
    ``miss_stream.cache_hits``, ``miss_stream.capture_seconds``.
    """

    def __init__(self) -> None:
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._histograms: Dict[str, Histogram] = {}

    def counter(self, name: str) -> Counter:
        """The counter registered under ``name`` (created on first use)."""
        instrument = self._counters.get(name)
        if instrument is None:
            instrument = self._counters[name] = Counter()
        return instrument

    def gauge(self, name: str) -> Gauge:
        """The gauge registered under ``name`` (created on first use)."""
        instrument = self._gauges.get(name)
        if instrument is None:
            instrument = self._gauges[name] = Gauge()
        return instrument

    def histogram(self, name: str) -> Histogram:
        """The histogram registered under ``name`` (created on first use)."""
        instrument = self._histograms.get(name)
        if instrument is None:
            instrument = self._histograms[name] = Histogram()
        return instrument

    def snapshot(self) -> Dict[str, Any]:
        """Plain-dict copy of every instrument — picklable and JSON-able.

        Shape::

            {"counters":   {name: value},
             "gauges":     {name: value},
             "histograms": {name: {"count", "total", "min", "max"}}}
        """
        return {
            "counters": {n: c.value for n, c in sorted(self._counters.items())},
            "gauges": {n: g.value for n, g in sorted(self._gauges.items())},
            "histograms": {
                n: h.to_dict() for n, h in sorted(self._histograms.items())
            },
        }

    def merge_snapshot(self, snapshot: Dict[str, Any]) -> None:
        """Fold a :meth:`snapshot` (e.g. from a worker) into this registry.

        Counters add, gauges take the snapshot's value, histograms
        combine — so merging N shard snapshots in any order yields the
        same counters as one unsharded run.
        """
        for name, value in snapshot.get("counters", {}).items():
            self.counter(name).value += value
        for name, value in snapshot.get("gauges", {}).items():
            self.gauge(name).set(value)
        for name, data in snapshot.get("histograms", {}).items():
            self.histogram(name).merge_dict(data)

    def merge(self, other: "MetricsRegistry") -> None:
        """Fold another registry into this one (via its snapshot)."""
        self.merge_snapshot(other.snapshot())

    def clear(self) -> None:
        """Drop every instrument."""
        self._counters.clear()
        self._gauges.clear()
        self._histograms.clear()

    def __repr__(self) -> str:
        return (
            f"MetricsRegistry(counters={len(self._counters)}, "
            f"gauges={len(self._gauges)}, "
            f"histograms={len(self._histograms)})"
        )


#: The process-global registry default publishers write into.
_GLOBAL_REGISTRY = MetricsRegistry()


def get_metrics() -> MetricsRegistry:
    """The process-global :class:`MetricsRegistry`."""
    return _GLOBAL_REGISTRY


def set_metrics(registry: MetricsRegistry) -> MetricsRegistry:
    """Swap the process-global registry; returns the previous one.

    Intended for tests and embedders that need isolated metrics.
    """
    global _GLOBAL_REGISTRY
    previous = _GLOBAL_REGISTRY
    _GLOBAL_REGISTRY = registry
    return previous
