"""Two-level cache hierarchy and miss-stream capture/replay.

:class:`TwoLevelHierarchy` wires a direct-mapped L1 to a
set-associative L2 with the paper's protocol: read-in first, then
write-back of the dirty victim; flush references cold-start both
levels.

Because the L1 is independent of every L2 parameter under study, the
L1 pass can be done once per L1 configuration and its *miss stream*
(the sequence of read-in/write-back requests plus flush markers)
replayed into many instrumented L2 configurations. This is what makes
the full Table 4 sweep affordable.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Tuple

from repro.cache.direct_mapped import DirectMappedCache, MemoryRequest, RequestKind
from repro.cache.set_associative import SetAssociativeCache
from repro.cache.stats import HierarchyStats
from repro.cache.stream import PackedMissStream
from repro.obs.metrics import get_metrics
from repro.obs.spans import span
from repro.trace.reference import Reference


#: Sentinel in a miss stream marking a cold-start flush boundary.
FLUSH_MARKER: Tuple[int, int] = (-1, -1)

_KIND_CODES = {RequestKind.READ_IN: 0, RequestKind.WRITE_BACK: 1}
_CODE_KINDS = {0: RequestKind.READ_IN, 1: RequestKind.WRITE_BACK}


@dataclass
class MissStream:
    """A captured L1 request stream, replayable into any L2.

    Events are ``(kind_code, address)`` tuples, with
    :data:`FLUSH_MARKER` standing for a flush boundary. Also records
    how many processor references produced the stream, so global miss
    ratios can be computed after replay.
    """

    events: List[Tuple[int, int]] = field(default_factory=list)
    processor_references: int = 0
    #: Cached (readins, writebacks, events counted) — both kind counts
    #: are computed in one pass and invalidated whenever the event list
    #: grows (appends through the methods below or directly).
    _counts: Optional[Tuple[int, int, int]] = field(
        default=None, init=False, repr=False, compare=False
    )

    def append(self, request: MemoryRequest) -> None:
        """Record one L1 request."""
        self.events.append((_KIND_CODES[request.kind], request.address))

    def append_flush(self) -> None:
        """Record a cold-start boundary."""
        self.events.append(FLUSH_MARKER)

    def _recount(self) -> None:
        if self._counts is not None and self._counts[2] == len(self.events):
            return
        readins = writebacks = 0
        for code, _ in self.events:
            if code == 0:
                readins += 1
            elif code == 1:
                writebacks += 1
        self._counts = (readins, writebacks, len(self.events))

    @property
    def readins(self) -> int:
        """Number of read-in events (one cached pass for both kinds)."""
        self._recount()
        return self._counts[0]

    @property
    def writebacks(self) -> int:
        """Number of write-back events (one cached pass for both kinds)."""
        self._recount()
        return self._counts[1]

    def __len__(self) -> int:
        return len(self.events)

    def save(self, path) -> None:
        """Persist the stream to ``path`` as RPM2 (gzip if it ends ``.gz``).

        Capturing an L1 miss stream is the expensive step of large
        studies; saving it lets many later sessions replay it into new
        L2 configurations without rerunning the L1. The file is the
        one written by :meth:`PackedMissStream.save`.
        """
        PackedMissStream.from_miss_stream(self).save(path)

    @classmethod
    def load(cls, path) -> "MissStream":
        """Load a stream written by :meth:`save` (or a legacy RPMS file).

        Raises:
            TraceFormatError: On a bad header or truncated file.
        """
        return PackedMissStream.load(path, mmap=False).to_miss_stream()


@dataclass
class InclusionStats:
    """Counters for inclusion enforcement and write-back hints."""

    #: L1 blocks dropped because their enclosing L2 block was evicted.
    back_invalidations: int = 0
    #: Back-invalidated L1 blocks that were dirty (their data is
    #: forwarded straight to memory).
    dirty_back_invalidations: int = 0
    #: Write-backs whose retained position indicator was consulted.
    hints_consulted: int = 0
    #: ... and pointed at the block's actual L2 frame.
    hints_correct: int = 0
    #: ... and were wrong (the block had left the L2 — impossible when
    #: inclusion is enforced).
    hints_wrong: int = 0

    @property
    def hint_accuracy(self) -> float:
        """Fraction of consulted hints that were correct."""
        if self.hints_consulted == 0:
            return 0.0
        return self.hints_correct / self.hints_consulted


class TwoLevelHierarchy:
    """Direct-mapped L1 over a set-associative L2 (paper Table 3).

    Args:
        l1, l2: The two cache levels.
        enforce_inclusion: When True, an L2 eviction back-invalidates
            every L1 block it covers, maintaining multi-level
            inclusion [Baer88]. Dirty L1 copies lost this way are
            counted as forced memory write-backs. The paper does not
            enforce inclusion but monitors how nearly it holds; both
            modes are supported.
        track_writeback_hints: When True, models the write-back
            optimization's bookkeeping explicitly: on each read-in the
            L1 retains a ``log2(a)``-bit indicator of the L2 frame the
            block landed in, and each write-back checks it. With
            inclusion enforced the hint is always correct; without,
            the accuracy measures how safe the "hint" variant is.
            Hints are keyed per L1 *set index*, which is exact for the
            paper's direct-mapped L1 (one block per line); with a
            set-associative L1 only the most recent fill per set is
            tracked.
    """

    def __init__(
        self,
        l1: DirectMappedCache,
        l2: SetAssociativeCache,
        enforce_inclusion: bool = False,
        track_writeback_hints: bool = False,
    ) -> None:
        if l2.block_size < l1.block_size:
            # A smaller L2 block could not hold an L1 write-back.
            raise ValueError(
                f"L2 block size {l2.block_size} smaller than L1 block "
                f"size {l1.block_size}"
            )
        self.l1 = l1
        self.l2 = l2
        self.stats = HierarchyStats(l1=l1.stats, l2=l2.stats)
        self.enforce_inclusion = enforce_inclusion
        self.inclusion = InclusionStats()
        self._hints = {} if track_writeback_hints else None
        if enforce_inclusion:
            l2.eviction_listener = self._on_l2_eviction

    def access(self, ref: Reference) -> None:
        """Service one processor reference (or flush sentinel)."""
        if ref.is_flush:
            self.flush()
            return
        self.stats.processor_references += 1
        requests = self.l1.access(ref)
        pending_hint = None
        for request in requests:
            hit = self.l2.request(request)
            if self._hints is None:
                continue
            line = self.l1.mapper.set_index(request.address)
            if request.kind is RequestKind.READ_IN:
                # Record after the whole batch: the victim write-back
                # (issued second) must still see its own hint.
                frame = self.l2.locate(request.address)
                pending_hint = (line, request.address, frame)
            else:
                self._consult_hint(line, request.address, hit)
        if pending_hint is not None:
            line, address, frame = pending_hint
            self._hints[line] = (address, frame)

    def _consult_hint(self, line: int, address: int, l2_hit: bool) -> None:
        entry = self._hints.pop(line, None)
        if entry is None or entry[0] != address:
            return
        self.inclusion.hints_consulted += 1
        if l2_hit and self.l2.locate(address) == entry[1]:
            self.inclusion.hints_correct += 1
        else:
            self.inclusion.hints_wrong += 1

    def _on_l2_eviction(self, address: int, was_dirty: bool) -> None:
        """Back-invalidate every L1 block inside the evicted L2 block."""
        for offset in range(0, self.l2.block_size, self.l1.block_size):
            sub_address = address + offset
            dropped = self.l1.invalidate(sub_address)
            if dropped is None:
                continue
            self.inclusion.back_invalidations += 1
            if dropped:
                self.inclusion.dirty_back_invalidations += 1
            if self._hints is not None:
                line = self.l1.mapper.set_index(sub_address)
                entry = self._hints.get(line)
                if entry is not None and entry[0] == sub_address:
                    del self._hints[line]

    def run(self, trace: Iterable[Reference]) -> HierarchyStats:
        """Service an entire trace and return the hierarchy statistics."""
        for ref in trace:
            self.access(ref)
        return self.stats

    def flush(self) -> None:
        """Cold-start both levels (no write-back traffic), as between
        the paper's 23 concatenated traces."""
        self.l1.invalidate_all()
        self.l2.invalidate_all()
        if self._hints is not None:
            self._hints.clear()

    def inclusion_holds(self) -> bool:
        """Check multi-level inclusion: every L1 block resident in L2.

        The paper does not enforce inclusion but monitors how nearly it
        holds; this is the checking primitive (used by tests and the
        inclusion diagnostics).
        """
        for address in self.l1.resident_addresses():
            if not self.l2.contains(address):
                return False
        return True


def capture_miss_stream(
    trace: Iterable[Reference], l1: DirectMappedCache
) -> MissStream:
    """Run ``trace`` through ``l1`` alone, recording its request stream."""
    stream = MissStream()
    for ref in trace:
        if ref.is_flush:
            l1.invalidate_all()
            stream.append_flush()
            continue
        stream.processor_references += 1
        for request in l1.access(ref):
            stream.append(request)
    return stream


#: Process-wide miss-stream cache, content-addressed by
#: (workload identity, L1 capacity, L1 block size). Values are
#: (stream, L1 read-in miss ratio) pairs.
_MISS_STREAM_CACHE: Dict[tuple, Tuple[MissStream, float]] = {}


def _workload_key(workload) -> tuple:
    """Content address for a workload.

    Uses the workload's own ``cache_key()`` when it provides one
    (:class:`~repro.trace.synthetic.AtumWorkload` does — seed, segment
    structure, and model parameters); otherwise falls back to object
    identity, which still deduplicates repeated captures of the same
    instance.
    """
    cache_key = getattr(workload, "cache_key", None)
    if cache_key is not None:
        return (type(workload).__qualname__,) + tuple(cache_key())
    return ("id", id(workload))


def cached_miss_stream(
    workload, capacity_bytes: int, block_size: int
) -> Tuple[MissStream, float]:
    """Captured L1 request stream for ``workload``, memoized process-wide.

    The L1 pass is the expensive, L2-independent step of every sweep;
    this keys captured streams by (workload identity, L1 geometry) so
    L2-only sweeps — even across independent
    :class:`~repro.experiments.runner.ExperimentRunner` instances —
    never re-simulate the L1 for a workload they have already seen.

    When a stream artifact store is configured
    (``REPRO_STREAM_ARTIFACTS`` or
    :func:`repro.cache.artifacts.set_artifact_store`), an in-process
    miss is looked up there before capturing, and a fresh capture is
    persisted as a content-addressed ``RPM2`` artifact, so later
    processes (sweep workers, ``repro-serve`` jobs, new sessions) load
    it instead of re-simulating the L1.

    Cache behavior is published to the process metrics registry
    (``miss_stream.cache_hits`` / ``miss_stream.cache_misses``, and
    ``miss_stream.artifact_hits`` / ``miss_stream.artifact_misses``
    when a store is configured), and each capture — the expensive
    phase — runs under an ``l1_capture`` tracing span with its wall
    time recorded in the ``miss_stream.capture_seconds`` histogram.
    Instrumentation wraps the whole capture, never the per-reference
    loop.

    Returns:
        ``(stream, l1_readin_miss_ratio)``. The stream is shared;
        callers must treat it as immutable.
    """
    from repro.cache.artifacts import get_artifact_store

    key = (_workload_key(workload), capacity_bytes, block_size)
    entry = _MISS_STREAM_CACHE.get(key)
    metrics = get_metrics()
    if entry is not None:
        metrics.counter("miss_stream.cache_hits").inc()
        return entry
    metrics.counter("miss_stream.cache_misses").inc()
    store = get_artifact_store()
    if store is not None:
        loaded = store.load(workload, capacity_bytes, block_size)
        if loaded is not None:
            metrics.counter("miss_stream.artifact_hits").inc()
            packed, miss_ratio = loaded
            entry = (packed.to_miss_stream(), miss_ratio)
            _MISS_STREAM_CACHE[key] = entry
            return entry
        metrics.counter("miss_stream.artifact_misses").inc()
    l1 = DirectMappedCache(capacity_bytes, block_size)
    start = time.perf_counter()
    with span(
        "l1_capture", capacity_bytes=capacity_bytes, block_size=block_size
    ):
        stream = capture_miss_stream(iter(workload), l1)
    metrics.histogram("miss_stream.capture_seconds").observe(
        time.perf_counter() - start
    )
    miss_ratio = l1.stats.readin_miss_ratio
    entry = (stream, miss_ratio)
    _MISS_STREAM_CACHE[key] = entry
    if store is not None:
        store.save(
            workload, capacity_bytes, block_size,
            PackedMissStream.from_miss_stream(stream), miss_ratio,
        )
    return entry


def clear_miss_stream_cache() -> None:
    """Drop every memoized miss stream (frees the captured traces)."""
    _MISS_STREAM_CACHE.clear()


def replay_miss_stream(stream: MissStream, l2: SetAssociativeCache) -> None:
    """Feed a captured miss stream into an (instrumented) L2 cache."""
    for code, address in stream.events:
        if (code, address) == FLUSH_MARKER:
            l2.invalidate_all()
            continue
        if code == 0:
            l2.read_in(address)
        else:
            l2.write_back(address)
