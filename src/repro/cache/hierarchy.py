"""Two-level cache hierarchy and miss-stream capture/replay.

:class:`TwoLevelHierarchy` wires a direct-mapped L1 to a
set-associative L2 with the paper's protocol: read-in first, then
write-back of the dirty victim; flush references cold-start both
levels.

Because the L1 is independent of every L2 parameter under study, the
L1 pass can be done once per L1 configuration and its *miss stream*
(the sequence of read-in/write-back requests, cut into cold-start
segments at flush offsets: a
:class:`~repro.cache.stream.PackedMissStream`) replayed into many
instrumented L2 configurations. This is what makes the full Table 4
sweep affordable.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, Iterable, Tuple

from repro.cache.associative_l1 import AssociativeL1Cache
from repro.cache.direct_mapped import DirectMappedCache, RequestKind
from repro.cache.hash_rehash import HashRehashCache
from repro.cache.set_associative import SetAssociativeCache
from repro.cache.stats import HierarchyStats
from repro.cache.stream import PackedMissStream
from repro.obs.metrics import get_metrics
from repro.obs.spans import get_tracer
from repro.trace.reference import AccessKind, Reference


_KIND_CODES = {RequestKind.READ_IN: 0, RequestKind.WRITE_BACK: 1}


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
    trace: Iterable, l1: "DirectMappedCache | AssociativeL1Cache"
) -> PackedMissStream:
    """Run ``trace`` through ``l1`` alone, recording its request stream.

    Each item of ``trace`` unpacks as ``(kind, address)``: a
    :class:`~repro.trace.reference.Reference`, or a pair from
    :meth:`~repro.trace.synthetic.AtumWorkload.pairs`. A
    :class:`DirectMappedCache` (the paper's L1) runs the whole trace
    inline (:meth:`DirectMappedCache.capture`); any other L1, such as
    an :class:`AssociativeL1Cache`, goes through its own ``access()``
    one reference at a time.
    """
    stream = PackedMissStream()
    if isinstance(l1, DirectMappedCache):
        l1.capture(trace, stream)
        return stream
    for kind, address in trace:
        if kind is AccessKind.FLUSH:
            l1.invalidate_all()
            stream.append_flush()
            continue
        stream.processor_references += 1
        for request in l1.access(Reference(kind, address)):
            stream.append(_KIND_CODES[request.kind], request.address)
    return stream


#: Process-wide miss-stream cache, content-addressed by
#: (workload identity, L1 capacity, L1 block size). Values are
#: (stream, L1 read-in miss ratio) pairs.
_MISS_STREAM_CACHE: Dict[tuple, Tuple[PackedMissStream, float]] = {}


def cached_miss_stream(
    workload, capacity_bytes: int, block_size: int, tracer=None, metrics=None
) -> Tuple[PackedMissStream, float]:
    """Captured L1 request stream for ``workload``, memoized process-wide.

    The L1 pass is the expensive, L2-independent step of every sweep;
    this keys captured streams by (workload identity, L1 geometry) so
    L2-only sweeps — even across independent
    :class:`~repro.experiments.runner.ExperimentRunner` instances —
    never re-simulate the L1 for a workload they have already seen.
    The memo is the one place a captured stream lives: a sweep captures
    each L1 in the parent before its pool forks, so the workers inherit
    every stream they replay.

    ``workload`` is an :class:`~repro.trace.synthetic.AtumWorkload` (or
    any object with its ``cache_key()`` and ``pairs()``): the key
    content-addresses the stream, and the capture reads the pairs.

    Memo behavior is published to ``metrics`` (default: the process
    metrics registry) as ``miss_stream.cache_hits`` /
    ``miss_stream.cache_misses``, and each capture — the expensive
    phase — runs under an ``l1_capture`` span on ``tracer`` (default:
    the process-global tracer) with its wall time recorded in the
    ``miss_stream.capture_seconds`` histogram. Instrumentation wraps
    the whole capture, never the per-reference loop.

    Returns:
        ``(stream, l1_readin_miss_ratio)``. The stream is shared;
        callers must treat it as immutable.
    """
    key = (
        (type(workload).__qualname__,) + tuple(workload.cache_key()),
        capacity_bytes,
        block_size,
    )
    entry = _MISS_STREAM_CACHE.get(key)
    metrics = metrics if metrics is not None else get_metrics()
    if entry is not None:
        metrics.counter("miss_stream.cache_hits").inc()
        return entry
    metrics.counter("miss_stream.cache_misses").inc()
    tracer = tracer if tracer is not None else get_tracer()
    l1 = DirectMappedCache(capacity_bytes, block_size)
    start = time.perf_counter()
    with tracer.span(
        "l1_capture", capacity_bytes=capacity_bytes, block_size=block_size
    ):
        stream = capture_miss_stream(workload.pairs(), l1)
    metrics.histogram("miss_stream.capture_seconds").observe(
        time.perf_counter() - start
    )
    entry = (stream, l1.stats.readin_miss_ratio)
    _MISS_STREAM_CACHE[key] = entry
    return entry


def clear_miss_stream_cache() -> None:
    """Drop every memoized miss stream (frees the captured traces)."""
    _MISS_STREAM_CACHE.clear()


def replay_miss_stream(
    stream: PackedMissStream, l2: "SetAssociativeCache | HashRehashCache"
) -> None:
    """Feed a captured miss stream into an (instrumented) L2 cache,
    cold-starting it at each flush.

    A :class:`SetAssociativeCache` services each cold-start segment in
    one loop (:meth:`SetAssociativeCache.replay`); any other L2, such
    as a :class:`~repro.cache.hash_rehash.HashRehashCache`, gets one
    ``read_in`` or ``write_back`` call per request.
    """
    inline = isinstance(l2, SetAssociativeCache)
    for index, (codes, addresses) in enumerate(stream.segments()):
        if index:
            l2.invalidate_all()
        if inline:
            l2.replay(codes, addresses)
            continue
        for code, address in zip(codes, addresses):
            if code == 0:
                l2.read_in(address)
            else:
                l2.write_back(address)
