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
sweep affordable. The L1s are independent of each other too, so one
pass over the generated trace captures every L1 a caller asks for
(:func:`capture_miss_streams`).
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, Iterable, List, Sequence, Tuple

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
    inline, as the one batch of a :func:`capture_miss_streams` pass;
    any other L1, such as an :class:`AssociativeL1Cache`, goes through
    its own ``access()`` one reference at a time.
    """
    if isinstance(l1, DirectMappedCache):
        return capture_miss_streams([trace], [l1])[0]
    stream = PackedMissStream()
    for kind, address in trace:
        if kind is AccessKind.FLUSH:
            l1.invalidate_all()
            stream.append_flush()
            continue
        stream.processor_references += 1
        for request in l1.access(Reference(kind, address)):
            stream.append(_KIND_CODES[request.kind], request.address)
    return stream


def capture_miss_streams(
    batches: Iterable[Iterable], l1s: Sequence[DirectMappedCache]
) -> List[PackedMissStream]:
    """Capture every L1 in ``l1s`` in one pass over ``batches``.

    Each batch holds items that unpack as ``(kind, address)``, such as
    the lists :meth:`~repro.trace.synthetic.AtumWorkload.batches`
    yields. Every L1 runs each batch inline
    (:meth:`DirectMappedCache.capture`, which continues from the
    cache's state and appends to its stream's columns in place) before
    the next batch is read, so the trace is generated once however
    many L1s it feeds, and no batch outlives its turn.

    Returns:
        One stream per L1, in the order of ``l1s``, each equal to
        :func:`capture_miss_stream` of the whole trace into that L1.
    """
    streams = [PackedMissStream() for _ in l1s]
    feeds = [(l1.capture, stream) for l1, stream in zip(l1s, streams)]
    for batch in batches:
        for capture, stream in feeds:
            capture(batch, stream)
    return streams


#: Process-wide miss-stream cache, content-addressed by
#: (workload identity, L1 capacity, L1 block size).
_MISS_STREAM_CACHE: Dict[tuple, PackedMissStream] = {}


def cached_miss_streams(
    workload, geometries: Sequence[Tuple[int, int]], tracer=None, metrics=None
) -> List[PackedMissStream]:
    """Captured L1 request streams for ``workload``, memoized
    process-wide: one stream per ``(capacity_bytes, block_size)`` of
    ``geometries``, in order. Each stream carries its L1's read-in miss
    ratio (:attr:`PackedMissStream.readin_miss_ratio`).

    The L1 pass is the expensive, L2-independent step of every sweep;
    this keys captured streams by (workload identity, L1 geometry) so
    L2-only sweeps — even across independent
    :class:`~repro.experiments.runner.ExperimentRunner` instances —
    never re-simulate the L1 for a workload they have already seen.
    The memo is the one place a captured stream lives: a sweep captures
    its L1s in the parent before its pool forks, so the workers inherit
    every stream they replay.

    The geometries the memo lacks are captured together, in one pass
    over ``workload.batches()`` (:func:`capture_miss_streams`). Their
    L1s are built first, so a geometry that makes no valid
    :class:`DirectMappedCache` raises
    :class:`~repro.errors.ConfigurationError` before any capture.
    ``workload`` is an :class:`~repro.trace.synthetic.AtumWorkload` (or
    any object with its ``cache_key()`` and ``batches()``).

    Published to ``metrics`` (default: the process metrics registry):
    ``miss_stream.cache_hits`` / ``miss_stream.cache_misses``, one per
    geometry asked for, and the pass's wall time in the
    ``miss_stream.capture_seconds`` histogram, whose count is thus the
    number of trace passes. Each pass runs under one ``l1_capture``
    span on ``tracer`` (default: the process-global tracer) whose
    ``capacity_bytes`` and ``block_size`` list the L1s it filled.
    Instrumentation wraps the whole pass, never the per-reference loop.

    Returns:
        The streams, in the order of ``geometries``. They are shared;
        callers must treat them as immutable.
    """
    identity = (type(workload).__qualname__,) + tuple(workload.cache_key())
    keys = [(identity, capacity, block) for capacity, block in geometries]
    missing = [key for key in dict.fromkeys(keys) if key not in _MISS_STREAM_CACHE]
    l1s = [DirectMappedCache(capacity, block) for _, capacity, block in missing]
    metrics = metrics if metrics is not None else get_metrics()
    if len(keys) > len(missing):
        metrics.counter("miss_stream.cache_hits").inc(len(keys) - len(missing))
    if missing:
        metrics.counter("miss_stream.cache_misses").inc(len(missing))
        tracer = tracer if tracer is not None else get_tracer()
        start = time.perf_counter()
        with tracer.span(
            "l1_capture",
            capacity_bytes=[l1.capacity_bytes for l1 in l1s],
            block_size=[l1.block_size for l1 in l1s],
        ):
            streams = capture_miss_streams(workload.batches(), l1s)
        metrics.histogram("miss_stream.capture_seconds").observe(
            time.perf_counter() - start
        )
        _MISS_STREAM_CACHE.update(zip(missing, streams))
    return [_MISS_STREAM_CACHE[key] for key in keys]


def cached_miss_stream(
    workload, capacity_bytes: int, block_size: int, tracer=None, metrics=None
) -> PackedMissStream:
    """:func:`cached_miss_streams` for one L1 geometry: its stream."""
    return cached_miss_streams(
        workload, [(capacity_bytes, block_size)], tracer=tracer, metrics=metrics
    )[0]


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
