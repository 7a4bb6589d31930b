"""Columnar packed miss streams.

A captured L1 miss stream is the unit of reuse across every L2 sweep:
one stream is replayed into dozens of instrumented configurations.
:class:`PackedMissStream` is its one representation, stored columnar
rather than as one heap object per event:

- a **codes** column (one unsigned byte per event: 0 = read-in,
  1 = write-back),
- an **addresses** column (one unsigned 64-bit word per event),
- a **flush-offsets** index (for each cold-start boundary, the number
  of events that precede it — flushes are *not* inline sentinels).

Columns are stdlib :class:`array.array` buffers, and every reader
walks them one cold-start segment at a time
(:meth:`PackedMissStream.segments`). A stream lives in memory only:
:func:`repro.cache.hierarchy.cached_miss_stream` memoizes each capture
process-wide, and sweep workers forked after the capture inherit it.
"""

from __future__ import annotations

import struct
import sys
from array import array
from typing import Iterator, Optional, Tuple


class PackedMissStream:
    """A captured L1 request stream in packed columnar form.

    Capture appends to it; once memoized it is shared, and readers
    treat it as immutable.
    """

    __slots__ = (
        "_codes", "_addresses", "_flushes", "processor_references",
        "_counts",
    )

    def __init__(self) -> None:
        self._codes = array("B")
        self._addresses = array("Q")
        self._flushes = array("Q")
        self.processor_references = 0
        # (readins, writebacks, counted_events) — see the properties.
        self._counts: Optional[Tuple[int, int, int]] = None

    # ------------------------------------------------------------------
    # Introspection

    @property
    def codes(self):
        """The codes column (``array('B')``)."""
        return self._codes

    @property
    def addresses(self):
        """The addresses column (``array('Q')``)."""
        return self._addresses

    @property
    def flush_offsets(self):
        """Event counts preceding each flush boundary, in order."""
        return self._flushes

    @property
    def n_events(self) -> int:
        """Number of read-in/write-back events (flushes excluded)."""
        return len(self._codes)

    @property
    def n_flushes(self) -> int:
        """Number of cold-start flush boundaries."""
        return len(self._flushes)

    def __len__(self) -> int:
        # Events plus flushes: each flush holds one position of the
        # stream, and run_with_invalidations samples by position.
        return len(self._codes) + len(self._flushes)

    def _recount(self) -> None:
        n = len(self._codes)
        if self._counts is not None and self._counts[2] == n:
            return
        writebacks = sum(self._codes)
        self._counts = (n - writebacks, writebacks, n)

    @property
    def readins(self) -> int:
        """Number of read-in events (one pass, cached)."""
        self._recount()
        return self._counts[0]

    @property
    def writebacks(self) -> int:
        """Number of write-back events (one pass, cached)."""
        self._recount()
        return self._counts[1]

    @property
    def readin_miss_ratio(self) -> float:
        """The L1's read-in miss ratio: its read-ins (one per L1 miss)
        over the processor references (0.0 with no references) — the
        same two counts :attr:`~repro.cache.stats.CacheStats.readin_miss_ratio`
        divides for the L1 that captured the stream."""
        if self.processor_references == 0:
            return 0.0
        return self.readins / self.processor_references

    # ------------------------------------------------------------------
    # Building

    def append(self, code: int, address: int) -> None:
        """Record one event (0 = read-in, 1 = write-back)."""
        self._codes.append(code)
        self._addresses.append(address)
        self._counts = None

    def append_flush(self) -> None:
        """Record a cold-start boundary at the current position."""
        self._flushes.append(len(self._codes))

    @classmethod
    def from_miss_stream(cls, stream) -> "PackedMissStream":
        """Return ``stream`` itself: capture already builds this type.

        An identity kept only because the pipeline benchmark's traced
        mode (``benchmarks/pipeline/child.py``) calls it and times the
        call as ``cache.stream.pack``; delete it with the next change
        to that benchmark.
        """
        return stream

    # ------------------------------------------------------------------
    # Reading

    def segments(self) -> Iterator[Tuple[object, object]]:
        """Yield one ``(codes, addresses)`` window per cold-start segment.

        The windows are cut at each flush offset in order, so there are
        ``n_flushes + 1`` of them; a leading, trailing or back-to-back
        flush yields an empty window. Readers run their flush action
        between consecutive windows. Each window is an ``array`` copy.
        """
        codes = self._codes
        addresses = self._addresses
        start = 0
        for end in self._flushes:
            yield codes[start:end], addresses[start:end]
            start = end
        yield codes[start:], addresses[start:]

    # ------------------------------------------------------------------
    # Identity

    def content_hash(self) -> str:
        """SHA-256 over the packed columns and reference count (hex)."""
        import hashlib

        digest = hashlib.sha256()
        digest.update(struct.pack("<Q", self.processor_references))
        digest.update(bytes(self._codes))
        digest.update(_u64_bytes(self._addresses))
        digest.update(_u64_bytes(self._flushes))
        return digest.hexdigest()

    def __repr__(self) -> str:
        return (
            f"PackedMissStream(events={self.n_events}, "
            f"flushes={self.n_flushes}, "
            f"processor_references={self.processor_references})"
        )


def _u64_bytes(column: array) -> bytes:
    """Little-endian bytes of a u64 column."""
    if sys.byteorder != "little":  # pragma: no cover - big-endian only
        swapped = array("Q", column)
        swapped.byteswap()
        return swapped.tobytes()
    return column.tobytes()
