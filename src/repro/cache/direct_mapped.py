"""Direct-mapped write-back level-one cache (paper Table 3).

On a miss that replaces a dirty block, the new block is first obtained
via a *read-in* request and then a *write-back* of the victim is issued
to the level-two cache — in that order, as Table 3 specifies. The
cache is write-allocate: a store miss fetches the block and then dirties
it.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Iterable, List, Optional

from repro.cache.address import AddressMapper
from repro.cache.stats import CacheStats
from repro.cache.stream import PackedMissStream
from repro.errors import ConfigurationError
from repro.trace.reference import AccessKind, Reference


class RequestKind(Enum):
    """Request types the level-one cache issues to the level below."""

    READ_IN = "read_in"
    WRITE_BACK = "write_back"


@dataclass(frozen=True)
class MemoryRequest:
    """One request from the level-one cache to the level-two cache.

    ``address`` is the byte address of the first byte of the level-one
    block (level-two geometry may differ; it re-maps the address).
    """

    kind: RequestKind
    address: int


class DirectMappedCache:
    """Direct-mapped, write-back, write-allocate cache."""

    def __init__(self, capacity_bytes: int, block_size: int) -> None:
        if capacity_bytes <= 0 or capacity_bytes % block_size:
            raise ConfigurationError(
                f"capacity {capacity_bytes} is not a multiple of block "
                f"size {block_size}"
            )
        self.capacity_bytes = capacity_bytes
        self.block_size = block_size
        num_lines = capacity_bytes // block_size
        self.mapper = AddressMapper(block_size, num_lines)
        self._tags: List[Optional[int]] = [None] * num_lines
        self._dirty: List[bool] = [False] * num_lines
        self.stats = CacheStats()

    @property
    def num_lines(self) -> int:
        """Number of direct-mapped lines."""
        return len(self._tags)

    def access(self, ref: Reference) -> List[MemoryRequest]:
        """Service one processor reference; return requests for the L2.

        Returns an empty list on a hit; on a miss, a read-in request
        followed (if the victim was dirty) by a write-back request.
        """
        index, tag = self.mapper.split(ref.address)
        if self._tags[index] == tag:
            self.stats.readin_hits += 1
            if ref.kind is AccessKind.STORE:
                self._dirty[index] = True
            return []

        self.stats.readin_misses += 1
        requests = [
            MemoryRequest(RequestKind.READ_IN, self._block_start(ref.address))
        ]
        victim_tag = self._tags[index]
        if victim_tag is not None:
            self.stats.evictions += 1
            if self._dirty[index]:
                self.stats.dirty_evictions += 1
                victim_addr = self.mapper.rebuild(index, victim_tag)
                requests.append(MemoryRequest(RequestKind.WRITE_BACK, victim_addr))
        self._tags[index] = tag
        self._dirty[index] = ref.kind is AccessKind.STORE
        return requests

    def capture(self, trace: Iterable, stream: PackedMissStream) -> None:
        """Run a whole trace through the cache, appending its requests
        to ``stream``'s columns.

        The same protocol as :meth:`access`, inlined over bound locals
        so no per-reference object is built: each item of ``trace``
        unpacks as ``(kind, address)`` (a :class:`Reference` or a
        pair), a FLUSH item cold-starts the cache and records a flush
        offset, and each miss appends its read-in (code 0) and any
        dirty victim's write-back (code 1) straight into the
        :class:`~repro.cache.stream.PackedMissStream` columns. The
        counters reach :attr:`stats` and the stream's
        ``processor_references`` once, at the end.
        """
        tags = self._tags
        dirty = self._dirty
        block_bits = self.mapper.block_bits
        set_bits = self.mapper.set_bits
        mask = self.num_lines - 1
        codes = stream.codes
        append_code = codes.append
        append_address = stream.addresses.append
        flushes = stream.flush_offsets
        store = AccessKind.STORE
        flush = AccessKind.FLUSH
        events = len(codes)
        hits = evictions = dirty_evictions = 0
        for kind, address in trace:
            if kind is flush:
                self.invalidate_all()
                flushes.append(len(codes))
                continue
            block = address >> block_bits
            index = block & mask
            tag = block >> set_bits
            resident = tags[index]
            if resident == tag:
                hits += 1
                if kind is store:
                    dirty[index] = True
                continue
            append_code(0)
            append_address(block << block_bits)
            if resident is not None:
                evictions += 1
                if dirty[index]:
                    dirty_evictions += 1
                    append_code(1)
                    append_address(((resident << set_bits) | index) << block_bits)
            tags[index] = tag
            dirty[index] = kind is store
        misses = len(codes) - events - dirty_evictions
        stats = self.stats
        stats.readin_hits += hits
        stats.readin_misses += misses
        stats.evictions += evictions
        stats.dirty_evictions += dirty_evictions
        stream.processor_references += hits + misses

    def contains(self, address: int) -> bool:
        """Whether the block holding ``address`` is resident."""
        index, tag = self.mapper.split(address)
        return self._tags[index] == tag

    def invalidate(self, address: int) -> Optional[bool]:
        """Drop the block holding ``address`` if resident.

        Returns ``None`` if the block was not resident, otherwise
        whether the dropped copy was dirty (the caller decides what to
        do about the lost write data — e.g. count a forced write-back
        when enforcing multi-level inclusion).
        """
        index, tag = self.mapper.split(address)
        if self._tags[index] != tag:
            return None
        was_dirty = self._dirty[index]
        self._tags[index] = None
        self._dirty[index] = False
        return was_dirty

    def invalidate_all(self) -> None:
        """Flush without write-backs (the paper's cold-start flush)."""
        for index in range(self.num_lines):
            self._tags[index] = None
            self._dirty[index] = False

    def resident_addresses(self) -> List[int]:
        """Block-start addresses of every resident block (inclusion
        checking and diagnostics)."""
        addresses = []
        for index, tag in enumerate(self._tags):
            if tag is not None:
                addresses.append(self.mapper.rebuild(index, tag))
        return addresses

    def _block_start(self, address: int) -> int:
        return (address >> self.mapper.block_bits) << self.mapper.block_bits

    def __repr__(self) -> str:
        return (
            f"DirectMappedCache(capacity_bytes={self.capacity_bytes}, "
            f"block_size={self.block_size})"
        )
