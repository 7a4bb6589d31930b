"""Set-associative level-two cache with probe instrumentation.

Services read-in and write-back requests from the level-one cache
(Table 3). Replacement is true LRU by default; attached observers
compute, per access, how many probes each lookup implementation would
have spent — all from the same single simulation pass.

Two instrumentation paths are supported:

- *legacy observers* (:meth:`SetAssociativeCache.attach`): each
  observer receives an immutable :class:`~repro.core.probes.SetView`
  snapshot per access and runs its own lookup — the reference
  implementation;
- the *fused engine* (:meth:`SetAssociativeCache.attach_engine`): a
  :class:`~repro.core.engine.FusedProbeEngine` reads the live set state
  zero-copy and derives every scheme's probe count from shared lookup
  facts, bit-identically to the observers but many times faster.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Union

from repro.cache.address import AddressMapper
from repro.cache.direct_mapped import MemoryRequest, RequestKind
from repro.cache.replacement import ReplacementPolicy, make_replacement
from repro.cache.set_state import CacheSet
from repro.cache.stats import CacheStats
from repro.errors import ConfigurationError


class SetAssociativeCache:
    """An ``a``-way set-associative write-back cache.

    Args:
        capacity_bytes: Total data capacity.
        block_size: Block size in bytes (power of two).
        associativity: Set size ``a`` (power of two).
        replacement: Policy instance or registry name (default ``lru``).
    """

    def __init__(
        self,
        capacity_bytes: int,
        block_size: int,
        associativity: int,
        replacement: Union[ReplacementPolicy, str] = "lru",
    ) -> None:
        if associativity <= 0 or associativity & (associativity - 1):
            raise ConfigurationError(
                f"associativity must be a positive power of two, got {associativity}"
            )
        blocks = capacity_bytes // block_size
        if blocks * block_size != capacity_bytes:
            raise ConfigurationError(
                f"capacity {capacity_bytes} is not a multiple of block size {block_size}"
            )
        if blocks % associativity:
            raise ConfigurationError(
                f"{blocks} blocks do not divide into {associativity}-way sets"
            )
        num_sets = blocks // associativity
        self.capacity_bytes = capacity_bytes
        self.block_size = block_size
        self.associativity = associativity
        self.mapper = AddressMapper(block_size, num_sets)
        self.sets = [CacheSet(associativity) for _ in range(num_sets)]
        if isinstance(replacement, str):
            replacement = make_replacement(replacement)
        self.replacement = replacement
        self.stats = CacheStats()
        self.observers: List = []
        #: Optional fused probe-accounting engine (zero-copy fast path).
        self.engine = None
        #: Optional callable invoked with (block_address, was_dirty)
        #: whenever a valid block is evicted — the hook the hierarchy
        #: uses to enforce multi-level inclusion (back-invalidation).
        self.eviction_listener = None

    @property
    def num_sets(self) -> int:
        """Number of sets."""
        return len(self.sets)

    def attach(self, observer) -> None:
        """Attach a probe observer (see :mod:`repro.cache.observers`)."""
        self.observers.append(observer)

    def attach_all(self, observers: Iterable) -> None:
        """Attach several probe observers at once."""
        for observer in observers:
            self.attach(observer)

    def attach_engine(self, engine) -> None:
        """Attach a :class:`~repro.core.engine.FusedProbeEngine`.

        The engine sees the live (pre-update) set state by reference —
        no per-access snapshot — plus the ground-truth hit frame the
        cache computes anyway, and accounts every registered scheme
        from those shared facts.
        """
        if engine.associativity != self.associativity:
            raise ConfigurationError(
                f"engine for associativity {engine.associativity} attached "
                f"to a {self.associativity}-way cache"
            )
        if self.engine is not None:
            raise ConfigurationError("an engine is already attached")
        self.engine = engine

    def request(self, req: MemoryRequest) -> bool:
        """Service one L1 request; return True on a hit."""
        if req.kind is RequestKind.READ_IN:
            return self.read_in(req.address)
        return self.write_back(req.address)

    def read_in(self, address: int) -> bool:
        """Service a read-in request; returns True on a hit.

        On a miss the LRU victim is evicted (an invalid frame is filled
        first) and the block installed clean.
        """
        index, tag = self.mapper.split(address)
        cache_set = self.sets[index]
        frame = cache_set.find(tag)
        engine = self.engine
        if engine is not None:
            # Zero-copy: the engine borrows the set's internal state.
            engine.observe(cache_set._tags, cache_set._mru, tag, False, frame)
        if self.observers:
            self._notify(cache_set, tag, RequestKind.READ_IN)
        if frame is not None:
            self.stats.readin_hits += 1
            cache_set.touch(frame)
            return True

        self.stats.readin_misses += 1
        self._fill(index, tag, dirty=False)
        return False

    def write_back(self, address: int) -> bool:
        """Service a write-back from the L1; returns True on a hit.

        A hit dirties the block and refreshes its recency (the paper:
        write-backs "update the MRU list, determining the replacement
        policy"). Inclusion is not enforced, so a write-back can miss;
        the block is then allocated dirty.
        """
        index, tag = self.mapper.split(address)
        cache_set = self.sets[index]
        frame = cache_set.find(tag)
        engine = self.engine
        if engine is not None:
            engine.observe(cache_set._tags, cache_set._mru, tag, True, frame)
        if self.observers:
            self._notify(cache_set, tag, RequestKind.WRITE_BACK)
        if frame is not None:
            self.stats.writeback_hits += 1
            cache_set.set_dirty(frame)
            cache_set.touch(frame)
            return True

        self.stats.writeback_misses += 1
        self._fill(index, tag, dirty=True)
        return False

    def contains(self, address: int) -> bool:
        """Whether the block holding ``address`` is resident."""
        index, tag = self.mapper.split(address)
        return self.sets[index].find(tag) is not None

    def locate(self, address: int) -> Optional[int]:
        """Frame index holding ``address``'s block, or ``None``.

        Used for the paper's write-back optimization: the L1 retains a
        ``log2(a)``-bit indicator of the frame its block occupies in
        the L2 (blocks never change frames once loaded).
        """
        index, tag = self.mapper.split(address)
        return self.sets[index].find(tag)

    def invalidate(self, address: int) -> bool:
        """Drop the block holding ``address`` (no write-back traffic).

        Models a coherency invalidation arriving at this cache.
        Returns True if the block was resident.
        """
        index, tag = self.mapper.split(address)
        frame = self.sets[index].find(tag)
        if frame is None:
            return False
        self.sets[index].invalidate(frame)
        return True

    def invalidate_all(self) -> None:
        """Flush every set without write-backs (cold-start boundary).

        After the flush the cache is indistinguishable from a freshly
        constructed one: set state, tag indices, and the replacement
        policy's fill randomness are all restored to their cold state,
        so every cold-start segment of a replay starts exactly as a
        fresh cache would.
        """
        for cache_set in self.sets:
            cache_set.invalidate_all()
        self.replacement.reset()

    def _fill(self, set_index: int, tag: int, dirty: bool) -> None:
        cache_set = self.sets[set_index]
        victim = self.replacement.victim(cache_set)
        victim_tag = cache_set.tag_at(victim)
        if victim_tag is not None:
            self.stats.evictions += 1
            victim_dirty = cache_set.is_dirty(victim)
            if victim_dirty:
                self.stats.dirty_evictions += 1
            if self.eviction_listener is not None:
                address = self.mapper.rebuild(set_index, victim_tag)
                self.eviction_listener(address, victim_dirty)
        cache_set.install(victim, tag, dirty=dirty)

    def _notify(self, cache_set: CacheSet, tag: int, kind: RequestKind) -> None:
        if not self.observers:
            return
        view = cache_set.view()
        for observer in self.observers:
            observer.observe(view, tag, kind)

    def __repr__(self) -> str:
        return (
            f"SetAssociativeCache(capacity_bytes={self.capacity_bytes}, "
            f"block_size={self.block_size}, "
            f"associativity={self.associativity})"
        )
