"""Set-associative level-two cache with probe instrumentation.

Services read-in and write-back requests from the level-one cache
(Table 3). Replacement is true LRU by default; attached observers
compute, per access, how many probes each lookup implementation would
have spent — all from the same single simulation pass.

Two ways in:

- :meth:`SetAssociativeCache.replay` services one cold-start segment of
  a captured miss stream in one loop, with the address split, tag
  lookup, MRU touch and install inlined over bound locals — the path
  every stream replay takes;
- :meth:`~SetAssociativeCache.read_in` and
  :meth:`~SetAssociativeCache.write_back` service one request each, for
  callers that interleave other work (the two-level hierarchy, the
  multiprocessor and coherence models); they are also the replay
  loop's differential oracle.

Two instrumentation paths are supported:

- *legacy observers* (:meth:`SetAssociativeCache.attach`): each
  observer receives an immutable :class:`~repro.core.probes.SetView`
  snapshot per access and runs its own lookup — the reference
  implementation;
- the *fused engine* (:meth:`SetAssociativeCache.attach_engine`): a
  :class:`~repro.core.engine.FusedProbeEngine` receives the shared
  facts of each access (set index, hit frame and its MRU rank, or the
  miss's victim frame) and derives every scheme's probe count from
  them, bit-identically to the observers but many times faster.

Either way the replacement policy picks a miss's victim *before* the
instrumentation sees the access, so the engine can rewrite the
victim's packed chunk; instrumentation draws no random numbers, so the
fill randomness is drawn in the same order as before.
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
        #: Optional fused probe-accounting engine (see attach_engine).
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

        The engine builds its packed comparator words from the sets'
        current tags and is then told of every access (the set index,
        the hit frame and its MRU rank, or the miss's victim frame,
        plus a borrow of the live MRU list) and of every frame that
        empties, and accounts every registered scheme from those shared
        facts. Register the engine's schemes first.
        """
        if engine.associativity != self.associativity:
            raise ConfigurationError(
                f"engine for associativity {engine.associativity} attached "
                f"to a {self.associativity}-way cache"
            )
        if self.engine is not None:
            raise ConfigurationError("an engine is already attached")
        engine.bind(self.sets)
        self.engine = engine

    def request(self, req: MemoryRequest) -> bool:
        """Service one L1 request; return True on a hit."""
        if req.kind is RequestKind.READ_IN:
            return self.read_in(req.address)
        return self.write_back(req.address)

    def read_in(self, address: int) -> bool:
        """Service a read-in request; returns True on a hit.

        On a miss the replacement policy's victim is evicted (an invalid
        frame is filled first) and the block installed clean.
        """
        return self._service(address, RequestKind.READ_IN)

    def write_back(self, address: int) -> bool:
        """Service a write-back from the L1; returns True on a hit.

        A hit dirties the block and refreshes its recency (the paper:
        write-backs "update the MRU list, determining the replacement
        policy"). Inclusion is not enforced, so a write-back can miss;
        the block is then allocated dirty.
        """
        return self._service(address, RequestKind.WRITE_BACK)

    def _service(self, address: int, kind: RequestKind) -> bool:
        index, tag = self.mapper.split(address)
        cache_set = self.sets[index]
        frame = cache_set.find(tag)
        is_writeback = kind is RequestKind.WRITE_BACK
        if frame is None:
            rank, victim = None, self.replacement.victim(cache_set)
        else:
            rank, victim = cache_set._mru.index(frame), None
        if self.engine is not None:
            self.engine.observe(
                index, cache_set._mru, tag, is_writeback, frame, rank, victim
            )
        if self.observers:
            self._notify(cache_set, tag, kind)
        stats = self.stats
        if frame is not None:
            if is_writeback:
                stats.writeback_hits += 1
                cache_set.set_dirty(frame)
            else:
                stats.readin_hits += 1
            cache_set.touch(frame)
            return True
        if is_writeback:
            stats.writeback_misses += 1
        else:
            stats.readin_misses += 1
        self._fill(index, victim, tag, dirty=is_writeback)
        return False

    def replay(self, codes: Iterable[int], addresses: Iterable[int]) -> None:
        """Service one cold-start segment of requests in one loop.

        ``codes`` (0 = read-in, 1 = write-back) and ``addresses`` are
        one window of :meth:`~repro.cache.stream.PackedMissStream.segments`.
        Each request does exactly what :meth:`read_in` or
        :meth:`write_back` would — the same victim choice, engine and
        observer calls, eviction-listener calls and set updates, in
        the same order — with the address split, tag lookup, MRU touch
        and install inlined. The hit, miss and eviction counters reach
        :attr:`stats` once, at the end.
        """
        block_bits = self.mapper.block_bits
        set_bits = self.mapper.set_bits
        rebuild = self.mapper.rebuild
        sets = self.sets
        set_mask = len(sets) - 1
        victim_of = self.replacement.victim
        observe = self.engine.observe if self.engine is not None else None
        notify = self._notify if self.observers else None
        kinds = (RequestKind.READ_IN, RequestKind.WRITE_BACK)
        listener = self.eviction_listener
        readin_hits = readin_misses = writeback_hits = writeback_misses = 0
        evictions = dirty_evictions = 0
        for code, address in zip(codes, addresses):
            block = address >> block_bits
            index = block & set_mask
            tag = block >> set_bits
            cache_set = sets[index]
            mru = cache_set._mru
            frame = cache_set._index.get(tag)
            if frame is not None:
                rank = mru.index(frame)
                if observe is not None:
                    observe(index, mru, tag, code, frame, rank, None)
                if notify is not None:
                    notify(cache_set, tag, kinds[code])
                if rank:
                    del mru[rank]
                    mru.insert(0, frame)
                if code:
                    writeback_hits += 1
                    cache_set._dirty[frame] = True
                else:
                    readin_hits += 1
                continue

            victim = victim_of(cache_set)
            if observe is not None:
                observe(index, mru, tag, code, None, None, victim)
            if notify is not None:
                notify(cache_set, tag, kinds[code])
            if code:
                writeback_misses += 1
            else:
                readin_misses += 1
            tags = cache_set._tags
            dirty = cache_set._dirty
            evicted = tags[victim]
            if evicted is not None:
                evictions += 1
                was_dirty = dirty[victim]
                if was_dirty:
                    dirty_evictions += 1
                if listener is not None:
                    listener(rebuild(index, evicted), was_dirty)
                mru.remove(victim)
                del cache_set._index[evicted]
            tags[victim] = tag
            dirty[victim] = code == 1
            cache_set._index[tag] = victim
            mru.insert(0, victim)
            cache_set._arrival[victim] = cache_set._clock
            cache_set._clock += 1
        stats = self.stats
        stats.readin_hits += readin_hits
        stats.readin_misses += readin_misses
        stats.writeback_hits += writeback_hits
        stats.writeback_misses += writeback_misses
        stats.evictions += evictions
        stats.dirty_evictions += dirty_evictions

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
        if self.engine is not None:
            self.engine.invalidate(index, frame)
        return True

    def invalidate_all(self) -> None:
        """Flush every set without write-backs (cold-start boundary).

        After the flush the cache is indistinguishable from a freshly
        constructed one: set state, tag indices, and the replacement
        policy's fill randomness are all restored to their cold state,
        so every cold-start segment of a replay starts exactly as a
        fresh cache would. Sets that hold nothing are skipped.
        """
        for cache_set in self.sets:
            if cache_set._mru:
                cache_set.invalidate_all()
        self.replacement.reset()
        if self.engine is not None:
            self.engine.invalidate_all()

    def _fill(self, set_index: int, victim: int, tag: int, dirty: bool) -> None:
        cache_set = self.sets[set_index]
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
