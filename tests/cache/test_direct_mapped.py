"""Tests for the direct-mapped write-back L1 (paper Table 3)."""

import pytest

from repro.cache.direct_mapped import DirectMappedCache, MemoryRequest, RequestKind
from repro.errors import ConfigurationError
from repro.trace.reference import AccessKind, Reference


def load(addr):
    return Reference(AccessKind.LOAD, addr)


def store(addr):
    return Reference(AccessKind.STORE, addr)


def ifetch(addr):
    return Reference(AccessKind.INSTRUCTION, addr)


class TestBasicBehaviour:
    def test_cold_miss_issues_read_in(self):
        cache = DirectMappedCache(256, 16)
        requests = cache.access(load(0x40))
        assert requests == [MemoryRequest(RequestKind.READ_IN, 0x40)]
        assert cache.stats.readin_misses == 1

    def test_read_in_address_is_block_aligned(self):
        cache = DirectMappedCache(256, 16)
        requests = cache.access(load(0x47))
        assert requests[0].address == 0x40

    def test_hit_issues_nothing(self):
        cache = DirectMappedCache(256, 16)
        cache.access(load(0x40))
        assert cache.access(load(0x48)) == []
        assert cache.stats.readin_hits == 1

    def test_conflicting_blocks_evict(self):
        cache = DirectMappedCache(256, 16)  # 16 lines
        cache.access(load(0x00))
        cache.access(load(0x100))  # same line (0x100 = 16 lines * 16B)
        assert cache.stats.evictions == 1
        assert not cache.contains(0x00)
        assert cache.contains(0x100)

    def test_capacity_validation(self):
        with pytest.raises(ConfigurationError):
            DirectMappedCache(1000, 16)


class TestWriteBackProtocol:
    def test_store_hit_dirties_block(self):
        cache = DirectMappedCache(256, 16)
        cache.access(load(0x00))
        cache.access(store(0x04))
        requests = cache.access(load(0x100))
        # Dirty victim: read-in first, then write-back (Table 3 order).
        assert [r.kind for r in requests] == [
            RequestKind.READ_IN,
            RequestKind.WRITE_BACK,
        ]
        assert requests[1].address == 0x00
        assert cache.stats.dirty_evictions == 1

    def test_store_miss_write_allocates_dirty(self):
        cache = DirectMappedCache(256, 16)
        requests = cache.access(store(0x00))
        assert [r.kind for r in requests] == [RequestKind.READ_IN]
        # The block is now dirty: evicting it writes it back.
        requests = cache.access(load(0x100))
        assert [r.kind for r in requests] == [
            RequestKind.READ_IN,
            RequestKind.WRITE_BACK,
        ]

    def test_clean_eviction_issues_no_write_back(self):
        cache = DirectMappedCache(256, 16)
        cache.access(load(0x00))
        requests = cache.access(load(0x100))
        assert [r.kind for r in requests] == [RequestKind.READ_IN]

    def test_instruction_fetches_never_dirty(self):
        cache = DirectMappedCache(256, 16)
        cache.access(ifetch(0x00))
        requests = cache.access(ifetch(0x100))
        assert [r.kind for r in requests] == [RequestKind.READ_IN]


class TestFlush:
    def test_invalidate_all_discards(self):
        cache = DirectMappedCache(256, 16)
        cache.access(store(0x00))
        cache.invalidate_all()
        assert not cache.contains(0x00)
        # Re-access misses cleanly with no write-back of stale data.
        requests = cache.access(load(0x00))
        assert [r.kind for r in requests] == [RequestKind.READ_IN]


class TestGeometry:
    def test_num_lines(self):
        assert DirectMappedCache(4096, 16).num_lines == 256
        assert DirectMappedCache(16384, 32).num_lines == 512

    def test_victim_address_reconstruction(self):
        # A dirty block evicted from a high line must write back its
        # original address, not the incoming one.
        cache = DirectMappedCache(256, 16)
        victim_addr = 0xF0 + 7 * 256
        cache.access(store(victim_addr))
        requests = cache.access(load(0xF0))
        assert requests[1].address == (victim_addr >> 4) << 4
