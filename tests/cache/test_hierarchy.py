"""Tests for the two-level hierarchy and miss-stream capture/replay."""

import pytest

from repro.cache.direct_mapped import DirectMappedCache
from repro.cache.hierarchy import (
    TwoLevelHierarchy,
    capture_miss_stream,
    replay_miss_stream,
)
from repro.cache.set_associative import SetAssociativeCache
from repro.trace.reference import FLUSH, AccessKind, Reference


def load(addr):
    return Reference(AccessKind.LOAD, addr)


def store(addr):
    return Reference(AccessKind.STORE, addr)


def small_hierarchy():
    l1 = DirectMappedCache(256, 16)
    l2 = SetAssociativeCache(1024, 32, 4)
    return TwoLevelHierarchy(l1, l2)


class TestProtocol:
    def test_l1_hit_never_reaches_l2(self):
        h = small_hierarchy()
        h.access(load(0))
        l2_accesses = h.l2.stats.accesses
        h.access(load(4))
        assert h.l2.stats.accesses == l2_accesses

    def test_l1_miss_reads_into_l2(self):
        h = small_hierarchy()
        h.access(load(0))
        assert h.l2.stats.readins == 1
        assert h.l2.contains(0)

    def test_dirty_eviction_writes_back_to_l2(self):
        h = small_hierarchy()
        h.access(store(0))
        h.access(load(256))  # conflicts in the 16-line L1
        assert h.l2.stats.writebacks == 1

    def test_l2_block_smaller_than_l1_rejected(self):
        l1 = DirectMappedCache(256, 32)
        l2 = SetAssociativeCache(1024, 16, 4)
        with pytest.raises(ValueError):
            TwoLevelHierarchy(l1, l2)

    def test_flush_reference_cold_starts_both(self):
        h = small_hierarchy()
        h.access(load(0))
        h.access(FLUSH)
        assert not h.l1.contains(0)
        assert not h.l2.contains(0)
        # Flush is not a processor reference.
        assert h.stats.processor_references == 1

    def test_run_returns_stats(self):
        h = small_hierarchy()
        stats = h.run([load(0), load(0), load(16)])
        assert stats.processor_references == 3
        assert stats.l1.readin_hits == 1

    def test_global_miss_ratio(self):
        h = small_hierarchy()
        # Two L1 misses; the second L1 miss to the same L2 block hits L2.
        h.run([load(0), load(256), load(0), load(256)])
        # L1: 16B blocks, conflict between 0 and 256 -> 4 misses.
        assert h.stats.l1.readin_misses == 4
        # L2: 32B blocks: 0 and 256 are distinct L2 blocks -> 2 cold
        # misses then 2 hits.
        assert h.stats.l2.readin_misses == 2
        assert h.stats.global_miss_ratio == pytest.approx(0.5)

    def test_inclusion_check(self):
        h = small_hierarchy()
        h.run([load(k * 16) for k in range(8)])
        assert h.inclusion_holds()


class TestMissStream:
    def trace(self):
        refs = [load(k * 16) for k in range(20)]
        refs += [store(k * 16) for k in range(5)]
        refs += [FLUSH]
        refs += [load(k * 16 + 256) for k in range(10)]
        return refs

    def test_capture_counts_processor_references(self):
        stream = capture_miss_stream(self.trace(), DirectMappedCache(256, 16))
        assert stream.processor_references == 35

    def test_capture_records_flush_markers(self):
        stream = capture_miss_stream(self.trace(), DirectMappedCache(256, 16))
        assert stream.n_flushes == 1

    def test_replay_equals_direct_simulation(self):
        # The L2 must end in exactly the same state and stats whether
        # driven through the hierarchy or by replaying a captured
        # stream.
        trace = self.trace()

        h = small_hierarchy()
        h.run(trace)

        l1 = DirectMappedCache(256, 16)
        stream = capture_miss_stream(trace, l1)
        l2 = SetAssociativeCache(1024, 32, 4)
        replay_miss_stream(stream, l2)

        assert l2.stats.readin_hits == h.l2.stats.readin_hits
        assert l2.stats.readin_misses == h.l2.stats.readin_misses
        assert l2.stats.writeback_hits == h.l2.stats.writeback_hits
        assert l2.stats.writeback_misses == h.l2.stats.writeback_misses
        for set_a, set_b in zip(l2.sets, h.l2.sets):
            assert set_a.view() == set_b.view()

    def test_stream_counts(self):
        stream = capture_miss_stream(self.trace(), DirectMappedCache(256, 16))
        assert stream.readins + stream.writebacks == len(stream) - 1  # flush
        assert len(stream) >= 1

    def test_replay_into_multiple_geometries(self):
        trace = self.trace()
        stream = capture_miss_stream(trace, DirectMappedCache(256, 16))
        for assoc in (1, 2, 4):
            l2 = SetAssociativeCache(1024, 32, assoc)
            replay_miss_stream(stream, l2)
            assert l2.stats.accesses == stream.readins + stream.writebacks
