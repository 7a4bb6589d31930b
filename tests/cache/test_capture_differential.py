"""Differential tests for L1 capture.

:func:`~repro.cache.hierarchy.capture_miss_stream` runs a
:class:`DirectMappedCache` inline (:meth:`DirectMappedCache.capture`)
and any other L1 through its own ``access()``. A one-way
:class:`AssociativeL1Cache` is the same cache as the direct-mapped one,
so the ``access()`` loop is the inline loop's oracle: over random
traces and geometries both must record the same stream and end in the
same state. A capture per L1 is in turn the oracle of the one-pass
capture (:func:`~repro.cache.hierarchy.capture_miss_streams`), which
feeds each generated batch to several L1s.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache.associative_l1 import AssociativeL1Cache
from repro.cache.direct_mapped import DirectMappedCache
from repro.cache.hierarchy import capture_miss_stream, capture_miss_streams
from repro.cache.stack import StackSimulator
from repro.trace.reference import AccessKind, Reference
from repro.trace.synthetic import AtumWorkload

KINDS = (
    AccessKind.INSTRUCTION, AccessKind.LOAD, AccessKind.STORE, AccessKind.FLUSH,
)


@st.composite
def traces(draw):
    """``(kind, address)`` pairs: every kind, stores included, and
    FLUSH anywhere (leading, trailing, back to back). Half the
    addresses fall in a small window so lines hit, conflict and go
    dirty; the rest are large, for wide tags."""
    address = st.one_of(
        st.integers(0, 1 << 12), st.integers(0, 1 << 40)
    )
    items = draw(st.lists(
        st.tuples(st.sampled_from(KINDS), address), max_size=400
    ))
    return [
        (kind, 0 if kind is AccessKind.FLUSH else address)
        for kind, address in items
    ]


#: ``(capacity, block size)``: 4- to 64-byte blocks, 1 to 64 lines.
geometries = st.tuples(st.integers(2, 6), st.integers(0, 6)).map(
    lambda bits: (1 << (bits[0] + bits[1]), 1 << bits[0])
)


@settings(max_examples=300, deadline=None)
@given(trace=traces(), geometry=geometries)
def test_inline_direct_mapped_equals_one_way_access_loop(trace, geometry):
    """The inline loop reads the pairs; the oracle reads the same trace
    as ``Reference`` objects."""
    capacity, block_size = geometry
    direct = DirectMappedCache(capacity, block_size)
    oracle = AssociativeL1Cache(capacity, block_size, associativity=1)
    stream = capture_miss_stream(iter(trace), direct)
    expected = capture_miss_stream(
        (Reference(kind, address) for kind, address in trace), oracle
    )
    assert stream.content_hash() == expected.content_hash()
    assert list(stream.codes) == list(expected.codes)
    assert list(stream.flush_offsets) == list(expected.flush_offsets)
    assert direct.stats == oracle.stats
    assert direct.resident_addresses() == oracle.resident_addresses()


def test_capture_continues_from_the_caches_state():
    """Stats accumulate and lines persist across captures, as they do
    across ``access()`` calls: 0 and 64 share a line, so each load of
    64 evicts the dirty 0."""
    trace = [(AccessKind.STORE, 0), (AccessKind.LOAD, 64)]
    direct = DirectMappedCache(64, 16)
    oracle = AssociativeL1Cache(64, 16, associativity=1)
    for _ in range(2):
        for l1 in (direct, oracle):
            capture_miss_stream(trace, l1)
    assert direct.stats == oracle.stats
    assert direct.stats.dirty_evictions == 2
    assert direct.resident_addresses() == oracle.resident_addresses() == [64]


WORKLOAD = AtumWorkload(segments=3, references_per_segment=4_000, seed=1989)


@pytest.mark.parametrize("make_l1", [
    lambda: DirectMappedCache(4096, 16),
    lambda: AssociativeL1Cache(4096, 16, associativity=2),
], ids=["direct-mapped", "two-way"])
def test_workload_pairs_capture_like_references(make_l1):
    from_pairs = capture_miss_stream(WORKLOAD.pairs(), make_l1())
    from_refs = capture_miss_stream(iter(WORKLOAD), make_l1())
    assert from_pairs.content_hash() == from_refs.content_hash()


#: L1 geometries captured together: one, two and three L1s, out of
#: size order, with one geometry asked for twice.
ONE_PASS_L1S = {
    "one": [(4096, 16)],
    "two-unsorted": [(16384, 32), (4096, 16)],
    "three-repeated": [(16384, 16), (4096, 16), (16384, 16)],
    "three-unsorted": [(16384, 32), (4096, 16), (16384, 16)],
}


@pytest.mark.parametrize("workload", [WORKLOAD, WORKLOAD.warmed()],
                         ids=["cold-start", "warmed"])
@pytest.mark.parametrize("geometries", list(ONE_PASS_L1S.values()),
                         ids=list(ONE_PASS_L1S))
def test_one_pass_equals_a_capture_per_l1(workload, geometries):
    l1s = [DirectMappedCache(*geometry) for geometry in geometries]
    streams = capture_miss_streams(workload.batches(), l1s)
    assert len(streams) == len(l1s)
    for geometry, l1, stream in zip(geometries, l1s, streams):
        alone = DirectMappedCache(*geometry)
        expected = capture_miss_stream(workload.pairs(), alone)
        assert stream.content_hash() == expected.content_hash()
        assert l1.stats.readin_miss_ratio == alone.stats.readin_miss_ratio
        assert stream.readin_miss_ratio == l1.stats.readin_miss_ratio
        assert stream.processor_references == expected.processor_references
        assert stream.processor_references == len(workload)
        assert stream.n_flushes == (
            workload.segments - 1 if workload.cold_start else 0
        )


def test_two_way_l1_capture_of_a_workload():
    """The set-associative L1's capture (the L1-associativity
    ablation's path): read-ins match a one-pass LRU stack profile of
    the reference stream, and the stream agrees with the L1's own
    counters."""
    l1 = AssociativeL1Cache(4096, 16, associativity=2)
    stream = capture_miss_stream(iter(WORKLOAD), l1)

    profile = StackSimulator(16, 4096 // 16 // 2)
    for kind, address in WORKLOAD.pairs():
        if kind is AccessKind.FLUSH:
            profile.flush()
        else:
            profile.access(address)
    assert stream.readins == l1.stats.readin_misses == profile.misses(2)
    assert stream.writebacks == l1.stats.dirty_evictions > 0
    assert stream.processor_references == len(WORKLOAD)
    assert l1.stats.readin_hits + l1.stats.readin_misses == len(WORKLOAD)
    assert list(stream.flush_offsets) == sorted(stream.flush_offsets)
    assert stream.n_flushes == WORKLOAD.segments - 1
