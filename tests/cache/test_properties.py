"""Property-based system tests: random request streams through the L2
must preserve accounting identities, the stack-simulator oracle must
agree with the explicit cache on every stream, and the segment-wise
stream readers must equal their per-event reference loops."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache.coherence import InvalidationInjector, run_with_invalidations
from repro.cache.hierarchy import replay_miss_stream
from repro.cache.observers import ProbeObserver
from repro.cache.set_associative import SetAssociativeCache
from repro.cache.stack import StackSimulator
from repro.cache.stream import PackedMissStream
from repro.core.naive import NaiveLookup
from repro.core.partial import PartialCompareLookup


@st.composite
def request_streams(draw):
    """Short streams of read-ins/write-backs over a small block pool,
    with occasional flushes."""
    stream = PackedMissStream()
    block_pool = draw(st.integers(4, 40))
    length = draw(st.integers(1, 120))
    for _ in range(length):
        roll = draw(st.integers(0, 19))
        if roll == 0:
            stream.append_flush()
        else:
            code = 1 if roll <= 4 else 0
            block = draw(st.integers(0, block_pool - 1))
            stream.append(code, block * 32)
    stream.processor_references = length * 5
    return stream


@given(stream=request_streams())
@settings(max_examples=100, deadline=None)
def test_accounting_identities(stream):
    l2 = SetAssociativeCache(512, 32, 4)  # 4 sets: heavy conflicts
    naive = ProbeObserver(NaiveLookup(4))
    partial = ProbeObserver(PartialCompareLookup(4, tag_bits=16))
    l2.attach_all([naive, partial])
    replay_miss_stream(stream, l2)

    requests = stream.n_events
    assert l2.stats.accesses == requests
    for observer in (naive, partial):
        acc = observer.accumulator
        assert acc.total_accesses == requests
        assert acc.hit_accesses == l2.stats.readin_hits
        assert acc.miss_accesses == l2.stats.readin_misses
        assert acc.writeback_accesses == l2.stats.writebacks
    # Naive miss probes exactly a per miss.
    assert naive.accumulator.miss_probes == 4 * l2.stats.readin_misses
    # Per-set invariants survived the stream.
    for cache_set in l2.sets:
        cache_set.check_invariants()


@given(stream=request_streams(), assoc=st.sampled_from([1, 2, 4]))
@settings(max_examples=100, deadline=None)
def test_stack_oracle_agrees_on_any_stream(stream, assoc):
    num_sets = 4
    explicit = SetAssociativeCache(num_sets * 32 * assoc, 32, assoc)
    replay_miss_stream(stream, explicit)
    explicit_misses = (
        explicit.stats.readin_misses + explicit.stats.writeback_misses
    )

    stack = StackSimulator(32, num_sets, max_depth=8).run(stream)
    assert stack.misses(assoc) == explicit_misses


@given(stream=request_streams())
@settings(max_examples=60, deadline=None)
def test_miss_monotonicity_in_associativity(stream):
    # LRU inclusion: for a fixed set count, wider associativity never
    # misses more. (A theorem for stack algorithms; checked through
    # the explicit simulator.)
    misses = []
    for assoc in (1, 2, 4, 8):
        l2 = SetAssociativeCache(4 * 32 * assoc, 32, assoc)
        replay_miss_stream(stream, l2)
        misses.append(l2.stats.readin_misses + l2.stats.writeback_misses)
    assert misses == sorted(misses, reverse=True)


# Reference implementations of the three stream readers: per-event
# loops over one inline event list with a (-1, -1) marker at each
# flush, so a flush holds one position of the stream.
FLUSH_MARKER = (-1, -1)


def inline_events(stream):
    """The stream's events with a flush marker at each flush offset."""
    events = list(zip(stream.codes, stream.addresses))
    for offset in reversed(stream.flush_offsets):
        events.insert(offset, FLUSH_MARKER)
    return events


def reference_replay_miss_stream(events, l2):
    for code, address in events:
        if (code, address) == FLUSH_MARKER:
            l2.invalidate_all()
            continue
        if code == 0:
            l2.read_in(address)
        else:
            l2.write_back(address)


def reference_stack_run(stack, events):
    for code, address in events:
        if (code, address) == FLUSH_MARKER:
            stack.flush()
            continue
        stack.access(address)
    return stack


def reference_run_with_invalidations(events, l2, injector, sample_every):
    warmup = len(events) // 4
    for position, (code, address) in enumerate(events):
        if (code, address) == FLUSH_MARKER:
            l2.invalidate_all()
            continue
        if code == 0:
            l2.read_in(address)
        else:
            l2.write_back(address)
        injector.tick()
        if position >= warmup and position % sample_every == 0:
            injector.sample_utilization()
    return injector.stats


@given(stream=request_streams(), assoc=st.sampled_from([1, 2, 4]))
@settings(max_examples=100, deadline=None)
def test_segment_readers_match_per_event_reference(stream, assoc):
    events = inline_events(stream)
    assert len(events) == len(stream)

    def l2():
        return SetAssociativeCache(4 * 32 * assoc, 32, assoc)

    replayed, reference = l2(), l2()
    replay_miss_stream(stream, replayed)
    reference_replay_miss_stream(events, reference)
    assert replayed.stats == reference.stats
    assert [s.view() for s in replayed.sets] == [
        s.view() for s in reference.sets
    ]

    stack = StackSimulator(32, 4, max_depth=8).run(stream)
    expected = reference_stack_run(StackSimulator(32, 4, max_depth=8), events)
    assert stack.distance_counts == expected.distance_counts
    assert stack.cold_or_deep == expected.cold_or_deep
    assert stack.accesses == expected.accesses

    # sample_every=3 makes the sampled positions, and so the flush
    # slots, visible in the stats.
    coherent, reference = l2(), l2()
    stats = run_with_invalidations(
        stream, coherent, InvalidationInjector(coherent, rate=0.2, seed=3),
        sample_every=3,
    )
    expected_stats = reference_run_with_invalidations(
        events, reference, InvalidationInjector(reference, rate=0.2, seed=3),
        sample_every=3,
    )
    assert stats == expected_stats
