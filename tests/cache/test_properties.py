"""Property-based system tests: random request streams through the L2
must preserve accounting identities, the stack-simulator oracle must
agree with the explicit cache on every stream, the segment-wise
stream readers must equal their per-event reference loops, and the
L2's inlined replay loop must equal its per-request path."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache.coherence import InvalidationInjector, run_with_invalidations
from repro.cache.hierarchy import replay_miss_stream
from repro.cache.observers import MruDistanceObserver, ProbeObserver
from repro.cache.replacement import make_replacement
from repro.cache.set_associative import SetAssociativeCache
from repro.cache.stack import StackSimulator
from repro.cache.stream import PackedMissStream
from repro.core.engine import FusedProbeEngine
from repro.core.mru import MRULookup
from repro.core.naive import NaiveLookup
from repro.core.partial import PartialCompareLookup
from repro.core.traditional import TraditionalLookup


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


@st.composite
def scattered_request_streams(draw):
    """Like :func:`request_streams`, but each pool block lands on a
    scattered block number, so tags differ in many bits and the
    partial-compare fields both match and miss."""
    stream = PackedMissStream()
    block_pool = draw(st.integers(2, 48))
    length = draw(st.integers(1, 160))
    for _ in range(length):
        roll = draw(st.integers(0, 24))
        if roll == 0:
            stream.append_flush()
        else:
            code = 1 if roll <= 6 else 0
            block = draw(st.integers(0, block_pool - 1))
            stream.append(code, ((block * 0x9E3779B1) & 0xFFFFFF) * 32)
    stream.processor_references = length * 5
    return stream


def replay_roster(associativity):
    """Every scheme family the fused engine models, for ``a`` frames."""
    a = associativity
    roster = [
        ("traditional", TraditionalLookup(a)),
        ("naive", NaiveLookup(a)),
        ("mru", MRULookup(a)),
        ("mru/m1", MRULookup(a, list_length=1)),
        ("partial", PartialCompareLookup(a, tag_bits=16)),
        ("partial/swap", PartialCompareLookup(a, tag_bits=16, transform="swap")),
        ("partial/t32", PartialCompareLookup(a, tag_bits=32, transform="none")),
    ]
    if a >= 2:
        roster.append((
            "partial/s2",
            PartialCompareLookup(a, tag_bits=16, subsets=2, transform="improved"),
        ))
    return roster


def set_state(cache):
    """Every per-set field the replay writes, set by set."""
    return [
        (s._tags, s._mru, s._dirty, s._index, s._arrival, s._clock)
        for s in cache.sets
    ]


@given(
    stream=scattered_request_streams(),
    assoc=st.sampled_from([1, 2, 4, 8, 16]),
    num_sets=st.sampled_from([1, 2, 4]),
    policy=st.sampled_from(["lru", "fifo", "random"]),
    fill=st.sampled_from(["first", "random"]),
    instrumented=st.booleans(),
    writeback_optimization=st.booleans(),
)
@settings(max_examples=200, deadline=None)
def test_replay_loop_matches_per_request_path(
    stream, assoc, num_sets, policy, fill, instrumented,
    writeback_optimization,
):
    """``SetAssociativeCache.replay`` (what ``replay_miss_stream`` runs)
    leaves the cache, the replacement randomness and an attached
    engine exactly as ``read_in``/``write_back`` per request do, and
    tells the eviction listener the same evictions; the loop's
    observers agree with both engines."""

    def l2():
        cache = SetAssociativeCache(
            num_sets * 32 * assoc, 32, assoc,
            replacement=make_replacement(policy, seed=11, fill=fill),
        )
        channels = {}
        distance = None
        if instrumented:
            engine = FusedProbeEngine(assoc)
            for label, scheme in replay_roster(assoc):
                channels[label] = engine.add_scheme(
                    scheme,
                    writeback_optimization=writeback_optimization,
                    label=label,
                )
            distance = engine.add_mru_distance()
            cache.attach_engine(engine)
        evictions = []
        cache.eviction_listener = lambda *args: evictions.append(args)
        return cache, channels, distance, evictions

    replayed, replayed_channels, replayed_distance, replayed_evictions = l2()
    reference, reference_channels, reference_distance, reference_evictions = (
        l2()
    )
    observers = {}
    if instrumented:
        for label, scheme in replay_roster(assoc):
            observers[label] = ProbeObserver(
                scheme, writeback_optimization=writeback_optimization,
            )
        distance_observer = MruDistanceObserver(assoc)
        replayed.attach_all(list(observers.values()) + [distance_observer])

    replay_miss_stream(stream, replayed)
    reference_replay_miss_stream(inline_events(stream), reference)

    assert replayed.stats == reference.stats
    assert set_state(replayed) == set_state(reference)
    assert replayed_evictions == reference_evictions
    for cache_set in replayed.sets:
        cache_set.check_invariants()
    # The fill randomness advanced identically.
    assert (
        replayed.replacement._fill_rng.getstate()
        == reference.replacement._fill_rng.getstate()
    )
    if not instrumented:
        return
    assert replayed.engine._words == reference.engine._words
    for label, channel in replayed_channels.items():
        expected = reference_channels[label].accumulator
        assert channel.accumulator == expected, label
        assert observers[label].accumulator == expected, label
    for field in ("hits", "accesses", "updates", "counts"):
        assert (
            getattr(replayed_distance, field)
            == getattr(reference_distance, field)
            == getattr(distance_observer, field)
        ), field
