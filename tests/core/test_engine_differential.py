"""Differential tests: the fused engine vs the legacy observer path.

The :class:`~repro.core.engine.FusedProbeEngine` derives every scheme's
probe counts analytically from shared lookup facts; the legacy
:class:`~repro.cache.observers.ProbeObserver` path runs each scheme's
actual ``lookup()`` per access and is the reference implementation.
These tests drive both over identical randomized request streams and
assert *exact* integer equality of every accumulator field, the MRU
hit-distance histogram, and the cache statistics — across
associativities, tag transforms, subset counts, reduced MRU lists, and
both write-back-optimization settings, per request and through
``replay_miss_stream``'s inlined loop. The engine models only exact
instances of the four paper schemes and rejects any other scheme.
"""

import random

import pytest

from repro.cache.direct_mapped import DirectMappedCache
from repro.cache.hierarchy import capture_miss_stream, replay_miss_stream
from repro.cache.observers import MruDistanceObserver, ProbeObserver
from repro.cache.set_associative import SetAssociativeCache
from repro.core.banked import BankedLookup
from repro.core.engine import FusedProbeEngine
from repro.core.mru import MRULookup
from repro.core.naive import NaiveLookup
from repro.core.partial import PartialCompareLookup
from repro.core.traditional import TraditionalLookup
from repro.errors import ConfigurationError
from repro.experiments.runner import _scheme_plan
from repro.trace.synthetic import AtumWorkload

ACCUMULATOR_FIELDS = (
    "hit_accesses",
    "hit_probes",
    "miss_accesses",
    "miss_probes",
    "writeback_accesses",
    "writeback_probes",
)


def full_roster(associativity):
    """Every scheme family the engine models."""
    a = associativity
    roster = [
        ("traditional", TraditionalLookup(a)),
        ("naive", NaiveLookup(a)),
        ("mru", MRULookup(a)),
        ("mru/m1", MRULookup(a, list_length=1)),
        ("partial", PartialCompareLookup(a, tag_bits=16)),
        ("partial/swap", PartialCompareLookup(a, tag_bits=16, transform="swap")),
        ("partial/none", PartialCompareLookup(a, tag_bits=16, transform="none")),
        (
            "partial/s2",
            PartialCompareLookup(a, tag_bits=16, subsets=2, transform="improved"),
        ),
        (
            "partial/full",
            PartialCompareLookup(a, tag_bits=16, partial_bits=16, subsets=a),
        ),
    ]
    if a > 2:
        roster.append(("mru/m2", MRULookup(a, list_length=2)))
    return roster


def drive_both(roster_fn, associativity, writeback_optimization, seed,
               accesses=4000, writeback_fraction=0.25, invalidate_every=None):
    """Replay one random stream through both paths; return the pieces."""
    legacy = SetAssociativeCache(16 * 1024, 32, associativity)
    fused = SetAssociativeCache(16 * 1024, 32, associativity)
    legacy_accs = {}
    for label, scheme in roster_fn(associativity):
        observer = ProbeObserver(
            scheme,
            writeback_optimization=writeback_optimization,
            label=label,
        )
        legacy.attach(observer)
        legacy_accs[label] = observer.accumulator
    distance_observer = MruDistanceObserver(associativity)
    legacy.attach(distance_observer)

    engine = FusedProbeEngine(associativity)
    channels = {}
    for label, scheme in roster_fn(associativity):
        channels[label] = engine.add_scheme(
            scheme,
            writeback_optimization=writeback_optimization,
            label=label,
        )
    distance_stats = engine.add_mru_distance()
    fused.attach_engine(engine)

    rng = random.Random(seed)
    for step in range(accesses):
        address = rng.randrange(0, 1 << 22) & ~31
        if rng.random() < writeback_fraction:
            legacy.write_back(address)
            fused.write_back(address)
        else:
            legacy.read_in(address)
            fused.read_in(address)
        if invalidate_every and step and step % invalidate_every == 0:
            legacy.invalidate_all()
            fused.invalidate_all()
    return legacy, fused, legacy_accs, channels, distance_observer, distance_stats


def assert_identical(legacy, fused, legacy_accs, channels,
                     distance_observer, distance_stats):
    for label, reference in legacy_accs.items():
        accumulator = channels[label].accumulator
        for field in ACCUMULATOR_FIELDS:
            assert getattr(accumulator, field) == getattr(reference, field), (
                f"{label}.{field} diverges from the observer reference"
            )
    assert distance_stats.hits == distance_observer.hits
    assert distance_stats.accesses == distance_observer.accesses
    assert distance_stats.updates == distance_observer.updates
    assert distance_stats.counts == distance_observer.counts
    assert distance_stats.distribution() == distance_observer.distribution()
    assert fused.stats.__dict__ == legacy.stats.__dict__


@pytest.mark.parametrize("associativity", [2, 4, 8, 16])
@pytest.mark.parametrize("writeback_optimization", [True, False])
def test_engine_matches_observers_exactly(associativity, writeback_optimization):
    pieces = drive_both(
        full_roster, associativity, writeback_optimization,
        seed=1000 + associativity,
    )
    assert_identical(*pieces)


def test_engine_matches_across_cold_start_flushes():
    pieces = drive_both(full_roster, 4, True, seed=77, invalidate_every=500)
    assert_identical(*pieces)


def test_engine_matches_on_single_partial_fast_path():
    """A roster with one partial configuration agrees too."""

    def roster(a):
        return [
            ("naive", NaiveLookup(a)),
            ("mru", MRULookup(a)),
            ("partial", PartialCompareLookup(a, tag_bits=16)),
        ]

    for wb_opt in (True, False):
        pieces = drive_both(roster, 4, wb_opt, seed=5 if wb_opt else 6)
        assert_identical(*pieces)


@pytest.mark.parametrize("associativity", [1, 2, 4, 8, 16])
def test_runner_roster_through_replay_miss_stream(associativity):
    """The runner's scheme plan over a captured three-segment stream,
    replayed by ``replay_miss_stream`` (the cache's inlined loop):
    the engine matches the observers exactly."""
    a = associativity
    workload = AtumWorkload(segments=3, references_per_segment=3000, seed=41)
    stream = capture_miss_stream(workload.pairs(), DirectMappedCache(4096, 16))
    assert stream.n_flushes == 2

    def plan():
        return _scheme_plan(
            a, 16, ("xor", "none", "improved", "swap"),
            [m for m in (1, 2) if m < a], (32,),
        )

    for writeback_optimization in (True, False):
        legacy = SetAssociativeCache(16 * 1024, 32, a)
        legacy_accs = {}
        for label, scheme in plan():
            observer = ProbeObserver(
                scheme, writeback_optimization=writeback_optimization,
            )
            legacy.attach(observer)
            legacy_accs[label] = observer.accumulator
        distance_observer = MruDistanceObserver(a)
        legacy.attach(distance_observer)

        fused = SetAssociativeCache(16 * 1024, 32, a)
        engine = FusedProbeEngine(a)
        channels = {
            label: engine.add_scheme(
                scheme, writeback_optimization=writeback_optimization,
                label=label,
            )
            for label, scheme in plan()
        }
        distance_stats = engine.add_mru_distance()
        fused.attach_engine(engine)

        replay_miss_stream(stream, legacy)
        replay_miss_stream(stream, fused)
        assert fused.stats.accesses == stream.n_events
        assert_identical(
            legacy, fused, legacy_accs, channels,
            distance_observer, distance_stats,
        )


def test_engine_shares_aliased_partial_scheme():
    """One scheme instance under two labels: identical totals, one group."""
    engine = FusedProbeEngine(4)
    scheme = PartialCompareLookup(4, tag_bits=16)
    first = engine.add_scheme(scheme, label="partial")
    second = engine.add_scheme(scheme, label="partial/xor/t16")
    assert first.group is second.group
    cache = SetAssociativeCache(16 * 1024, 32, 4)
    cache.attach_engine(engine)
    rng = random.Random(3)
    for _ in range(2000):
        cache.read_in(rng.randrange(0, 1 << 20) & ~31)
    a1, a2 = first.accumulator, second.accumulator
    for field in ACCUMULATOR_FIELDS:
        assert getattr(a1, field) == getattr(a2, field)
    assert a1.hit_probes > 0


def test_engine_rejects_mismatched_associativity():
    engine = FusedProbeEngine(4)
    with pytest.raises(ConfigurationError):
        engine.add_scheme(NaiveLookup(8))
    cache = SetAssociativeCache(16 * 1024, 32, 8)
    with pytest.raises(ConfigurationError):
        cache.attach_engine(engine)


def test_engine_rejects_schemes_it_has_no_model_for():
    engine = FusedProbeEngine(4)
    with pytest.raises(ConfigurationError, match="ProbeObserver"):
        engine.add_scheme(BankedLookup(4))
    assert engine.channels == {}


def test_engine_rejects_duplicate_labels_and_engines():
    engine = FusedProbeEngine(4)
    engine.add_scheme(NaiveLookup(4), label="naive")
    with pytest.raises(ConfigurationError):
        engine.add_scheme(NaiveLookup(4), label="naive")
    cache = SetAssociativeCache(16 * 1024, 32, 4)
    cache.attach_engine(engine)
    with pytest.raises(ConfigurationError):
        cache.attach_engine(FusedProbeEngine(4))


def test_engine_roster_is_fixed_once_attached():
    """The packed words are laid out at attach: a later scheme, a later
    distance histogram or a second cache is refused."""
    engine = FusedProbeEngine(4)
    engine.add_scheme(PartialCompareLookup(4, tag_bits=16))
    SetAssociativeCache(16 * 1024, 32, 4).attach_engine(engine)
    with pytest.raises(ConfigurationError, match="before attaching"):
        engine.add_scheme(NaiveLookup(4))
    with pytest.raises(ConfigurationError, match="before attaching"):
        engine.add_mru_distance()
    with pytest.raises(ConfigurationError):
        SetAssociativeCache(16 * 1024, 32, 4).attach_engine(engine)
    assert list(engine.channels) == ["partial"]


def test_engine_attached_to_a_warm_cache_packs_its_tags():
    """Attaching to a cache that already holds blocks builds the packed
    words from its tags, so accounting from there on matches observers
    attached at the same moment."""
    rng = random.Random(12)
    addresses = [rng.randrange(0, 1 << 22) & ~31 for _ in range(3000)]
    legacy = SetAssociativeCache(16 * 1024, 32, 8)
    fused = SetAssociativeCache(16 * 1024, 32, 8)
    for address in addresses[:1000]:
        legacy.read_in(address)
        fused.read_in(address)
    observer = ProbeObserver(PartialCompareLookup(8, tag_bits=16))
    legacy.attach(observer)
    engine = FusedProbeEngine(8)
    channel = engine.add_scheme(PartialCompareLookup(8, tag_bits=16))
    fused.attach_engine(engine)
    for address in addresses[1000:]:
        legacy.read_in(address)
        fused.read_in(address)
    for field in ACCUMULATOR_FIELDS:
        assert getattr(channel.accumulator, field) == getattr(
            observer.accumulator, field
        ), field


def test_engine_accumulator_reads_are_live():
    """Accumulators finalize on read: mid-replay reads are consistent."""
    engine = FusedProbeEngine(4)
    channel = engine.add_scheme(TraditionalLookup(4))
    cache = SetAssociativeCache(16 * 1024, 32, 4)
    cache.attach_engine(engine)
    rng = random.Random(9)
    for _ in range(100):
        cache.read_in(rng.randrange(0, 1 << 18) & ~31)
    acc = channel.accumulator
    assert acc.hit_accesses + acc.miss_accesses == 100
    for _ in range(50):
        cache.read_in(rng.randrange(0, 1 << 18) & ~31)
    acc = channel.accumulator
    assert acc.hit_accesses + acc.miss_accesses == 150
