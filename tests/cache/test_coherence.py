"""Tests for the coherency-invalidation model (paper footnote 1)."""

import pytest

from repro.cache.coherence import InvalidationInjector, run_with_invalidations
from repro.cache.direct_mapped import DirectMappedCache
from repro.cache.hierarchy import capture_miss_stream
from repro.cache.observers import ProbeObserver
from repro.cache.set_associative import SetAssociativeCache
from repro.core.engine import FusedProbeEngine
from repro.core.naive import NaiveLookup
from repro.core.partial import PartialCompareLookup
from repro.errors import ConfigurationError
from repro.trace.synthetic import AtumWorkload


def small_l2(assoc=4, capacity=4096):
    return SetAssociativeCache(capacity, 32, assoc)


class TestInjector:
    def test_rate_validation(self):
        with pytest.raises(ConfigurationError):
            InvalidationInjector(small_l2(), rate=1.5)

    def test_invalidate_resident_block(self):
        l2 = small_l2()
        l2.read_in(0x100)
        injector = InvalidationInjector(l2, seed=1)
        assert injector.invalidate_random_block()
        assert not l2.contains(0x100)
        assert injector.stats.invalidations == 1

    def test_empty_cache_yields_no_invalidation(self):
        injector = InvalidationInjector(small_l2(), seed=1)
        assert not injector.invalidate_random_block()
        assert injector.stats.invalidations == 0
        assert injector.stats.attempts == 1

    def test_l1_copy_dropped_too(self):
        l1 = DirectMappedCache(1024, 16)
        l2 = small_l2()
        from repro.trace.reference import AccessKind, Reference

        l1.access(Reference(AccessKind.LOAD, 0x100))
        l2.read_in(0x100)
        injector = InvalidationInjector(l2, l1=l1, seed=1)
        injector.invalidate_random_block()
        assert not l1.contains(0x100)
        assert injector.stats.l1_invalidations >= 1

    def test_zero_rate_never_fires(self):
        l2 = small_l2()
        l2.read_in(0)
        injector = InvalidationInjector(l2, rate=0.0, seed=1)
        for _ in range(1000):
            injector.tick()
        assert injector.stats.invalidations == 0

    def test_deterministic_by_seed(self):
        def run(seed):
            l2 = small_l2()
            for k in range(16):
                l2.read_in(k * 32)
            injector = InvalidationInjector(l2, rate=0.5, seed=seed)
            for _ in range(100):
                injector.tick()
            return injector.stats.invalidations

        assert run(3) == run(3)

    def test_utilization_sampling(self):
        l2 = small_l2(assoc=4, capacity=4096)  # 128 frames
        for k in range(64):
            l2.read_in(k * 32)
        injector = InvalidationInjector(l2, seed=1)
        utilization = injector.sample_utilization()
        assert utilization == pytest.approx(0.5)
        assert injector.stats.utilization_samples == [utilization]


class TestFootnoteOne:
    """Wider associativity reuses invalidated frames faster."""

    @pytest.fixture(scope="class")
    def stream(self):
        workload = AtumWorkload(segments=1, references_per_segment=25_000, seed=17)
        l1 = DirectMappedCache(2048, 16)  # small L1: dense miss stream
        return capture_miss_stream(iter(workload), l1)

    def test_utilization_rises_with_associativity(self, stream):
        utilizations = {}
        for assoc in (1, 4):
            l2 = SetAssociativeCache(16 * 1024, 32, assoc)
            injector = InvalidationInjector(l2, rate=0.2, seed=23)
            stats = run_with_invalidations(stream, l2, injector, sample_every=500)
            assert stats.utilization_samples
            utilizations[assoc] = stats.mean_utilization
        assert utilizations[4] > utilizations[1]

    def test_sample_every_validation(self, stream):
        from repro.errors import ConfigurationError

        l2 = SetAssociativeCache(16 * 1024, 32, 4)
        with pytest.raises(ConfigurationError):
            run_with_invalidations(
                stream, l2, InvalidationInjector(l2), sample_every=0
            )

    def test_invalidations_create_misses(self, stream):
        quiet = SetAssociativeCache(16 * 1024, 32, 4)
        noisy = SetAssociativeCache(16 * 1024, 32, 4)
        run_with_invalidations(
            stream, quiet, InvalidationInjector(quiet, rate=0.0, seed=1)
        )
        run_with_invalidations(
            stream, noisy, InvalidationInjector(noisy, rate=0.2, seed=1)
        )
        assert noisy.stats.readin_misses > quiet.stats.readin_misses

    def test_engine_accounts_like_observers_under_invalidations(self, stream):
        """The injector drops blocks through the cache, so an attached
        engine's packed comparator words stay current: its probe totals
        equal those of observers replaying the same stream with the
        same invalidations."""

        def schemes():
            return [
                ("naive", NaiveLookup(4)),
                ("partial", PartialCompareLookup(4, tag_bits=16)),
                ("partial/none", PartialCompareLookup(4, transform="none")),
            ]

        def replay(l2):
            injector = InvalidationInjector(l2, rate=0.2, seed=23)
            return run_with_invalidations(stream, l2, injector, sample_every=500)

        observed = SetAssociativeCache(16 * 1024, 32, 4)
        observers = {
            label: ProbeObserver(scheme, label=label)
            for label, scheme in schemes()
        }
        observed.attach_all(observers.values())
        fused = SetAssociativeCache(16 * 1024, 32, 4)
        engine = FusedProbeEngine(4)
        channels = {
            label: engine.add_scheme(scheme, label=label)
            for label, scheme in schemes()
        }
        fused.attach_engine(engine)

        assert replay(fused) == replay(observed)
        assert fused.stats == observed.stats
        for label, observer in observers.items():
            assert channels[label].accumulator == observer.accumulator, label
        assert observers["partial"].accumulator.hit_probes > 0
