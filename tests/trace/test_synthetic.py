"""Tests for the ATUM-like multiprogrammed workload."""

import pytest

from repro.errors import ConfigurationError
from repro.trace.reference import AccessKind
from repro.trace.synthetic import (
    PAIR_BATCH,
    AtumWorkload,
    SegmentParameters,
    kind_mix,
)


class TestStructure:
    def test_len_counts_references(self):
        wl = AtumWorkload(segments=3, references_per_segment=100)
        assert len(wl) == 300

    def test_flush_between_segments_only(self):
        wl = AtumWorkload(segments=3, references_per_segment=50)
        refs = list(wl)
        flushes = [i for i, r in enumerate(refs) if r.is_flush]
        assert len(flushes) == 2
        assert refs[0].kind is not AccessKind.FLUSH
        assert not refs[-1].is_flush
        # Exactly 50 references between boundaries.
        assert flushes[0] == 50
        assert flushes[1] == 101

    def test_batches_are_the_pairs(self):
        """Batches of at most PAIR_BATCH pairs, a one-pair FLUSH batch
        between segments, and together exactly :meth:`pairs`."""
        wl = AtumWorkload(segments=3, references_per_segment=3_000, seed=5)
        batches = list(wl.batches())
        assert all(0 < len(batch) <= PAIR_BATCH for batch in batches)
        flushes = [b for b in batches if (AccessKind.FLUSH, 0) in b]
        assert flushes == [[(AccessKind.FLUSH, 0)]] * 2
        assert [pair for batch in batches for pair in batch] == list(wl.pairs())

    def test_single_segment_has_no_flush(self):
        wl = AtumWorkload(segments=1, references_per_segment=50)
        assert not any(r.is_flush for r in wl)

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            AtumWorkload(segments=0)
        with pytest.raises(ConfigurationError):
            AtumWorkload(references_per_segment=0)
        with pytest.raises(ConfigurationError):
            SegmentParameters(processes=0).validate()

    def test_segment_out_of_range(self):
        wl = AtumWorkload(segments=2, references_per_segment=10)
        with pytest.raises(ConfigurationError):
            list(wl.segment_batches(2))


class TestDeterminism:
    def test_same_seed_same_trace(self):
        a = list(AtumWorkload(segments=2, references_per_segment=500, seed=7))
        b = list(AtumWorkload(segments=2, references_per_segment=500, seed=7))
        assert a == b

    def test_different_seeds_differ(self):
        a = list(AtumWorkload(segments=1, references_per_segment=500, seed=7))
        b = list(AtumWorkload(segments=1, references_per_segment=500, seed=8))
        assert a != b

    def test_segments_differ_from_each_other(self):
        wl = AtumWorkload(segments=2, references_per_segment=500, seed=7)
        seg0 = [pair for batch in wl.segment_batches(0) for pair in batch]
        seg1 = [pair for batch in wl.segment_batches(1) for pair in batch]
        assert len(seg0) == len(seg1) == 500
        assert seg0 != seg1

    def test_iteration_is_repeatable(self):
        wl = AtumWorkload(segments=1, references_per_segment=300, seed=3)
        assert list(wl) == list(wl)


class TestScaling:
    def test_scaled_shortens_segments(self):
        wl = AtumWorkload(segments=4, references_per_segment=1000)
        half = wl.scaled(0.5)
        assert half.segments == 4
        assert half.references_per_segment == 500

    def test_scaled_validation(self):
        with pytest.raises(ConfigurationError):
            AtumWorkload().scaled(0.0)
        with pytest.raises(ConfigurationError):
            AtumWorkload().scaled(1.5)

    def test_with_params(self):
        wl = AtumWorkload(segments=2, references_per_segment=100)
        changed = wl.with_params(processes=3)
        assert changed.params.processes == 3
        assert changed.segments == 2


class TestCharacter:
    def test_kind_mix_plausible(self):
        wl = AtumWorkload(segments=1, references_per_segment=20_000, seed=1)
        mix = kind_mix(wl)
        assert 0.4 < mix[AccessKind.INSTRUCTION] < 0.65
        assert mix[AccessKind.STORE] < mix[AccessKind.LOAD]

    def test_multiple_processes_appear(self):
        from repro.trace.process_model import PROCESS_SPACE_BITS

        wl = AtumWorkload(segments=1, references_per_segment=50_000, seed=1)
        pids = {r.address >> PROCESS_SPACE_BITS for r in wl if not r.is_flush}
        assert len(pids) >= 4

    def test_addresses_fit_32_bits(self):
        # A multiprogrammed mix must fit one 32-bit space so 16-bit
        # tags are exact for the paper's L2 geometries.
        wl = AtumWorkload(segments=2, references_per_segment=5_000, seed=1)
        assert all(r.address < 2**32 for r in wl if not r.is_flush)
