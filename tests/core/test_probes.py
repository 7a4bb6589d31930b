"""Tests for SetView, LookupOutcome, and ProbeAccumulator."""

import pytest

from repro.core.probes import LookupOutcome, ProbeAccumulator, SetView


class TestSetView:
    def test_associativity(self):
        view = SetView(tags=(1, 2, None, 4), mru_order=(0, 1, 3))
        assert view.associativity == 4

    def test_find_hit(self):
        view = SetView(tags=(10, 20, 30), mru_order=(0, 1, 2))
        assert view.find(20) == 1

    def test_find_miss(self):
        view = SetView(tags=(10, 20, 30), mru_order=(0, 1, 2))
        assert view.find(99) is None

    def test_find_skips_invalid_frames(self):
        view = SetView(tags=(None, None, 7), mru_order=(2,))
        assert view.find(7) == 2

    def test_empty_set_always_misses(self):
        view = SetView(tags=(None, None), mru_order=())
        assert view.find(0) is None

    def test_tag_zero_is_findable(self):
        # Tag value 0 must not be confused with an invalid frame.
        view = SetView(tags=(0, None), mru_order=(0,))
        assert view.find(0) == 0


class TestLookupOutcome:
    def test_hit_requires_frame(self):
        with pytest.raises(ValueError):
            LookupOutcome(hit=True, frame=None, probes=1)

    def test_miss_forbids_frame(self):
        with pytest.raises(ValueError):
            LookupOutcome(hit=False, frame=2, probes=1)

    def test_negative_probes_rejected(self):
        with pytest.raises(ValueError):
            LookupOutcome(hit=False, frame=None, probes=-1)

    def test_valid_hit(self):
        outcome = LookupOutcome(hit=True, frame=3, probes=4)
        assert outcome.frame == 3
        assert outcome.probes == 4


class TestProbeAccumulator:
    def test_initially_zero(self):
        acc = ProbeAccumulator()
        assert acc.probes_per_hit == 0.0
        assert acc.probes_per_miss == 0.0
        assert acc.probes_per_access == 0.0
        assert acc.hits_including_writebacks == 0.0

    def test_hit_average(self):
        acc = ProbeAccumulator()
        acc.record_hit(1)
        acc.record_hit(3)
        assert acc.probes_per_hit == 2.0

    def test_miss_average(self):
        acc = ProbeAccumulator()
        acc.record_miss(4)
        acc.record_miss(6)
        assert acc.probes_per_miss == 5.0

    def test_total_includes_writebacks_in_denominator(self):
        acc = ProbeAccumulator()
        acc.record_hit(2)
        acc.record_writeback(0)
        # (2 + 0) probes over 2 accesses.
        assert acc.probes_per_access == 1.0

    def test_hits_including_writebacks_matches_paper_accounting(self):
        # Paper Table 4: write-backs cost 0 probes but count as hits.
        acc = ProbeAccumulator()
        for _ in range(8):
            acc.record_hit(2)
        for _ in range(2):
            acc.record_writeback(0)
        assert acc.hits_including_writebacks == pytest.approx(1.6)
        assert acc.probes_per_hit == pytest.approx(2.0)

    def test_unoptimized_writebacks_contribute_probes(self):
        acc = ProbeAccumulator()
        acc.record_hit(1)
        acc.record_writeback(3)
        assert acc.probes_per_access == 2.0

    def test_readin_accesses(self):
        acc = ProbeAccumulator()
        acc.record_hit(1)
        acc.record_miss(4)
        acc.record_writeback(0)
        assert acc.readin_accesses == 2
        assert acc.total_accesses == 3

    def test_probes_per_readin(self):
        acc = ProbeAccumulator()
        acc.record_hit(2)
        acc.record_miss(4)
        assert acc.probes_per_readin == 3.0
