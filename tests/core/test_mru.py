"""Tests for the MRU lookup scheme and reduced MRU lists (§2.1, Fig 5)."""

import pytest

from repro.core.mru import MRULookup
from repro.core.probes import SetView
from repro.errors import ConfigurationError


def view(tags, mru):
    return SetView(tags=tuple(tags), mru_order=tuple(mru))


class TestFullMRU:
    def test_hit_at_mru_head_costs_two_probes(self):
        # One probe for the ordering information plus one tag probe.
        scheme = MRULookup(4)
        v = view([10, 20, 30, 40], mru=[2, 0, 3, 1])
        outcome = scheme.lookup(v, 30)
        assert outcome.hit
        assert outcome.frame == 2
        assert outcome.probes == 2

    def test_hit_at_mru_distance_i_costs_one_plus_i(self):
        scheme = MRULookup(4)
        v = view([10, 20, 30, 40], mru=[2, 0, 3, 1])
        expected = {30: 2, 10: 3, 40: 4, 20: 5}
        for tag, probes in expected.items():
            assert scheme.lookup(v, tag).probes == probes

    def test_miss_costs_one_plus_associativity(self):
        scheme = MRULookup(4)
        v = view([10, 20, 30, 40], mru=[0, 1, 2, 3])
        outcome = scheme.lookup(v, 99)
        assert not outcome.hit
        assert outcome.probes == 5

    def test_miss_on_partially_filled_set(self):
        scheme = MRULookup(4)
        v = view([10, None, None, None], mru=[0])
        assert scheme.lookup(v, 99).probes == 5

    def test_hit_beyond_mru_list_in_partially_filled_set(self):
        # Invalid frames are appended after the MRU-listed ones.
        scheme = MRULookup(4)
        v = view([10, None, 30, None], mru=[2, 0])
        assert scheme.lookup(v, 10).probes == 3


class TestReducedMRU:
    def test_list_length_validation(self):
        with pytest.raises(ConfigurationError):
            MRULookup(4, list_length=0)
        with pytest.raises(ConfigurationError):
            MRULookup(4, list_length=5)

    def test_default_is_full_list(self):
        assert MRULookup(8).list_length == 8

    def test_search_order_lists_then_frame_order(self):
        scheme = MRULookup(4, list_length=2)
        v = view([10, 20, 30, 40], mru=[3, 1, 0, 2])
        # First two MRU entries (frames 3, 1), then remaining frames in
        # frame order (0, 2).
        assert scheme.search_order(v) == [3, 1, 0, 2]

    def test_reduced_list_hit_within_list(self):
        scheme = MRULookup(4, list_length=2)
        v = view([10, 20, 30, 40], mru=[3, 1, 0, 2])
        assert scheme.lookup(v, 40).probes == 2
        assert scheme.lookup(v, 20).probes == 3

    def test_reduced_list_hit_beyond_list_uses_frame_order(self):
        scheme = MRULookup(4, list_length=2)
        v = view([10, 20, 30, 40], mru=[3, 1, 0, 2])
        # Frame 0 is the first tail candidate: probes = 1 + 2 + 1.
        assert scheme.lookup(v, 10).probes == 4
        # Frame 2 is the second tail candidate.
        assert scheme.lookup(v, 30).probes == 5

    def test_reduced_list_never_beats_full_list_on_average(self):
        full = MRULookup(4)
        reduced = MRULookup(4, list_length=1)
        v = view([10, 20, 30, 40], mru=[3, 2, 1, 0])
        tags = [10, 20, 30, 40]
        full_total = sum(full.lookup(v, t).probes for t in tags)
        reduced_total = sum(reduced.lookup(v, t).probes for t in tags)
        assert reduced_total >= full_total

    def test_length_one_list(self):
        scheme = MRULookup(2, list_length=1)
        v = view([5, 6], mru=[1, 0])
        assert scheme.lookup(v, 6).probes == 2
        assert scheme.lookup(v, 5).probes == 3

    def test_miss_cost_unchanged_by_list_length(self):
        v = view([10, 20, 30, 40], mru=[0, 1, 2, 3])
        for m in (1, 2, 3, 4):
            assert MRULookup(4, list_length=m).lookup(v, 99).probes == 5
