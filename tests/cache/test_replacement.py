"""Tests for replacement policies and fill order."""

import pytest

from repro.cache.replacement import (
    FifoReplacement,
    LruReplacement,
    RandomReplacement,
    make_replacement,
)
from repro.cache.set_state import CacheSet
from repro.errors import ConfigurationError


def full_set(tags):
    s = CacheSet(len(tags))
    for frame, tag in enumerate(tags):
        s.install(frame, tag)
    return s


class TestLru:
    def test_prefers_invalid_frames(self):
        policy = LruReplacement(fill="first")
        s = CacheSet(4)
        s.install(0, 100)
        assert policy.victim(s) == 1

    def test_evicts_least_recently_used(self):
        policy = LruReplacement()
        s = full_set([100, 200, 300])
        # Install order 0,1,2 -> LRU is frame 0.
        assert policy.victim(s) == 0
        s.touch(0)
        assert policy.victim(s) == 1

    def test_random_fill_covers_all_invalid_frames(self):
        policy = LruReplacement(fill="random", seed=3)
        s = CacheSet(8)
        s.install(0, 1)
        chosen = {policy.victim(s) for _ in range(200)}
        assert chosen == set(range(1, 8))

    def test_random_fill_deterministic_by_seed(self):
        def sequence(seed):
            policy = LruReplacement(fill="random", seed=seed)
            s = CacheSet(8)
            return [policy.victim(s) for _ in range(20)]

        assert sequence(7) == sequence(7)
        assert sequence(7) != sequence(8)

    def test_full_set_draws_no_fill_random_number(self):
        """A full set goes straight to the LRU frame: the fill RNG is
        untouched, so the fill sequence of the sets still filling does
        not depend on how many misses hit full sets."""
        policy = LruReplacement(fill="random", seed=3)
        s = full_set([100, 200, 300, 400])
        state = policy._fill_rng.getstate()
        assert s.is_full()
        assert policy.victim(s) == 0
        assert policy._fill_rng.getstate() == state
        s.invalidate(2)
        assert not s.is_full()
        assert policy.victim(s) == 2
        assert policy._fill_rng.getstate() != state


class TestFifo:
    def test_evicts_longest_resident(self):
        policy = FifoReplacement()
        s = full_set([100, 200, 300])
        s.touch(0)  # FIFO ignores recency
        assert policy.victim(s) == 0

    def test_reinstalled_frame_is_young(self):
        policy = FifoReplacement()
        s = full_set([100, 200])
        s.install(0, 300)
        assert policy.victim(s) == 1


class TestRandom:
    def test_victim_among_valid_frames(self):
        policy = RandomReplacement(seed=1)
        s = full_set([100, 200, 300, 400])
        for _ in range(50):
            assert 0 <= policy.evict_from(s) < 4

    def test_eventually_covers_all_frames(self):
        policy = RandomReplacement(seed=1)
        s = full_set([100, 200, 300, 400])
        assert {policy.evict_from(s) for _ in range(200)} == {0, 1, 2, 3}


class TestFactory:
    def test_make_by_name(self):
        assert isinstance(make_replacement("lru"), LruReplacement)
        assert isinstance(make_replacement("fifo"), FifoReplacement)
        assert isinstance(make_replacement("random"), RandomReplacement)

    def test_unknown_name(self):
        with pytest.raises(ConfigurationError):
            make_replacement("plru")

    def test_bad_fill_mode(self):
        with pytest.raises(ConfigurationError):
            LruReplacement(fill="sideways")

    def test_fill_passed_through(self):
        policy = make_replacement("lru", fill="first")
        assert policy.fill == "first"
