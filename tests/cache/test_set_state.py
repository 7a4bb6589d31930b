"""Tests for per-set state: frames, recency, dirty bits, invariants."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache.set_state import CacheSet
from repro.errors import SimulationError


class TestBasics:
    def test_new_set_is_empty(self):
        s = CacheSet(4)
        assert s.valid_frames() == []
        assert s.first_invalid_frame() == 0
        assert s.view().mru_order == ()

    def test_install_and_find(self):
        s = CacheSet(4)
        assert s.install(0, 100) is None
        assert s.find(100) == 0
        assert s.find(200) is None

    def test_install_returns_evicted_tag(self):
        s = CacheSet(2)
        s.install(0, 100)
        assert s.install(0, 200) == 100
        assert s.find(100) is None

    def test_install_makes_frame_mru(self):
        s = CacheSet(4)
        s.install(0, 100)
        s.install(1, 200)
        assert s.view().mru_order == (1, 0)

    def test_touch_moves_to_front(self):
        s = CacheSet(4)
        s.install(0, 100)
        s.install(1, 200)
        s.touch(0)
        assert s.view().mru_order == (0, 1)
        assert s.lru_frame() == 1

    def test_touch_invalid_frame_raises(self):
        s = CacheSet(4)
        with pytest.raises(SimulationError):
            s.touch(2)

    def test_lru_of_empty_set_raises(self):
        with pytest.raises(SimulationError):
            CacheSet(2).lru_frame()


class TestDirtyBits:
    def test_clean_by_default(self):
        s = CacheSet(2)
        s.install(0, 100)
        assert not s.is_dirty(0)

    def test_install_dirty(self):
        s = CacheSet(2)
        s.install(0, 100, dirty=True)
        assert s.is_dirty(0)

    def test_set_dirty(self):
        s = CacheSet(2)
        s.install(0, 100)
        s.set_dirty(0)
        assert s.is_dirty(0)

    def test_dirty_cleared_on_reinstall(self):
        s = CacheSet(2)
        s.install(0, 100, dirty=True)
        s.install(0, 200)
        assert not s.is_dirty(0)

    def test_dirty_on_invalid_frame_raises(self):
        s = CacheSet(2)
        with pytest.raises(SimulationError):
            s.set_dirty(0)


class TestInvalidation:
    def test_invalidate_single_frame(self):
        s = CacheSet(2)
        s.install(0, 100)
        s.install(1, 200)
        s.invalidate(0)
        assert s.find(100) is None
        assert s.view().mru_order == (1,)

    def test_invalidate_idempotent(self):
        s = CacheSet(2)
        s.invalidate(0)
        s.invalidate(0)

    def test_invalidate_all(self):
        s = CacheSet(4)
        for frame in range(4):
            s.install(frame, frame + 100, dirty=True)
        s.invalidate_all()
        assert s.valid_frames() == []
        assert s.view().mru_order == ()
        s.check_invariants()


class TestFifoOrder:
    def test_oldest_frame_tracks_residence(self):
        s = CacheSet(3)
        s.install(1, 100)
        s.install(0, 200)
        s.install(2, 300)
        s.touch(1)  # recency must not affect FIFO order
        assert s.oldest_frame() == 1

    def test_reinstall_refreshes_age(self):
        s = CacheSet(2)
        s.install(0, 100)
        s.install(1, 200)
        s.install(0, 300)
        assert s.oldest_frame() == 1


@st.composite
def operations(draw):
    ops = []
    for _ in range(draw(st.integers(1, 40))):
        kind = draw(st.sampled_from(["install", "touch", "invalidate", "dirty"]))
        frame = draw(st.integers(0, 3))
        tag = draw(st.integers(0, 50))
        ops.append((kind, frame, tag))
    return ops


@given(ops=operations())
@settings(max_examples=200)
def test_invariants_hold_under_random_operations(ops):
    s = CacheSet(4)
    for kind, frame, tag in ops:
        if kind == "install":
            # Maintain within-set uniqueness, as the cache does.
            if s.find(tag) is None:
                s.install(frame, tag)
        elif kind == "touch":
            if s.tag_at(frame) is not None:
                s.touch(frame)
        elif kind == "invalidate":
            s.invalidate(frame)
        elif kind == "dirty":
            if s.tag_at(frame) is not None:
                s.set_dirty(frame)
        s.check_invariants()
        view = s.view()
        assert set(view.mru_order) == {
            f for f, t in enumerate(view.tags) if t is not None
        }
