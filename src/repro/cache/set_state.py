"""Mutable per-set state: frames, recency order, and dirty bits.

One :class:`CacheSet` holds everything the simulator and the lookup
schemes need about a set: the stored tag in each block frame, the
recency (MRU-to-LRU) ordering used both by LRU replacement and by the
MRU lookup scheme, residence order for FIFO, and dirty bits for the
write-back protocol.

Blocks never move between frames after insertion — the property the
paper's write-back optimization relies on ("the block will reside in
precisely the same position in which it was loaded").
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.core.probes import SetView
from repro.errors import SimulationError


class CacheSet:
    """State of one cache set of ``associativity`` block frames."""

    __slots__ = ("_tags", "_dirty", "_mru", "_arrival", "_clock", "_index")

    def __init__(self, associativity: int) -> None:
        if associativity <= 0:
            raise ValueError("associativity must be positive")
        self._tags: List[Optional[int]] = [None] * associativity
        self._dirty: List[bool] = [False] * associativity
        # Frame indices, most-recently-used first; valid frames only.
        self._mru: List[int] = []
        # Residence timestamps for FIFO; -1 marks invalid frames.
        self._arrival: List[int] = [-1] * associativity
        self._clock = 0
        # Tag -> frame map kept in sync with _tags so find() is O(1)
        # instead of a linear frame scan (sets hold at most one copy of
        # any tag, so the mapping is a function).
        self._index: Dict[int, int] = {}

    @property
    def associativity(self) -> int:
        """Number of block frames in the set."""
        return len(self._tags)

    def view(self) -> SetView:
        """Immutable snapshot for the lookup schemes."""
        return SetView(tags=tuple(self._tags), mru_order=tuple(self._mru))

    def find(self, tag: int) -> Optional[int]:
        """Frame holding ``tag``, or ``None`` (O(1) via the tag index)."""
        return self._index.get(tag)

    def tag_at(self, frame: int) -> Optional[int]:
        """Tag stored in ``frame`` (``None`` if invalid)."""
        return self._tags[frame]

    def is_dirty(self, frame: int) -> bool:
        """Whether ``frame`` holds modified data."""
        return self._dirty[frame]

    def set_dirty(self, frame: int, dirty: bool = True) -> None:
        """Mark ``frame`` dirty (it must be valid)."""
        if self._tags[frame] is None:
            raise SimulationError("cannot mark an invalid frame dirty")
        self._dirty[frame] = dirty

    def valid_frames(self) -> List[int]:
        """Frames currently holding a block, in frame order."""
        return [f for f, t in enumerate(self._tags) if t is not None]

    def first_invalid_frame(self) -> Optional[int]:
        """Lowest-numbered empty frame, or ``None`` if the set is full."""
        for frame, stored in enumerate(self._tags):
            if stored is None:
                return frame
        return None

    def invalid_frames(self) -> List[int]:
        """All empty frames, in frame order."""
        return [f for f, t in enumerate(self._tags) if t is None]

    def lru_frame(self) -> int:
        """Least-recently-used valid frame."""
        if not self._mru:
            raise SimulationError("LRU of an empty set is undefined")
        return self._mru[-1]

    def oldest_frame(self) -> int:
        """Valid frame resident longest (FIFO victim)."""
        valid = self.valid_frames()
        if not valid:
            raise SimulationError("FIFO victim of an empty set is undefined")
        return min(valid, key=lambda f: self._arrival[f])

    def touch(self, frame: int) -> None:
        """Move ``frame`` to the head of the MRU order.

        The common already-at-head case is a pure comparison; otherwise
        the move is an in-place ``remove`` + ``insert`` on the existing
        list — C-level element shifts, no new list objects — which for
        the small ``a`` of real caches beats any linked structure.
        """
        if self._tags[frame] is None:
            raise SimulationError("cannot touch an invalid frame")
        mru = self._mru
        if mru and mru[0] == frame:
            return
        mru.remove(frame)
        mru.insert(0, frame)

    def install(self, frame: int, tag: int, dirty: bool = False) -> Optional[int]:
        """Place ``tag`` into ``frame``, returning any evicted tag.

        The incoming block becomes most-recently used. The caller is
        responsible for write-back handling of the evicted tag (check
        :meth:`is_dirty` *before* calling).
        """
        evicted = self._tags[frame]
        if evicted is not None:
            self._mru.remove(frame)
            del self._index[evicted]
        self._tags[frame] = tag
        self._dirty[frame] = dirty
        self._index[tag] = frame
        self._mru.insert(0, frame)
        self._arrival[frame] = self._clock
        self._clock += 1
        return evicted

    def invalidate(self, frame: int) -> None:
        """Drop the block in ``frame`` without write-back."""
        stored = self._tags[frame]
        if stored is None:
            return
        self._tags[frame] = None
        self._dirty[frame] = False
        self._arrival[frame] = -1
        self._mru.remove(frame)
        del self._index[stored]

    def invalidate_all(self) -> None:
        """Flush the set (no write-backs; the paper's cold-start flush)."""
        for frame in range(len(self._tags)):
            self._tags[frame] = None
            self._dirty[frame] = False
            self._arrival[frame] = -1
        self._mru.clear()
        self._index.clear()

    def check_invariants(self) -> None:
        """Raise :class:`SimulationError` if internal state is inconsistent."""
        valid = set(self.valid_frames())
        if set(self._mru) != valid:
            raise SimulationError("MRU order out of sync with valid frames")
        if len(set(self._mru)) != len(self._mru):
            raise SimulationError("duplicate frame in MRU order")
        tags = [t for t in self._tags if t is not None]
        if len(set(tags)) != len(tags):
            raise SimulationError("duplicate tag within a set")
        for frame in range(len(self._tags)):
            if self._dirty[frame] and self._tags[frame] is None:
                raise SimulationError("dirty bit set on an invalid frame")
        if len(self._index) != len(valid):
            raise SimulationError("tag index size disagrees with valid frames")
        for frame, stored in enumerate(self._tags):
            if stored is not None and self._index.get(stored) != frame:
                raise SimulationError(
                    f"tag index out of sync: tag {stored} maps to "
                    f"{self._index.get(stored)}, stored in frame {frame}"
                )

    def __repr__(self) -> str:
        return f"CacheSet(tags={self._tags}, mru={self._mru})"
