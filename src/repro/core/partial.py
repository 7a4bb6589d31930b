"""Partial-compare implementation of set-associativity (paper §2.2).

Step one reads ``k`` bits from each stored tag of a subset in a single
probe and compares them with the corresponding bits of the incoming
tag. Step two serially full-compares only the tags that passed the
partial comparison, until a match is found or the candidates are
exhausted. With ``s`` subsets the ``a`` frames are partitioned into
contiguous groups of ``a/s`` frames, processed in series, and the
partial-compare width widens to ``k = ⌊t·s/a⌋``.

Tags are stored under an invertible :class:`~repro.core.transforms.TagTransform`
so the compared fields are close to uniformly distributed.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Union

from repro.core.probes import LookupOutcome, SetView
from repro.core.schemes import LookupScheme
from repro.core.transforms import (
    TagTransform,
    XorLowTransform,
    make_transform,
)
from repro.errors import ConfigurationError


class PartialCompareLookup(LookupScheme):
    """Two-step partial-compare lookup with subsets and tag transforms.

    Args:
        associativity: Set size ``a`` (power of two).
        tag_bits: Stored tag width ``t``.
        subsets: Number of proper subsets ``s`` (power of two dividing
            ``a``). Defaults to 1. ``s = a`` degenerates to the naive
            scheme, as the paper notes.
        partial_bits: Partial-compare width ``k``. Defaults to
            ``⌊t / (a/s)⌋``, the widest width the tag memory supports.
        transform: A :class:`TagTransform` instance, a registry name
            (``none``/``xor``/``improved``/``swap``), or ``None`` for
            the paper's default simple XOR transform.
    """

    name = "partial"

    def __init__(
        self,
        associativity: int,
        tag_bits: int = 16,
        subsets: int = 1,
        partial_bits: Optional[int] = None,
        transform: Union[TagTransform, str, None] = None,
    ) -> None:
        super().__init__(associativity)
        if tag_bits <= 0:
            raise ConfigurationError("tag_bits must be positive")
        if subsets <= 0 or subsets & (subsets - 1):
            raise ConfigurationError(
                f"subsets must be a positive power of two, got {subsets}"
            )
        if subsets > associativity:
            raise ConfigurationError(
                f"cannot split {associativity} frames into {subsets} subsets"
            )
        self.tag_bits = tag_bits
        self.subsets = subsets
        self.subset_size = associativity // subsets
        if partial_bits is None:
            partial_bits = tag_bits // self.subset_size
        if partial_bits <= 0:
            raise ConfigurationError(
                f"{tag_bits}-bit tags cannot supply a partial field to each of "
                f"{self.subset_size} tags; use more subsets"
            )
        if partial_bits * self.subset_size > tag_bits:
            raise ConfigurationError(
                f"partial width {partial_bits} x {self.subset_size} tags "
                f"exceeds the {tag_bits}-bit tag memory width"
            )
        self.partial_bits = partial_bits
        if transform is None:
            transform = XorLowTransform(tag_bits, partial_bits)
        elif isinstance(transform, str):
            transform = make_transform(transform, tag_bits, partial_bits)
        if transform.tag_bits != tag_bits or transform.field_bits != partial_bits:
            raise ConfigurationError(
                f"transform {transform!r} does not match tag_bits={tag_bits}, "
                f"partial_bits={partial_bits}"
            )
        self.transform = transform
        self._tag_mask = (1 << tag_bits) - 1
        self._field_mask = (1 << partial_bits) - 1
        # When the partial width equals the tag width, step one already
        # compares whole tags, so a partial match is definitive and no
        # step-two probe is needed (at one subset per tag this is
        # exactly the naive scheme, as the paper notes for s = a).
        self._full_width = partial_bits == tag_bits
        # Fast path: when the transform uses the default field slicing
        # the per-position compare is an inline shift-and-mask over the
        # transformed tags, skipping compare_slice calls in the
        # trace-driven hot loop.
        self._default_slicing = (
            type(transform).compare_slice is TagTransform.compare_slice
        )

    def _subset_frames(self, subset: int) -> range:
        start = subset * self.subset_size
        return range(start, start + self.subset_size)

    def partial_matches(self, view: SetView, tag: int, subset: int) -> List[int]:
        """Frames of ``subset`` whose stored tag passes the partial compare.

        The frame at position ``p`` within the subset is compared on
        field ``p`` of the transformed tags (each memory-chip collection
        is addressed independently). Invalid frames never match: the
        valid bit gates the comparator.
        """
        matches = []
        transform = self.transform
        tag_mask = self._tag_mask
        if self._default_slicing:
            incoming = transform.apply(tag & tag_mask)
            field_bits = self.partial_bits
            field_mask = self._field_mask
            for position, frame in enumerate(self._subset_frames(subset)):
                stored = view.tags[frame]
                if stored is None:
                    continue
                shift = position * field_bits
                stored_t = transform.apply(stored & tag_mask)
                if (stored_t >> shift) & field_mask == (incoming >> shift) & field_mask:
                    matches.append(frame)
            return matches
        for position, frame in enumerate(self._subset_frames(subset)):
            stored = view.tags[frame]
            if stored is None:
                continue
            stored_slice = transform.compare_slice(stored & tag_mask, position)
            incoming_slice = transform.compare_slice(tag & tag_mask, position)
            if stored_slice == incoming_slice:
                matches.append(frame)
        return matches

    def lookup(self, view: SetView, tag: int) -> LookupOutcome:
        """Count probes for ``tag``.

        Partial (step one) compares use the low ``tag_bits`` of the
        transformed tags — the bits the narrow tag memory actually
        stores. The final full compare uses the complete tag value, so
        hit/miss ground truth matches the other schemes even when the
        simulator carries tags wider than ``tag_bits``.
        """
        self._check_view(view)
        probes = 0
        for subset in range(self.subsets):
            probes += 1  # step one: the partial-compare probe
            matches = self.partial_matches(view, tag, subset)
            if self._full_width:
                for frame in matches:
                    if view.tags[frame] == tag:
                        return LookupOutcome(hit=True, frame=frame, probes=probes)
                continue
            for frame in matches:
                probes += 1  # step two: one full compare per candidate
                if view.tags[frame] == tag:
                    return LookupOutcome(hit=True, frame=frame, probes=probes)
        return LookupOutcome(hit=False, frame=None, probes=probes)

    def false_matches(self, view: SetView, tag: int) -> int:
        """Partial matches that are not the true match, over all subsets.

        Diagnostic used by the benchmark harness to compare against the
        theory prediction ``a / 2^k``.
        """
        count = 0
        for subset in range(self.subsets):
            for frame in self.partial_matches(view, tag, subset):
                if view.tags[frame] != tag:
                    count += 1
        return count

    def __repr__(self) -> str:
        return (
            f"PartialCompareLookup(associativity={self.associativity}, "
            f"tag_bits={self.tag_bits}, subsets={self.subsets}, "
            f"partial_bits={self.partial_bits}, "
            f"transform={self.transform.name!r})"
        )
