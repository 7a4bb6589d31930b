"""Tag transformations for the partial-compare scheme (paper §2.2).

The partial-compare scheme examines one ``k``-bit field of each stored
tag. High-order virtual-address bits are far from uniformly
distributed, so the paper transforms each tag before storing it with an
invertible XOR network that spreads the entropy of the low-order field
into the higher fields. Four variants appear in the paper:

- *None* (no transformation) — :class:`IdentityTransform`;
- *XOR* — the simple self-inverse transform: the low-order ``k`` bits
  are XOR-ed into every other field — :class:`XorLowTransform`;
- *Improved* — the lower-triangular GF(2) transform of Figure 6: field
  0 passes through, field 1 is XOR-ed with field 0, and every higher
  field is XOR-ed with both fields 0 and 1 — :class:`ImprovedXorTransform`;
- *Swap* — the low-order bits of the incoming tag are always compared
  with the low-order bits of the stored tag — :class:`BitSwapTransform`.

All transforms are bijections on ``t``-bit tags (so full-tag equality
is preserved), and each provides its inverse so stored tags can be
recovered for write-backs, exactly as the hardware would.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Dict, List, Type

from repro.errors import ConfigurationError


class TagTransform(ABC):
    """A bijection on ``t``-bit tags used to decorrelate partial fields.

    Subclasses define :meth:`apply` (performed before a tag is stored
    or compared) and :meth:`invert` (used to recover the original tag
    for write-backs). ``compare_slice`` extracts the ``k``-bit value a
    partial comparator at position ``i`` sees; the default reads field
    ``i`` of the transformed tag, which models the paper's addressing
    trick of giving each memory-chip collection a different address.

    Field 0 is the least-significant ``k`` bits of a tag; if ``k`` does
    not divide ``t``, the most-significant field is narrower.
    """

    #: Registry key; subclasses override.
    name: str = "abstract"

    def __init__(self, tag_bits: int, field_bits: int) -> None:
        if tag_bits <= 0:
            raise ConfigurationError("tag_bits must be positive")
        if field_bits <= 0:
            raise ConfigurationError("field_bits must be positive")
        if field_bits > tag_bits:
            raise ConfigurationError(
                f"field width {field_bits} exceeds tag width {tag_bits}"
            )
        self.tag_bits = tag_bits
        self.field_bits = field_bits
        self._field_mask = (1 << field_bits) - 1
        self._tag_mask = (1 << tag_bits) - 1

    @property
    def num_fields(self) -> int:
        """Number of (possibly ragged) fields in a tag."""
        return -(-self.tag_bits // self.field_bits)

    def _copies(self, first: int) -> int:
        """A word with bit 0 of every field from ``first`` up set:
        multiplying a ``k``-bit value by it writes that value into each
        of those fields (truncated to ``t`` bits by the caller)."""
        return sum(
            1 << (index * self.field_bits)
            for index in range(first, self.num_fields)
        )

    @abstractmethod
    def apply(self, tag: int) -> int:
        """Transform ``tag`` into its stored representation."""

    @abstractmethod
    def invert(self, stored: int) -> int:
        """Recover the original tag from its stored representation."""

    def compare_slice(self, tag: int, position: int) -> int:
        """The ``k``-bit value the comparator at ``position`` sees.

        ``position`` counts tags within one subset; the hardware
        addresses the ``position``-th collection of memory chips so it
        delivers field ``position`` of the stored tag.
        """
        shift = position * self.field_bits
        if shift >= self.tag_bits:
            raise ConfigurationError(
                f"compare position {position} out of range for "
                f"{self.tag_bits}-bit tags with {self.field_bits}-bit fields"
            )
        return (self.apply(tag) >> shift) & self._field_mask

    def __repr__(self) -> str:
        return (
            f"{type(self).__name__}(tag_bits={self.tag_bits}, "
            f"field_bits={self.field_bits})"
        )


class IdentityTransform(TagTransform):
    """No transformation (the paper's "None" line in Figure 6)."""

    name = "none"

    def apply(self, tag: int) -> int:
        return tag & self._tag_mask

    def invert(self, stored: int) -> int:
        return stored & self._tag_mask


class XorLowTransform(TagTransform):
    """The paper's simple transform: XOR field 0 into every other field.

    Self-inverse: applying it twice yields the original tag, which is
    why the paper notes stored tags can be recovered "via the same
    transformation in which they were stored".
    """

    name = "xor"

    def __init__(self, tag_bits: int, field_bits: int) -> None:
        super().__init__(tag_bits, field_bits)
        self._low_copies = self._copies(1)

    def apply(self, tag: int) -> int:
        low = tag & self._field_mask
        return (tag ^ low * self._low_copies) & self._tag_mask

    def invert(self, stored: int) -> int:
        return self.apply(stored)


class ImprovedXorTransform(TagTransform):
    """The paper's improved lower-triangular GF(2) transform (Figure 6).

    Field 0 passes through; field 1 is XOR-ed with field 0; every field
    at index 2 or above is XOR-ed with both field 0 and field 1. As a
    linear map over GF(2) this is lower-triangular with ones on the
    diagonal, hence invertible — but unlike :class:`XorLowTransform` it
    is *not* its own inverse: stored field 1 is ``f1 ^ f0``, so the
    inverse XORs stored field 0 into field 1 and stored field 1 (which
    carries ``f0 ^ f1``) into every field from 2 up.
    """

    name = "improved"

    def __init__(self, tag_bits: int, field_bits: int) -> None:
        super().__init__(tag_bits, field_bits)
        self._low_copies = self._copies(1)
        self._high_copies = self._copies(2)

    def apply(self, tag: int) -> int:
        k, mask = self.field_bits, self._field_mask
        mixed = (tag & mask) * self._low_copies
        mixed ^= (tag >> k & mask) * self._high_copies
        return (tag ^ mixed) & self._tag_mask

    def invert(self, stored: int) -> int:
        k, mask = self.field_bits, self._field_mask
        mixed = (stored & mask) << k
        mixed ^= (stored >> k & mask) * self._high_copies
        return (stored ^ mixed) & self._tag_mask


class BitSwapTransform(TagTransform):
    """Always compare the low-order fields of incoming and stored tags.

    The paper mentions this variant ("the bits of the tag are swapped so
    that the low order bits of the incoming tag are always compared with
    the low order bits of the stored tag") as well-performing but more
    expensive to implement. Tags are stored unmodified; the comparator
    at every position sees field 0.
    """

    name = "swap"

    def apply(self, tag: int) -> int:
        return tag & self._tag_mask

    def invert(self, stored: int) -> int:
        return stored & self._tag_mask

    def compare_slice(self, tag: int, position: int) -> int:
        return tag & self._field_mask


_TRANSFORMS: Dict[str, Type[TagTransform]] = {
    IdentityTransform.name: IdentityTransform,
    XorLowTransform.name: XorLowTransform,
    ImprovedXorTransform.name: ImprovedXorTransform,
    BitSwapTransform.name: BitSwapTransform,
}


def available_transforms() -> List[str]:
    """Names accepted by :func:`make_transform`."""
    return sorted(_TRANSFORMS)


def make_transform(name: str, tag_bits: int, field_bits: int) -> TagTransform:
    """Build a transform by registry name (``none``/``xor``/``improved``/``swap``)."""
    try:
        cls = _TRANSFORMS[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown transform {name!r}; choose from {available_transforms()}"
        ) from None
    return cls(tag_bits, field_bits)
