"""Tests for the tag transformations of Section 2.2."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.transforms import (
    BitSwapTransform,
    IdentityTransform,
    ImprovedXorTransform,
    TagTransform,
    XorLowTransform,
    available_transforms,
    make_transform,
)
from repro.errors import ConfigurationError

ALL_TRANSFORMS = [
    IdentityTransform,
    XorLowTransform,
    ImprovedXorTransform,
    BitSwapTransform,
]


def fields(tag, tag_bits, field_bits):
    """The tag's ``field_bits``-wide fields, field 0 (the low bits)
    first; the top field is narrower when the width does not divide
    ``tag_bits``."""
    mask = (1 << field_bits) - 1
    return [(tag >> shift) & mask for shift in range(0, tag_bits, field_bits)]


def join(parts, tag_bits, field_bits):
    """The ``tag_bits``-wide tag holding ``parts`` as its fields."""
    tag = 0
    for index, part in enumerate(parts):
        tag |= part << (index * field_bits)
    return tag & ((1 << tag_bits) - 1)


#: Stored fields from the tag's fields ``f``, as §2.2 and Figure 6
#: define each transform: "none" and "swap" store the tag unmodified,
#: "xor" XORs field 0 into every other field, and "improved" XORs field
#: 0 into field 1 and fields 0 and 1 into every higher field.
DEFINITIONS = {
    "none": lambda f: f,
    "swap": lambda f: f,
    "xor": lambda f: f[:1] + [x ^ f[0] for x in f[1:]],
    "improved": lambda f: (
        f[:1] + [x ^ f[0] for x in f[1:2]] + [x ^ f[0] ^ f[1] for x in f[2:]]
    ),
}


def defined(name, tag, tag_bits, field_bits):
    """The stored form of ``tag`` under transform ``name``, field by field."""
    return join(
        DEFINITIONS[name](fields(tag, tag_bits, field_bits)),
        tag_bits, field_bits,
    )


def assert_matches_definition(name, tag_bits, field_bits, tags):
    transform = make_transform(name, tag_bits, field_bits)
    stored = [defined(name, tag, tag_bits, field_bits) for tag in tags]
    assert [transform.apply(tag) for tag in tags] == stored
    assert [transform.invert(value) for value in stored] == list(tags)


class TestClosedForm:
    """Each transform's shifts and XORs equal its field-by-field
    definition, and ``invert`` undoes it."""

    def test_definitions_cover_every_transform(self):
        assert sorted(DEFINITIONS) == available_transforms()

    @pytest.mark.parametrize("name", sorted(DEFINITIONS))
    def test_every_16_bit_tag(self, name):
        assert_matches_definition(name, 16, 4, range(1 << 16))

    @pytest.mark.parametrize("name", sorted(DEFINITIONS))
    def test_every_10_bit_tag_at_every_field_width(self, name):
        # Ragged top fields, a ragged field 1 and a single field included.
        for field_bits in range(1, 11):
            assert_matches_definition(name, 10, field_bits, range(1 << 10))

    @pytest.mark.parametrize("name", sorted(DEFINITIONS))
    @given(data=st.data())
    @settings(max_examples=200)
    def test_tags_up_to_48_bits(self, name, data):
        tag_bits = data.draw(st.integers(1, 48), label="tag_bits")
        field_bits = data.draw(st.integers(1, tag_bits), label="field_bits")
        tags = data.draw(
            st.lists(st.integers(0, 2**tag_bits - 1), min_size=1, max_size=8),
            label="tags",
        )
        assert_matches_definition(name, tag_bits, field_bits, tags)


class TestTransformValidation:
    @pytest.mark.parametrize("cls", ALL_TRANSFORMS)
    def test_rejects_nonpositive_widths(self, cls):
        with pytest.raises(ConfigurationError):
            cls(0, 4)
        with pytest.raises(ConfigurationError):
            cls(16, 0)

    @pytest.mark.parametrize("cls", ALL_TRANSFORMS)
    def test_rejects_field_wider_than_tag(self, cls):
        with pytest.raises(ConfigurationError):
            cls(4, 8)

    def test_make_transform_by_name(self):
        for name in available_transforms():
            transform = make_transform(name, 16, 4)
            assert isinstance(transform, TagTransform)
            assert transform.name == name

    def test_make_transform_unknown_name(self):
        with pytest.raises(ConfigurationError):
            make_transform("md5", 16, 4)


class TestBijectivity:
    @pytest.mark.parametrize("cls", ALL_TRANSFORMS)
    def test_exhaustive_bijection_8bit(self, cls):
        transform = cls(8, 2)
        images = {transform.apply(tag) for tag in range(256)}
        assert len(images) == 256

    @pytest.mark.parametrize("cls", ALL_TRANSFORMS)
    @given(tag=st.integers(0, 2**16 - 1))
    @settings(max_examples=200)
    def test_invert_recovers_tag(self, cls, tag):
        transform = cls(16, 4)
        assert transform.invert(transform.apply(tag)) == tag

    @pytest.mark.parametrize("cls", ALL_TRANSFORMS)
    @given(tag=st.integers(0, 2**17 - 1))
    @settings(max_examples=100)
    def test_invert_recovers_tag_ragged(self, cls, tag):
        # 17-bit tags with 4-bit fields: a 1-bit top field.
        transform = cls(17, 4)
        assert transform.invert(transform.apply(tag)) == tag

    @given(tag=st.integers(0, 2**16 - 1))
    @settings(max_examples=100)
    def test_xor_is_self_inverse(self, tag):
        transform = XorLowTransform(16, 4)
        assert transform.apply(transform.apply(tag)) == tag

    def test_improved_is_not_self_inverse(self):
        transform = ImprovedXorTransform(16, 4)
        # The paper: "the new transformation is not its own inverse".
        counterexamples = [
            t for t in range(2**16) if transform.apply(transform.apply(t)) != t
        ]
        assert counterexamples


class TestTransformSemantics:
    def test_identity_passes_through(self):
        transform = IdentityTransform(16, 4)
        assert transform.apply(0xBEEF) == 0xBEEF

    def test_xor_low_folds_field0_into_others(self):
        transform = XorLowTransform(16, 4)
        # tag fields (low to high): D, C, B, A -> D, C^D, B^D, A^D
        assert transform.apply(0xABCD) == (
            (0xA ^ 0xD) << 12 | (0xB ^ 0xD) << 8 | (0xC ^ 0xD) << 4 | 0xD
        )

    def test_improved_structure(self):
        transform = ImprovedXorTransform(16, 4)
        # fields f0..f3 -> f0, f1^f0, f2^f0^f1, f3^f0^f1
        f0, f1, f2, f3 = 0xD, 0xC, 0xB, 0xA
        expected = (
            (f3 ^ f0 ^ f1) << 12 | (f2 ^ f0 ^ f1) << 8 | (f1 ^ f0) << 4 | f0
        )
        assert transform.apply(0xABCD) == expected

    def test_improved_field0_preserved(self):
        transform = ImprovedXorTransform(16, 4)
        for tag in (0x0001, 0xFFF7, 0x1234):
            assert transform.apply(tag) & 0xF == tag & 0xF

    def test_compare_slice_reads_transformed_field(self):
        transform = XorLowTransform(16, 4)
        tag = 0xABCD
        stored = transform.apply(tag)
        for position in range(4):
            expected = (stored >> (4 * position)) & 0xF
            assert transform.compare_slice(tag, position) == expected

    def test_compare_slice_out_of_range(self):
        transform = IdentityTransform(16, 4)
        with pytest.raises(ConfigurationError):
            transform.compare_slice(0, 4)

    def test_swap_always_compares_low_field(self):
        transform = BitSwapTransform(16, 4)
        tag = 0xABCD
        for position in range(4):
            assert transform.compare_slice(tag, position) == 0xD

    def test_swap_stores_tags_unmodified(self):
        transform = BitSwapTransform(16, 4)
        assert transform.apply(0x1234) == 0x1234

    @pytest.mark.parametrize("cls", ALL_TRANSFORMS)
    def test_apply_stays_within_tag_width(self, cls):
        transform = cls(16, 4)
        for tag in (0, 0xFFFF, 0x8421, 0x7001):
            assert 0 <= transform.apply(tag) < 2**16
            assert 0 <= transform.invert(tag) < 2**16

    def test_num_fields(self):
        assert IdentityTransform(16, 4).num_fields == 4
        assert IdentityTransform(17, 4).num_fields == 5
        assert IdentityTransform(16, 16).num_fields == 1
