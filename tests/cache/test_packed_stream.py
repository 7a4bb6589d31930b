"""Tests for the packed (columnar) miss stream that L1 capture builds."""

import pytest

from repro.cache.direct_mapped import DirectMappedCache
from repro.cache.hierarchy import capture_miss_stream
from repro.cache.stream import PackedMissStream
from repro.experiments.configs import parse_geometry
from repro.trace.synthetic import AtumWorkload


@pytest.fixture(scope="module")
def packed():
    workload = AtumWorkload(segments=3, references_per_segment=4_000, seed=7)
    return capture_miss_stream(iter(workload), DirectMappedCache(2048, 16))


class TestConversion:
    def test_len_counts_flush_markers_like_legacy(self, packed):
        # One position per event and one per flush.
        assert packed.n_flushes == 2
        assert len(packed) == packed.n_events + 2

    def test_readin_writeback_counts_match_legacy(self, packed):
        codes = list(packed.codes)
        assert packed.readins == codes.count(0)
        assert packed.writebacks == codes.count(1)
        assert packed.readins + packed.writebacks == packed.n_events

    def test_counts_invalidate_on_append(self):
        stream = PackedMissStream()
        stream.append(0, 64)
        assert (stream.readins, stream.writebacks) == (1, 0)
        stream.append(1, 128)
        assert (stream.readins, stream.writebacks) == (1, 1)

    def test_readin_miss_ratio(self):
        stream = PackedMissStream()
        assert stream.readin_miss_ratio == 0.0
        stream.append(0, 64)
        stream.append(1, 128)
        stream.processor_references = 4
        assert stream.readin_miss_ratio == 0.25


class TestSegments:
    def test_every_flush_cuts_a_window_even_an_empty_one(self):
        stream = PackedMissStream()
        stream.append_flush()  # leading
        stream.append(0, 32)
        stream.append(1, 64)
        stream.append_flush()  # back-to-back
        stream.append_flush()
        stream.append(0, 96)
        stream.append_flush()  # trailing
        windows = [
            (list(codes), list(addresses))
            for codes, addresses in stream.segments()
        ]
        assert len(windows) == stream.n_flushes + 1
        assert windows == [
            ([], []), ([0, 1], [32, 64]), ([], []), ([0], [96]), ([], []),
        ]


#: ``capture_miss_stream(...).content_hash()`` for
#: ``AtumWorkload(segments=3, references_per_segment=4_000, seed=S)``.
#: Capture must stay byte-exact: every L2 number downstream is a
#: replay of these bytes.
CONTENT_HASHES = {
    (1989, "4K-16"): "436f50cb51332aa215042ebd1a554a447c42099c2137815c657a421080a0adeb",
    (1989, "16K-16"): "15b83d7f0c5f93cbdcd15e6b8c13d79c2f6c19af94e2d526f6bc1e629d0a1e32",
    (1989, "16K-32"): "d9ffd272a780fc8b620b9d411c98866d3f4245bf559242cb5410a9dd5b72dbaf",
    (7, "4K-16"): "82f788984717dd0d0bbcb9b25a67cc13ef47a054e63f9f129ad7135c28f87356",
    (7, "16K-16"): "7c26d4967a02dddc3839fc49fb9eddb11d2b777d017d4dbf2f6b93d510680d91",
    (7, "16K-32"): "79c7485f26ee00dea79250a00cce861c480c09d86bdaf9bd46a22347f54bbfd9",
    (2024, "4K-16"): "df90232b8866fae46467ef6060b856d617e57e3fbbe9e4e7b0939f3dfa4731d6",
    (2024, "16K-16"): "a4f1ae9ef8949c6d245b65e2f42dca1a9b8677bd15877c7c7582d594622efa35",
    (2024, "16K-32"): "798e03096fcbd3b854bda1ae42a860ee791fd7f31a9295a02ea1d392af66ac93",
}


@pytest.mark.parametrize("seed, l1", sorted(CONTENT_HASHES))
def test_capture_content_hash_is_pinned(seed, l1):
    geometry = parse_geometry(l1)
    workload = AtumWorkload(
        segments=3, references_per_segment=4_000, seed=seed
    )
    stream = capture_miss_stream(
        iter(workload),
        DirectMappedCache(geometry.capacity_bytes, geometry.block_size),
    )
    assert stream.content_hash() == CONTENT_HASHES[seed, l1]
