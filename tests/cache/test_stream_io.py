"""Tests for miss-stream persistence."""

import struct

import pytest

from repro.cache.direct_mapped import DirectMappedCache
from repro.cache.hierarchy import capture_miss_stream, replay_miss_stream
from repro.cache.set_associative import SetAssociativeCache
from repro.cache.stream import PackedMissStream
from repro.errors import TraceFormatError
from repro.trace.synthetic import AtumWorkload


@pytest.fixture(scope="module")
def stream():
    workload = AtumWorkload(segments=2, references_per_segment=5_000, seed=3)
    return capture_miss_stream(iter(workload), DirectMappedCache(2048, 16))


class TestSaveLoad:
    def test_roundtrip(self, stream, tmp_path):
        path = tmp_path / "stream.rpm2"
        stream.save(path)
        loaded = PackedMissStream.load(path, mmap=False)
        assert loaded.content_hash() == stream.content_hash()
        assert loaded.processor_references == stream.processor_references

    def test_flush_markers_survive(self, stream, tmp_path):
        assert stream.n_flushes == 1
        path = tmp_path / "s.rpm2"
        stream.save(path)
        loaded = PackedMissStream.load(path)
        assert list(loaded.flush_offsets) == list(stream.flush_offsets)

    def test_replay_of_loaded_stream_matches(self, stream, tmp_path):
        path = tmp_path / "s.rpm2"
        stream.save(path)
        loaded = PackedMissStream.load(path, mmap=False)

        a = SetAssociativeCache(16 * 1024, 32, 4)
        b = SetAssociativeCache(16 * 1024, 32, 4)
        replay_miss_stream(stream, a)
        replay_miss_stream(loaded, b)
        assert a.stats.readin_misses == b.stats.readin_misses
        for set_a, set_b in zip(a.sets, b.sets):
            assert set_a.view() == set_b.view()

    def test_empty_stream(self, tmp_path):
        path = tmp_path / "empty.rpm2"
        PackedMissStream().save(path)
        loaded = PackedMissStream.load(path, mmap=False)
        assert len(loaded) == 0
        assert loaded.processor_references == 0

    def test_save_writes_rpm2(self, stream, tmp_path):
        path = tmp_path / "s.rpm2"
        stream.save(path)
        assert path.read_bytes()[:4] == b"RPM2"
        loaded = PackedMissStream.load(path)
        assert loaded.content_hash() == stream.content_hash()


class TestErrors:
    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.rpm2"
        path.write_bytes(b"NOPE" + b"\x00" * 32)
        with pytest.raises(TraceFormatError, match="not a saved miss stream"):
            PackedMissStream.load(path, mmap=False)

    def test_truncated_header(self, tmp_path):
        path = tmp_path / "trunc.rpm2"
        path.write_bytes(b"RPM2" + b"\x00" * 4)
        with pytest.raises(TraceFormatError, match="header"):
            PackedMissStream.load(path, mmap=False)

    def test_rpms_record_file_is_not_a_miss_stream(self, tmp_path):
        # The pre-RPM2 record layout: magic, reference and record
        # counts, then one (code, address) record per event.
        path = tmp_path / "old.rpms"
        path.write_bytes(
            b"RPMS" + struct.pack("<QQ", 9, 1) + struct.pack("<bQ", 0, 64)
        )
        for mmap in (False, True):
            with pytest.raises(
                TraceFormatError, match="not a saved miss stream"
            ):
                PackedMissStream.load(path, mmap=mmap)


class TestColumnarInterop:
    """A mapped stream replays exactly like the captured one."""

    def test_rpm2_replay_matches_legacy_replay(self, stream, tmp_path):
        path = tmp_path / "columnar.rpm2"
        stream.save(path)
        mapped = PackedMissStream.load(path, mmap=True)
        a = SetAssociativeCache(16 * 1024, 32, 4)
        b = SetAssociativeCache(16 * 1024, 32, 4)
        replay_miss_stream(stream, a)
        replay_miss_stream(mapped, b)
        assert a.stats.__dict__ == b.stats.__dict__

    def test_corrupt_rpm2_header(self, tmp_path):
        path = tmp_path / "trunc.rpm2"
        path.write_bytes(b"RPM2" + b"\x00" * 4)
        with pytest.raises(TraceFormatError, match="header"):
            PackedMissStream.load(path)
