"""Tests for miss-stream persistence."""

import pytest

from repro.cache.direct_mapped import DirectMappedCache
from repro.cache.hierarchy import (
    FLUSH_MARKER,
    MissStream,
    capture_miss_stream,
    replay_miss_stream,
)
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
        loaded = MissStream.load(path)
        assert loaded.events == stream.events
        assert loaded.processor_references == stream.processor_references

    def test_gzip_roundtrip(self, stream, tmp_path):
        path = tmp_path / "stream.rpm2.gz"
        stream.save(path)
        loaded = MissStream.load(path)
        assert loaded.events == stream.events

    def test_flush_markers_survive(self, stream, tmp_path):
        assert FLUSH_MARKER in stream.events
        path = tmp_path / "s.rpm2"
        stream.save(path)
        assert FLUSH_MARKER in MissStream.load(path).events

    def test_replay_of_loaded_stream_matches(self, stream, tmp_path):
        path = tmp_path / "s.rpm2"
        stream.save(path)
        loaded = MissStream.load(path)

        a = SetAssociativeCache(16 * 1024, 32, 4)
        b = SetAssociativeCache(16 * 1024, 32, 4)
        replay_miss_stream(stream, a)
        replay_miss_stream(loaded, b)
        assert a.stats.readin_misses == b.stats.readin_misses
        for set_a, set_b in zip(a.sets, b.sets):
            assert set_a.view() == set_b.view()

    def test_empty_stream(self, tmp_path):
        path = tmp_path / "empty.rpm2"
        MissStream().save(path)
        loaded = MissStream.load(path)
        assert loaded.events == []
        assert loaded.processor_references == 0

    def test_save_writes_rpm2(self, stream, tmp_path):
        path = tmp_path / "s.rpm2"
        stream.save(path)
        assert path.read_bytes()[:4] == b"RPM2"
        loaded = PackedMissStream.load(path)
        assert loaded.content_hash() == (
            PackedMissStream.from_miss_stream(stream).content_hash()
        )


class TestErrors:
    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.rpms"
        path.write_bytes(b"NOPE" + b"\x00" * 32)
        with pytest.raises(TraceFormatError, match="not a saved miss stream"):
            MissStream.load(path)

    def test_truncated_header(self, tmp_path):
        path = tmp_path / "trunc.rpms"
        path.write_bytes(b"RPMS" + b"\x00" * 4)
        with pytest.raises(TraceFormatError, match="header"):
            MissStream.load(path)

    def test_truncated_records(self, stream, tmp_path, write_rpms):
        path = write_rpms(stream, tmp_path / "cut.rpms")
        data = path.read_bytes()
        path.write_bytes(data[:-4])
        with pytest.raises(TraceFormatError, match="record"):
            MissStream.load(path)


class TestColumnarInterop:
    """Both loaders read RPM2, and both still read legacy ``RPMS``."""

    def test_legacy_load_of_rpm2_file(self, stream, tmp_path):
        packed = PackedMissStream.from_miss_stream(stream)
        path = tmp_path / "columnar.rpm2"
        packed.save(path)
        loaded = MissStream.load(path)
        assert loaded.events == stream.events
        assert loaded.processor_references == stream.processor_references

    def test_packed_load_of_rpms_file(self, stream, tmp_path, write_rpms):
        path = write_rpms(stream, tmp_path / "legacy.rpms")
        loaded = PackedMissStream.load(path)
        assert list(loaded.iter_events()) == stream.events
        assert loaded.processor_references == stream.processor_references

    def test_legacy_load_of_rpms_file(self, stream, tmp_path, write_rpms):
        path = write_rpms(stream, tmp_path / "legacy.rpms")
        loaded = MissStream.load(path)
        assert loaded.events == stream.events
        assert loaded.processor_references == stream.processor_references

    def test_rpm2_replay_matches_legacy_replay(self, stream, tmp_path):
        path = tmp_path / "columnar.rpm2"
        PackedMissStream.from_miss_stream(stream).save(path)
        mapped = PackedMissStream.load(path, mmap=True)
        a = SetAssociativeCache(16 * 1024, 32, 4)
        b = SetAssociativeCache(16 * 1024, 32, 4)
        replay_miss_stream(stream, a)
        replay_miss_stream(mapped.to_miss_stream(), b)
        assert a.stats.__dict__ == b.stats.__dict__

    def test_corrupt_rpm2_header(self, tmp_path):
        path = tmp_path / "trunc.rpm2"
        path.write_bytes(b"RPM2" + b"\x00" * 4)
        with pytest.raises(TraceFormatError, match="header"):
            PackedMissStream.load(path)
