"""Tests for the packed (columnar) miss stream and its RPM2 artifact."""

import gzip
import pickle

import pytest

from repro.cache.artifacts import (
    StreamArtifactStore,
    get_artifact_store,
    set_artifact_store,
)
from repro.cache.direct_mapped import DirectMappedCache
from repro.cache.hierarchy import (
    FLUSH_MARKER,
    MissStream,
    cached_miss_stream,
    capture_miss_stream,
    clear_miss_stream_cache,
)
from repro.cache.stream import PackedMissStream
from repro.errors import TraceFormatError
from repro.obs.metrics import get_metrics
from repro.trace.synthetic import AtumWorkload


@pytest.fixture(scope="module")
def legacy_stream():
    workload = AtumWorkload(segments=3, references_per_segment=4_000, seed=7)
    return capture_miss_stream(iter(workload), DirectMappedCache(2048, 16))


@pytest.fixture(scope="module")
def packed(legacy_stream):
    return PackedMissStream.from_miss_stream(legacy_stream)


class TestConversion:
    def test_roundtrip_through_packed(self, legacy_stream, packed):
        back = packed.to_miss_stream()
        assert back.events == legacy_stream.events
        assert back.processor_references == legacy_stream.processor_references

    def test_iter_events_matches_legacy_inline_flushes(
        self, legacy_stream, packed
    ):
        assert list(packed.iter_events()) == legacy_stream.events

    def test_len_counts_flush_markers_like_legacy(self, legacy_stream, packed):
        assert len(packed) == len(legacy_stream)
        assert packed.n_flushes == legacy_stream.events.count(FLUSH_MARKER)

    def test_readin_writeback_counts_match_legacy(self, legacy_stream, packed):
        assert packed.readins == legacy_stream.readins
        assert packed.writebacks == legacy_stream.writebacks

    def test_counts_invalidate_on_append(self):
        stream = PackedMissStream()
        stream.append(0, 64)
        assert (stream.readins, stream.writebacks) == (1, 0)
        stream.append(1, 128)
        assert (stream.readins, stream.writebacks) == (1, 1)

    def test_from_events_flushes(self):
        stream = PackedMissStream.from_events(
            [(0, 32), FLUSH_MARKER, (1, 64)], processor_references=9
        )
        assert stream.n_events == 2
        assert list(stream.flush_offsets) == [1]
        assert list(stream.iter_events()) == [(0, 32), FLUSH_MARKER, (1, 64)]


class TestRpm2SaveLoad:
    def test_roundtrip(self, packed, tmp_path):
        path = tmp_path / "stream.rpm2"
        packed.save(path)
        loaded = PackedMissStream.load(path)
        assert list(loaded.iter_events()) == list(packed.iter_events())
        assert loaded.processor_references == packed.processor_references

    def test_mmap_load_is_lazy_and_equal(self, packed, tmp_path):
        path = tmp_path / "stream.rpm2"
        packed.save(path)
        mapped = PackedMissStream.load(path, mmap=True)
        eager = PackedMissStream.load(path, mmap=False)
        assert list(mapped.codes) == list(eager.codes)
        assert list(mapped.addresses) == list(eager.addresses)
        assert list(mapped.flush_offsets) == list(eager.flush_offsets)

    def test_gzip_roundtrip(self, packed, tmp_path):
        path = tmp_path / "stream.rpm2.gz"
        packed.save(path)
        with gzip.open(path, "rb") as handle:
            assert handle.read(4) == b"RPM2"
        loaded = PackedMissStream.load(path)
        assert list(loaded.iter_events()) == list(packed.iter_events())

    def test_content_hash_stable_across_roundtrip(self, packed, tmp_path):
        path = tmp_path / "stream.rpm2"
        packed.save(path)
        assert PackedMissStream.load(path).content_hash() == packed.content_hash()

    def test_legacy_rpms_loads_through_packed(
        self, legacy_stream, tmp_path, write_rpms
    ):
        path = write_rpms(legacy_stream, tmp_path / "stream.rpms")
        loaded = PackedMissStream.load(path)
        assert list(loaded.iter_events()) == legacy_stream.events

    def test_rpm2_loads_through_legacy_missstream(self, packed, tmp_path):
        path = tmp_path / "stream.rpm2"
        packed.save(path)
        loaded = MissStream.load(path)
        assert loaded.events == list(packed.iter_events())

    def test_empty_stream(self, tmp_path):
        path = tmp_path / "empty.rpm2"
        PackedMissStream().save(path)
        loaded = PackedMissStream.load(path)
        assert loaded.n_events == 0
        assert loaded.n_flushes == 0

    def test_pickle_roundtrip_of_mapped_stream(self, packed, tmp_path):
        path = tmp_path / "stream.rpm2"
        packed.save(path)
        mapped = PackedMissStream.load(path, mmap=True)
        clone = pickle.loads(pickle.dumps(mapped))
        assert list(clone.iter_events()) == list(packed.iter_events())
        assert clone.processor_references == packed.processor_references


class TestRpm2Errors:
    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.rpm2"
        path.write_bytes(b"NOPE" + b"\x00" * 40)
        with pytest.raises(TraceFormatError, match="not a saved miss stream"):
            PackedMissStream.load(path)

    def test_truncated_header(self, tmp_path):
        path = tmp_path / "trunc.rpm2"
        path.write_bytes(b"RPM2" + b"\x00" * 4)
        with pytest.raises(TraceFormatError, match="header"):
            PackedMissStream.load(path)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.rpm2"
        path.write_bytes(b"")
        with pytest.raises(TraceFormatError, match="not a saved miss stream"):
            PackedMissStream.load(path)

    def test_truncated_columns(self, packed, tmp_path):
        path = tmp_path / "cut.rpm2"
        packed.save(path)
        data = path.read_bytes()
        path.write_bytes(data[: len(data) - 16])
        with pytest.raises(TraceFormatError, match="column"):
            PackedMissStream.load(path, mmap=False)

    def test_unsupported_version(self, packed, tmp_path):
        path = tmp_path / "vers.rpm2"
        packed.save(path)
        data = bytearray(path.read_bytes())
        data[4] = 99
        path.write_bytes(bytes(data))
        with pytest.raises(TraceFormatError, match="version"):
            PackedMissStream.load(path, mmap=False)


class TestArtifactStore:
    @pytest.fixture(autouse=True)
    def _isolate(self, monkeypatch):
        monkeypatch.delenv("REPRO_STREAM_ARTIFACTS", raising=False)
        clear_miss_stream_cache()
        yield
        set_artifact_store(None)
        clear_miss_stream_cache()

    def test_env_var_configures_store(self, monkeypatch, tmp_path):
        assert get_artifact_store() is None
        monkeypatch.setenv("REPRO_STREAM_ARTIFACTS", str(tmp_path))
        store = get_artifact_store()
        assert isinstance(store, StreamArtifactStore)
        assert store.root == tmp_path

    def test_save_then_load_roundtrip(self, tmp_path):
        workload = AtumWorkload(
            segments=1, references_per_segment=1_000, seed=5
        )
        store = StreamArtifactStore(tmp_path)
        assert store.load(workload, 2048, 16) is None
        set_artifact_store(store)
        stream, ratio = cached_miss_stream(workload, 2048, 16)
        entry = store.load(workload, 2048, 16)
        assert entry is not None
        loaded, loaded_ratio = entry
        assert loaded_ratio == ratio
        assert list(loaded.iter_events()) == stream.events

    def test_artifact_hit_skips_recapture(self, tmp_path):
        workload = AtumWorkload(
            segments=1, references_per_segment=1_000, seed=6
        )
        set_artifact_store(tmp_path)
        first, ratio = cached_miss_stream(workload, 2048, 16)
        clear_miss_stream_cache()
        metrics = get_metrics()
        hits_before = metrics.counter("miss_stream.artifact_hits").value
        second, ratio_again = cached_miss_stream(workload, 2048, 16)
        assert metrics.counter("miss_stream.artifact_hits").value == (
            hits_before + 1
        )
        assert ratio_again == ratio
        assert second.events == first.events
        assert second.processor_references == first.processor_references

    def test_corrupt_artifact_treated_as_miss(self, tmp_path):
        workload = AtumWorkload(
            segments=1, references_per_segment=1_000, seed=8
        )
        store = StreamArtifactStore(tmp_path)
        set_artifact_store(store)
        cached_miss_stream(workload, 2048, 16)
        stream_path = next(tmp_path.glob("*.rpm2"))
        stream_path.write_bytes(b"RPM2" + b"\x00" * 3)
        assert store.load(workload, 2048, 16) is None
        clear_miss_stream_cache()
        stream, _ = cached_miss_stream(workload, 2048, 16)
        assert stream.readins > 0
        assert store.load(workload, 2048, 16) is not None
