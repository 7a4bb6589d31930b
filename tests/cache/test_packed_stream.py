"""Tests for the packed (columnar) miss stream and its RPM2 artifact."""

import pickle
import subprocess
import sys

import pytest

from repro.cache.artifacts import (
    StreamArtifactStore,
    get_artifact_store,
    set_artifact_store,
)
from repro.cache.direct_mapped import DirectMappedCache
from repro.cache.hierarchy import (
    cached_miss_stream,
    capture_miss_stream,
    clear_miss_stream_cache,
)
from repro.cache.stream import PackedMissStream
from repro.errors import IntegrityError, TraceFormatError
from repro.obs.metrics import get_metrics
from repro.storage.faultio import (
    InjectedCrashError,
    activate_io_plan,
    deactivate_io_plan,
)
from repro.storage.framing import FOOTER_SIZE
from repro.trace.synthetic import AtumWorkload


@pytest.fixture(scope="module")
def packed():
    workload = AtumWorkload(segments=3, references_per_segment=4_000, seed=7)
    return capture_miss_stream(iter(workload), DirectMappedCache(2048, 16))


def columns(stream):
    return (
        bytes(stream.codes),
        list(stream.addresses),
        list(stream.flush_offsets),
        stream.processor_references,
    )


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


class TestSegments:
    def test_every_flush_cuts_a_window_even_an_empty_one(self, tmp_path):
        stream = PackedMissStream()
        stream.append_flush()  # leading
        stream.append(0, 32)
        stream.append(1, 64)
        stream.append_flush()  # back-to-back
        stream.append_flush()
        stream.append(0, 96)
        stream.append_flush()  # trailing
        expected = [
            ([], []), ([0, 1], [32, 64]), ([], []), ([0], [96]), ([], []),
        ]
        path = tmp_path / "edges.rpm2"
        stream.save(path)
        mapped = PackedMissStream.load(path, mmap=True)
        for each in (stream, mapped):
            windows = [
                (list(codes), list(addresses))
                for codes, addresses in each.segments()
            ]
            assert len(windows) == each.n_flushes + 1
            assert windows == expected
        # A mapped stream's windows are views over the file, not copies.
        codes, addresses = next(mapped.segments())
        assert isinstance(codes, memoryview)
        assert isinstance(addresses, memoryview)


class TestRpm2SaveLoad:
    def test_roundtrip(self, packed, tmp_path):
        path = tmp_path / "stream.rpm2"
        packed.save(path)
        loaded = PackedMissStream.load(path)
        assert columns(loaded) == columns(packed)

    def test_mmap_load_is_lazy_and_equal(self, packed, tmp_path):
        path = tmp_path / "stream.rpm2"
        packed.save(path)
        mapped = PackedMissStream.load(path, mmap=True)
        eager = PackedMissStream.load(path, mmap=False)
        assert list(mapped.codes) == list(eager.codes)
        assert list(mapped.addresses) == list(eager.addresses)
        assert list(mapped.flush_offsets) == list(eager.flush_offsets)

    def test_content_hash_stable_across_roundtrip(self, packed, tmp_path):
        path = tmp_path / "stream.rpm2"
        packed.save(path)
        assert PackedMissStream.load(path).content_hash() == packed.content_hash()

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
        assert columns(clone) == columns(packed)


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

    @pytest.mark.parametrize("mmap", [False, True], ids=["read", "mmap"])
    def test_flipped_footer_magic_keeps_the_checksum_on(
        self, packed, tmp_path, mmap
    ):
        path = tmp_path / "rot.rpm2"
        packed.save(path)
        data = bytearray(path.read_bytes())
        last_address = len(data) - FOOTER_SIZE - 8 * packed.n_flushes - 8
        data[last_address] ^= 0x01
        data[len(data) - FOOTER_SIZE] ^= 0x01
        path.write_bytes(bytes(data))
        with pytest.raises(IntegrityError, match="footer"):
            PackedMissStream.load(path, mmap=mmap)


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
        assert loaded.content_hash() == stream.content_hash()

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
        assert second.content_hash() == first.content_hash()
        # The hit is replayed as loaded: its columns stay mapped.
        assert isinstance(second.addresses, memoryview)

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

    def test_crashed_saves_leave_no_temp_files(self, tmp_path):
        workload = AtumWorkload(
            segments=1, references_per_segment=1_000, seed=9
        )
        stream = capture_miss_stream(iter(workload), DirectMappedCache(2048, 16))
        store = StreamArtifactStore(tmp_path)
        for plan in ("crash@replace:path=.rpm2", "crash@fsync:path=.rpm2"):
            activate_io_plan(plan)
            try:
                with pytest.raises(InjectedCrashError):
                    store.save(workload, 2048, 16, stream, 0.25)
            finally:
                deactivate_io_plan()
        store.save(workload, 2048, 16, stream, 0.25)
        key = store.key(workload, 2048, 16)
        assert sorted(path.name for path in tmp_path.iterdir()) == [
            f"{key}.meta.json", f"{key}.rpm2",
        ]

    def test_save_keeps_a_live_writers_temp_and_removes_a_dead_ones(
        self, tmp_path
    ):
        workload = AtumWorkload(
            segments=1, references_per_segment=1_000, seed=10
        )
        stream = capture_miss_stream(iter(workload), DirectMappedCache(2048, 16))
        store = StreamArtifactStore(tmp_path)
        key = store.key(workload, 2048, 16)
        live = subprocess.Popen(
            [sys.executable, "-c", "import time; time.sleep(120)"]
        )
        reaped = subprocess.Popen([sys.executable, "-c", "pass"])
        reaped.wait(timeout=60)
        try:
            live_temp = tmp_path / f"{key}.rpm2.{live.pid}.tmp"
            dead_temp = tmp_path / f"{key}.rpm2.{reaped.pid}.tmp"
            live_temp.write_bytes(b"half a stream")
            dead_temp.write_bytes(b"half a stream")
            store.save(workload, 2048, 16, stream, 0.25)
            assert live_temp.exists()
            assert not dead_temp.exists()
        finally:
            live.kill()
            live.wait(timeout=60)
