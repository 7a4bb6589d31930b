"""Property tests for miss-stream persistence."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache.stream import PackedMissStream


@st.composite
def streams(draw):
    stream = PackedMissStream()
    for _ in range(draw(st.integers(0, 60))):
        if draw(st.integers(0, 9)) == 0:
            stream.append_flush()
        else:
            code = draw(st.integers(0, 1))
            address = draw(st.integers(0, 2**40 - 1))
            stream.append(code, address)
    stream.processor_references = draw(st.integers(0, 2**32))
    return stream


@given(stream=streams())
@settings(max_examples=100, deadline=None)
def test_save_load_roundtrip(stream, tmp_path_factory):
    path = tmp_path_factory.mktemp("streams") / "s.rpm2"
    stream.save(path)
    for mmap in (False, True):
        loaded = PackedMissStream.load(path, mmap=mmap)
        assert bytes(loaded.codes) == bytes(stream.codes)
        assert list(loaded.addresses) == list(stream.addresses)
        assert list(loaded.flush_offsets) == list(stream.flush_offsets)
        assert loaded.processor_references == stream.processor_references
        assert loaded.readins == stream.readins
        assert loaded.writebacks == stream.writebacks
