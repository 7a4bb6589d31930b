"""Property tests for miss-stream persistence."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache.hierarchy import FLUSH_MARKER, MissStream


@st.composite
def streams(draw):
    events = []
    for _ in range(draw(st.integers(0, 60))):
        if draw(st.integers(0, 9)) == 0:
            events.append(FLUSH_MARKER)
        else:
            code = draw(st.integers(0, 1))
            address = draw(st.integers(0, 2**40 - 1))
            events.append((code, address))
    return MissStream(
        events=events,
        processor_references=draw(st.integers(0, 2**32)),
    )


@given(stream=streams())
@settings(max_examples=100, deadline=None)
def test_save_load_roundtrip(stream, tmp_path_factory):
    path = tmp_path_factory.mktemp("streams") / "s.rpm2"
    stream.save(path)
    loaded = MissStream.load(path)
    assert loaded.events == stream.events
    assert loaded.processor_references == stream.processor_references
    assert loaded.readins == stream.readins
    assert loaded.writebacks == stream.writebacks
