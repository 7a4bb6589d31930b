"""Property test: an RPM2 prefix either fails typed or loads exactly.

The zero-silent-data-loss contract for stream artifacts, checked
exhaustively: for *every* possible truncation point of an RPM2 file,
loading the prefix either raises a typed error
(:class:`~repro.errors.TraceFormatError` for structural damage,
:class:`~repro.errors.IntegrityError` for checksum damage) or returns
a stream bit-identical to the original. No prefix may load as a
quietly shorter or different stream.

Every RPM2 file carries an 8-byte CRC32 footer, so only the whole file
loads: a prefix holding all the columns but none or part of the footer
fails typed like any other.
"""

import pytest

from repro.cache.stream import PackedMissStream
from repro.errors import IntegrityError, TraceFormatError


def small_stream() -> PackedMissStream:
    packed = PackedMissStream(processor_references=40)
    for index, code in enumerate([0, 1, 0, 0, 1, 0, 1, 1, 0, 0]):
        packed.append(code, 0x1000 + 16 * index)
    packed.append_flush()
    return packed


def columns(stream: PackedMissStream):
    return (
        bytes(stream.codes),
        list(stream.addresses),
        list(stream.flush_offsets),
        stream.processor_references,
    )


@pytest.mark.parametrize("mmap", [False, True], ids=["read", "mmap"])
def test_every_prefix_fails_typed_or_loads_identical(tmp_path, mmap):
    original = small_stream()
    path = tmp_path / "stream.rpm2"
    original.save(path)
    data = path.read_bytes()
    expected = columns(original)

    loaded_sizes = []
    for size in range(len(data) + 1):
        prefix = tmp_path / "prefix.rpm2"
        prefix.write_bytes(data[:size])
        try:
            stream = PackedMissStream.load(prefix, mmap=mmap)
        except (TraceFormatError, IntegrityError):
            continue
        # A prefix that loads must be bit-identical to the original —
        # anything else is silent data loss.
        assert columns(stream) == expected, f"prefix of {size} bytes"
        loaded_sizes.append(size)

    # Only the whole file loads.
    assert loaded_sizes == [len(data)]


def test_full_file_round_trips(tmp_path):
    original = small_stream()
    path = tmp_path / "stream.rpm2"
    original.save(path)
    assert columns(PackedMissStream.load(path)) == columns(original)
