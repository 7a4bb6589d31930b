"""Tests for din trace I/O."""

import io

import pytest

from repro.errors import TraceFormatError
from repro.trace.dinero import read_din, write_din
from repro.trace.reference import FLUSH, AccessKind, Reference


SAMPLE = [
    Reference(AccessKind.LOAD, 0x1000),
    Reference(AccessKind.STORE, 0x2004),
    Reference(AccessKind.INSTRUCTION, 0x400),
    FLUSH,
    Reference(AccessKind.LOAD, 0xDEADBEEF),
]


class TestRoundTrip:
    def test_memory_roundtrip(self):
        buffer = io.StringIO()
        count = write_din(SAMPLE, buffer)
        assert count == len(SAMPLE)
        buffer.seek(0)
        assert list(read_din(buffer)) == SAMPLE

    def test_file_roundtrip(self, tmp_path):
        path = tmp_path / "trace.din"
        write_din(SAMPLE, path)
        assert list(read_din(path)) == SAMPLE

    def test_gzip_roundtrip(self, tmp_path):
        path = tmp_path / "trace.din.gz"
        write_din(SAMPLE, path)
        assert path.stat().st_size > 0
        assert list(read_din(path)) == SAMPLE

    def test_format_content(self):
        buffer = io.StringIO()
        write_din([Reference(AccessKind.STORE, 0xAB)], buffer)
        assert buffer.getvalue() == "1 ab\n"


class TestParsing:
    def parse(self, text):
        return list(read_din(io.StringIO(text)))

    def test_comments_and_blank_lines_skipped(self):
        refs = self.parse("# header\n\n0 10\n")
        assert refs == [Reference(AccessKind.LOAD, 0x10)]

    def test_extra_columns_tolerated(self):
        # Classic din files sometimes carry extra fields.
        refs = self.parse("2 400 0\n")
        assert refs == [Reference(AccessKind.INSTRUCTION, 0x400)]

    def test_flush_marker(self):
        assert self.parse("4 0\n") == [FLUSH]

    def test_unknown_type_rejected(self):
        with pytest.raises(TraceFormatError):
            self.parse("9 10\n")

    def test_missing_address_rejected(self):
        with pytest.raises(TraceFormatError):
            self.parse("0\n")

    def test_bad_hex_rejected(self):
        with pytest.raises(TraceFormatError):
            self.parse("0 xyzzy\n")

    def test_error_mentions_line_number(self):
        with pytest.raises(TraceFormatError, match="line 2"):
            self.parse("0 10\nbogus line here\n")

    def test_lazy_parsing(self):
        # read_din is a generator: errors surface at iteration time.
        iterator = read_din(io.StringIO("0 10\n9 10\n"))
        assert next(iterator) == Reference(AccessKind.LOAD, 0x10)
        with pytest.raises(TraceFormatError):
            next(iterator)

    def test_negative_address_rejected(self):
        with pytest.raises(TraceFormatError, match="negative"):
            self.parse("0 -10\n")

    def test_truncated_gzip_unreadable(self, tmp_path):
        path = tmp_path / "trace.din.gz"
        write_din(
            [Reference(AccessKind.LOAD, i) for i in range(500)], path
        )
        data = path.read_bytes()
        path.write_bytes(data[: len(data) // 2])
        with pytest.raises(TraceFormatError, match="unreadable"):
            list(read_din(path))
