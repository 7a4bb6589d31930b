"""CRC32 record framing of JSONL lines."""

import json
import zlib

import pytest

from repro.errors import IntegrityError
from repro.storage.framing import (
    FRAME_PREFIX,
    crc32_hex,
    frame_line,
    is_framed,
    parse_framed_line,
)


class TestFrameLine:
    def test_round_trip(self):
        payload = json.dumps({"kind": "result", "value": 42})
        assert parse_framed_line(frame_line(payload)) == payload

    def test_round_trip_unicode(self):
        payload = '{"name": "caché"}'
        assert parse_framed_line(frame_line(payload)) == payload

    def test_round_trip_empty_payload(self):
        assert parse_framed_line(frame_line("")) == ""

    def test_frame_shape(self):
        framed = frame_line("abc")
        prefix, crc, length, payload = framed.split(" ", 3)
        assert prefix + " " == FRAME_PREFIX
        assert crc == f"{zlib.crc32(b'abc'):08x}"
        assert length == "3"
        assert payload == "abc"

    def test_newline_in_payload_rejected(self):
        with pytest.raises(ValueError):
            frame_line("two\nlines")

    def test_is_framed(self):
        assert is_framed(frame_line("x"))
        assert not is_framed('{"plain": "json"}')

    def test_trailing_newline_stripped_before_parse(self):
        framed = frame_line("abc")
        assert parse_framed_line(framed + "\n") == "abc"
        assert parse_framed_line(framed + "\r\n") == "abc"


class TestParseFramedLine:
    def test_legacy_line_passes_through(self):
        legacy = '{"kind": "header", "schema": 1}'
        assert parse_framed_line(legacy) == legacy

    def test_flipped_payload_byte_detected(self):
        framed = frame_line('{"value": 41}')
        rotten = framed.replace("41", "42")
        with pytest.raises(IntegrityError, match="checksum"):
            parse_framed_line(rotten)

    def test_truncated_payload_detected(self):
        framed = frame_line('{"value": 12345}')
        with pytest.raises(IntegrityError):
            parse_framed_line(framed[:-4])

    def test_garbled_header_fields_detected(self):
        with pytest.raises(IntegrityError):
            parse_framed_line("F1 zzzz zz not-a-frame")

    def test_context_lands_in_message(self):
        framed = frame_line("abc").replace("abc", "abd")
        with pytest.raises(IntegrityError, match="ckpt:17"):
            parse_framed_line(framed, context="ckpt:17")


class TestCrc32Hex:
    def test_eight_lowercase_hex(self):
        digest = crc32_hex(b"anything")
        assert len(digest) == 8
        assert digest == digest.lower()
        assert int(digest, 16) == zlib.crc32(b"anything") & 0xFFFFFFFF
