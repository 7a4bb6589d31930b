"""CRC32-framed, length-prefixed JSONL record envelopes.

Sweep checkpoints frame every record. A framed line is::

    F1 <crc32-hex-8> <payload-length-bytes> <payload>

``F1`` is the frame version, the CRC32 (of the UTF-8 payload bytes)
and the byte length are both verified on read, and the payload itself
never contains a newline — so a torn append is detectable three ways:
a missing terminator, a short payload, or a checksum mismatch. A line
without the ``F1 `` prefix carries no checksum, so
:func:`parse_framed_line` rejects it like any other unverifiable line.

All verification failures raise the typed
:class:`~repro.errors.IntegrityError` — *detected, never silently
wrong*. Depends only on the standard library and :mod:`repro.errors`.
"""

from __future__ import annotations

import zlib

from repro.errors import IntegrityError

#: Version prefix for framed JSONL records.
FRAME_PREFIX = "F1 "


def crc32_hex(data: bytes) -> str:
    """CRC32 of ``data`` as 8 lowercase hex characters."""
    return f"{zlib.crc32(data) & 0xFFFFFFFF:08x}"


def frame_line(payload: str) -> str:
    """Wrap one JSONL payload in a CRC32 frame (no trailing newline).

    The payload must be newline-free — it is one record on one line.
    """
    if "\n" in payload or "\r" in payload:
        raise ValueError("framed payload must not contain newlines")
    encoded = payload.encode("utf-8")
    return f"{FRAME_PREFIX}{crc32_hex(encoded)} {len(encoded)} {payload}"


def parse_framed_line(line: str, context: str = "record") -> str:
    """Verify one line's frame and return the payload.

    A line that cannot be verified — no ``F1 `` prefix, bad header
    shape, length mismatch, checksum mismatch — raises
    :class:`~repro.errors.IntegrityError` naming ``context``.
    """
    line = line.rstrip("\n").rstrip("\r")
    if not line.startswith(FRAME_PREFIX):
        raise IntegrityError(f"{context}: unframed record {line[:32]!r}")
    body = line[len(FRAME_PREFIX):]
    crc_text, sep, rest = body.partition(" ")
    length_text, sep2, payload = rest.partition(" ")
    if not sep or not sep2 or len(crc_text) != 8:
        raise IntegrityError(
            f"{context}: malformed frame header {body[:32]!r}"
        )
    try:
        expected_crc = int(crc_text, 16)
        expected_length = int(length_text)
    except ValueError:
        raise IntegrityError(
            f"{context}: malformed frame header {body[:32]!r}"
        ) from None
    encoded = payload.encode("utf-8")
    if len(encoded) != expected_length:
        raise IntegrityError(
            f"{context}: frame length mismatch "
            f"(header says {expected_length} bytes, payload has {len(encoded)})"
        )
    actual_crc = zlib.crc32(encoded) & 0xFFFFFFFF
    if actual_crc != expected_crc:
        raise IntegrityError(
            f"{context}: frame checksum mismatch "
            f"(header {expected_crc:08x}, payload {actual_crc:08x})"
        )
    return payload

