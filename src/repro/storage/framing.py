"""CRC32-framed, length-prefixed record envelopes.

Two flavors, one per on-disk shape in this repository:

**JSONL record frames** (sweep checkpoints). A framed line is::

    F1 <crc32-hex-8> <payload-length-bytes> <payload>

``F1`` is the frame version, the CRC32 (of the UTF-8 payload bytes)
and the byte length are both verified on read, and the payload itself
never contains a newline — so a torn append is detectable three ways:
a missing terminator, a short payload, or a checksum mismatch.
:func:`parse_framed_line` passes lines *without* the ``F1 `` prefix
through unchanged, which is how every reader stays compatible with
legacy unframed files.

**Binary footers** (RPM2 stream artifacts). :func:`crc32_footer`
builds an 8-byte trailer — magic ``C32\\0`` plus the little-endian
CRC32 of the preceding bytes — appended after the last column;
:func:`verify_crc32_footer` checks it when present and reports its
absence (a legacy file) without complaint.

All verification failures raise the typed
:class:`~repro.errors.IntegrityError` — *detected, never silently
wrong*. Depends only on the standard library and :mod:`repro.errors`.
"""

from __future__ import annotations

import struct
import zlib
from typing import Union

from repro.errors import IntegrityError

#: Version prefix for framed JSONL records.
FRAME_PREFIX = "F1 "

#: Magic that opens the binary CRC32 footer of an RPM2 artifact.
FOOTER_MAGIC = b"C32\x00"

#: Full footer size: 4 magic bytes + u32 little-endian CRC32.
FOOTER_SIZE = 8

_FOOTER_CRC = struct.Struct("<I")


def crc32_hex(data: bytes) -> str:
    """CRC32 of ``data`` as 8 lowercase hex characters."""
    return f"{zlib.crc32(data) & 0xFFFFFFFF:08x}"


# -- JSONL record frames -------------------------------------------------


def frame_line(payload: str) -> str:
    """Wrap one JSONL payload in a CRC32 frame (no trailing newline).

    The payload must be newline-free — it is one record on one line.
    """
    if "\n" in payload or "\r" in payload:
        raise ValueError("framed payload must not contain newlines")
    encoded = payload.encode("utf-8")
    return f"{FRAME_PREFIX}{crc32_hex(encoded)} {len(encoded)} {payload}"


def is_framed(line: str) -> bool:
    """Whether ``line`` carries a frame (vs. a legacy bare record)."""
    return line.startswith(FRAME_PREFIX)


def parse_framed_line(line: str, context: str = "record") -> str:
    """Verify one line's frame and return the payload.

    Lines without the ``F1 `` prefix are legacy unframed records and
    pass through unchanged. A present-but-unverifiable frame — bad
    header shape, length mismatch, checksum mismatch — raises
    :class:`~repro.errors.IntegrityError` naming ``context``.
    """
    line = line.rstrip("\n").rstrip("\r")
    if not is_framed(line):
        return line
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


# -- Binary footers ------------------------------------------------------


def crc32_footer(data: Union[bytes, bytearray, memoryview]) -> bytes:
    """The 8-byte CRC32 trailer protecting ``data``."""
    return FOOTER_MAGIC + _FOOTER_CRC.pack(zlib.crc32(data) & 0xFFFFFFFF)


def verify_crc32_footer(
    buffer: Union[bytes, bytearray, memoryview],
    length: int,
    context: str = "artifact",
) -> bool:
    """Verify the footer after ``buffer[:length]`` when one is present.

    Returns ``True`` when a footer was found and verified, ``False``
    when the buffer ends at ``length`` or continues with non-footer
    bytes (a legacy file, or unrelated trailing data — both load as
    before). Raises :class:`~repro.errors.IntegrityError` when the
    footer magic is present but the checksum does not match.
    """
    if len(buffer) < length + FOOTER_SIZE:
        return False
    magic = bytes(buffer[length:length + len(FOOTER_MAGIC)])
    if magic != FOOTER_MAGIC:
        return False
    (expected,) = _FOOTER_CRC.unpack(
        bytes(buffer[length + len(FOOTER_MAGIC):length + FOOTER_SIZE])
    )
    actual = zlib.crc32(buffer[:length]) & 0xFFFFFFFF
    if actual != expected:
        raise IntegrityError(
            f"{context}: CRC32 footer mismatch "
            f"(footer {expected:08x}, content {actual:08x})"
        )
    return True

