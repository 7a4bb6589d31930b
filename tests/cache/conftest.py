"""Shared fixtures for the cache tests."""

import struct

import pytest


@pytest.fixture
def write_rpms():
    """Writer for the legacy ``RPMS`` record format.

    Nothing in the package writes RPMS any more, but old files stay
    loadable; this builds one byte for byte (magic, ``<QQ`` reference
    and record counts, one ``<bQ`` record per event, flushes as code
    -1) so the reader keeps its coverage.
    """

    def write(stream, path):
        record = struct.Struct("<bQ")
        path.write_bytes(
            b"RPMS"
            + struct.pack(
                "<QQ", stream.processor_references, len(stream.events)
            )
            + b"".join(
                record.pack(code, address if code >= 0 else 0)
                for code, address in stream.events
            )
        )
        return path

    return write
