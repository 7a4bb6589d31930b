"""Columnar packed miss streams and the mmap-able RPM2 file format.

A captured L1 miss stream is the unit of reuse across every L2 sweep:
one stream is replayed into dozens of instrumented configurations.
:class:`PackedMissStream` is its one representation, stored columnar
rather than as one heap object per event:

- a **codes** column (one unsigned byte per event: 0 = read-in,
  1 = write-back),
- an **addresses** column (one unsigned 64-bit word per event),
- a **flush-offsets** index (for each cold-start boundary, the number
  of events that precede it — flushes are *not* inline sentinels).

Columns are stdlib :class:`array.array` / :class:`memoryview` buffers,
so persistence is a handful of bulk writes, and every reader walks
them one cold-start segment at a time
(:meth:`PackedMissStream.segments`).

The on-disk **RPM2** format lays the columns out contiguously with
8-byte alignment::

    offset  0   magic  b"RPM2"
    offset  4   u32    format version (currently 1)
    offset  8   u64    processor_references
    offset 16   u64    n_events
    offset 24   u64    n_flushes
    offset 32   u8  x n_events   codes column
    (pad to 8-byte alignment)
    u64 x n_events               addresses column (little-endian)
    u64 x n_flushes              flush-offsets column (little-endian)
    8 bytes                      CRC32 footer (repro.storage.framing)

so :meth:`PackedMissStream.load` can map the file and hand out
zero-copy ``memoryview.cast("Q")`` windows directly over the page
cache — the content-addressed stream-artifact store
(:mod:`repro.cache.artifacts`) relies on this for cheap reuse across
worker processes and runs.
"""

from __future__ import annotations

import struct
import sys
from array import array
from typing import Iterator, Optional, Tuple

from repro.errors import TraceFormatError

_MAGIC = b"RPM2"
_VERSION = 1
_HEADER = struct.Struct("<4sIQQQ")


def _pad8(n: int) -> int:
    """``n`` rounded up to the next multiple of 8."""
    return (n + 7) & ~7


class PackedMissStream:
    """A captured L1 request stream in packed columnar form.

    Mutable while backed by ``array`` columns (the capture/builder
    path); streams loaded with ``mmap=True`` are read-only views over
    the file. All read APIs work identically on either backing.
    """

    __slots__ = (
        "_codes", "_addresses", "_flushes", "processor_references",
        "_mmap", "_counts",
    )

    def __init__(
        self,
        codes=None,
        addresses=None,
        flush_offsets=None,
        processor_references: int = 0,
        _mmap=None,
    ) -> None:
        self._codes = codes if codes is not None else array("B")
        self._addresses = addresses if addresses is not None else array("Q")
        self._flushes = (
            flush_offsets if flush_offsets is not None else array("Q")
        )
        self.processor_references = processor_references
        # Keeps a mapped file alive for the lifetime of its views.
        self._mmap = _mmap
        # (readins, writebacks, counted_events) — see the properties.
        self._counts: Optional[Tuple[int, int, int]] = None

    # ------------------------------------------------------------------
    # Introspection

    @property
    def codes(self):
        """The codes column (``array('B')`` or a byte memoryview)."""
        return self._codes

    @property
    def addresses(self):
        """The addresses column (``array('Q')`` or a u64 memoryview)."""
        return self._addresses

    @property
    def flush_offsets(self):
        """Event counts preceding each flush boundary, in order."""
        return self._flushes

    @property
    def n_events(self) -> int:
        """Number of read-in/write-back events (flushes excluded)."""
        return len(self._codes)

    @property
    def n_flushes(self) -> int:
        """Number of cold-start flush boundaries."""
        return len(self._flushes)

    def __len__(self) -> int:
        # Events plus flushes: each flush holds one position of the
        # stream, and run_with_invalidations samples by position.
        return len(self._codes) + len(self._flushes)

    def _recount(self) -> None:
        n = len(self._codes)
        if self._counts is not None and self._counts[2] == n:
            return
        writebacks = sum(self._codes)
        self._counts = (n - writebacks, writebacks, n)

    @property
    def readins(self) -> int:
        """Number of read-in events (one pass, cached)."""
        self._recount()
        return self._counts[0]

    @property
    def writebacks(self) -> int:
        """Number of write-back events (one pass, cached)."""
        self._recount()
        return self._counts[1]

    # ------------------------------------------------------------------
    # Building

    def append(self, code: int, address: int) -> None:
        """Record one event (0 = read-in, 1 = write-back)."""
        self._codes.append(code)
        self._addresses.append(address)
        self._counts = None

    def append_flush(self) -> None:
        """Record a cold-start boundary at the current position."""
        self._flushes.append(len(self._codes))

    @classmethod
    def from_miss_stream(cls, stream) -> "PackedMissStream":
        """Return ``stream`` itself: capture already builds this type.

        An identity kept only because the pipeline benchmark's traced
        mode (``benchmarks/pipeline/child.py``) calls it and times the
        call as ``cache.stream.pack``; delete it with the next change
        to that benchmark.
        """
        return stream

    # ------------------------------------------------------------------
    # Reading

    def segments(self) -> Iterator[Tuple[object, object]]:
        """Yield one ``(codes, addresses)`` window per cold-start segment.

        The windows are cut at each flush offset in order, so there are
        ``n_flushes + 1`` of them; a leading, trailing or back-to-back
        flush yields an empty window. Readers run their flush action
        between consecutive windows. Windows of ``array`` columns are
        copies; windows of a memory-mapped stream are zero-copy views.
        """
        codes = self._codes
        addresses = self._addresses
        start = 0
        for end in self._flushes:
            yield codes[start:end], addresses[start:end]
            start = end
        yield codes[start:], addresses[start:]

    # ------------------------------------------------------------------
    # Persistence (RPM2)

    def content_hash(self) -> str:
        """SHA-256 over the packed columns and reference count (hex)."""
        import hashlib

        digest = hashlib.sha256()
        digest.update(struct.pack("<Q", self.processor_references))
        digest.update(bytes(self._codes))
        digest.update(self._address_bytes())
        digest.update(self._flush_bytes())
        return digest.hexdigest()

    def _address_bytes(self) -> bytes:
        return _u64_bytes(self._addresses)

    def _flush_bytes(self) -> bytes:
        return _u64_bytes(self._flushes)

    def save(self, path) -> None:
        """Write the stream as an RPM2 file.

        The write is a fixed header plus three bulk column writes — no
        per-record packing — laid out 8-byte aligned so :meth:`load`
        can map the file zero-copy. An 8-byte CRC32 footer
        (:func:`repro.storage.framing.crc32_footer`) follows the last
        column so :meth:`load` can verify the whole file end to end.
        """
        import zlib

        from repro.storage.framing import FOOTER_MAGIC

        header = _HEADER.pack(
            _MAGIC,
            _VERSION,
            self.processor_references,
            len(self._codes),
            len(self._flushes),
        )
        codes = bytes(self._codes)
        pad = b"\x00" * (_pad8(_HEADER.size + len(codes)) - _HEADER.size - len(codes))
        chunks = (header, codes, pad, self._address_bytes(), self._flush_bytes())
        crc = 0
        for chunk in chunks:
            crc = zlib.crc32(chunk, crc)
        footer = FOOTER_MAGIC + struct.pack("<I", crc & 0xFFFFFFFF)
        with open(path, "wb") as handle:
            for chunk in chunks:
                handle.write(chunk)
            handle.write(footer)

    @classmethod
    def load(cls, path, mmap: bool = True) -> "PackedMissStream":
        """Load an RPM2 miss-stream file.

        The file is memory-mapped by default: the returned stream's
        columns are zero-copy views over the page cache, so many
        processes loading the same artifact share the physical memory.
        Pass ``mmap=False`` to materialize instead.

        Raises:
            TraceFormatError: On an unknown magic, unsupported version,
                or truncated/corrupt file.
            IntegrityError: When the CRC32 footer is missing or the
                content does not hash to it (bitrot, tampering).
        """
        with open(path, "rb") as handle:
            if handle.read(4) != _MAGIC:
                raise TraceFormatError(f"{path} is not a saved miss stream")
            if mmap and sys.byteorder == "little":
                return cls._load_mapped(path)
            data = _MAGIC + handle.read()
        return cls._parse(data, path)

    @classmethod
    def _parse_header(cls, buffer, path) -> Tuple[int, int, int, int, int]:
        """Validate the RPM2 header; returns refs/counts/column offsets."""
        if len(buffer) < _HEADER.size:
            raise TraceFormatError(f"truncated miss-stream header in {path}")
        magic, version, refs, n_events, n_flushes = _HEADER.unpack_from(buffer)
        if magic != _MAGIC:
            raise TraceFormatError(f"{path} is not a saved miss stream")
        if version != _VERSION:
            raise TraceFormatError(
                f"unsupported RPM2 version {version} in {path}"
            )
        addr_off = _pad8(_HEADER.size + n_events)
        total = addr_off + 8 * n_events + 8 * n_flushes
        if len(buffer) < total:
            raise TraceFormatError(
                f"truncated miss-stream columns in {path}: "
                f"{len(buffer)} bytes, need {total}"
            )
        return refs, n_events, n_flushes, addr_off, total

    @classmethod
    def _parse(cls, data: bytes, path) -> "PackedMissStream":
        """Materialize a stream from RPM2 bytes (non-mmap path).

        The whole payload is verified against its CRC32 footer first —
        :class:`~repro.errors.IntegrityError` when the footer is
        missing or does not match.
        """
        from repro.storage.framing import verify_crc32_footer

        refs, n_events, n_flushes, addr_off, total = cls._parse_header(
            data, path
        )
        verify_crc32_footer(data, total, context=str(path))
        codes = array("B")
        codes.frombytes(data[_HEADER.size:_HEADER.size + n_events])
        addresses = _u64_array(data[addr_off:addr_off + 8 * n_events])
        flush_start = addr_off + 8 * n_events
        flushes = _u64_array(data[flush_start:flush_start + 8 * n_flushes])
        return cls(
            codes=codes,
            addresses=addresses,
            flush_offsets=flushes,
            processor_references=refs,
        )

    @classmethod
    def _load_mapped(cls, path) -> "PackedMissStream":
        """Zero-copy load: memoryview windows over an mmap of ``path``."""
        import mmap as mmap_module

        with open(path, "rb") as handle:
            try:
                mapping = mmap_module.mmap(
                    handle.fileno(), 0, access=mmap_module.ACCESS_READ
                )
            except ValueError:  # empty file
                raise TraceFormatError(
                    f"truncated miss-stream header in {path}"
                ) from None
        view = memoryview(mapping)
        refs, n_events, n_flushes, addr_off, total = cls._parse_header(
            view, path
        )
        from repro.storage.framing import verify_crc32_footer

        verify_crc32_footer(view, total, context=str(path))
        codes = view[_HEADER.size:_HEADER.size + n_events]
        addresses = view[addr_off:addr_off + 8 * n_events].cast("Q")
        # The flush index is tiny; materialize it so builders and
        # loaded streams agree on its type.
        flush_start = addr_off + 8 * n_events
        flushes = _u64_array(
            bytes(view[flush_start:flush_start + 8 * n_flushes])
        )
        return cls(
            codes=codes,
            addresses=addresses,
            flush_offsets=flushes,
            processor_references=refs,
            _mmap=mapping,
        )

    # ------------------------------------------------------------------
    # Pickling (memoryview/mmap-backed streams materialize on the way)

    def __reduce__(self):
        return (
            _rebuild_packed,
            (
                bytes(self._codes),
                self._address_bytes(),
                self._flush_bytes(),
                self.processor_references,
            ),
        )

    def __repr__(self) -> str:
        return (
            f"PackedMissStream(events={self.n_events}, "
            f"flushes={self.n_flushes}, "
            f"processor_references={self.processor_references})"
        )


def _u64_bytes(column) -> bytes:
    """Little-endian bytes of a u64 column (array or memoryview)."""
    if isinstance(column, memoryview):
        data = bytes(column)
        if sys.byteorder != "little":  # pragma: no cover - big-endian only
            swapped = array("Q")
            swapped.frombytes(data)
            swapped.byteswap()
            data = swapped.tobytes()
        return data
    if sys.byteorder != "little":  # pragma: no cover - big-endian only
        swapped = array("Q", column)
        swapped.byteswap()
        return swapped.tobytes()
    return column.tobytes()


def _u64_array(data: bytes) -> array:
    """A native u64 array from little-endian bytes."""
    values = array("Q")
    values.frombytes(data)
    if sys.byteorder != "little":  # pragma: no cover - big-endian only
        values.byteswap()
    return values


def _rebuild_packed(codes, addresses, flushes, refs) -> PackedMissStream:
    """Pickle helper: rebuild a stream from raw column bytes."""
    code_column = array("B")
    code_column.frombytes(codes)
    return PackedMissStream(
        codes=code_column,
        addresses=_u64_array(addresses),
        flush_offsets=_u64_array(flushes),
        processor_references=refs,
    )
