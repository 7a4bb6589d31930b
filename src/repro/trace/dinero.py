"""Reading and writing traces in the classic ``din`` format.

The dinero ``din`` format is one record per line: an access-type digit
and a hex address, whitespace-separated::

    0 408567c0    # load
    1 7fff0004    # store
    2 00001000    # instruction fetch

We extend the format with ``4 0`` records marking cache-flush
boundaries, so the paper's concatenated cold-start trace round-trips
through a file.
"""

from __future__ import annotations

import gzip
import io
from pathlib import Path
from typing import IO, Iterable, Iterator, Union

from repro.errors import TraceFormatError
from repro.trace.reference import FLUSH, AccessKind, Reference

_KIND_TO_DIGIT = {
    AccessKind.LOAD: "0",
    AccessKind.STORE: "1",
    AccessKind.INSTRUCTION: "2",
    AccessKind.FLUSH: "4",
}
_DIGIT_TO_KIND = {digit: kind for kind, digit in _KIND_TO_DIGIT.items()}

PathOrFile = Union[str, Path, IO[str]]


def _open_text(path: PathOrFile, mode: str) -> IO[str]:
    if isinstance(path, (str, Path)):
        path = Path(path)
        if path.suffix == ".gz":
            return io.TextIOWrapper(gzip.open(path, mode + "b"))
        return open(path, mode)
    return path


def write_din(trace: Iterable[Reference], path: PathOrFile) -> int:
    """Write ``trace`` to ``path`` (gzip if it ends in ``.gz``).

    Returns the number of records written (including flush markers).
    """
    handle = _open_text(path, "w")
    close = isinstance(path, (str, Path))
    written = 0
    try:
        for ref in trace:
            handle.write(f"{_KIND_TO_DIGIT[ref.kind]} {ref.address:x}\n")
            written += 1
    finally:
        if close:
            handle.close()
    return written


def _parse_line(line_number: int, stripped: str) -> "Reference | None":
    """Parse one non-comment ``din`` line; ``None`` is a flush marker.

    Raises:
        TraceFormatError: Naming the line number, on a malformed
            record, unknown access type, or negative address.
    """
    parts = stripped.split()
    if len(parts) < 2:
        raise TraceFormatError(
            f"line {line_number}: expected '<type> <hex-addr>', "
            f"got {stripped!r}"
        )
    kind = _DIGIT_TO_KIND.get(parts[0])
    if kind is None:
        raise TraceFormatError(
            f"line {line_number}: unknown access type {parts[0]!r}"
        )
    if kind is AccessKind.FLUSH:
        return None
    try:
        address = int(parts[1], 16)
    except ValueError:
        raise TraceFormatError(
            f"line {line_number}: bad address {parts[1]!r}"
        ) from None
    if address < 0:
        raise TraceFormatError(
            f"line {line_number}: negative address {parts[1]!r}"
        )
    return Reference(kind, address)


def read_din(path: PathOrFile) -> Iterator[Reference]:
    """Lazily parse a ``din`` trace from ``path``.

    Args:
        path: File path (gzip if it ends in ``.gz``) or open text
            handle.

    Raises:
        TraceFormatError: With the offending line number — on
            malformed lines, unknown access types, negative addresses,
            or an unreadable (e.g. truncated gzip) stream.
    """
    handle = _open_text(path, "r")
    close = isinstance(path, (str, Path))
    try:
        lines = enumerate(handle, start=1)
        while True:
            try:
                line_number, line = next(lines)
            except StopIteration:
                return
            except (OSError, EOFError, UnicodeDecodeError) as exc:
                raise TraceFormatError(
                    f"unreadable din trace: {type(exc).__name__}: {exc}"
                ) from exc
            stripped = line.strip()
            if not stripped or stripped.startswith("#"):
                continue
            reference = _parse_line(line_number, stripped)
            yield FLUSH if reference is None else reference
    finally:
        if close:
            handle.close()
