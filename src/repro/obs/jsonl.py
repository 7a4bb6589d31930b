"""JSONL files shared by the tracer and the trace readers.

One record per line, UTF-8, ``\\n``-terminated — the least-common-
denominator format every log shipper and ``jq`` pipeline understands.
:func:`write_jsonl` writes a whole file at once; :func:`read_jsonl`
streams records lazily so multi-gigabyte traces never need to fit in
memory.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Dict, Iterator, Union

PathLike = Union[str, "Path"]


def _canonical(record: Dict[str, Any]) -> str:
    """One deterministic JSON line for ``record`` (sorted keys)."""
    return json.dumps(record, sort_keys=True, default=str)


def write_jsonl(path: PathLike, records) -> int:
    """Write an iterable of dicts to ``path``; returns the record count.

    The file is truncated first: it is a complete artifact, not a log.
    Parent directories are created, and the writes go through
    :func:`repro.storage.io.get_io`.
    """
    from repro.storage.io import get_io

    io = get_io()
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    count = 0
    with io.open(path, "w", encoding="utf-8") as handle:
        for record in records:
            io.write(handle, _canonical(record) + "\n")
            count += 1
    return count


def read_jsonl(path: PathLike) -> Iterator[Dict[str, Any]]:
    """Yield each record of a JSONL file lazily.

    Blank lines are skipped; malformed lines raise ``ValueError`` with
    the 1-based line number, so a truncated trace fails loudly.
    """
    with open(path, "r", encoding="utf-8") as handle:
        for lineno, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                yield json.loads(line)
            except json.JSONDecodeError as exc:
                raise ValueError(
                    f"{path}:{lineno}: malformed JSONL record: {exc}"
                ) from exc
