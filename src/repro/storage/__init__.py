"""Storage integrity layer: durable I/O and record framing.

Every recovery path in the resilience stack ultimately trusts the
disk: sweep checkpoints and obs traces are read back and folded into
results. This package makes that trust
earned instead of assumed:

- :mod:`repro.storage.io` — the durable-write primitives
  (write/fsync/atomic-replace/directory-fsync) every storage writer in
  the repository routes through, with a process-wide injection point,
  :func:`~repro.storage.io.set_io`, where tests install the storage
  fault injector of ``tests/faultkit.py`` (torn writes, lost
  un-fsync'd data at a chosen crash point, ``ENOSPC``);
- :mod:`repro.storage.framing` — CRC32-framed, length-prefixed record
  envelopes for JSONL stores, with transparent reads of legacy
  unframed lines.

Layering: these modules depend only on the standard library,
:mod:`repro.errors` and each other, so :mod:`repro.obs` (which must
not depend on the rest of the package) may import them.
"""

from repro.storage.framing import frame_line, parse_framed_line
from repro.storage.io import StorageIO, get_io

__all__ = [
    "StorageIO",
    "frame_line",
    "get_io",
    "parse_framed_line",
]
