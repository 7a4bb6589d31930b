"""Storage integrity layer: durable I/O, record framing, fault injection.

Every recovery path in the resilience stack ultimately trusts the
disk: sweep checkpoints and obs traces are read back and folded into
results. This package makes that trust
earned instead of assumed:

- :mod:`repro.storage.io` — the durable-write primitives
  (write/fsync/atomic-replace/directory-fsync) every storage writer in
  the repository routes through, with a process-wide injection point;
- :mod:`repro.storage.faultio` — :class:`~repro.storage.faultio.FaultingIO`,
  a deterministic crash/corruption injector over those primitives
  (torn writes, short writes, lost un-fsync'd data at a chosen crash
  point, ``ENOSPC``, ``EIO``), driven by the ``REPRO_IO_FAULTS``
  mini-language in the style of :mod:`repro.resilience.faults`;
- :mod:`repro.storage.framing` — CRC32-framed, length-prefixed record
  envelopes for JSONL stores, with transparent reads of legacy
  unframed lines.

Layering: these modules depend only on the standard library,
:mod:`repro.errors` and each other, so :mod:`repro.obs` (which must
not depend on the rest of the package) may import them.
"""

from repro.storage.faultio import (
    FaultingIO,
    InjectedCrashError,
    IOFaultPlan,
    IOFaultSpec,
    activate_io_plan,
    deactivate_io_plan,
    parse_io_plan,
)
from repro.storage.framing import frame_line, parse_framed_line
from repro.storage.io import StorageIO, get_io

__all__ = [
    "FaultingIO",
    "InjectedCrashError",
    "IOFaultPlan",
    "IOFaultSpec",
    "StorageIO",
    "activate_io_plan",
    "deactivate_io_plan",
    "frame_line",
    "get_io",
    "parse_framed_line",
    "parse_io_plan",
]
