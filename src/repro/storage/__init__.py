"""Storage integrity layer: durable I/O, record framing, fault injection.

Every recovery path in the resilience stack ultimately trusts the
disk: sweep checkpoints, ``RPM2`` stream artifacts, obs spools, and
bench histories are read back and folded into results. This package
makes that trust earned instead of assumed:

- :mod:`repro.storage.io` — the durable-write primitives
  (write/fsync/atomic-replace/directory-fsync) every storage writer in
  the repository routes through, with a process-wide injection point;
- :mod:`repro.storage.faultio` — :class:`~repro.storage.faultio.FaultingIO`,
  a deterministic crash/corruption injector over those primitives
  (torn writes, short writes, lost un-fsync'd data at a chosen crash
  point, ``ENOSPC``, ``EIO``), driven by the ``REPRO_IO_FAULTS``
  mini-language in the style of :mod:`repro.resilience.faults`;
- :mod:`repro.storage.framing` — CRC32-framed, length-prefixed record
  envelopes for JSONL stores and checksum envelopes for JSON
  documents, with transparent reads of legacy unframed files;
- :mod:`repro.storage.fsck` — the ``repro-fsck`` scanner/repairer for
  checkpoint, obs and artifact directories;
- :mod:`repro.storage.scrub` — a background thread that runs fsck's
  scan-only pass periodically, surfacing ``storage.scrub.*`` metrics.

Layering: :mod:`~repro.storage.io`, :mod:`~repro.storage.faultio`,
and :mod:`~repro.storage.framing` depend only on the standard library
and :mod:`repro.errors`, so :mod:`repro.obs` (which must not depend
on the rest of the package) may import them. :mod:`~repro.storage.fsck`
and :mod:`~repro.storage.scrub` are leaves and import freely.
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
