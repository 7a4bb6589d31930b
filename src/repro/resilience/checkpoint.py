"""Crash-safe sweep checkpoints: finish a killed sweep, don't redo it.

A :class:`SweepCheckpoint` is an append-only JSONL file recording each
completed sweep point as it finishes. A killed run — OOM, SIGKILL,
power loss — restarts with ``--resume`` and re-runs *only* the points
missing from the file; restored results are bit-identical because the
stored JSON round-trips every counter and float exactly.

Durability discipline:

- the header and every result record are ``flush`` + ``fsync``'d, so
  a record is either fully on disk or not in the file;
- every record is wrapped in a CRC32 frame
  (:func:`repro.storage.framing.frame_line`, schema 2), so a read
  either verifies end-to-end or raises the typed
  :class:`~repro.errors.IntegrityError` — a bit-flipped record can
  never resume as a plausible wrong result. Legacy unframed (schema 1)
  checkpoints load transparently and are upgraded on compaction;
- a torn final line (the crash happened mid-write) is detected on
  load — either as unparseable JSON or as a failed frame check — and
  dropped by rewriting the file via write-temp-then-rename — the
  standard atomic-replace idiom — before appending resumes;
- all I/O goes through :func:`repro.storage.io.get_io`, so a test
  can install the fault injector of ``tests/faultkit.py`` with
  :func:`repro.storage.io.set_io` and crash a checkpointed sweep at
  every write, fsync, and rename it performs; disk-level write
  failures (``ENOSPC``, ``EIO``) surface as the typed
  :class:`~repro.errors.StorageError`, which ``repro-sweep`` reports
  as one error line and exit 2;
- the header pins a ``config_hash`` of the sweep's workload identity,
  so resuming against the wrong workload raises
  :class:`~repro.errors.CheckpointError` instead of silently merging
  incompatible results;
- an **advisory lock** (an ``O_CREAT | O_EXCL`` sidecar lockfile next
  to the checkpoint) makes two concurrent writers fail fast with
  :class:`~repro.errors.CheckpointError` instead of interleaving
  appends; a lock left behind by a dead process is stolen
  automatically. Staleness is decided by *process identity*, not PID
  liveness alone: the lockfile records the holder's PID **and** its
  kernel start time (``/proc/<pid>/stat`` field 22), so a recycled
  PID — a sweep SIGKILLed mid-run leaves its lockfile behind, and by
  the time it is resumed the OS may have handed that PID to an
  unrelated process — is recognized as a different process and the
  lock is stolen instead of wedging the resume forever.

Records are keyed by :func:`point_signature` — a content address of
the point's full configuration — so reordering or extending the point
list between runs resumes correctly.
"""

from __future__ import annotations

import json
import os
from dataclasses import asdict, is_dataclass
from pathlib import Path
from typing import IO, Any, Dict, Optional

from repro.errors import CheckpointError, IntegrityError
from repro.obs.manifest import config_hash
from repro.storage.framing import frame_line, parse_framed_line
from repro.storage.io import (
    atomic_write_text,
    durable_append,
    get_io,
    process_exists,
    wrap_os_error,
)

#: Version of the checkpoint JSONL layout (bump on breaking changes).
#: Schema 2 wraps every line in a CRC32 frame; schema 1 (unframed)
#: files are still read transparently.
CHECKPOINT_SCHEMA_VERSION = 2

#: Schema versions this reader accepts.
SUPPORTED_CHECKPOINT_SCHEMAS = (1, 2)

#: What a mid-file corruption error tells the operator to do.
_REMEDY = "move the checkpoint aside and rerun to recompute its points"


def process_start_ticks(pid: int) -> Optional[int]:
    """The kernel start time of ``pid`` in clock ticks, or ``None``.

    Field 22 of ``/proc/<pid>/stat`` — the one PID attribute the
    kernel guarantees differs between a process and a later process
    that recycled its PID. ``None`` means the process does not exist
    *or* the platform has no ``/proc`` (macOS, Windows); callers must
    treat those cases differently, so the existence check is separate
    (:func:`repro.storage.io.process_exists`).
    """
    try:
        stat = Path(f"/proc/{pid}/stat").read_bytes()
    except OSError:
        return None
    try:
        # The comm field (2) is parenthesized and may itself contain
        # spaces or parens, so split on the *last* ')': what follows
        # is field 3 onward, making starttime (field 22) index 19.
        fields = stat.rsplit(b")", 1)[1].split()
        return int(fields[19])
    except (IndexError, ValueError):
        return None


def point_signature(point: Any) -> str:
    """Content address of one sweep point's configuration (16 hex chars).

    Accepts a dataclass (e.g.
    :class:`~repro.experiments.runner.SweepPoint`) or any
    JSON-representable mapping; equivalent configurations hash
    identically regardless of field order.
    """
    data = asdict(point) if is_dataclass(point) else point
    return config_hash(data)


class SweepCheckpoint:
    """Append-only JSONL store of completed sweep-point results.

    Args:
        path: Checkpoint file location (parents created on first
            write).
        config_hash: Expected sweep identity. When given, it is
            written into new headers and verified against existing
            ones — a mismatch raises
            :class:`~repro.errors.CheckpointError`. ``None`` skips the
            check (read-only inspection).

    Typical lifecycle::

        checkpoint = SweepCheckpoint("sweep.ckpt", config_hash=h)
        done = checkpoint.load()          # {} on a fresh run
        ... skip points whose signature is in ``done`` ...
        checkpoint.record(signature, result_dict)   # per finished point
        checkpoint.close()
    """

    def __init__(self, path, config_hash: Optional[str] = None) -> None:
        self.path = Path(path)
        self.config_hash = config_hash
        self._handle: Optional[IO[str]] = None
        self._results: Dict[str, Any] = {}
        self._lock_held = False

    @property
    def lock_path(self) -> Path:
        """The advisory lockfile guarding this checkpoint's writer."""
        return self.path.with_name(self.path.name + ".lock")

    @property
    def results(self) -> Dict[str, Any]:
        """Results loaded or recorded so far, keyed by point signature."""
        return dict(self._results)

    def exists(self) -> bool:
        """Whether the checkpoint file is already on disk."""
        return self.path.exists()

    def load(self) -> Dict[str, Any]:
        """Read every durable record; returns ``{signature: result}``.

        Tolerates exactly one torn trailing line (a crash mid-append):
        the file is compacted — rewritten whole to a temp file and
        atomically renamed over the original — so the garbage never
        accumulates. A frame-checksum failure anywhere *else* raises
        the typed :class:`~repro.errors.IntegrityError`; any other
        malformed content, a missing or foreign header, or a
        ``config_hash`` mismatch raises
        :class:`~repro.errors.CheckpointError`. Both mid-file errors
        name the line and the remedy: move the checkpoint aside and
        rerun to recompute its points.
        """
        self._results = {}
        if not self.path.exists():
            return {}
        try:
            raw = self.path.read_text(encoding="utf-8")
        except OSError as exc:
            raise CheckpointError(
                f"cannot read checkpoint {self.path}: {exc}"
            ) from exc
        lines = raw.split("\n")
        torn = False
        records = []
        for index, line in enumerate(lines):
            if not line.strip():
                continue
            is_last = index == len(lines) - 1 or (
                index == len(lines) - 2 and not lines[-1].strip()
            )
            try:
                payload = parse_framed_line(
                    line, context=f"{self.path}: line {index + 1}"
                )
            except IntegrityError as exc:
                # A failed frame on the final line is a torn append;
                # anywhere else it is detected corruption, and the
                # typed error propagates — never a plausible wrong
                # result.
                if is_last:
                    torn = True
                    break
                raise IntegrityError(f"{exc}; {_REMEDY}") from None
            try:
                records.append(json.loads(payload))
            except json.JSONDecodeError:
                if is_last:
                    torn = True
                    break
                raise CheckpointError(
                    f"{self.path}: corrupt record on line {index + 1}; "
                    f"{_REMEDY}"
                ) from None
        if not records or records[0].get("kind") != "header":
            raise CheckpointError(
                f"{self.path}: not a sweep checkpoint (missing header)"
            )
        header = records[0]
        if header.get("schema") not in SUPPORTED_CHECKPOINT_SCHEMAS:
            raise CheckpointError(
                f"{self.path}: unsupported checkpoint schema "
                f"{header.get('schema')!r}"
            )
        if (
            self.config_hash is not None
            and header.get("config_hash") != self.config_hash
        ):
            raise CheckpointError(
                f"{self.path}: checkpoint was written for config "
                f"{header.get('config_hash')!r}, not {self.config_hash!r} — "
                "refusing to resume a different sweep"
            )
        for record in records[1:]:
            if record.get("kind") != "result":
                raise CheckpointError(
                    f"{self.path}: unexpected record kind "
                    f"{record.get('kind')!r}"
                )
            self._results[record["signature"]] = record["result"]
        if torn:
            self._compact(records)
        return dict(self._results)

    def record(self, signature: str, result: Any) -> None:
        """Durably append one completed point's result.

        ``result`` must be JSON-representable. The CRC32-framed line
        is flushed and fsync'd before returning, so a crash
        immediately after loses nothing. A disk-level write failure
        (``ENOSPC``, ``EIO``, a failed fsync) raises the typed
        :class:`~repro.errors.StorageError`.
        """
        handle = self._ensure_open()
        line = frame_line(
            json.dumps(
                {"kind": "result", "signature": signature, "result": result},
                sort_keys=True,
            )
        )
        try:
            durable_append(get_io(), handle, line + "\n")
        except OSError as exc:
            raise wrap_os_error(
                exc, f"append to checkpoint {self.path}"
            ) from exc
        self._results[signature] = result

    def close(self) -> None:
        """Close the append handle and release the advisory lock."""
        if self._handle is not None:
            self._handle.close()
            self._handle = None
        self._release_lock()

    def __enter__(self) -> "SweepCheckpoint":
        """Context manager entry; loads existing records."""
        self.load()
        return self

    def __exit__(self, *exc_info) -> None:
        """Context manager exit; closes the append handle."""
        self.close()

    def _header(self) -> Dict[str, Any]:
        """The header record for a fresh checkpoint file."""
        return {
            "kind": "header",
            "schema": CHECKPOINT_SCHEMA_VERSION,
            "config_hash": self.config_hash,
        }

    def _ensure_open(self) -> IO[str]:
        """Open (creating with a durable header if needed) for append.

        Acquiring the append handle also acquires the advisory lock,
        so a second concurrent writer fails fast instead of
        interleaving records with this one.
        """
        if self._handle is not None:
            return self._handle
        try:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            self._acquire_lock()
            if not self.path.exists():
                self._write_atomically([self._header()])
            self._handle = get_io().open(self.path, "a", encoding="utf-8")
        except OSError as exc:
            self._release_lock()
            raise wrap_os_error(
                exc, f"open checkpoint {self.path}"
            ) from exc
        return self._handle

    def _acquire_lock(self) -> None:
        """Take the ``O_CREAT | O_EXCL`` advisory lock, stealing stale ones.

        The lockfile records the holder's PID and (where ``/proc``
        exists) its kernel start time. If creation fails but the
        recorded holder is verifiably gone — dead PID, *or* a live PID
        whose start time differs from the recorded one (the PID was
        recycled by an unrelated process) — the stale lock is removed
        and acquisition is retried once; a *live* holder raises
        :class:`~repro.errors.CheckpointError` immediately.
        """
        if self._lock_held:
            return
        for attempt in (1, 2):
            try:
                fd = os.open(
                    self.lock_path, os.O_CREAT | os.O_EXCL | os.O_WRONLY
                )
            except FileExistsError:
                if attempt == 2 or not self._steal_stale_lock():
                    raise CheckpointError(
                        f"checkpoint {self.path} is locked by another "
                        f"writer (lockfile {self.lock_path}); a sweep is "
                        "already recording to it"
                    ) from None
                continue
            pid = os.getpid()
            ticks = process_start_ticks(pid)
            with os.fdopen(fd, "w", encoding="utf-8") as handle:
                handle.write(
                    f"{pid}\n" if ticks is None else f"{pid} {ticks}\n"
                )
            self._lock_held = True
            return

    def _steal_stale_lock(self) -> bool:
        """Remove the lockfile iff its recorded holder is verifiably gone.

        The takeover check a resume depends on: when a SIGKILLed
        sweep is restarted, the dead writer's PID may already belong
        to a *different* process. Liveness of the PID alone would
        wedge the resume, so the holder counts as alive
        only when the PID exists **and** its recorded start time (when
        the lock carries one and the platform can read one) matches
        the current process's — anything else is a stale lock.
        """
        pid = ticks = None
        try:
            fields = (
                self.lock_path.read_text(encoding="utf-8").strip().split()
            )
            pid = int(fields[0])
            if len(fields) > 1:
                ticks = int(fields[1])
        except (OSError, ValueError, IndexError):
            # Unreadable or torn lockfile: treat as stale.
            pid = None
        if pid is not None:
            alive = process_exists(pid)
            if alive is None:
                return False  # cannot verify: never steal blind
            if alive:
                current = process_start_ticks(pid)
                if ticks is None or current is None or current == ticks:
                    # A live PID with no identity to refute it (legacy
                    # lock, no /proc) — or the very same process.
                    return False
                # The PID was recycled: the recorded holder is gone.
        try:
            os.unlink(self.lock_path)
        except FileNotFoundError:
            pass  # the holder released it meanwhile
        return True

    def _release_lock(self) -> None:
        """Drop the advisory lock if this instance holds it."""
        if not self._lock_held:
            return
        self._lock_held = False
        try:
            os.unlink(self.lock_path)
        except OSError:
            pass

    def _write_atomically(self, records) -> None:
        """Write ``records`` as framed JSONL in one atomic replace.

        A crash at any point leaves either the previous checkpoint or
        the new one — never a partial file (see
        :func:`~repro.storage.io.atomic_write_text`).
        """
        atomic_write_text(
            self.path,
            "".join(
                frame_line(json.dumps(record, sort_keys=True)) + "\n"
                for record in records
            ),
        )

    def _compact(self, records) -> None:
        """Drop a torn tail by atomically rewriting the parsed records.

        Closes only the append handle (the advisory lock, if held,
        stays held — compaction is part of this writer's session).
        """
        if self._handle is not None:
            self._handle.close()
            self._handle = None
        # Compaction rewrites every line framed; upgrade the header so
        # the file advertises the layout it now has.
        if records and records[0].get("kind") == "header":
            records[0]["schema"] = CHECKPOINT_SCHEMA_VERSION
        self._write_atomically(records)

    def __repr__(self) -> str:
        return (
            f"SweepCheckpoint(path={str(self.path)!r}, "
            f"records={len(self._results)})"
        )
