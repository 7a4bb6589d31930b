"""Durable-write primitives with a process-wide injection point.

Every storage writer in the repository — sweep checkpoints, the obs
trace and manifest writers — performs its opens, writes, fsyncs, and
atomic replaces through the :class:`StorageIO` instance returned by
:func:`get_io`. That instance is a passthrough to the operating
system unless a test installs another with :func:`set_io`: the fake
in ``tests/faultkit.py`` can tear a write, exhaust the disk, or crash
the "machine" at a chosen point.

The module also provides the durability idioms themselves, so every
writer spells them identically:

- :func:`durable_append` — write + flush + fsync, the append-only
  record discipline (a record is fully on disk or not in the file);
- :func:`atomic_write_bytes` / :func:`atomic_write_text` — write-temp,
  fsync the temp, ``os.replace``, fsync the parent directory: after a
  crash the destination holds either the old bytes or the new bytes,
  and the rename itself is durable;
- :func:`fsync_dir` — make a directory entry (a rename, a create)
  survive power loss;
- :func:`process_exists` — whether the writer that left a lock or a
  temp file behind is still alive.

``OSError`` from the disk is translated into the typed
:class:`~repro.errors.StorageError` by :func:`wrap_os_error`-using
callers, so ``repro-sweep`` can tell "the disk is full" apart from a
programming error.

This module depends only on the standard library and
:mod:`repro.errors` (see the :mod:`repro.storage` layering note).
"""

from __future__ import annotations

import os
from pathlib import Path
from typing import IO, Any, Optional, Union

from repro.errors import StorageError

PathLike = Union[str, "os.PathLike[str]"]


class StorageIO:
    """Passthrough durable-I/O primitives; the default implementation.

    A test's fault injector subclasses this and overrides each
    primitive to consult its fault plan first, so the writers threaded
    through :func:`get_io` need no fault-awareness of their own.
    """

    def open(self, path: PathLike, mode: str = "r", **kwargs: Any) -> IO:
        """Open ``path`` (builtin ``open`` semantics)."""
        return open(path, mode, **kwargs)

    def write(self, handle: IO, data) -> int:
        """Write ``data`` (str or bytes, matching the handle's mode)."""
        return handle.write(data)

    def fsync(self, handle: IO) -> None:
        """Flush ``handle`` and fsync its descriptor to stable storage."""
        handle.flush()
        os.fsync(handle.fileno())

    def replace(self, src: PathLike, dst: PathLike) -> None:
        """Atomically rename ``src`` over ``dst``."""
        os.replace(src, dst)

    def fsync_dir(self, path: PathLike) -> None:
        """Fsync the directory ``path`` so its entries are durable.

        Platforms without ``O_DIRECTORY`` (or that refuse to fsync a
        directory descriptor) degrade to a no-op — the rename is still
        atomic, just not provably durable, which matches the previous
        behavior everywhere.
        """
        flags = os.O_RDONLY | getattr(os, "O_DIRECTORY", 0)
        try:
            fd = os.open(path, flags)
        except OSError:
            return
        try:
            os.fsync(fd)
        except OSError:  # pragma: no cover - platform-specific refusal
            pass
        finally:
            os.close(fd)


#: The passthrough singleton.
_PASSTHROUGH = StorageIO()

#: The instance :func:`set_io` installed, or ``None`` for the passthrough.
_INSTALLED: Optional[StorageIO] = None


def set_io(io: Optional[StorageIO]) -> None:
    """Install ``io`` process-wide (``None`` restores the passthrough)."""
    global _INSTALLED
    _INSTALLED = io


def get_io() -> StorageIO:
    """The active storage-I/O implementation.

    The instance :func:`set_io` installed, else the passthrough.
    """
    return _INSTALLED if _INSTALLED is not None else _PASSTHROUGH


def wrap_os_error(exc: OSError, action: str) -> StorageError:
    """A typed :class:`~repro.errors.StorageError` for ``exc``.

    The message names the failed ``action`` (e.g. ``"append to
    checkpoint x.ckpt"``) and preserves the errno text, so an
    operator reading the CLI's error sees "No space left on device",
    not a bare traceback.
    """
    error = StorageError(f"cannot {action}: {exc}")
    error.__cause__ = exc
    return error


def durable_append(io: StorageIO, handle: IO, data) -> None:
    """Append ``data`` and fsync: fully on disk, or not in the file."""
    io.write(handle, data)
    io.fsync(handle)


def atomic_write_bytes(
    path: PathLike, data: bytes, io: Optional[StorageIO] = None
) -> Path:
    """Durably replace ``path`` with ``data`` via write-temp-then-rename.

    The temp file is fsync'd before the rename and the parent
    directory after it, so a crash at any point leaves either the old
    file or the new one — never an empty or partial destination.
    """
    io = io if io is not None else get_io()
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    try:
        handle = io.open(tmp, "wb")
        try:
            io.write(handle, data)
            io.fsync(handle)
        finally:
            handle.close()
        io.replace(tmp, path)
    except OSError:
        # Disk errors get a clean unwind; anything harsher (an
        # injected crash, a KeyboardInterrupt) leaves the temp behind
        # as realistic crash debris, which the next write to ``path``
        # overwrites.
        _unlink_quietly(tmp)
        raise
    io.fsync_dir(path.parent)
    return path


def atomic_write_text(
    path: PathLike,
    text: str,
    io: Optional[StorageIO] = None,
    encoding: str = "utf-8",
) -> Path:
    """:func:`atomic_write_bytes` for text content."""
    return atomic_write_bytes(path, text.encode(encoding), io=io)


def fsync_dir(path: PathLike, io: Optional[StorageIO] = None) -> None:
    """Fsync directory ``path`` through the active storage I/O."""
    (io if io is not None else get_io()).fsync_dir(path)


def process_exists(pid: int) -> Optional[bool]:
    """Whether ``pid`` is a live process; ``None`` when unknowable.

    ``True`` covers processes owned by other users (``EPERM`` still
    proves existence). ``None`` only on platforms where signal 0 is
    unsupported.
    """
    try:
        os.kill(pid, 0)
        return True
    except ProcessLookupError:
        return False
    except PermissionError:
        return True
    except OSError:
        return None


def _unlink_quietly(path: PathLike) -> None:
    """Remove ``path``, ignoring races and absence."""
    try:
        os.unlink(path)
    except OSError:
        pass
