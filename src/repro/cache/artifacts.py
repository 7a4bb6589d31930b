"""Content-addressed, mmap-able miss-stream artifact store.

The in-process miss-stream cache in :mod:`repro.cache.hierarchy`
(:func:`~repro.cache.hierarchy.cached_miss_stream`) deduplicates L1
captures *within* one process (and, on fork platforms, across workers
that inherit the parent's memory). This module extends the unit of
reuse across process boundaries and sessions: a captured stream is
persisted once as a columnar ``RPM2`` file named by the content
address of its inputs — the workload identity plus the L1 geometry,
hashed with the same canonicalization as run manifests
(:func:`repro.obs.manifest.config_hash`) — and every later consumer
(sweep worker pools, later ``repro-sweep`` runs, fresh sessions) loads it
instead of re-simulating the L1.

Layout of a store directory::

    <root>/<config_hash>.rpm2        packed stream (RPM2, mmap-able)
    <root>/<config_hash>.meta.json   sidecar: L1 miss ratio + counts

Writes are atomic *and durable* (temp file + fsync + ``os.replace`` +
directory fsync, via :mod:`repro.storage.io`), so concurrent workers
racing to persist the same capture converge on one valid artifact and
a crash cannot publish a partial one under a content-addressed name.
Each writer stages under its own temp name, ``<final name>.<pid>.tmp``;
a save first removes this key's temps left by its own process or by a
process that no longer exists, so crash debris does not accumulate.
Streams carry a CRC32 footer verified on every load; a corrupt,
truncated, or bit-rotted artifact is treated as a miss and
recaptured, never trusted.

Enable the store by exporting ``REPRO_STREAM_ARTIFACTS=<dir>`` (the
CLI flags ``--stream-artifacts`` set this for their worker pools) or
programmatically with :func:`set_artifact_store`.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Callable, Optional, Tuple

from repro.cache.stream import PackedMissStream
from repro.errors import IntegrityError, TraceFormatError
from repro.storage.io import get_io, process_exists

#: Environment variable naming the artifact directory.
ENV_VAR = "REPRO_STREAM_ARTIFACTS"


class StreamArtifactStore:
    """A directory of content-addressed packed miss streams.

    Args:
        root: Directory holding the artifacts (created on first save).
    """

    def __init__(self, root) -> None:
        self.root = Path(root)

    def key(self, workload, capacity_bytes: int, block_size: int) -> str:
        """Content address of one (workload, L1 geometry) capture."""
        from repro.cache.hierarchy import _workload_key
        from repro.obs.manifest import config_hash

        return config_hash({
            "workload": list(_workload_key(workload)),
            "l1_capacity_bytes": capacity_bytes,
            "l1_block_size": block_size,
        })

    def _paths(self, key: str) -> Tuple[Path, Path]:
        return self.root / f"{key}.rpm2", self.root / f"{key}.meta.json"

    def load(
        self, workload, capacity_bytes: int, block_size: int
    ) -> Optional[Tuple[PackedMissStream, float]]:
        """Load the artifact for this capture, or ``None`` on a miss.

        The stream comes back memory-mapped (zero-copy); a corrupt or
        incomplete artifact — bad magic, truncated columns, a missing or
        wrong CRC32 footer, a missing or malformed sidecar — is reported
        as a miss so the caller recaptures and overwrites it.
        """
        key = self.key(workload, capacity_bytes, block_size)
        stream_path, meta_path = self._paths(key)
        if not stream_path.exists() or not meta_path.exists():
            return None
        try:
            meta = json.loads(meta_path.read_text())
            miss_ratio = float(meta["l1_readin_miss_ratio"])
            packed = PackedMissStream.load(stream_path, mmap=True)
        except (
            IntegrityError,  # CRC32 footer missing or refuted
            TraceFormatError,
            OSError,
            ValueError,
            KeyError,
            TypeError,
        ):
            return None
        if packed.n_events != meta.get("n_events", packed.n_events):
            return None
        return packed, miss_ratio

    def save(
        self,
        workload,
        capacity_bytes: int,
        block_size: int,
        packed: PackedMissStream,
        miss_ratio: float,
    ) -> Path:
        """Persist one capture atomically; returns the artifact path."""
        key = self.key(workload, capacity_bytes, block_size)
        stream_path, meta_path = self._paths(key)
        self.root.mkdir(parents=True, exist_ok=True)
        self._remove_stale_temps(key)
        self._write_atomic(stream_path, packed.save)
        meta = {
            "l1_readin_miss_ratio": miss_ratio,
            "processor_references": packed.processor_references,
            "n_events": packed.n_events,
            "n_flushes": packed.n_flushes,
            "content_hash": packed.content_hash(),
        }
        text = json.dumps(meta, indent=2, sort_keys=True)
        self._write_atomic(meta_path, lambda temp: temp.write_text(text))
        return stream_path

    def _remove_stale_temps(self, key: str) -> None:
        """Remove this key's temps whose writer cannot still be writing.

        That is this process's own (its saves do not overlap) and any
        whose PID no longer exists. The temp of a live writer — a
        sweep worker saving the same capture right now — or of one
        whose liveness is unknown stays.
        """
        for temp in self.root.glob(f"{key}.*.tmp"):
            try:
                pid = int(temp.name.rsplit(".", 2)[1])
            except ValueError:
                continue
            if pid == os.getpid() or process_exists(pid) is False:
                _unlink_quietly(temp)

    def _write_atomic(self, path: Path, write: Callable[[Path], None]) -> None:
        """Publish the file ``write(temp)`` makes under ``path``,
        durably and atomically.

        The temp, ``<path>.<pid>.tmp``, is fsync'd *before* the rename
        and the store directory *after* it — without both, a crash in
        the window between rename and writeback could publish an empty
        or partial artifact under a content-addressed name, which later
        loads would then have to detect and recapture forever. Naming
        the temp for its writer keeps two workers saving the same key
        from writing into one file.
        """
        io = get_io()
        temp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
        try:
            write(temp)
            with open(temp, "rb") as handle:
                io.fsync(handle)
            io.replace(temp, path)
        except OSError:
            _unlink_quietly(temp)
            raise
        io.fsync_dir(self.root)

    def __repr__(self) -> str:
        return f"StreamArtifactStore(root={str(self.root)!r})"


def _unlink_quietly(path) -> None:
    try:
        os.unlink(path)
    except OSError:
        pass


#: Explicitly configured store (overrides the environment variable).
_CONFIGURED: Optional[StreamArtifactStore] = None
_CONFIGURED_SET = False


def set_artifact_store(
    store: "StreamArtifactStore | str | os.PathLike | None",
) -> None:
    """Set (or, with ``None``, clear) the process's artifact store.

    Takes precedence over ``REPRO_STREAM_ARTIFACTS``. Pass a
    :class:`StreamArtifactStore` or a directory path.
    """
    global _CONFIGURED, _CONFIGURED_SET
    if store is None:
        _CONFIGURED = None
        _CONFIGURED_SET = False
        return
    if not isinstance(store, StreamArtifactStore):
        store = StreamArtifactStore(store)
    _CONFIGURED = store
    _CONFIGURED_SET = True


def get_artifact_store() -> Optional[StreamArtifactStore]:
    """The active artifact store, or ``None`` when not configured.

    An explicitly :func:`set_artifact_store` wins; otherwise the
    ``REPRO_STREAM_ARTIFACTS`` environment variable is consulted on
    every call (workers forked after the parent exports it inherit the
    setting automatically).
    """
    if _CONFIGURED_SET:
        return _CONFIGURED
    root = os.environ.get(ENV_VAR, "").strip()
    if not root:
        return None
    return StreamArtifactStore(root)
