"""Run provenance manifests: what produced a result, exactly.

A manifest is a small JSON document written next to a run's results
that answers, months later, "which config, which workload seed, which
code produced these numbers?" — the attribution discipline the probe
accounting applies to counters, applied to whole runs. It records:

- a **config hash** (content address of the canonicalized run
  configuration) for cheap "same experiment?" comparisons,
- the **workload identity** (seed, segment structure — everything a
  deterministic re-derivation needs),
- the **code identity** (package version, best-effort git SHA),
- **per-phase timings** aggregated from the tracer's spans,
- a **metrics snapshot** and any recorded **failures**.

Schema validation lives in :mod:`repro.obs.validate`; the format is
versioned via :data:`MANIFEST_SCHEMA_VERSION`.
"""

from __future__ import annotations

import hashlib
import json
import subprocess
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence

#: Version of the manifest JSON layout (bump on breaking changes).
MANIFEST_SCHEMA_VERSION = 1


def config_hash(config: Any) -> str:
    """Content address of a run configuration (16 hex chars).

    The configuration is canonicalized (JSON, sorted keys, ``repr``
    fallback for exotic values) before hashing, so dict ordering and
    equivalent spellings hash identically.
    """
    canonical = json.dumps(config, sort_keys=True, default=repr)
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:16]


def git_sha(cwd: Optional[Path] = None) -> Optional[str]:
    """The current git commit SHA, or ``None`` outside a checkout.

    Best-effort by design: provenance should never fail a run, so any
    error (no git binary, not a repository, timeout) degrades to
    ``None``.
    """
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            capture_output=True,
            text=True,
            timeout=5,
            cwd=str(cwd) if cwd is not None else None,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    if proc.returncode != 0:
        return None
    sha = proc.stdout.strip()
    return sha or None


def package_version() -> Optional[str]:
    """The installed ``repro`` version, or ``None`` if unimportable.

    Imported lazily to keep :mod:`repro.obs` free of package-internal
    dependencies (it is imported *by* the core modules).
    """
    try:
        import repro

        return getattr(repro, "__version__", None)
    except Exception:  # pragma: no cover - defensive
        return None


def describe_workload(workload: Any) -> Optional[Dict[str, Any]]:
    """Reproducible identity of a workload object, as a plain dict.

    Records the common :class:`~repro.trace.synthetic.AtumWorkload`
    parameters when present plus the workload's own ``cache_key()``
    (the content address the miss-stream cache uses), so a manifest
    pins the exact reference stream.
    """
    if workload is None:
        return None
    description: Dict[str, Any] = {"type": type(workload).__qualname__}
    for attr in ("seed", "segments", "references_per_segment", "cold_start"):
        if hasattr(workload, attr):
            description[attr] = getattr(workload, attr)
    cache_key = getattr(workload, "cache_key", None)
    if callable(cache_key):
        description["cache_key"] = repr(tuple(cache_key()))
    return description


class RunManifest:
    """A provenance manifest for one run, writable as JSON.

    Build one with :meth:`build` (which stamps code identity and
    timestamps), or wrap an existing dict with the constructor.
    """

    def __init__(self, data: Dict[str, Any]) -> None:
        self.data = data

    @classmethod
    def build(
        cls,
        tool: str,
        config: Any,
        workload: Any = None,
        tracer: Any = None,
        metrics: Any = None,
        failures: Sequence[Dict[str, Any]] = (),
    ) -> "RunManifest":
        """Assemble a manifest for ``tool`` run with ``config``.

        Args:
            tool: Name of the producing entry point (e.g.
                ``"ExperimentRunner"``).
            config: JSON-representable run configuration; hashed into
                ``config_hash``.
            workload: Optional workload, described via
                :func:`describe_workload`.
            tracer: Optional :class:`~repro.obs.spans.Tracer`; its
                :meth:`~repro.obs.spans.Tracer.phase_timings` become
                the ``phases`` block.
            metrics: Optional
                :class:`~repro.obs.metrics.MetricsRegistry`; its
                snapshot becomes the ``metrics`` block.
            failures: Recorded failures (dicts with at least
                ``"error"``).
        """
        return cls({
            "schema_version": MANIFEST_SCHEMA_VERSION,
            "tool": tool,
            "created_unix": time.time(),
            "package_version": package_version(),
            "git_sha": git_sha(),
            "config": config,
            "config_hash": config_hash(config),
            "workload": describe_workload(workload),
            "phases": tracer.phase_timings() if tracer is not None else {},
            "metrics": metrics.snapshot() if metrics is not None else {},
            "failures": list(failures),
        })

    @classmethod
    def load(cls, path) -> "RunManifest":
        """Read a manifest previously written with :meth:`write`."""
        with open(path, "r", encoding="utf-8") as handle:
            return cls(json.load(handle))

    def to_json(self) -> str:
        """The manifest as pretty-printed, key-sorted JSON."""
        return json.dumps(self.data, indent=2, sort_keys=True, default=repr)

    def write(self, path) -> Path:
        """Durably write the manifest to ``path``; returns it.

        Uses temp + fsync + atomic rename
        (:func:`repro.storage.io.atomic_write_text`), so a crash
        mid-write can never leave a torn manifest next to valid
        results.
        """
        from repro.storage.io import atomic_write_text

        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        atomic_write_text(path, self.to_json() + "\n")
        return path

    @property
    def config_hash(self) -> str:
        """The run configuration's content address."""
        return self.data["config_hash"]

    @property
    def phases(self) -> Dict[str, Dict[str, float]]:
        """Per-phase timing block (name → count/wall/cpu seconds)."""
        return self.data.get("phases", {})

    @property
    def failures(self) -> List[Dict[str, Any]]:
        """Failures recorded during the run (empty on success)."""
        return self.data.get("failures", [])

    def __repr__(self) -> str:
        return (
            f"RunManifest(tool={self.data.get('tool')!r}, "
            f"config_hash={self.data.get('config_hash')!r})"
        )
