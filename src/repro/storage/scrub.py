"""Background storage scrubber: periodic scan-only ``repro-fsck``.

A :class:`Scrubber` is a daemon thread that periodically runs the
scan-only half of ``repro-fsck`` (:func:`repro.storage.fsck.scan_directory`
with ``repair=False``) over one directory and publishes what it
finds:

- ``storage.scrub.scans`` — completed scrub passes;
- ``storage.scrub.verified`` — files that verified clean, cumulative;
- ``storage.scrub.findings`` — problems detected, cumulative;
- ``storage.scrub.unrepairable`` — of those, the ones ``repro-fsck
  --repair`` could only quarantine, cumulative.

The scrubber never modifies the directory — live writers own it, and
a "torn tail" is routinely just a record mid-append. What it *does*
do is flip :meth:`Scrubber.healthy`: when a pass finds unrepairable
corruption (checksum mismatches, frame corruption away from the
tail), the owner can stop trusting the directory until an operator
runs ``repro-fsck --repair`` offline. A later clean pass clears the
condition automatically.
"""

from __future__ import annotations

import threading
from typing import Any, Dict, List, Optional

from repro.storage.fsck import scan_directory


class Scrubber:
    """Periodic scan-only integrity checks over one directory.

    Args:
        root: Directory to scrub.
        interval: Seconds between passes.
        metrics: A :class:`~repro.obs.metrics.MetricsRegistry` (or
            anything with a compatible ``counter(name).inc()``);
            ``None`` disables metric publication.
    """

    def __init__(self, root, interval: float = 60.0, metrics=None) -> None:
        self.root = root
        self.interval = float(interval)
        self.metrics = metrics
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None
        self._lock = threading.Lock()
        self._last_report: Optional[Dict[str, Any]] = None
        self._passes = 0

    # -- lifecycle -------------------------------------------------------

    def start(self) -> None:
        """Start the background thread (idempotent)."""
        if self._thread is not None:
            return
        self._thread = threading.Thread(
            target=self._loop, name="storage-scrubber", daemon=True
        )
        self._thread.start()

    def stop(self, timeout: float = 5.0) -> None:
        """Signal the thread to exit and join it."""
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout=timeout)
            self._thread = None

    def _loop(self) -> None:
        while not self._stop.is_set():
            try:
                self.scrub_once()
            except Exception:  # pragma: no cover - never kill the thread
                pass
            self._stop.wait(self.interval)

    # -- one pass --------------------------------------------------------

    def scrub_once(self) -> Dict[str, Any]:
        """Run one scan-only pass; returns (and retains) the report."""
        report = scan_directory(self.root, repair=False)
        with self._lock:
            self._last_report = report
            self._passes += 1
        if self.metrics is not None:
            counts = report["counts"]
            self.metrics.counter("storage.scrub.scans").inc()
            self.metrics.counter("storage.scrub.verified").inc(
                counts["verified"]
            )
            self.metrics.counter("storage.scrub.findings").inc(
                counts["findings"]
            )
            self.metrics.counter("storage.scrub.unrepairable").inc(
                counts["unrepairable"]
            )
        return report

    # -- state -----------------------------------------------------------

    @property
    def last_report(self) -> Optional[Dict[str, Any]]:
        """The most recent pass's fsck report (``None`` before any)."""
        with self._lock:
            return self._last_report

    @property
    def passes(self) -> int:
        """Completed scrub passes."""
        with self._lock:
            return self._passes

    def unrepairable_findings(self) -> List[Dict[str, Any]]:
        """Findings from the last pass that repair could not fix."""
        report = self.last_report
        if report is None:
            return []
        return [f for f in report["findings"] if not f["repairable"]]

    def healthy(self) -> bool:
        """Whether the last pass found no unrepairable corruption."""
        return not self.unrepairable_findings()

    def status(self) -> Dict[str, Any]:
        """A compact, JSON-able summary of the scrubber's state."""
        report = self.last_report
        return {
            "passes": self.passes,
            "healthy": self.healthy(),
            "last_counts": report["counts"] if report else None,
            "unrepairable": [
                {k: f[k] for k in ("path", "kind", "problem")}
                for f in self.unrepairable_findings()
            ],
        }

    def __repr__(self) -> str:
        return (
            f"Scrubber(root={str(self.root)!r}, interval={self.interval}, "
            f"passes={self.passes})"
        )
