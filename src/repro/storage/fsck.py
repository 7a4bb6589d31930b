"""``repro-fsck``: scan, verify, repair, and quarantine a storage dir.

The storage integrity layer's offline half. Given a checkpoint, obs
or artifact directory — anything ``repro-sweep``, the run manifests,
or the stream artifact store writes — it walks every file it
recognizes and checks each one end to end:

- **Checkpoints** (``*.ckpt``): every CRC32 frame verifies, the JSON
  parses, the header is well-formed, and (when the filename is a
  content address) the header's ``config_hash`` matches it. A torn
  trailing line is *repairable* (dropped by atomic rewrite, exactly like
  :meth:`~repro.resilience.checkpoint.SweepCheckpoint.load`
  compaction); corruption anywhere else quarantines the file.
- **Stream artifacts** (``*.rpm2`` + ``*.meta.json``): the RPM2
  layout parses, the CRC32 footer verifies, and the sidecar's
  recorded ``content_hash`` matches the SHA-256 recomputed from the
  columns — the deep check that catches bitrot even in legacy
  footer-less files. A failing artifact (or an orphaned sidecar) is
  quarantined; loaders already treat it as a miss, so quarantining
  merely makes the recapture explicit.
- **Manifests** (``manifest.json``): parse, and the recorded
  ``config_hash`` must equal the hash recomputed from the embedded
  ``config`` — the manifest ↔ checkpoint cross-reference.
- **Traces** (``*.jsonl``): every line parses; a torn tail is
  repairable (dropped), interior corruption quarantines.
- **Bench histories** (``BENCH_*.json``): the ``integrity`` checksum
  verifies; a torn tail is repairable via
  :class:`~repro.obs.bench.BenchHistory`'s entry-by-entry recovery.
- **Leftovers**: orphaned ``*.tmp`` files from interrupted atomic
  writes are removed; ``*.ckpt.lock`` files whose recorded holder is
  verifiably dead are removed (live locks are left alone).

Without ``--repair`` nothing is modified — every problem is reported
with the action it *would* take. With ``--repair``, repairable
findings are fixed in place and unrepairable ones are moved to
``<root>/quarantine/`` (never deleted: the bytes stay available for
post-mortems). The report is machine-readable
(:data:`FSCK_REPORT_SCHEMA_VERSION`; ``repro-obs-validate
--fsck-report`` checks it) and the exit code is the contract: 0 when
the directory is clean or fully repaired, 1 when unrepairable
corruption was found.

The scan-only core (:func:`scan_directory`) is shared with the
background scrubber (:mod:`repro.storage.scrub`).
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Any, Dict, List, Optional

from repro.errors import IntegrityError
from repro.obs.manifest import config_hash as compute_config_hash
from repro.storage.framing import parse_framed_line
from repro.storage.io import atomic_write_text, get_io

#: Version of the fsck report JSON layout (bump on breaking changes).
FSCK_REPORT_SCHEMA_VERSION = 1

#: Problems that can be fixed in place (vs. quarantined).
_REPAIRABLE = {"torn-tail", "orphan-temp", "stale-lock"}


@dataclass
class Finding:
    """One problem found (and possibly acted on) during a scan."""

    path: str
    kind: str  # checkpoint | artifact | manifest | trace | bench-history | temp | lock
    problem: str  # torn-tail | frame-corrupt | checksum-mismatch | ...
    action: str  # repaired | quarantined | removed | detected
    repairable: bool
    detail: str = ""


class _Scan:
    """Mutable state of one directory scan."""

    def __init__(self, root: Path, repair: bool) -> None:
        self.root = root
        self.repair = repair
        self.findings: List[Finding] = []
        self.scanned: Dict[str, int] = {
            "checkpoints": 0,
            "artifacts": 0,
            "manifests": 0,
            "traces": 0,
            "histories": 0,
            "temps": 0,
            "locks": 0,
        }
        self.verified = 0

    def note(
        self,
        path: Path,
        kind: str,
        problem: str,
        detail: str = "",
    ) -> Finding:
        """Record one problem, acting on it when ``repair`` is set."""
        repairable = problem in _REPAIRABLE
        if not self.repair:
            action = "detected"
        elif problem in ("orphan-temp", "stale-lock"):
            action = "removed" if _remove(path) else "detected"
        elif repairable:
            action = "repaired"  # caller performs the actual rewrite
        else:
            action = (
                "quarantined" if _quarantine(self.root, path) else "detected"
            )
        finding = Finding(
            path=str(path),
            kind=kind,
            problem=problem,
            action=action,
            repairable=repairable,
            detail=detail,
        )
        self.findings.append(finding)
        return finding


def _remove(path: Path) -> bool:
    try:
        path.unlink()
        return True
    except OSError:
        return False


def _quarantine(root: Path, path: Path) -> bool:
    """Move ``path`` into ``<root>/quarantine/`` (never delete it)."""
    target_dir = root / "quarantine"
    try:
        target_dir.mkdir(parents=True, exist_ok=True)
        target = target_dir / path.name
        suffix = 0
        while target.exists():
            suffix += 1
            target = target_dir / f"{path.name}.{suffix}"
        get_io().replace(path, target)
        get_io().fsync_dir(target_dir)
        return True
    except OSError:
        return False


# -- per-file-type checks ------------------------------------------------


def _check_checkpoint(scan: _Scan, path: Path) -> None:
    from repro.resilience.checkpoint import SUPPORTED_CHECKPOINT_SCHEMAS

    scan.scanned["checkpoints"] += 1
    try:
        raw = path.read_text(encoding="utf-8")
    except OSError as exc:
        scan.note(path, "checkpoint", "unreadable", detail=str(exc))
        return
    lines = [line for line in raw.split("\n") if line.strip()]
    records: List[Any] = []
    good_lines: List[str] = []
    for index, line in enumerate(lines):
        is_last = index == len(lines) - 1
        try:
            payload = parse_framed_line(line, context=f"{path}:{index + 1}")
            records.append(json.loads(payload))
        except (IntegrityError, json.JSONDecodeError) as exc:
            if is_last:
                finding = scan.note(
                    path,
                    "checkpoint",
                    "torn-tail",
                    detail=f"line {index + 1}: {exc}",
                )
                if finding.action == "repaired":
                    atomic_write_text(path, "".join(good_lines))
            else:
                scan.note(
                    path,
                    "checkpoint",
                    "frame-corrupt",
                    detail=f"line {index + 1}: {exc}",
                )
            return
        good_lines.append(line.rstrip("\r\n") + "\n")
    if not records or records[0].get("kind") != "header":
        scan.note(path, "checkpoint", "missing-header")
        return
    header = records[0]
    if header.get("schema") not in SUPPORTED_CHECKPOINT_SCHEMAS:
        scan.note(
            path,
            "checkpoint",
            "unsupported-schema",
            detail=f"schema {header.get('schema')!r}",
        )
        return
    stem = path.name[: -len(".ckpt")]
    recorded = header.get("config_hash")
    if (
        len(stem) == 16
        and all(c in "0123456789abcdef" for c in stem)
        and recorded is not None
        and recorded != stem
    ):
        # A checkpoint named by its config hash (a content address)
        # must match it; a mismatch means it was renamed or cross-wired.
        scan.note(
            path,
            "checkpoint",
            "config-hash-mismatch",
            detail=f"filename says {stem}, header says {recorded}",
        )
        return
    for record in records[1:]:
        if record.get("kind") != "result" or "signature" not in record:
            scan.note(
                path,
                "checkpoint",
                "bad-record",
                detail=f"kind {record.get('kind')!r}",
            )
            return
    scan.verified += 1


def _check_artifact(scan: _Scan, path: Path) -> None:
    from repro.cache.stream import PackedMissStream
    from repro.errors import TraceFormatError

    scan.scanned["artifacts"] += 1
    meta_path = path.with_name(path.name[: -len(".rpm2")] + ".meta.json")
    try:
        packed = PackedMissStream.load(path, mmap=False)
    except IntegrityError as exc:
        finding = scan.note(
            path, "artifact", "checksum-mismatch", detail=str(exc)
        )
        if finding.action == "quarantined" and meta_path.exists():
            _quarantine(scan.root, meta_path)  # keep the pair together
        return
    except (TraceFormatError, OSError, ValueError) as exc:
        finding = scan.note(path, "artifact", "unparseable", detail=str(exc))
        if finding.action == "quarantined" and meta_path.exists():
            _quarantine(scan.root, meta_path)
        return
    if not meta_path.exists():
        scan.note(path, "artifact", "missing-sidecar", detail=str(meta_path))
        return
    try:
        meta = json.loads(meta_path.read_text(encoding="utf-8"))
        recorded = meta["content_hash"]
    except (OSError, ValueError, KeyError) as exc:
        scan.note(meta_path, "artifact", "unparseable", detail=str(exc))
        return
    actual = packed.content_hash()
    if actual != recorded:
        # The deep cross-reference: catches bitrot even in legacy
        # footer-less artifacts.
        finding = scan.note(
            path,
            "artifact",
            "content-hash-mismatch",
            detail=f"sidecar says {recorded[:16]}…, columns hash to "
            f"{actual[:16]}…",
        )
        if finding.action == "quarantined" and meta_path.exists():
            _quarantine(scan.root, meta_path)
        return
    scan.verified += 1


def _check_manifest(scan: _Scan, path: Path) -> None:
    scan.scanned["manifests"] += 1
    try:
        data = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        scan.note(path, "manifest", "unparseable", detail=str(exc))
        return
    recorded = data.get("config_hash")
    if "config" in data and recorded is not None:
        actual = compute_config_hash(data["config"])
        if actual != recorded:
            scan.note(
                path,
                "manifest",
                "config-hash-mismatch",
                detail=f"recorded {recorded}, config hashes to {actual}",
            )
            return
    scan.verified += 1


def _check_trace(scan: _Scan, path: Path) -> None:
    scan.scanned["traces"] += 1
    try:
        raw = path.read_text(encoding="utf-8")
    except OSError as exc:
        scan.note(path, "trace", "unreadable", detail=str(exc))
        return
    lines = [line for line in raw.split("\n") if line.strip()]
    good: List[str] = []
    for index, line in enumerate(lines):
        try:
            json.loads(parse_framed_line(line, context=f"{path}:{index + 1}"))
        except (IntegrityError, json.JSONDecodeError) as exc:
            if index == len(lines) - 1:
                finding = scan.note(
                    path,
                    "trace",
                    "torn-tail",
                    detail=f"line {index + 1}: {exc}",
                )
                if finding.action == "repaired":
                    atomic_write_text(path, "".join(good))
            else:
                scan.note(
                    path,
                    "trace",
                    "frame-corrupt",
                    detail=f"line {index + 1}: {exc}",
                )
            return
        good.append(line.rstrip("\r\n") + "\n")
    scan.verified += 1


def _check_history(scan: _Scan, path: Path) -> None:
    from repro.obs.bench import BenchHistory

    scan.scanned["histories"] += 1
    try:
        history = BenchHistory.load(path)
    except IntegrityError as exc:
        scan.note(path, "bench-history", "checksum-mismatch", detail=str(exc))
        return
    except (OSError, ValueError) as exc:
        scan.note(path, "bench-history", "unparseable", detail=str(exc))
        return
    if history.torn_tail_dropped:
        finding = scan.note(
            path,
            "bench-history",
            "torn-tail",
            detail=f"{len(history.entries)} intact entries recovered",
        )
        if finding.action == "repaired":
            history.save(path)
        return
    scan.verified += 1


def _check_lock(scan: _Scan, path: Path) -> None:
    from repro.resilience.checkpoint import process_exists, process_start_ticks

    scan.scanned["locks"] += 1
    pid = ticks = None
    try:
        fields = path.read_text(encoding="utf-8").strip().split()
        pid = int(fields[0])
        if len(fields) > 1:
            ticks = int(fields[1])
    except (OSError, ValueError, IndexError):
        scan.note(path, "lock", "stale-lock", detail="unreadable lockfile")
        return
    alive = process_exists(pid)
    if alive is False or (
        alive
        and ticks is not None
        and process_start_ticks(pid) not in (None, ticks)
    ):
        scan.note(
            path,
            "lock",
            "stale-lock",
            detail=f"holder pid {pid} is gone",
        )
        return
    # A live (or unverifiable) holder: a writer is active, not a fault.
    scan.verified += 1


# -- the scan ------------------------------------------------------------


def scan_directory(root, repair: bool = False) -> Dict[str, Any]:
    """Scan ``root`` recursively; returns the fsck report dict.

    With ``repair=False`` (the scrubber's mode) nothing on disk is
    modified. With ``repair=True``, torn tails are rewritten, orphaned
    temps and dead locks removed, and unrepairable files moved to
    ``<root>/quarantine/``.
    """
    root = Path(root)
    scan = _Scan(root, repair)
    quarantine_dir = root / "quarantine"
    for path in sorted(root.rglob("*")):
        if not path.is_file() or quarantine_dir in path.parents:
            continue
        name = path.name
        if name.endswith(".tmp"):
            scan.scanned["temps"] += 1
            scan.note(
                path,
                "temp",
                "orphan-temp",
                detail="leftover from an interrupted atomic write",
            )
        elif name.endswith(".ckpt"):
            _check_checkpoint(scan, path)
        elif name.endswith(".rpm2"):
            _check_artifact(scan, path)
        elif name.endswith(".lock"):
            _check_lock(scan, path)
        elif name.endswith(".meta.json"):
            stream = path.with_name(name[: -len(".meta.json")] + ".rpm2")
            if not stream.exists():
                scan.scanned["temps"] += 1
                scan.note(
                    path,
                    "temp",
                    "orphan-temp",
                    detail="sidecar without its stream artifact",
                )
        elif name == "manifest.json" or name.endswith(".manifest.json"):
            _check_manifest(scan, path)
        elif name.endswith(".jsonl"):
            _check_trace(scan, path)
        elif name.startswith("BENCH_") and name.endswith(".json"):
            _check_history(scan, path)
    unrepairable = [f for f in scan.findings if not f.repairable]
    repaired = [
        f for f in scan.findings if f.action in ("repaired", "removed")
    ]
    quarantined = [f for f in scan.findings if f.action == "quarantined"]
    return {
        "schema_version": FSCK_REPORT_SCHEMA_VERSION,
        "kind": "fsck-report",
        "generated_unix": time.time(),
        "root": str(root),
        "repair": repair,
        "scanned": scan.scanned,
        "findings": [asdict(f) for f in scan.findings],
        "counts": {
            "verified": scan.verified,
            "findings": len(scan.findings),
            "repaired": len(repaired),
            "quarantined": len(quarantined),
            "unrepairable": len(unrepairable),
        },
        "ok": not unrepairable,
    }


# -- CLI -----------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    """The ``repro-fsck`` argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro-fsck",
        description=(
            "Verify every checkpoint, stream artifact, manifest, trace, "
            "and bench history under a directory; optionally repair torn "
            "tails and quarantine unrepairable corruption."
        ),
    )
    parser.add_argument(
        "root",
        help="checkpoint, obs or artifact directory to scan",
    )
    parser.add_argument(
        "--repair",
        action="store_true",
        help="fix repairable findings in place and move unrepairable "
        "files to <root>/quarantine/ (default: report only)",
    )
    parser.add_argument(
        "--report",
        default=None,
        metavar="FILE",
        help="write the machine-readable JSON report here ('-' = stdout)",
    )
    parser.add_argument(
        "--quiet",
        action="store_true",
        help="suppress the human-readable summary",
    )
    return parser


def run(argv: Optional[List[str]] = None) -> int:
    """``repro-fsck`` entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    root = Path(args.root)
    if not root.is_dir():
        print(f"repro-fsck: {root} is not a directory", file=sys.stderr)
        return 2
    report = scan_directory(root, repair=args.repair)
    text = json.dumps(report, indent=2, sort_keys=True)
    if args.report == "-":
        print(text)
    elif args.report is not None:
        atomic_write_text(args.report, text + "\n")
    if not args.quiet:
        counts = report["counts"]
        print(
            f"repro-fsck: {report['root']}: "
            f"{counts['verified']} verified, "
            f"{counts['findings']} findings "
            f"({counts['repaired']} repaired, "
            f"{counts['quarantined']} quarantined, "
            f"{counts['unrepairable']} unrepairable)"
        )
        for finding in report["findings"]:
            print(
                f"  {finding['action']:>11}  {finding['kind']:<13} "
                f"{finding['problem']:<21} {finding['path']}"
                + (f"  ({finding['detail']})" if finding["detail"] else "")
            )
    return 0 if report["ok"] else 1


def main() -> None:  # pragma: no cover - thin wrapper
    """Console-script entry point for ``repro-fsck``."""
    raise SystemExit(run())


if __name__ == "__main__":  # pragma: no cover
    main()
