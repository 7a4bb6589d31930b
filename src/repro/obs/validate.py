"""Schema validation for manifests, JSONL traces, and fsck reports.

Hand-rolled structural checks — no ``jsonschema`` dependency — used by
tests and by CI's instrumented smoke sweep, which asserts that a real
run produced schema-valid artifacts before archiving them::

    python -m repro.obs.validate out/manifest.json --trace out/trace.jsonl
    python -m repro.obs.validate --fsck-report fsck.json

Exit status 0 when everything validates; 1 with one error per line on
stderr otherwise.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from typing import Any, Callable, Dict, List, Optional

from repro.obs.jsonl import read_jsonl
from repro.obs.manifest import MANIFEST_SCHEMA_VERSION

#: Required manifest keys and their accepted types.
_MANIFEST_FIELDS = {
    "schema_version": (int,),
    "tool": (str,),
    "created_unix": (int, float),
    "package_version": (str, type(None)),
    "git_sha": (str, type(None)),
    "config_hash": (str,),
    "workload": (dict, type(None)),
    "phases": (dict,),
    "metrics": (dict,),
    "failures": (list,),
}

#: Required span-record keys and their accepted types.
_SPAN_FIELDS = {
    "name": (str,),
    "path": (str,),
    "depth": (int,),
    "start": (int, float),
    "wall_seconds": (int, float),
    "cpu_seconds": (int, float),
    "attrs": (dict,),
    "index": (int,),
}

#: Causal-identity keys: optional (legacy traces predate them), but
#: type- and format-checked when present.
_SPAN_ID_FIELDS = {
    "trace_id": (str, type(None)),
    "span_id": (str, type(None)),
    "parent_span_id": (str, type(None)),
}

#: The id format :mod:`repro.obs.context` emits: 16 lowercase hex.
_ID_PATTERN = re.compile(r"[0-9a-f]{16}")


def _check_fields(
    data: Dict[str, Any], fields: Dict[str, tuple], where: str
) -> List[str]:
    """Type-check required ``fields`` of ``data``; returns error strings."""
    errors = []
    for key, types in fields.items():
        if key not in data:
            errors.append(f"{where}: missing required key {key!r}")
        elif not isinstance(data[key], types):
            errors.append(
                f"{where}: key {key!r} has type "
                f"{type(data[key]).__name__}, expected one of "
                f"{[t.__name__ for t in types]}"
            )
    return errors


def _check_version(
    data: Dict[str, Any], supported: int, where: str
) -> List[str]:
    """Reject payloads newer than this validator understands."""
    version = data.get("schema_version")
    if isinstance(version, int) and version > supported:
        return [
            f"{where}: schema_version {version} is newer than the "
            f"supported {supported}"
        ]
    return []


def _validate_json_file(
    path, validator: Callable[[Any], List[str]]
) -> List[str]:
    """Load ``path`` as JSON and return ``validator``'s errors for it.

    An unreadable or unparseable file is one error naming the path.
    """
    try:
        with open(path, "r", encoding="utf-8") as handle:
            data = json.load(handle)
    except (OSError, json.JSONDecodeError) as exc:
        return [f"{path}: {exc}"]
    return validator(data)


def validate_manifest(data: Dict[str, Any]) -> List[str]:
    """Structural errors in a manifest dict (empty list = valid)."""
    if not isinstance(data, dict):
        return ["manifest: not a JSON object"]
    errors = _check_fields(data, _MANIFEST_FIELDS, "manifest")
    if "config" not in data:
        errors.append("manifest: missing required key 'config'")
    errors.extend(_check_version(data, MANIFEST_SCHEMA_VERSION, "manifest"))
    for block in ("counters", "gauges", "histograms"):
        metrics = data.get("metrics")
        if isinstance(metrics, dict) and metrics and block not in metrics:
            errors.append(f"manifest: metrics snapshot missing {block!r}")
    phases = data.get("phases")
    if isinstance(phases, dict):
        for name, entry in phases.items():
            if not isinstance(entry, dict):
                errors.append(f"manifest: phase {name!r} is not an object")
                continue
            for key in ("count", "wall_seconds", "cpu_seconds"):
                if key not in entry:
                    errors.append(
                        f"manifest: phase {name!r} missing {key!r}"
                    )
    for index, failure in enumerate(data.get("failures") or []):
        if not isinstance(failure, dict) or "error" not in failure:
            errors.append(
                f"manifest: failures[{index}] must be an object with 'error'"
            )
    return errors


def validate_manifest_file(path) -> List[str]:
    """Structural errors in a manifest JSON file."""
    return _validate_json_file(path, validate_manifest)


def validate_span(record: Dict[str, Any], where: str = "span") -> List[str]:
    """Structural errors in one trace record (empty list = valid).

    The causal-identity fields (``trace_id``/``span_id``/
    ``parent_span_id``) are optional — traces written before trace
    context existed stay valid — but when present they must be
    ``None`` or a 16-lowercase-hex id.
    """
    if not isinstance(record, dict):
        return [f"{where}: not a JSON object"]
    errors = _check_fields(record, _SPAN_FIELDS, where)
    if not errors:
        if record["depth"] < 0:
            errors.append(f"{where}: negative depth")
        if record["wall_seconds"] < 0:
            errors.append(f"{where}: negative wall_seconds")
        if not record["path"].endswith(record["name"]):
            errors.append(f"{where}: path does not end with span name")
    for key, types in _SPAN_ID_FIELDS.items():
        if key not in record:
            continue
        value = record[key]
        if not isinstance(value, types):
            errors.append(
                f"{where}: key {key!r} has type {type(value).__name__}, "
                f"expected one of {[t.__name__ for t in types]}"
            )
        elif isinstance(value, str) and not _ID_PATTERN.fullmatch(value):
            errors.append(
                f"{where}: key {key!r} is not a 16-hex-char id: {value!r}"
            )
    return errors


def validate_trace_file(path) -> List[str]:
    """Structural errors across every record of a JSONL trace file."""
    errors: List[str] = []
    try:
        for index, record in enumerate(read_jsonl(path)):
            errors.extend(validate_span(record, where=f"{path}:{index + 1}"))
    except (OSError, ValueError) as exc:
        errors.append(str(exc))
    return errors


#: Highest ``repro-fsck --report`` schema version this validator
#: understands. Mirrors
#: ``repro.storage.fsck.FSCK_REPORT_SCHEMA_VERSION`` — duplicated, not
#: imported, because :mod:`repro.obs` must not depend on the rest of
#: the package; a cross-check test keeps them in lockstep.
SUPPORTED_FSCK_REPORT_SCHEMA_VERSION = 1

#: Required fsck-report keys and their accepted types.
_FSCK_REPORT_FIELDS = {
    "schema_version": (int,),
    "kind": (str,),
    "generated_unix": (int, float),
    "root": (str,),
    "repair": (bool,),
    "scanned": (dict,),
    "findings": (list,),
    "counts": (dict,),
    "ok": (bool,),
}

#: Required keys of one fsck finding and their accepted types.
_FSCK_FINDING_FIELDS = {
    "path": (str,),
    "kind": (str,),
    "problem": (str,),
    "action": (str,),
    "repairable": (bool,),
    "detail": (str,),
}

#: The dispositions ``repro-fsck`` records per finding.
_FSCK_ACTIONS = frozenset(
    {"detected", "repaired", "removed", "quarantined"}
)

#: Required keys of the fsck report's ``counts`` roll-up.
_FSCK_COUNT_KEYS = (
    "verified", "findings", "repaired", "quarantined", "unrepairable",
)


def validate_fsck_report(data: Dict[str, Any]) -> List[str]:
    """Structural errors in a ``repro-fsck`` report dict (empty = valid).

    Checks the envelope, every finding's fields and disposition, the
    ``counts`` roll-up keys, and that ``ok`` agrees with the
    unrepairable count — an ``ok: true`` report with unrepairable
    findings would let CI archive corruption as a pass.
    """
    if not isinstance(data, dict):
        return ["fsck-report: not a JSON object"]
    errors = _check_fields(data, _FSCK_REPORT_FIELDS, "fsck-report")
    errors.extend(
        _check_version(
            data, SUPPORTED_FSCK_REPORT_SCHEMA_VERSION, "fsck-report"
        )
    )
    kind = data.get("kind")
    if isinstance(kind, str) and kind != "fsck-report":
        errors.append(f"fsck-report: kind {kind!r} != 'fsck-report'")
    for index, finding in enumerate(data.get("findings") or []):
        where = f"fsck-report findings[{index}]"
        if not isinstance(finding, dict):
            errors.append(f"{where}: not a JSON object")
            continue
        errors.extend(_check_fields(finding, _FSCK_FINDING_FIELDS, where))
        action = finding.get("action")
        if isinstance(action, str) and action not in _FSCK_ACTIONS:
            errors.append(
                f"{where}: unknown action {action!r} "
                f"(expected one of {sorted(_FSCK_ACTIONS)})"
            )
    counts = data.get("counts")
    if isinstance(counts, dict):
        for key in _FSCK_COUNT_KEYS:
            if not isinstance(counts.get(key), int):
                errors.append(
                    f"fsck-report: counts missing or non-integer {key!r}"
                )
        unrepairable = counts.get("unrepairable")
        ok = data.get("ok")
        if isinstance(unrepairable, int) and isinstance(ok, bool):
            if ok != (unrepairable == 0):
                errors.append(
                    f"fsck-report: 'ok' is {ok} but counts report "
                    f"{unrepairable} unrepairable finding(s)"
                )
    return errors


def validate_fsck_report_file(path) -> List[str]:
    """Structural errors in a ``repro-fsck --report`` JSON file."""
    return _validate_json_file(path, validate_fsck_report)


def main(argv: Optional[List[str]] = None) -> int:
    """CLI: validate manifests / traces / fsck reports; 0 iff valid."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs.validate",
        description="Validate run manifests, JSONL traces, and "
        "repro-fsck reports.",
    )
    parser.add_argument(
        "manifest", nargs="?", default=None,
        help="path to a manifest JSON file",
    )
    parser.add_argument(
        "--trace", default=None, help="path to a JSONL trace to validate too"
    )
    parser.add_argument(
        "--fsck-report", default=None, dest="fsck_report",
        help="path to a repro-fsck report JSON (--report FILE) to validate",
    )
    args = parser.parse_args(argv)
    checks = [
        (path, validator)
        for path, validator in (
            (args.manifest, validate_manifest_file),
            (args.trace, validate_trace_file),
            (args.fsck_report, validate_fsck_report_file),
        )
        if path is not None
    ]
    if not checks:
        parser.error(
            "nothing to validate: give a manifest, --trace, or "
            "--fsck-report"
        )
    errors = []
    for path, validator in checks:
        errors.extend(validator(path))
    for error in errors:
        print(error, file=sys.stderr)
    if not errors:
        checked = " and ".join(path for path, _ in checks)
        print(f"OK: {checked} schema-valid")
    return 1 if errors else 0

if __name__ == "__main__":
    sys.exit(main())
