"""Schema validation for manifests and JSONL traces.

Hand-rolled structural checks — no ``jsonschema`` dependency — used by
tests and by CI's instrumented smoke sweep, which asserts that a real
run produced schema-valid artifacts before archiving them::

    python -m repro.obs.validate out/manifest.json --trace out/trace.jsonl

Exit status 0 when everything validates; 1 with one error per line on
stderr otherwise.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from typing import Any, Dict, List, Optional

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

#: The id format the tracer emits: 16 lowercase hex (64 random bits).
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


def validate_manifest(data: Dict[str, Any]) -> List[str]:
    """Structural errors in a manifest dict (empty list = valid)."""
    if not isinstance(data, dict):
        return ["manifest: not a JSON object"]
    errors = _check_fields(data, _MANIFEST_FIELDS, "manifest")
    if "config" not in data:
        errors.append("manifest: missing required key 'config'")
    version = data.get("schema_version")
    if isinstance(version, int) and version > MANIFEST_SCHEMA_VERSION:
        errors.append(
            f"manifest: schema_version {version} is newer than the "
            f"supported {MANIFEST_SCHEMA_VERSION}"
        )
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
    """Structural errors in a manifest JSON file.

    An unreadable or unparseable file is one error naming the path.
    """
    try:
        with open(path, "r", encoding="utf-8") as handle:
            data = json.load(handle)
    except (OSError, json.JSONDecodeError) as exc:
        return [f"{path}: {exc}"]
    return validate_manifest(data)


def validate_span(record: Dict[str, Any], where: str = "span") -> List[str]:
    """Structural errors in one trace record (empty list = valid).

    The causal-identity fields (``trace_id``/``span_id``/
    ``parent_span_id``) are optional — traces written before span
    ids existed stay valid — but when present they must be
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


def main(argv: Optional[List[str]] = None) -> int:
    """CLI: validate a manifest and/or a trace; 0 iff valid."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs.validate",
        description="Validate run manifests and JSONL traces.",
    )
    parser.add_argument(
        "manifest", nargs="?", default=None,
        help="path to a manifest JSON file",
    )
    parser.add_argument(
        "--trace", default=None, help="path to a JSONL trace to validate too"
    )
    args = parser.parse_args(argv)
    checks = [
        (path, validator)
        for path, validator in (
            (args.manifest, validate_manifest_file),
            (args.trace, validate_trace_file),
        )
        if path is not None
    ]
    if not checks:
        parser.error("nothing to validate: give a manifest or --trace")
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
