"""Structured logging for the CLIs and runners, env-controlled.

One logger (:data:`log`) replaces the scattered ``print`` and silent
paths. Levels, lowest to highest: ``debug``, ``info``, ``warning``,
``error``; ``silent`` disables everything. The threshold comes from
the ``REPRO_LOG`` environment variable (default ``info``), re-read on
every emission so tests and long-lived sessions can flip it without
re-importing. Appending ``+json`` (e.g. ``REPRO_LOG=debug+json``)
switches to one-JSON-object-per-line output.

Output contract, chosen to keep existing CLI output *byte-stable*:

- ``info`` messages go to **stdout** and, in the default text format,
  print exactly the message — a drop-in for ``print``; structured
  fields appear only in JSON mode.
- ``debug``/``warning``/``error`` go to **stderr** (debug is hidden at
  the default threshold), as ``level event key=value ...`` text or as
  JSON.
"""

from __future__ import annotations

import json
import os
import sys
from typing import Any, Optional, TextIO

#: Recognized levels and their severities.
LEVELS = {"debug": 10, "info": 20, "warning": 30, "error": 40, "silent": 100}

#: Environment variable holding ``<level>`` or ``<level>+json``.
ENV_VAR = "REPRO_LOG"


def _settings() -> "tuple[int, bool]":
    """(threshold severity, json mode) from the environment, right now."""
    raw = os.environ.get(ENV_VAR, "info").strip().lower()
    json_mode = False
    if raw.endswith("+json"):
        json_mode = True
        raw = raw[: -len("+json")]
    severity = LEVELS.get(raw or "info")
    if severity is None:
        severity = LEVELS["info"]
    return severity, json_mode


class StructuredLogger:
    """Leveled, optionally-JSON logger writing to stdout/stderr.

    Args:
        out: Stream for ``info`` messages (default ``sys.stdout``,
            resolved at emission time so pytest capture works).
        err: Stream for everything else (default ``sys.stderr``).
    """

    def __init__(
        self, out: Optional[TextIO] = None, err: Optional[TextIO] = None
    ) -> None:
        self._out = out
        self._err = err

    def _emit(
        self, level: str, message: str, to_out: bool, fields: "dict[str, Any]"
    ) -> None:
        threshold, json_mode = _settings()
        if LEVELS[level] < threshold:
            return
        stream = (
            (self._out or sys.stdout) if to_out else (self._err or sys.stderr)
        )
        if json_mode:
            record = {"level": level, "message": message}
            record.update(fields)
            stream.write(json.dumps(record, sort_keys=True, default=str) + "\n")
            return
        if to_out and not fields:
            # Byte-stable drop-in for the CLIs' former ``print`` calls.
            stream.write(message + "\n")
            return
        suffix = "".join(
            f" {key}={value}" for key, value in fields.items()
        )
        prefix = "" if to_out else f"{level} "
        stream.write(f"{prefix}{message}{suffix}\n")

    def debug(self, event: str, **fields: Any) -> None:
        """Emit a debug event (hidden unless ``REPRO_LOG=debug``)."""
        self._emit("debug", event, to_out=False, fields=fields)

    def info(self, message: str, **fields: Any) -> None:
        """Emit an info message on stdout.

        With no fields and the default text format this writes exactly
        ``message`` + newline — byte-identical to ``print(message)``.
        """
        self._emit("info", message, to_out=True, fields=fields)

    def warning(self, message: str, **fields: Any) -> None:
        """Emit a warning on stderr."""
        self._emit("warning", message, to_out=False, fields=fields)

    def error(self, message: str, **fields: Any) -> None:
        """Emit an error on stderr."""
        self._emit("error", message, to_out=False, fields=fields)

    def __repr__(self) -> str:
        threshold, json_mode = _settings()
        return (
            f"StructuredLogger(threshold={threshold}, json={json_mode})"
        )


#: The shared logger instance the CLIs and runners use.
log = StructuredLogger()
