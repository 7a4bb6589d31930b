"""Console scripts: bad input is one ``error`` line and exit 2.

Each command runs as ``python -m`` in a subprocess, through the same
``run`` its console-script entry point calls. ``main()`` itself still
raises, so in-process tests keep using ``pytest.raises``. Run that way,
no command prints runpy's warning about a module its package imported.
"""

import importlib
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from repro.errors import console_script

SRC = Path(__file__).resolve().parents[1] / "src"

#: Command -> (module and arguments, text the error line must carry).
#: ``{din}`` is a dinero trace with an unknown access type.
CASES = {
    "repro-tables": (
        ["repro.experiments.cli", "table3", "--scale", "0"],
        "scale must be in (0, 1]",
    ),
    "repro-sim": (
        ["repro.experiments.simcli", "--l2", "3K-7", "--scale", "0.002"],
        "capacity 3072 is not a multiple of block size 7",
    ),
    "repro-validate": (
        ["repro.experiments.validatecli", "--scale", "0"],
        "scale must be in (0, 1]",
    ),
    "repro-trace": (
        ["repro.trace.cli", "stats", "{din}"],
        "unknown access type '7'",
    ),
    "repro-sweep": (
        ["repro.experiments.sweepcli", "--l2", "64K-32", "--scale", "0"],
        "scale must be in (0, 1]",
    ),
    "repro-report": (
        ["repro.report.cli", "--scale", "0", "--no-figures"],
        "scale must be in (0, 1]",
    ),
}


@pytest.mark.parametrize("command", sorted(CASES))
def test_rejected_input_exits_2_without_traceback(tmp_path, command):
    args, message = CASES[command]
    din = tmp_path / "bad.din"
    din.write_text("0 1000\n7 2000\n")
    env = {
        key: value
        for key, value in os.environ.items()
        if not key.startswith("REPRO_")
    }
    env["PYTHONPATH"] = str(SRC)
    result = subprocess.run(
        [sys.executable, "-m"] + [a.format(din=din) for a in args],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 2, result.stderr
    (line,) = result.stderr.splitlines()
    assert line.startswith("error ") and message in line


@pytest.mark.parametrize(
    "module", ["repro.obs.validate", "repro.obs.trace_report"]
)
def test_python_m_prints_no_runpy_warning(tmp_path, module):
    # runpy warns when the package's __init__ already imported the module.
    result = subprocess.run(
        [
            sys.executable, "-W", "always::RuntimeWarning", "-m", module,
            str(tmp_path / "missing.json"),
        ],
        cwd=tmp_path,
        env={**os.environ, "PYTHONPATH": str(SRC)},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert "RuntimeWarning" not in result.stderr, result.stderr


def _console_scripts():
    """``[project.scripts]`` of pyproject.toml: name -> ``module:attr``."""
    text = (SRC.parent / "pyproject.toml").read_text(encoding="utf-8")
    section = text.split("[project.scripts]", 1)[1].split("\n[", 1)[0]
    return dict(re.findall(r'^(\S+) = "([^"]+)"$', section, re.M))


SCRIPTS = _console_scripts()


@pytest.mark.parametrize("name", sorted(SCRIPTS))
def test_entry_point_resolves(name):
    module, attr = SCRIPTS[name].split(":")
    assert callable(getattr(importlib.import_module(module), attr))


class TestConsoleScript:
    def test_exit_status_is_mains(self):
        with pytest.raises(SystemExit) as excinfo:
            console_script(lambda: 3)()
        assert excinfo.value.code == 3

    def test_bugs_keep_their_traceback(self):
        def main():
            raise RuntimeError("a bug, not bad input")

        with pytest.raises(RuntimeError):
            console_script(main)()
