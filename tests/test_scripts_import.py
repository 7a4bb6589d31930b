"""Every example and bench module imports, so none uses a deleted name.

Tier-1 runs neither ``examples/`` nor ``benchmarks/``; importing each
file (without running it) catches a library name it uses that no
longer exists. ``benchmarks/`` goes on ``sys.path`` first, as pytest's
rootdir conftest would put it, so ``_bench_utils`` resolves.
"""

import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SCRIPTS = sorted(ROOT.glob("examples/*.py")) + sorted(
    ROOT.glob("benchmarks/bench_*.py")
)


def test_scripts_found():
    assert len(SCRIPTS) > 20


@pytest.mark.parametrize(
    "path", SCRIPTS, ids=lambda path: f"{path.parent.name}/{path.name}"
)
def test_script_imports(path, monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "benchmarks"))
    spec = importlib.util.spec_from_file_location(
        f"_imported_{path.parent.name}_{path.stem}", path
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
