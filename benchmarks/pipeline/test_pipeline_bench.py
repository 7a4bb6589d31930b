"""Tests of the pipeline benchmark itself.

Run explicitly (they are outside the tier-1 ``testpaths``)::

    PYTHONPATH=src python -m pytest benchmarks/pipeline/test_pipeline_bench.py
"""

from __future__ import annotations

import json
import subprocess
import sys

import pytest

import run as bench
from spans import self_seconds

CONFIG = bench.load_json(bench.CONFIG)


@pytest.fixture(scope="module")
def smoke(tmp_path_factory):
    out = tmp_path_factory.mktemp("smoke") / "results.json"
    done = subprocess.run(
        [sys.executable, str(bench.BENCH_DIR / "run.py"), "--smoke", "--trace",
         "--seed", "11", "--out", str(out)],
        capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stdout + done.stderr
    return json.loads(out.read_text())


def test_every_workload_runs_under_smoke(smoke):
    assert list(smoke["workloads"]) == list(bench.WORKLOADS)
    for entry in smoke["workloads"].values():
        assert entry["failed"] == 0
        assert entry["metrics"]["failed_frac"]["median"] == 0
        for metric in CONFIG["end_to_end"]:
            assert entry["metrics"][metric["name"]]["median"] > 0
        for metric in CONFIG["per_layer"]:
            assert metric["name"] in entry["layers"]


def test_traced_digest_equals_untraced_digest(smoke):
    for entry in smoke["workloads"].values():
        # Untraced repeats and the traced repeat all hashed the same artifact.
        assert len(entry["digests"]) == 1


def test_summarize_median_and_quartiles():
    stats = bench.summarize([5.0, 1.0, 4.0, 2.0, 3.0])
    assert (stats["median"], stats["q1"], stats["q3"], stats["n"]) == (3.0, 1.5, 4.5, 5)
    single = bench.summarize([2.5])
    assert (single["median"], single["q1"], single["q3"]) == (2.5, 2.5, 2.5)


def results_file(tmp_path, name, environment=None, **metrics):
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps({
        "environment": environment or bench.environment(),
        "workloads": {"fig4_cold23": {"metrics": {
            key: bench.summarize(values) for key, values in metrics.items()
        }}},
    }))
    return str(path)


STEADY = [1.00, 1.01, 0.99, 1.00, 1.02, 0.98, 1.00]


@pytest.mark.parametrize("change, verdict, status", [
    ([v * 1.3 for v in STEADY], "regression", 1),
    ([v * 0.7 for v in STEADY], "improvement", 0),
    ([v * 1.02 for v in STEADY], "ok", 0),
    ([0.7, 1.3, 0.8, 1.2, 1.0, 0.75, 1.25], "unresolved", 0),
])
def test_compare_verdicts(tmp_path, capsys, change, verdict, status):
    parent = results_file(tmp_path, "parent", wall_s=STEADY, failed_frac=[0.0])
    candidate = results_file(tmp_path, "change", wall_s=change, failed_frac=[0.0])
    assert bench.compare([parent, candidate], CONFIG) == status
    row = next(line for line in capsys.readouterr().out.splitlines()
               if " wall_s " in line)
    assert row.endswith(verdict)


def test_compare_fails_on_higher_failed_frac(tmp_path, capsys):
    parent = results_file(tmp_path, "parent", wall_s=STEADY, failed_frac=[0.0])
    candidate = results_file(tmp_path, "change", wall_s=STEADY, failed_frac=[1 / 7])
    assert bench.compare([parent, candidate], CONFIG) == 1
    row = next(line for line in capsys.readouterr().out.splitlines()
               if " failed_frac " in line)
    assert row.endswith("regression")


def test_compare_refuses_other_environments_unless_forced(tmp_path):
    other = dict(bench.environment(), nproc=-1)
    parent = results_file(tmp_path, "parent", wall_s=STEADY)
    candidate = results_file(tmp_path, "change", environment=other, wall_s=STEADY)
    assert bench.compare([parent, candidate], CONFIG) == 2
    assert bench.compare([parent, candidate, "--force"], CONFIG) == 0


def test_self_time_ignores_children_in_other_processes():
    def span(span_id, parent, pid, wall):
        return {"span_id": span_id, "parent_span_id": parent,
                "wall_seconds": wall, "attrs": {"pid": pid}}

    own = self_seconds([
        span("root", None, 1, 10.0),
        span("inner", "root", 1, 4.0),
        span("worker", "root", 2, 9.0),
    ])
    assert own == {"root": 6.0, "inner": 4.0, "worker": 9.0}
