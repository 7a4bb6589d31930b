"""Stream artifacts on the production path: persisted by a sweep, reused
by a fresh process without re-simulating the L1."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cache.artifacts import StreamArtifactStore, set_artifact_store
from repro.cache.direct_mapped import DirectMappedCache
from repro.cache.hierarchy import capture_miss_stream, clear_miss_stream_cache
from repro.experiments.configs import default_workload
from repro.experiments.runner import ExperimentRunner, config_result_to_dict
from repro.trace.synthetic import AtumWorkload

SRC = str(Path(__file__).resolve().parents[2] / "src")

#: Run in a fresh interpreter: load the 4K-16 stream of the sweep's
#: workload through ``cached_miss_stream`` with the artifact store set,
#: failing if the L1 is simulated, and print what came back.
LOAD_SCRIPT = """
import json, sys
import repro.cache.hierarchy as hierarchy
from repro.cache.artifacts import set_artifact_store
from repro.experiments.configs import default_workload
from repro.obs.metrics import get_metrics

def no_capture(*args, **kwargs):
    raise AssertionError("capture_miss_stream was called")

hierarchy.capture_miss_stream = no_capture
set_artifact_store(sys.argv[1])
stream, ratio = hierarchy.cached_miss_stream(
    default_workload(scale=0.002, seed=1989), 4096, 16
)
print(json.dumps({
    "artifact_hits": get_metrics().counter("miss_stream.artifact_hits").value,
    "events": stream.events,
    "processor_references": stream.processor_references,
    "ratio": ratio,
}))
"""


def run_python(*argv):
    return subprocess.run(
        [sys.executable, *argv],
        env={"PYTHONPATH": SRC, "PATH": "/usr/bin:/bin"},
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )


@pytest.fixture(autouse=True)
def _isolate_store(monkeypatch):
    monkeypatch.delenv("REPRO_STREAM_ARTIFACTS", raising=False)
    clear_miss_stream_cache()
    yield
    set_artifact_store(None)
    clear_miss_stream_cache()


def test_sweep_persists_artifacts_a_fresh_process_reuses(tmp_path):
    store_dir = tmp_path / "artifacts"
    run_python(
        "-m", "repro.experiments.sweepcli", "--scale", "0.002",
        "--assoc", "2", "--processes", "1",
        "--stream-artifacts", str(store_dir),
    )
    workload = default_workload(scale=0.002, seed=1989)
    key = StreamArtifactStore(store_dir).key(workload, 4096, 16)
    assert sorted(path.name for path in store_dir.iterdir()) == [
        f"{key}.meta.json", f"{key}.rpm2",
    ]

    loaded = json.loads(run_python("-c", LOAD_SCRIPT, str(store_dir)).stdout)
    l1 = DirectMappedCache(4096, 16)
    fresh = capture_miss_stream(iter(workload), l1)
    assert loaded["artifact_hits"] == 1
    assert [tuple(event) for event in loaded["events"]] == fresh.events
    assert loaded["processor_references"] == fresh.processor_references
    assert loaded["ratio"] == l1.stats.readin_miss_ratio


def test_runner_roundtrips_through_artifact_store(monkeypatch, tmp_path):
    monkeypatch.setenv("REPRO_STREAM_ARTIFACTS", str(tmp_path))
    workload = AtumWorkload(segments=3, references_per_segment=4_000, seed=19)
    first = ExperimentRunner(workload).run("4K-16", "64K-32", 4)
    saved = sorted(tmp_path.iterdir())
    assert saved, "expected a persisted stream artifact"
    # A fresh runner with a cold in-process cache must load the artifact
    # back instead of re-capturing, bit-identically.
    clear_miss_stream_cache()
    second = ExperimentRunner(workload).run("4K-16", "64K-32", 4)
    assert config_result_to_dict(second) == config_result_to_dict(first)
    assert sorted(tmp_path.iterdir()) == saved
