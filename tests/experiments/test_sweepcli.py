"""repro-sweep CLI: exit codes, JSON output, checkpoint/resume flags."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.experiments.sweepcli import EXIT_PARTIAL, main
from repro.obs.jsonl import read_jsonl
from repro.obs.validate import validate_manifest_file, validate_trace_file
from tests import faultkit
from tests.faultkit import FaultPlan, FaultSpec, IOFaultSpec

from .test_resilient_sweep import flip_byte, middle_of_line

ROOT = Path(__file__).resolve().parents[2]
SRC = ROOT / "src"

#: A ``repro-sweep`` child that installs one storage fault first.
IO_FAULT_CHILD = (
    "from tests.faultkit import IOFaultPlan, IOFaultSpec, activate_io_plan\n"
    "activate_io_plan(IOFaultPlan([{spec!r}]))\n"
    "from repro.experiments.sweepcli import run\n"
    "run()\n"
)


@pytest.fixture(autouse=True)
def clean_plan():
    faultkit.deactivate()
    yield
    faultkit.deactivate()


def base_args(tmp_path, *extra):
    return [
        "--l1", "4K-16",
        "--l2", "64K-32",
        "--assoc", "2,4",
        "--scale", "0.002",
        "--processes", "2",
        "--out", str(tmp_path / "results.json"),
        *extra,
    ]


def read_out(tmp_path, name="results.json"):
    return json.loads((tmp_path / name).read_text())


def run_sweep_cli(tmp_path, args, io_fault=None, **env):
    """``repro-sweep`` in a subprocess: ``PYTHONPATH=src`` plus ``env``.

    With ``io_fault`` (an :class:`~tests.faultkit.IOFaultSpec`), the
    child installs that storage fault before it runs the CLI, with the
    repository root on its path too. No ``REPRO_*`` variable of the
    calling process leaks through.
    """
    child_env = {
        key: value
        for key, value in os.environ.items()
        if not key.startswith("REPRO_")
    }
    child_env["PYTHONPATH"] = os.pathsep.join([str(SRC), str(ROOT)])
    child_env.update(env)
    if io_fault is None:
        entry = ["-m", "repro.experiments.sweepcli"]
    else:
        entry = ["-c", IO_FAULT_CHILD.format(spec=io_fault)]
    return subprocess.run(
        [sys.executable, *entry, *args],
        cwd=tmp_path,
        env=child_env,
        capture_output=True,
        text=True,
        timeout=120,
    )


class TestHappyPath:
    def test_completes_with_exit_zero(self, tmp_path):
        assert main(base_args(tmp_path)) == 0
        payload = read_out(tmp_path)
        assert len(payload["points"]) == 2
        assert all(p["result"] is not None for p in payload["points"])
        assert payload["failures"] == []

    def test_checkpoint_and_resume(self, tmp_path):
        checkpoint = str(tmp_path / "sweep.ckpt")
        assert main(base_args(tmp_path, "--checkpoint", checkpoint)) == 0
        assert (
            main(
                base_args(
                    tmp_path, "--checkpoint", checkpoint, "--resume"
                )
            )
            == 0
        )
        payload = read_out(tmp_path)
        assert payload["resumed"] == 2

    def test_resumed_sweep_progress_ends_on_done(
        self, tmp_path, monkeypatch, capsys
    ):
        checkpoint = str(tmp_path / "p.ckpt")
        first = base_args(tmp_path, "--assoc", "2", "--checkpoint", checkpoint)
        assert main(first) == 0
        monkeypatch.setenv("REPRO_PROGRESS", "1")
        capsys.readouterr()
        assert (
            main(base_args(tmp_path, "--checkpoint", checkpoint, "--resume"))
            == 0
        )
        lines = [
            line
            for line in capsys.readouterr().err.splitlines()
            if line.startswith("[sweep]")
        ]
        assert lines and lines[-1].endswith("done"), lines

    def test_obs_dir_writes_one_trace_tree(self, tmp_path):
        # A subprocess, so no earlier test's spans are in the tracer.
        result = run_sweep_cli(
            tmp_path,
            base_args(
                tmp_path, "--l1", "4K-16,8K-16",
                "--obs-dir", str(tmp_path / "obs"),
            ),
        )
        assert result.returncode == 0, result.stderr
        manifest = tmp_path / "obs" / "manifest.json"
        trace = tmp_path / "obs" / "trace.jsonl"
        assert validate_manifest_file(manifest) == []
        assert validate_trace_file(trace) == []
        records = list(read_jsonl(trace))
        (sweep,) = [r for r in records if r["name"] == "sweep"]
        assert {r["trace_id"] for r in records} == {sweep["trace_id"]}
        tasks = [r for r in records if r["name"] == "pool_task"]
        assert all(t["parent_span_id"] == sweep["span_id"] for t in tasks)
        assert sorted(t["attrs"]["key"] for t in tasks) == [0, 1, 2, 3]
        # One trace pass for both L1s, in the parent, before the fork.
        (capture,) = [r for r in records if r["name"] == "l1_capture"]
        assert capture["attrs"]["capacity_bytes"] == [4096, 8192]
        assert capture["parent_span_id"] == sweep["span_id"]
        span_ids = [r["span_id"] for r in records]
        assert len(set(span_ids)) == len(span_ids)


class TestWorkerTeardown:
    def test_two_point_sweep_prints_no_traceback(self, tmp_path):
        """Idle pool workers end quietly when the pool is torn down.

        The workers fork with ``repro-sweep``'s SIGTERM handler; unless
        the pool resets it, the SIGTERM that stops each idle worker at
        teardown prints a traceback on stderr.
        """
        result = run_sweep_cli(
            tmp_path,
            [
                "--l1", "4K-16", "--l2", "64K-32", "--assoc", "2,4",
                "--scale", "0.002", "--processes", "2",
            ],
        )
        assert result.returncode == 0, result.stderr
        assert "Traceback" not in result.stderr


class TestUsageErrors:
    def test_resume_requires_checkpoint(self, tmp_path):
        with pytest.raises(SystemExit) as excinfo:
            main(base_args(tmp_path, "--resume"))
        assert excinfo.value.code == 2

    def test_existing_checkpoint_needs_resume(self, tmp_path):
        checkpoint = str(tmp_path / "sweep.ckpt")
        assert main(base_args(tmp_path, "--checkpoint", checkpoint)) == 0
        with pytest.raises(SystemExit) as excinfo:
            main(base_args(tmp_path, "--checkpoint", checkpoint))
        assert excinfo.value.code == 2

    @pytest.mark.parametrize(
        "extra, named",
        [
            (["--assoc", "2,x"], "2,x"),
            (["--l1", "bogus"], "bogus"),
            (["--l1", "3K-16"], "--l1 3K-16"),
            (["--assoc", "3"], "--assoc 3"),
            (["--transforms", "bogus"], "bogus"),
            (["--tag-bits", "0"], "--tag-bits 0"),
            (["--assoc", "4096"], "--assoc 4096"),
        ],
        ids=["assoc-not-int", "l1-label", "l1-sets", "assoc-not-pow2",
             "transform", "tag-bits", "assoc-too-wide"],
    )
    def test_bad_axis_rejected_before_the_pool(
        self, tmp_path, capsys, extra, named
    ):
        # Each of these used to fail inside every worker, be retried,
        # and exit 3 ("partial, rerun with --resume").
        with pytest.raises(SystemExit) as excinfo:
            main(base_args(tmp_path, *extra))
        assert excinfo.value.code == 2
        assert named in capsys.readouterr().err
        assert not (tmp_path / "results.json").exists()


class TestFailurePaths:
    def test_injected_failure_yields_partial_exit(self, tmp_path):
        faultkit.activate(FaultPlan([FaultSpec("raise", at=0)]))
        code = main(
            base_args(tmp_path, "--failure-policy", "collect")
        )
        assert code == EXIT_PARTIAL
        payload = read_out(tmp_path)
        assert payload["points"][0]["result"] is None
        assert payload["points"][1]["result"] is not None
        (failure,) = payload["failures"]
        assert failure["error_type"] == "InjectedFaultError"

    def test_transient_failure_retried_to_success(self, tmp_path):
        faultkit.activate(
            FaultPlan([FaultSpec("raise", at=0, attempts=frozenset({1}))])
        )
        code = main(
            base_args(tmp_path, "--failure-policy", "retry_then_collect")
        )
        assert code == 0
        payload = read_out(tmp_path)
        assert payload["retries"] >= 1
        assert payload["failures"] == []


class TestNoEnvironmentFaults:
    def test_retired_fault_variables_change_nothing(self, tmp_path):
        """The shipped CLI has no environment-driven fault path."""

        def sweep(name, **env):
            result = run_sweep_cli(
                tmp_path,
                base_args(
                    tmp_path, "--checkpoint", f"{name}.ckpt",
                    "--out", f"{name}.json",
                ),
                **env,
            )
            assert result.returncode == 0, result.stderr
            return result.stdout, read_out(tmp_path, f"{name}.json")

        assert sweep(
            "env",
            REPRO_FAULTS="raise@0",
            REPRO_IO_FAULTS="torn@write:path=.ckpt,nth=3",
        ) == sweep("plain")


class TestStorageFaults:
    def test_torn_checkpoint_write_resumes_to_baseline(self, tmp_path):
        baseline_out = str(tmp_path / "base.json")
        assert main(base_args(tmp_path, "--out", baseline_out)) == 0
        # Write 1 is the header, write 2 the first append; the third
        # write tears the second append and the "machine" dies.
        crashed = run_sweep_cli(
            tmp_path,
            base_args(
                tmp_path, "--checkpoint", "spool/sweep.ckpt",
                "--out", str(tmp_path / "crashed.json"),
            ),
            io_fault=IOFaultSpec("torn", "write", path=".ckpt", nth=3),
        )
        assert crashed.returncode != 0
        assert "InjectedCrashError" in crashed.stderr
        # Resume with no repair step: load() drops the torn tail and
        # record() steals the dead process's lock.
        checkpoint = str(tmp_path / "spool" / "sweep.ckpt")
        assert (
            main(
                base_args(
                    tmp_path, "--checkpoint", checkpoint, "--resume",
                    "--out", str(tmp_path / "res.json"),
                )
            )
            == 0
        )
        baseline = read_out(tmp_path, "base.json")
        resumed = read_out(tmp_path, "res.json")
        assert resumed.pop("resumed") == 1
        assert baseline.pop("resumed") == 0
        assert resumed == baseline

    def test_full_disk_while_checkpointing_exits_2_and_resumes(
        self, tmp_path
    ):
        baseline_out = str(tmp_path / "base.json")
        assert main(base_args(tmp_path, "--out", baseline_out)) == 0
        # Write 1 is the header's temp file, write 2 the first append;
        # the disk is full at the second append.
        full = run_sweep_cli(
            tmp_path,
            base_args(
                tmp_path, "--checkpoint", "spool/sweep.ckpt",
                "--out", str(tmp_path / "full.json"),
            ),
            io_fault=IOFaultSpec("enospc", "write", path=".ckpt", nth=3),
        )
        assert full.returncode == 2, full.stderr
        errors = [
            line for line in full.stderr.splitlines()
            if line.startswith("error ")
        ]
        assert len(errors) == 1, full.stderr
        assert "checkpoint spool/sweep.ckpt" in errors[0]
        assert "No space left on device" in errors[0]
        spool = tmp_path / "spool"
        assert [path.name for path in spool.iterdir()] == ["sweep.ckpt"]
        checkpoint = str(spool / "sweep.ckpt")
        assert (
            main(
                base_args(
                    tmp_path, "--checkpoint", checkpoint, "--resume",
                    "--out", str(tmp_path / "res.json"),
                )
            )
            == 0
        )
        baseline = read_out(tmp_path, "base.json")
        resumed = read_out(tmp_path, "res.json")
        assert resumed.pop("resumed") == 1
        assert baseline.pop("resumed") == 0
        assert resumed == baseline

    def test_corrupt_checkpoint_exits_2_and_names_the_remedy(self, tmp_path):
        checkpoint = tmp_path / "sweep.ckpt"
        assert main(base_args(tmp_path, "--checkpoint", str(checkpoint))) == 0
        flip_byte(checkpoint, middle_of_line(checkpoint, 2))
        result = run_sweep_cli(
            tmp_path,
            base_args(tmp_path, "--checkpoint", str(checkpoint), "--resume"),
        )
        assert result.returncode == 2, result.stderr
        assert any(
            str(checkpoint) in line
            and "line 2" in line
            and "move the checkpoint aside and rerun to recompute its points"
            in line
            for line in result.stderr.splitlines()
        ), result.stderr


class TestInterrupt:
    """SIGTERM/SIGINT mid-sweep: checkpoint survives, exit is partial."""

    def _interrupt_when_checkpointed(self, checkpoint, signum):
        """Fire ``signum`` at this process once one result is durable."""
        import os
        import signal as signal_module
        import threading
        import time

        def fire():
            deadline = time.monotonic() + 30.0
            while time.monotonic() < deadline:
                if (
                    checkpoint.exists()
                    and '"kind": "result"' in checkpoint.read_text()
                ):
                    break
                time.sleep(0.05)
            os.kill(os.getpid(), signum)

        thread = threading.Thread(target=fire, daemon=True)
        thread.start()
        return thread

    @pytest.mark.parametrize("signame", ["SIGTERM", "SIGINT"])
    def test_signal_mid_sweep_exits_partial_with_durable_checkpoint(
        self, tmp_path, monkeypatch, signame
    ):
        import signal as signal_module

        from repro.resilience.checkpoint import SweepCheckpoint

        signum = getattr(signal_module, signame)
        previous = signal_module.getsignal(signum)
        # Point 1 hangs far longer than the test: the signal always
        # lands mid-sweep, after point 0 has been checkpointed.
        faultkit.activate(FaultPlan([FaultSpec("hang", at=1, seconds=300)]))
        checkpoint = tmp_path / "sweep.ckpt"
        thread = self._interrupt_when_checkpointed(checkpoint, signum)
        code = main(
            base_args(
                tmp_path,
                "--checkpoint", str(checkpoint),
                "--failure-policy", "collect",
            )
        )
        thread.join(timeout=10.0)
        assert code == EXIT_PARTIAL
        # The completed point is durable, and the handler was restored.
        assert len(SweepCheckpoint(checkpoint).load()) >= 1
        assert signal_module.getsignal(signum) == previous

    def test_resume_finishes_an_interrupted_sweep(self, tmp_path):
        import signal as signal_module

        faultkit.activate(FaultPlan([FaultSpec("hang", at=1, seconds=300)]))
        checkpoint = tmp_path / "sweep.ckpt"
        thread = self._interrupt_when_checkpointed(
            checkpoint, signal_module.SIGTERM
        )
        assert (
            main(
                base_args(
                    tmp_path,
                    "--checkpoint", str(checkpoint),
                    "--failure-policy", "collect",
                )
            )
            == EXIT_PARTIAL
        )
        thread.join(timeout=10.0)
        faultkit.deactivate()
        code = main(
            base_args(
                tmp_path, "--checkpoint", str(checkpoint), "--resume"
            )
        )
        assert code == 0
        payload = read_out(tmp_path)
        assert payload["resumed"] >= 1
        assert all(p["result"] is not None for p in payload["points"])
