"""Crash-safe checkpoint store: durability, torn tails, identity checks."""

import json

import pytest

from repro.errors import CheckpointError, IntegrityError
from repro.resilience.checkpoint import (
    CHECKPOINT_SCHEMA_VERSION,
    SweepCheckpoint,
    point_signature,
)
from repro.storage.framing import frame_line, parse_framed_line


class TestPointSignature:
    def test_deterministic(self):
        point = {"l1": "4K-16", "l2": "64K-32", "associativity": 4}
        assert point_signature(point) == point_signature(dict(point))

    def test_field_order_irrelevant(self):
        a = {"x": 1, "y": 2}
        b = {"y": 2, "x": 1}
        assert point_signature(a) == point_signature(b)

    def test_distinct_points_distinct_signatures(self):
        assert point_signature({"a": 1}) != point_signature({"a": 2})

    def test_accepts_dataclasses(self):
        from repro.experiments.runner import SweepPoint

        sig = point_signature(SweepPoint("4K-16", "64K-32", 4))
        assert sig == point_signature(SweepPoint("4K-16", "64K-32", 4))
        assert sig != point_signature(SweepPoint("4K-16", "64K-32", 2))


class TestRoundTrip:
    def test_fresh_file_loads_empty(self, tmp_path):
        checkpoint = SweepCheckpoint(tmp_path / "s.ckpt", config_hash="h")
        assert checkpoint.load() == {}
        assert not checkpoint.exists()

    def test_record_then_load(self, tmp_path):
        path = tmp_path / "s.ckpt"
        with SweepCheckpoint(path, config_hash="h") as checkpoint:
            checkpoint.record("sig-a", {"misses": 10})
            checkpoint.record("sig-b", {"misses": 20})
        restored = SweepCheckpoint(path, config_hash="h").load()
        assert restored == {"sig-a": {"misses": 10}, "sig-b": {"misses": 20}}

    def test_floats_round_trip_exactly(self, tmp_path):
        path = tmp_path / "s.ckpt"
        value = 0.1 + 0.2  # not representable exactly in decimal
        with SweepCheckpoint(path, config_hash="h") as checkpoint:
            checkpoint.record("sig", {"ratio": value})
        restored = SweepCheckpoint(path, config_hash="h").load()
        assert restored["sig"]["ratio"] == value

    def test_results_property_is_a_copy(self, tmp_path):
        checkpoint = SweepCheckpoint(tmp_path / "s.ckpt", config_hash="h")
        checkpoint.record("sig", 1)
        snapshot = checkpoint.results
        snapshot["other"] = 2
        assert "other" not in checkpoint.results
        checkpoint.close()


class TestDurability:
    def seed_file(self, path):
        with SweepCheckpoint(path, config_hash="h") as checkpoint:
            checkpoint.record("sig-a", 1)
            checkpoint.record("sig-b", 2)

    def test_torn_tail_dropped_and_compacted(self, tmp_path):
        path = tmp_path / "s.ckpt"
        self.seed_file(path)
        with open(path, "a", encoding="utf-8") as handle:
            handle.write('{"kind": "result", "signature": "sig-c", "re')
        restored = SweepCheckpoint(path, config_hash="h").load()
        assert restored == {"sig-a": 1, "sig-b": 2}
        # The torn line was compacted away, not left to accumulate,
        # and every surviving line verifies its CRC32 frame.
        lines = path.read_text().splitlines()
        assert all(json.loads(parse_framed_line(line)) for line in lines)

    def test_corrupt_interior_record_is_fatal(self, tmp_path):
        path = tmp_path / "s.ckpt"
        self.seed_file(path)
        lines = path.read_text().splitlines()
        lines[1] = "garbage {"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(IntegrityError, match="line 2"):
            SweepCheckpoint(path, config_hash="h").load()

    def test_append_resumes_after_reload(self, tmp_path):
        path = tmp_path / "s.ckpt"
        self.seed_file(path)
        with SweepCheckpoint(path, config_hash="h") as checkpoint:
            checkpoint.record("sig-c", 3)
        restored = SweepCheckpoint(path, config_hash="h").load()
        assert set(restored) == {"sig-a", "sig-b", "sig-c"}


class TestIdentityChecks:
    def test_config_hash_mismatch_refused(self, tmp_path):
        path = tmp_path / "s.ckpt"
        with SweepCheckpoint(path, config_hash="aaa") as checkpoint:
            checkpoint.record("sig", 1)
        with pytest.raises(CheckpointError, match="refusing to resume"):
            SweepCheckpoint(path, config_hash="bbb").load()

    def test_none_hash_skips_the_check(self, tmp_path):
        path = tmp_path / "s.ckpt"
        with SweepCheckpoint(path, config_hash="aaa") as checkpoint:
            checkpoint.record("sig", 1)
        assert SweepCheckpoint(path).load() == {"sig": 1}

    def test_missing_header_rejected(self, tmp_path):
        path = tmp_path / "s.ckpt"
        path.write_text(
            frame_line('{"kind": "result", "signature": "sig", "result": 1}')
            + "\n"
        )
        with pytest.raises(CheckpointError, match="header"):
            SweepCheckpoint(path, config_hash="h").load()

    def test_unsupported_schema_rejected(self, tmp_path):
        path = tmp_path / "s.ckpt"
        header = {
            "kind": "header",
            "schema": CHECKPOINT_SCHEMA_VERSION + 1,
            "config_hash": "h",
        }
        path.write_text(frame_line(json.dumps(header)) + "\n")
        with pytest.raises(CheckpointError, match="unsupported checkpoint"):
            SweepCheckpoint(path, config_hash="h").load()

    def test_unknown_record_kind_rejected(self, tmp_path):
        path = tmp_path / "s.ckpt"
        with SweepCheckpoint(path, config_hash="h") as checkpoint:
            checkpoint.record("sig", 1)
        with open(path, "a", encoding="utf-8") as handle:
            handle.write(frame_line('{"kind": "mystery"}') + "\n")
        with pytest.raises(CheckpointError, match="record kind"):
            SweepCheckpoint(path, config_hash="h").load()

    def test_unframed_record_is_not_trusted(self, tmp_path):
        """A bare JSON result between framed ones has no checksum to
        verify, so it cannot resume."""
        path = tmp_path / "s.ckpt"
        with SweepCheckpoint(path, config_hash="h") as checkpoint:
            checkpoint.record("aaa", {"v": 1})
            with open(path, "a", encoding="utf-8") as handle:
                handle.write(json.dumps(
                    {"kind": "result", "signature": "bbb", "result": {"v": 666}}
                ) + "\n")
            checkpoint.record("ccc", {"v": 3})
        with pytest.raises(IntegrityError, match="line 3"):
            SweepCheckpoint(path, config_hash="h").load()


class TestAdvisoryLock:
    def test_second_writer_fails_fast(self, tmp_path):
        path = tmp_path / "s.ckpt"
        first = SweepCheckpoint(path, config_hash="h")
        first.record("sig-1", 1)
        second = SweepCheckpoint(path, config_hash="h")
        with pytest.raises(CheckpointError, match="locked by another"):
            second.record("sig-2", 2)
        first.close()

    def test_close_releases_the_lock(self, tmp_path):
        path = tmp_path / "s.ckpt"
        first = SweepCheckpoint(path, config_hash="h")
        first.record("sig-1", 1)
        first.close()
        assert not first.lock_path.exists()
        second = SweepCheckpoint(path, config_hash="h")
        second.load()
        second.record("sig-2", 2)
        second.close()
        assert SweepCheckpoint(path).load() == {"sig-1": 1, "sig-2": 2}

    def test_stale_lock_from_dead_pid_is_stolen(self, tmp_path):
        path = tmp_path / "s.ckpt"
        checkpoint = SweepCheckpoint(path, config_hash="h")
        # Forge a lockfile naming a PID that cannot exist anymore.
        checkpoint.lock_path.write_text("999999999\n")
        checkpoint.record("sig", 1)  # steals the stale lock
        checkpoint.close()
        assert SweepCheckpoint(path).load() == {"sig": 1}

    def test_unreadable_lockfile_treated_as_stale(self, tmp_path):
        path = tmp_path / "s.ckpt"
        checkpoint = SweepCheckpoint(path, config_hash="h")
        checkpoint.lock_path.write_text("not-a-pid\n")
        checkpoint.record("sig", 1)
        checkpoint.close()

    def test_live_holder_in_another_process_blocks(self, tmp_path):
        """Two *processes* cannot append to one checkpoint concurrently."""
        import subprocess
        import sys
        from pathlib import Path

        path = tmp_path / "s.ckpt"
        script = (
            "import sys\n"
            "from repro.resilience.checkpoint import SweepCheckpoint\n"
            "checkpoint = SweepCheckpoint(sys.argv[1], config_hash='h')\n"
            "checkpoint.record('sig-child', 1)\n"
            "print('LOCKED', flush=True)\n"
            "sys.stdin.readline()\n"  # hold the lock until told to stop
            "checkpoint.close()\n"
        )
        src = str(Path(__file__).resolve().parents[2] / "src")
        child = subprocess.Popen(
            [sys.executable, "-c", script, str(path)],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            env={"PYTHONPATH": src, "PATH": "/usr/bin:/bin"},
            text=True,
        )
        try:
            assert child.stdout.readline().strip() == "LOCKED"
            mine = SweepCheckpoint(path, config_hash="h")
            mine.load()
            with pytest.raises(CheckpointError, match="locked by another"):
                mine.record("sig-parent", 2)
        finally:
            child.communicate(input="done\n", timeout=30)
        assert child.returncode == 0
        # With the child gone the lock is free again.
        after = SweepCheckpoint(path, config_hash="h")
        after.load()
        after.record("sig-parent", 2)
        after.close()
        assert SweepCheckpoint(path).load() == {
            "sig-child": 1,
            "sig-parent": 2,
        }


class TestLockTakeoverIdentity:
    """The stale-steal check must verify the *process*, not the PID."""

    def test_start_ticks_readable_for_self(self):
        import os

        from repro.resilience.checkpoint import process_start_ticks

        ticks = process_start_ticks(os.getpid())
        assert isinstance(ticks, int) and ticks > 0

    def test_recycled_pid_is_recognized_as_stale(self, tmp_path):
        # A lockfile naming a PID that is alive *now* but whose
        # recorded start time belongs to an earlier incarnation: the
        # original holder is gone, the PID was recycled. Forge it with
        # our own live PID and impossible start ticks.
        import os

        path = tmp_path / "s.ckpt"
        checkpoint = SweepCheckpoint(path, config_hash="h")
        checkpoint.lock_path.write_text(f"{os.getpid()} 1\n")
        checkpoint.record("sig", 1)  # steals: identity refutes liveness
        checkpoint.close()
        assert SweepCheckpoint(path).load() == {"sig": 1}

    def test_legacy_lock_with_live_pid_is_honored(self, tmp_path):
        # A ticks-less (legacy) lockfile naming a live PID carries no
        # identity to refute liveness — never steal blind.
        import os

        path = tmp_path / "s.ckpt"
        checkpoint = SweepCheckpoint(path, config_hash="h")
        checkpoint.lock_path.write_text(f"{os.getpid()}\n")
        with pytest.raises(CheckpointError, match="locked by another"):
            checkpoint.record("sig", 1)

    def test_successor_steals_from_killed_holder(self, tmp_path):
        """Two-process regression for the failover takeover path.

        The child acquires the lock and is SIGKILLed mid-hold (the
        shard-crash case) — the lockfile survives with the dead
        holder's identity. The parent, playing the ring successor,
        must verify the holder is gone and take over the append.
        """
        import signal
        import subprocess
        import sys
        from pathlib import Path

        path = tmp_path / "s.ckpt"
        script = (
            "import sys\n"
            "from repro.resilience.checkpoint import SweepCheckpoint\n"
            "checkpoint = SweepCheckpoint(sys.argv[1], config_hash='h')\n"
            "checkpoint.record('sig-child', 1)\n"
            "print('LOCKED', flush=True)\n"
            "sys.stdin.readline()\n"
        )
        src = str(Path(__file__).resolve().parents[2] / "src")
        child = subprocess.Popen(
            [sys.executable, "-c", script, str(path)],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            env={"PYTHONPATH": src, "PATH": "/usr/bin:/bin"},
            text=True,
        )
        assert child.stdout.readline().strip() == "LOCKED"
        lock_body = SweepCheckpoint(path).lock_path.read_text().split()
        assert lock_body[0] == str(child.pid)
        assert len(lock_body) == 2  # pid + start ticks
        child.send_signal(signal.SIGKILL)
        child.wait(timeout=30)
        assert SweepCheckpoint(path).lock_path.exists()  # left behind
        successor = SweepCheckpoint(path, config_hash="h")
        successor.load()
        successor.record("sig-successor", 2)  # steals the dead lock
        successor.close()
        assert SweepCheckpoint(path).load() == {
            "sig-child": 1,
            "sig-successor": 2,
        }


class TestCrashMidAppend:
    """Two-process power-failure regression: the full recovery story.

    A child process installs a torn-write fault from
    ``tests/faultkit.py``, appends records, and dies mid-append,
    exactly as a machine losing power. The parent then
    resumes with no repair step: ``load()`` compacts the torn tail,
    the surviving prefix loads exactly, and the successor's
    ``record()`` steals the dead holder's lock and completes the
    sweep — zero silent data loss, end to end.
    """

    def test_torn_append_resume(self, tmp_path):
        import os
        import subprocess
        import sys
        from pathlib import Path

        path = tmp_path / "s.ckpt"
        script = (
            "import sys\n"
            "from repro.resilience.checkpoint import SweepCheckpoint\n"
            "from tests.faultkit import (\n"
            "    IOFaultPlan, IOFaultSpec, activate_io_plan,\n"
            ")\n"
            # nth=1 is the header's atomic temp write; nth=2 the first
            # append; the crash tears the second append.
            "activate_io_plan(IOFaultPlan(\n"
            "    [IOFaultSpec('torn', 'write', path='.ckpt', nth=3)]\n"
            "))\n"
            "checkpoint = SweepCheckpoint(sys.argv[1], config_hash='h')\n"
            "checkpoint.record('sig-a', {'misses': 1})\n"
            "checkpoint.record('sig-b', {'misses': 2})\n"
            "checkpoint.record('sig-c', {'misses': 3})\n"
        )
        root = Path(__file__).resolve().parents[2]
        child = subprocess.run(
            [sys.executable, "-c", script, str(path)],
            capture_output=True,
            env={
                "PYTHONPATH": os.pathsep.join([str(root / "src"), str(root)]),
                "PATH": "/usr/bin:/bin",
            },
            text=True,
            timeout=60,
        )
        assert child.returncode != 0
        assert "InjectedCrashError" in child.stderr
        # Power-failure debris: a torn tail and the dead holder's lock.
        assert path.exists()
        lock = SweepCheckpoint(path).lock_path
        assert lock.exists()

        # The fsync'd prefix survives exactly; the torn record is
        # honestly gone, never half-merged.
        survivor = SweepCheckpoint(path, config_hash="h")
        assert survivor.load() == {"sig-a": {"misses": 1}}

        # The resumed writer steals the dead lock and finishes the job.
        survivor.record("sig-b", {"misses": 2})
        survivor.record("sig-c", {"misses": 3})
        survivor.close()
        assert not lock.exists()
        assert SweepCheckpoint(path).load() == {
            "sig-a": {"misses": 1},
            "sig-b": {"misses": 2},
            "sig-c": {"misses": 3},
        }
