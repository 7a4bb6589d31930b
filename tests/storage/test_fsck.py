"""``repro-fsck``: scanning, repair, quarantine, and the report schema."""

import json

import pytest

from repro.obs.manifest import RunManifest, config_hash
from repro.obs.validate import (
    SUPPORTED_FSCK_REPORT_SCHEMA_VERSION,
    validate_fsck_report,
    validate_fsck_report_file,
)
from repro.resilience.checkpoint import SweepCheckpoint
from repro.storage.fsck import (
    FSCK_REPORT_SCHEMA_VERSION,
    run,
    scan_directory,
)
from repro.storage.framing import frame_line


def write_checkpoint(path, records=2, config="h"):
    with SweepCheckpoint(path, config_hash=config) as checkpoint:
        for index in range(records):
            checkpoint.record(f"sig-{index}", {"misses": index})
    return path


def findings_by_problem(report):
    return {f["problem"]: f for f in report["findings"]}


class TestCleanSpool:
    def test_empty_directory_is_clean(self, tmp_path):
        report = scan_directory(tmp_path)
        assert report["ok"] is True
        assert report["findings"] == []

    def test_valid_files_verify(self, tmp_path):
        write_checkpoint(tmp_path / "sweep.ckpt")
        config = {"tool": "t"}
        RunManifest.build("t", config).write(tmp_path / "manifest.json")
        report = scan_directory(tmp_path)
        assert report["ok"] is True
        assert report["findings"] == []
        assert report["counts"]["verified"] >= 2

    def test_missing_root_not_a_finding(self, tmp_path):
        assert run([str(tmp_path / "nope")]) == 2


class TestTornTail:
    def test_detected_in_scan_mode(self, tmp_path):
        path = write_checkpoint(tmp_path / "sweep.ckpt")
        with open(path, "a", encoding="utf-8") as handle:
            handle.write(frame_line('{"kind": "result"}')[:-7] + "\n")
        report = scan_directory(tmp_path, repair=False)
        finding = findings_by_problem(report)["torn-tail"]
        assert finding["repairable"] is True
        assert finding["action"] == "detected"
        # Scan mode never touches the disk: the torn line is still there.
        assert path.read_text().splitlines()[-1].startswith("F1 ")
        assert len(path.read_text().splitlines()) == 4

    def test_repaired_in_repair_mode(self, tmp_path):
        path = write_checkpoint(tmp_path / "sweep.ckpt", records=2)
        with open(path, "a", encoding="utf-8") as handle:
            handle.write(frame_line('{"kind": "result"}')[:-7] + "\n")
        report = scan_directory(tmp_path, repair=True)
        assert report["ok"] is True
        assert report["counts"]["repaired"] == 1
        # The healed file loads: header intact, both records present.
        restored = SweepCheckpoint(path, config_hash="h").load()
        assert len(restored) == 2


class TestQuarantine:
    def test_mid_file_corruption_quarantined(self, tmp_path):
        path = write_checkpoint(tmp_path / "sweep.ckpt", records=3)
        lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
        lines[1] = lines[1].replace("misses", "kisses")
        path.write_text("".join(lines), encoding="utf-8")
        report = scan_directory(tmp_path, repair=True)
        assert report["ok"] is False
        finding = findings_by_problem(report)["frame-corrupt"]
        assert finding["repairable"] is False
        assert finding["action"] == "quarantined"
        assert not path.exists()
        quarantined = list((tmp_path / "quarantine").iterdir())
        assert [p.name for p in quarantined] == ["sweep.ckpt"]

    def test_quarantine_never_deletes(self, tmp_path):
        path = write_checkpoint(tmp_path / "sweep.ckpt", records=3)
        original = path.read_bytes()
        rotten = bytearray(original)
        rotten[len(rotten) // 3] ^= 0x01
        path.write_bytes(bytes(rotten))
        scan_directory(tmp_path, repair=True)
        assert (tmp_path / "quarantine" / "sweep.ckpt").read_bytes() == bytes(
            rotten
        )

    def test_quarantine_dedupes_names(self, tmp_path):
        for _ in range(2):
            path = write_checkpoint(tmp_path / "sweep.ckpt", records=3)
            raw = bytearray(path.read_bytes())
            raw[len(raw) // 3] ^= 0x01
            path.write_bytes(bytes(raw))
            scan_directory(tmp_path, repair=True)
        assert len(list((tmp_path / "quarantine").iterdir())) == 2

    def test_quarantine_dir_not_rescanned(self, tmp_path):
        path = write_checkpoint(tmp_path / "sweep.ckpt", records=3)
        raw = bytearray(path.read_bytes())
        raw[len(raw) // 3] ^= 0x01
        path.write_bytes(bytes(raw))
        scan_directory(tmp_path, repair=True)
        rescan = scan_directory(tmp_path, repair=False)
        assert rescan["ok"] is True
        assert rescan["findings"] == []


class TestOrphansAndLocks:
    def test_orphan_temp_removed(self, tmp_path):
        (tmp_path / "artifact.rpm2.tmp").write_bytes(b"partial")
        report = scan_directory(tmp_path, repair=True)
        assert report["ok"] is True
        assert not (tmp_path / "artifact.rpm2.tmp").exists()

    def test_dead_holder_lock_removed(self, tmp_path):
        lock = tmp_path / "sweep.ckpt.lock"
        lock.write_text("99999999\n", encoding="utf-8")
        report = scan_directory(tmp_path, repair=True)
        assert report["ok"] is True
        assert not lock.exists()

    def test_live_holder_lock_kept(self, tmp_path):
        import os

        from repro.resilience.checkpoint import process_start_ticks

        pid = os.getpid()
        ticks = process_start_ticks(pid)
        lock = tmp_path / "sweep.ckpt.lock"
        lock.write_text(
            f"{pid}\n" if ticks is None else f"{pid} {ticks}\n",
            encoding="utf-8",
        )
        report = scan_directory(tmp_path, repair=True)
        assert report["findings"] == []
        assert lock.exists()


class TestManifestCrossRef:
    def test_config_hash_mismatch_detected(self, tmp_path):
        manifest = RunManifest.build("t", {"scale": 1.0})
        manifest.data["config_hash"] = config_hash({"scale": 2.0})
        manifest.write(tmp_path / "manifest.json")
        report = scan_directory(tmp_path, repair=False)
        assert report["ok"] is False
        assert "config-hash-mismatch" in findings_by_problem(report)

    def test_checkpoint_name_cross_ref(self, tmp_path):
        # Spool checkpoints are named by config hash; a rename is
        # cross-wiring, caught by the header.
        digest = config_hash({"real": True})
        other = config_hash({"real": False})
        write_checkpoint(tmp_path / f"{other}.ckpt", config=digest)
        report = scan_directory(tmp_path, repair=False)
        assert "config-hash-mismatch" in findings_by_problem(report)


class TestReportSchema:
    def test_schema_versions_in_lockstep(self):
        # The validator duplicates the constant (obs must not import
        # repro.storage.fsck); this cross-check keeps them honest.
        assert (
            FSCK_REPORT_SCHEMA_VERSION
            == SUPPORTED_FSCK_REPORT_SCHEMA_VERSION
        )

    def test_reports_validate(self, tmp_path):
        path = write_checkpoint(tmp_path / "sweep.ckpt")
        with open(path, "a", encoding="utf-8") as handle:
            handle.write("F1 torn")
        (tmp_path / "junk.tmp").write_bytes(b"x")
        for repair in (False, True):
            report = scan_directory(tmp_path, repair=repair)
            assert validate_fsck_report(report) == []

    def test_ok_must_match_unrepairable_count(self):
        report = {
            "schema_version": 1,
            "kind": "fsck-report",
            "generated_unix": 0.0,
            "root": "/spool",
            "repair": False,
            "scanned": {},
            "findings": [],
            "counts": {
                "verified": 0,
                "findings": 1,
                "repaired": 0,
                "quarantined": 1,
                "unrepairable": 1,
            },
            "ok": True,
        }
        errors = validate_fsck_report(report)
        assert any("unrepairable" in error for error in errors)

    def test_newer_schema_rejected(self):
        errors = validate_fsck_report(
            {"schema_version": FSCK_REPORT_SCHEMA_VERSION + 1}
        )
        assert any("newer" in error for error in errors)


class TestCli:
    def test_clean_exit_zero(self, tmp_path, capsys):
        write_checkpoint(tmp_path / "sweep.ckpt")
        assert run([str(tmp_path)]) == 0
        assert "0 findings" in capsys.readouterr().out

    def test_unrepairable_exit_one(self, tmp_path, capsys):
        path = write_checkpoint(tmp_path / "sweep.ckpt", records=3)
        raw = bytearray(path.read_bytes())
        raw[len(raw) // 3] ^= 0x01
        path.write_bytes(bytes(raw))
        assert run([str(tmp_path), "--repair"]) == 1
        out = capsys.readouterr().out
        assert "quarantined" in out

    def test_report_file_validates(self, tmp_path):
        write_checkpoint(tmp_path / "sweep.ckpt")
        report_path = tmp_path / "out" / "fsck.json"
        report_path.parent.mkdir()
        assert run([str(tmp_path), "--report", str(report_path)]) == 0
        assert validate_fsck_report_file(report_path) == []
        payload = json.loads(report_path.read_text(encoding="utf-8"))
        assert payload["kind"] == "fsck-report"

    def test_report_to_stdout(self, tmp_path, capsys):
        write_checkpoint(tmp_path / "sweep.ckpt")
        assert run([str(tmp_path), "--report", "-", "--quiet"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert validate_fsck_report(payload) == []
