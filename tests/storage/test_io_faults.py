"""The I/O fault shim: spec parsing, plans, and crash semantics."""

import errno
import os

import pytest

from repro.storage.faultio import (
    ENV_VAR,
    FaultingIO,
    InjectedCrashError,
    IOFaultPlan,
    IOFaultSpec,
    activate_io_plan,
    deactivate_io_plan,
    io_from_environment,
    parse_io_plan,
    parse_io_spec,
)
from repro.storage.io import (
    StorageIO,
    atomic_write_bytes,
    atomic_write_text,
    durable_append,
    get_io,
    set_io,
)


@pytest.fixture(autouse=True)
def clean_io(monkeypatch):
    monkeypatch.delenv(ENV_VAR, raising=False)
    deactivate_io_plan()
    yield
    deactivate_io_plan()


class TestSpecParsing:
    def test_minimal_spec(self):
        spec = parse_io_spec("crash@write")
        assert (spec.kind, spec.op, spec.nth) == ("crash", "write", 1)

    def test_full_spec(self):
        spec = parse_io_spec("torn@write:path=.ckpt,nth=3,keep=7")
        assert spec.path == ".ckpt"
        assert spec.nth == 3
        assert spec.keep == 7

    def test_missing_op_rejected(self):
        with pytest.raises(ValueError, match="must name an op"):
            parse_io_spec("crash")

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="kind"):
            parse_io_spec("meltdown@write")

    def test_unknown_op_rejected(self):
        with pytest.raises(ValueError, match="op"):
            parse_io_spec("crash@reticulate")

    def test_torn_requires_write_op(self):
        with pytest.raises(ValueError, match="write"):
            parse_io_spec("torn@fsync")

    def test_unknown_option_rejected(self):
        with pytest.raises(ValueError, match="unknown option"):
            parse_io_spec("crash@write:color=red")

    def test_non_integer_nth_rejected(self):
        with pytest.raises(ValueError, match="not an integer"):
            parse_io_spec("crash@write:nth=soon")

    def test_plan_splits_on_semicolons(self):
        plan = parse_io_plan("crash@write ; enospc@open:path=.json")
        assert [s.kind for s in plan.specs] == ["crash", "enospc"]

    def test_empty_plan(self):
        assert parse_io_plan("").specs == []


class TestPlanSelection:
    def test_nth_counts_matching_ops_only(self):
        plan = IOFaultPlan([IOFaultSpec("eio", "write", nth=2)])
        assert plan.select("open", "f") is None
        assert plan.select("write", "f") is None
        assert plan.select("write", "f") is not None

    def test_path_substring_filter(self):
        plan = IOFaultPlan([IOFaultSpec("eio", "write", path=".ckpt")])
        assert plan.select("write", "/tmp/history.json") is None
        assert plan.select("write", "/tmp/sweep.ckpt") is not None

    def test_each_spec_fires_exactly_once(self):
        plan = IOFaultPlan([IOFaultSpec("eio", "write")])
        assert plan.select("write", "f") is not None
        assert plan.select("write", "f") is None

    def test_star_op_matches_all(self):
        plan = IOFaultPlan([IOFaultSpec("crash", "*")])
        assert plan.select("fsync_dir", "d") is not None


class TestFaultingIOErrors:
    def test_enospc_on_write(self, tmp_path):
        io = FaultingIO(IOFaultPlan([IOFaultSpec("enospc", "write")]))
        handle = io.open(tmp_path / "f", "w")
        with pytest.raises(OSError) as excinfo:
            io.write(handle, "data")
        assert excinfo.value.errno == errno.ENOSPC

    def test_eio_on_fsync(self, tmp_path):
        io = FaultingIO(IOFaultPlan([IOFaultSpec("eio", "fsync")]))
        handle = io.open(tmp_path / "f", "w")
        io.write(handle, "data")
        with pytest.raises(OSError) as excinfo:
            io.fsync(handle)
        assert excinfo.value.errno == errno.EIO

    def test_short_write_keeps_prefix_and_survives(self, tmp_path):
        io = FaultingIO(IOFaultPlan([IOFaultSpec("short", "write", keep=3)]))
        handle = io.open(tmp_path / "f", "w")
        with pytest.raises(OSError) as excinfo:
            io.write(handle, "abcdef")
        assert excinfo.value.errno == errno.EIO
        # The process survives; later I/O works.
        io.write(handle, "-tail")
        handle.close()
        assert (tmp_path / "f").read_text() == "abc-tail"


class TestCrashSemantics:
    def test_crash_is_base_exception(self):
        assert not issubclass(InjectedCrashError, Exception)
        assert issubclass(InjectedCrashError, BaseException)

    def test_unsynced_data_lost_on_crash(self, tmp_path):
        path = tmp_path / "f"
        io = FaultingIO(IOFaultPlan([IOFaultSpec("crash", "write", nth=3)]))
        handle = io.open(path, "w")
        io.write(handle, "durable\n")
        io.fsync(handle)
        io.write(handle, "buffered\n")  # never fsync'd
        with pytest.raises(InjectedCrashError):
            io.write(handle, "third\n")
        assert path.read_text() == "durable\n"

    def test_torn_write_prefix_is_durable(self, tmp_path):
        path = tmp_path / "f"
        io = FaultingIO(
            IOFaultPlan([IOFaultSpec("torn", "write", nth=2, keep=4)])
        )
        handle = io.open(path, "w")
        io.write(handle, "complete\n")
        io.fsync(handle)
        with pytest.raises(InjectedCrashError):
            io.write(handle, "torn-record\n")
        assert path.read_text() == "complete\ntorn"

    def test_all_io_refused_after_crash(self, tmp_path):
        io = FaultingIO(IOFaultPlan([IOFaultSpec("crash", "fsync")]))
        handle = io.open(tmp_path / "f", "w")
        io.write(handle, "x")
        with pytest.raises(InjectedCrashError):
            io.fsync(handle)
        with pytest.raises(InjectedCrashError):
            io.open(tmp_path / "g", "w")
        with pytest.raises(InjectedCrashError):
            io.replace(tmp_path / "a", tmp_path / "b")

    def test_append_mode_preserves_preexisting_durable_length(self, tmp_path):
        path = tmp_path / "f"
        path.write_text("old\n")
        io = FaultingIO(IOFaultPlan([IOFaultSpec("crash", "write", nth=2)]))
        handle = io.open(path, "a")
        io.write(handle, "never-synced\n")
        with pytest.raises(InjectedCrashError):
            io.write(handle, "more\n")
        assert path.read_text() == "old\n"

    def test_record_mode_enumerates_operations(self, tmp_path):
        io = FaultingIO(record=True)
        handle = io.open(tmp_path / "f", "w")
        io.write(handle, "x")
        io.fsync(handle)
        handle.close()
        assert [op for op, _ in io.operations] == ["open", "write", "fsync"]


class TestActivation:
    def test_set_io_wins(self):
        io = FaultingIO()
        set_io(io)
        try:
            assert get_io() is io
        finally:
            set_io(None)

    def test_default_is_passthrough(self):
        assert isinstance(get_io(), StorageIO)
        assert not isinstance(get_io(), FaultingIO)

    def test_activate_accepts_mini_language(self):
        io = activate_io_plan("eio@write:path=.ckpt")
        assert get_io() is io
        assert io.plan.specs[0].path == ".ckpt"
        deactivate_io_plan()
        assert not isinstance(get_io(), FaultingIO)

    def test_environment_plan_installs(self, monkeypatch):
        monkeypatch.setenv(ENV_VAR, "eio@open:path=test-env-one")
        io = get_io()
        assert isinstance(io, FaultingIO)

    def test_environment_plan_counters_persist(self, monkeypatch):
        monkeypatch.setenv(ENV_VAR, "eio@write:nth=2,path=test-env-two")
        first = io_from_environment()
        first.plan.select("write", "test-env-two")
        # The same instance comes back: ordinals keep counting.
        assert io_from_environment() is first


class TestAtomicWrites:
    @pytest.mark.parametrize("op", ["write", "fsync", "replace"])
    def test_atomic_write_survives_disk_error(self, tmp_path, op):
        path = tmp_path / "doc.json"
        path.write_text("old")
        set_io(FaultingIO(IOFaultPlan([IOFaultSpec("enospc", op)])))
        try:
            with pytest.raises(OSError):
                atomic_write_text(path, "new")
        finally:
            set_io(None)
        assert path.read_text() == "old"
        assert list(tmp_path.glob("*.tmp")) == []

    def test_atomic_write_bytes_round_trip(self, tmp_path):
        path = tmp_path / "blob"
        atomic_write_bytes(path, b"payload")
        assert path.read_bytes() == b"payload"
        assert list(tmp_path.glob("*.tmp")) == []

    def test_durable_append(self, tmp_path):
        path = tmp_path / "log"
        io = get_io()
        handle = io.open(path, "a")
        durable_append(io, handle, "line\n")
        handle.close()
        assert path.read_text() == "line\n"

    def test_crash_leaves_orphan_temp_for_next_write(self, tmp_path):
        path = tmp_path / "doc.json"
        set_io(FaultingIO(IOFaultPlan([IOFaultSpec("crash", "replace")])))
        try:
            with pytest.raises(InjectedCrashError):
                atomic_write_text(path, "new")
        finally:
            set_io(None)
        # Crash debris stays on disk, exactly like a real power cut;
        # the temp has a fixed name, so the next write overwrites it.
        assert not path.exists()
        assert len(list(tmp_path.glob("*.tmp"))) == 1
        atomic_write_text(path, "newer")
        assert path.read_text() == "newer"
        assert list(tmp_path.glob("*.tmp")) == []
