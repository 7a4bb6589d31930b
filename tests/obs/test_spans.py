"""Tracing spans: nesting, clocks, JSONL round-trip, flame summary."""

import threading

from repro.obs.jsonl import read_jsonl
from repro.obs.spans import Tracer, get_tracer, set_tracer, span
from repro.obs.validate import validate_span


class TestNesting:
    def test_records_complete_children_first(self):
        tracer = Tracer()
        with tracer.span("outer"):
            with tracer.span("inner"):
                pass
        names = [record.name for record in tracer.records]
        assert names == ["inner", "outer"]

    def test_depth_and_path(self):
        tracer = Tracer()
        with tracer.span("a"):
            with tracer.span("b"):
                with tracer.span("c"):
                    pass
        by_name = {record.name: record for record in tracer.records}
        assert by_name["a"].depth == 0 and by_name["a"].path == "a"
        assert by_name["b"].depth == 1 and by_name["b"].path == "a/b"
        assert by_name["c"].depth == 2 and by_name["c"].path == "a/b/c"

    def test_siblings_share_parent_path(self):
        tracer = Tracer()
        with tracer.span("parent"):
            with tracer.span("child"):
                pass
            with tracer.span("child"):
                pass
        child_paths = [
            record.path for record in tracer.records
            if record.name == "child"
        ]
        assert child_paths == ["parent/child", "parent/child"]


class TestTiming:
    def test_wall_time_is_inclusive_and_positive(self):
        tracer = Tracer()
        with tracer.span("outer"):
            with tracer.span("inner"):
                sum(range(10_000))
        by_name = {record.name: record for record in tracer.records}
        assert by_name["inner"].wall_seconds > 0
        assert by_name["outer"].wall_seconds >= by_name["inner"].wall_seconds
        assert by_name["outer"].cpu_seconds >= 0

    def test_attrs_recorded(self):
        tracer = Tracer()
        with tracer.span("replay", l2="64K-32", associativity=4):
            pass
        assert tracer.records[0].attrs == {"l2": "64K-32", "associativity": 4}

    def test_exception_still_records_span(self):
        tracer = Tracer()
        try:
            with tracer.span("failing"):
                raise ValueError("boom")
        except ValueError:
            pass
        assert [record.name for record in tracer.records] == ["failing"]
        assert not tracer._stack

    def test_exception_stamps_error_into_attrs(self):
        tracer = Tracer()
        try:
            with tracer.span("failing", key=3):
                raise ValueError("boom")
        except ValueError:
            pass
        record = tracer.records[0]
        assert record.attrs["error"] is True
        assert record.attrs["error_type"] == "ValueError"
        assert record.attrs["key"] == 3

    def test_clean_exit_has_no_error_attrs(self):
        tracer = Tracer()
        with tracer.span("fine"):
            pass
        assert "error" not in tracer.records[0].attrs


class TestAggregation:
    def test_phase_timings_sums_by_name(self):
        tracer = Tracer()
        for _ in range(3):
            with tracer.span("phase"):
                pass
        phases = tracer.phase_timings()
        assert phases["phase"]["count"] == 3
        assert phases["phase"]["wall_seconds"] > 0

    def test_flame_lists_every_path(self):
        tracer = Tracer()
        with tracer.span("sweep"):
            with tracer.span("l2_replay"):
                pass
        flame = tracer.flame()
        assert "sweep" in flame
        assert "sweep/l2_replay" in flame
        assert "#" in flame

    def test_flame_empty(self):
        assert "no spans" in Tracer().flame()


class TestJsonl:
    def test_round_trip_is_schema_valid(self, tmp_path):
        tracer = Tracer()
        with tracer.span("a", key="value"):
            with tracer.span("b"):
                pass
        path = tmp_path / "trace.jsonl"
        assert tracer.write_jsonl(path) == 2
        records = list(read_jsonl(path))
        assert len(records) == 2
        for index, record in enumerate(records):
            assert validate_span(record) == []
            assert record["index"] == index

    def test_rewrite_is_complete_not_appended(self, tmp_path):
        tracer = Tracer()
        with tracer.span("a"):
            pass
        path = tmp_path / "trace.jsonl"
        tracer.write_jsonl(path)
        tracer.write_jsonl(path)
        assert len(list(read_jsonl(path))) == 1


class TestCausalIdentity:
    def test_nested_spans_share_trace_and_chain_parents(self):
        tracer = Tracer()
        with tracer.span("outer"):
            with tracer.span("inner"):
                pass
        by_name = {record.name: record for record in tracer.records}
        outer, inner = by_name["outer"], by_name["inner"]
        assert outer.trace_id == inner.trace_id
        assert inner.parent_span_id == outer.span_id
        assert outer.span_id != inner.span_id

    def test_top_level_span_self_roots_without_context(self):
        tracer = Tracer()
        with tracer.span("alone"):
            pass
        record = tracer.records[0]
        assert record.trace_id is not None
        assert record.span_id is not None
        assert record.parent_span_id is None


class TestThreadIsolation:
    def test_two_threads_interleave_without_cross_parenting(self):
        """Regression: the active-span stack must be per-thread.

        With a shared bare-list stack, two threads nesting
        concurrently corrupt each other's paths (thread B's child
        parents under thread A's open span). The barrier forces both
        threads to hold their outer span open at the same time.
        """
        tracer = Tracer()
        barrier = threading.Barrier(2)

        def run(label):
            with tracer.span(f"outer_{label}"):
                barrier.wait(timeout=10)
                with tracer.span(f"inner_{label}"):
                    pass
                barrier.wait(timeout=10)

        threads = [
            threading.Thread(target=run, args=(label,)) for label in "ab"
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
        by_name = {record.name: record for record in tracer.records}
        assert len(by_name) == 4
        for label in "ab":
            inner, outer = by_name[f"inner_{label}"], by_name[f"outer_{label}"]
            assert inner.path == f"outer_{label}/inner_{label}"
            assert inner.depth == 1 and outer.depth == 0
            assert inner.parent_span_id == outer.span_id
            assert inner.trace_id == outer.trace_id
        assert by_name["outer_a"].trace_id != by_name["outer_b"].trace_id


class TestSyntheticSpans:
    def test_adopt_hangs_shipped_roots_under_the_open_span(self):
        worker = Tracer()
        with worker.span("pool_task", attempt=1):
            with worker.span("l2_replay", l2="64K-32"):
                pass
        # Adoption sets the trace and parent ids in place: snapshot
        # what was shipped first.
        shipped = [r.to_dict() for r in worker.records]
        parent = Tracer()
        with parent.span("local"):
            pass
        with parent.span("sweep") as sweep:
            assert parent.adopt(worker.records) == 2
        records = parent.snapshot_records()
        assert [r.index for r in records] == [0, 1, 2, 3]
        by_name = {r.name: r for r in records}
        task, replay = by_name["pool_task"], by_name["l2_replay"]
        assert task.parent_span_id == sweep.span_id
        assert replay.parent_span_id == task.span_id
        assert {task.trace_id, replay.trace_id} == {sweep.trace_id}
        assert by_name["local"].trace_id != sweep.trace_id
        # Everything but the trace and the root's parent is as shipped.
        assert (task.span_id, replay.span_id) == (
            shipped[1]["span_id"], shipped[0]["span_id"],
        )
        assert (task.path, task.depth) == ("pool_task", 0)
        assert (replay.path, replay.depth) == ("pool_task/l2_replay", 1)
        assert replay.attrs == {"l2": "64K-32"}
        assert replay.wall_seconds == shipped[0]["wall_seconds"]

    def test_adopt_outside_a_span_keeps_shipped_identity(self):
        worker = Tracer()
        with worker.span("pool_task", attempt=1):
            with worker.span("l2_replay"):
                pass
        shipped = [r.to_dict() for r in worker.records]
        parent = Tracer()
        with parent.span("local"):
            pass
        assert parent.adopt(worker.records) == 2
        adopted = parent.snapshot_records()[1:]
        assert [r.index for r in adopted] == [1, 2]
        for record, data in zip(adopted, shipped):
            assert record.to_dict() == dict(data, index=record.index)


class TestGlobalTracer:
    def test_span_uses_global_tracer(self):
        isolated = Tracer()
        previous = set_tracer(isolated)
        try:
            with span("global_phase"):
                pass
        finally:
            set_tracer(previous)
        assert [record.name for record in isolated.records] == ["global_phase"]
        assert get_tracer() is previous
