"""One benchmark repeat in a fresh interpreter.

Usage (``run.py`` spawns this; it is not meant to be run by hand)::

    python child.py WORKLOAD SEED MODE SIZE TMPDIR REPEAT

``MODE`` is ``setup`` (imports and set-up only), ``run`` (build the
workload's artifact once, untraced) or ``trace`` (build it with spans on
the public calls of each layer, then time each layer alone). ``SIZE`` is
``full`` or ``smoke``. The child writes ``TMPDIR/result.json``; any
failure raises, so the exit code is non-zero.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
import time
from dataclasses import asdict
from pathlib import Path

import repro.cache.hierarchy as hierarchy
from repro.cache.direct_mapped import DirectMappedCache
from repro.cache.stream import PackedMissStream
from repro.experiments.configs import (
    L1_GEOMETRIES,
    L2_GEOMETRIES,
    TABLE4_ASSOCIATIVITIES,
    TABLE4_CONFIGS,
    parse_geometry,
)
from repro.experiments.figures import FigureSeries, build_figure4, build_figure6
from repro.experiments.report import series_to_csv
from repro.experiments.runner import (
    ExperimentRunner,
    ParallelSweepRunner,
    SweepPoint,
    config_result_to_dict,
)
from repro.experiments.svgplot import save_svg
from repro.experiments.tables import build_table4
from repro.trace.synthetic import AtumWorkload
from spans import NullRecorder, Recorder, self_seconds

#: Workload name -> (segments, references per segment), full and smoke.
SIZES = {
    "fig4_cold23": {"full": (23, 35_000), "smoke": (3, 2_000)},
    "roster_4k_1seg": {"full": (1, 300_000), "smoke": (1, 8_000)},
    "fig6_partial": {"full": (23, 17_500), "smoke": (3, 1_500)},
    "sweep_table4_par": {"full": (23, 10_500), "smoke": (3, 1_500)},
}

#: The only multi-process workload uses two pool workers, one per core
#: of the 2-core machine the baseline was measured on.
SWEEP_PROCESSES = 2

#: Roster associativities: the figures' sweep from direct-mapped to 16-way.
ROSTER_ASSOCIATIVITIES = (1, 2, 4, 8, 16)


def canonical(value):
    """JSON-ready copy with string keys and every float as its ``repr``."""
    if isinstance(value, dict):
        return {str(key): canonical(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [canonical(item) for item in value]
    if isinstance(value, float):
        return repr(value)
    return value


def digest(value) -> str:
    """sha256 of the canonical JSON of an artifact's data."""
    text = json.dumps(canonical(value), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


class Figure4:
    """``build_figure4`` on the paper's 23-segment cold-start shape."""

    #: L1 geometries whose streams the workload captures.
    l1s = ("16K-16",)
    #: The a=8 point whose probe counts the traced run reports.
    model_point = ("16K-16", "256K-32", 8, {})

    def __init__(self, workload):
        self.runner = ExperimentRunner(workload)

    def build(self, rec, out: Path):
        figure = build_figure4(self.runner)
        with rec.span("report.render"):
            save_figure(out, "figure4", figure, [("figure4", figure)])
        return figure.series

    def model_result(self):
        l1, l2, a, kwargs = self.model_point
        return self.runner.run(l1, l2, a, **kwargs)


class Figure6(Figure4):
    """``build_figure6``: partial-compare transforms x tag widths."""

    model_point = (
        "16K-16", "256K-32", 8,
        {"transforms": ("none", "xor", "improved"), "extra_tag_bits": (16, 32)},
    )

    def build(self, rec, out: Path):
        figure = build_figure6(self.runner)
        with rec.span("report.render"):
            save_figure(out, "figure6", figure, [
                ("figure6_left", figure.left), ("figure6_right", figure.right),
            ])
        return {"left": figure.left.series, "right": figure.right.series}


class Roster(Figure4):
    """One 4K-16 L1 stream replayed into 25 L2 configurations."""

    l1s = ("4K-16",)
    model_point = ("4K-16", "256K-32", 8, {})

    def build(self, rec, out: Path):
        results = [
            self.runner.run("4K-16", l2, a)
            for l2 in L2_GEOMETRIES for a in ROSTER_ASSOCIATIVITIES
        ]
        with rec.span("report.render"):
            figure = FigureSeries(
                title="L2 roster over one 4K-16 L1 stream",
                x_label="associativity", y_label="avg probes per L2 access",
            )
            for result in results:
                for scheme in ("naive", "mru", "partial"):
                    name = f"{result.l2.label} {scheme}"
                    figure.series.setdefault(name, {})[result.associativity] = (
                        result.schemes[scheme].total
                    )
            save_figure(out, "roster", figure, [("roster", figure)])
        return [config_result_to_dict(result) for result in results]


class Table4Sweep:
    """The 24-point Table 4 grid through the resilient parallel sweep,
    then the same call again, which restores every point from the
    checkpoint."""

    l1s = ("16K-16", "16K-32", "4K-16")
    model_point = ("16K-16", "256K-32", 8, {})

    def __init__(self, workload):
        self.points = [
            SweepPoint(l1, l2, a)
            for a in TABLE4_ASSOCIATIVITIES for l1, l2 in TABLE4_CONFIGS
        ]
        self.sweeper = ParallelSweepRunner(workload, processes=SWEEP_PROCESSES)
        self.results = {}
        self.extras = {}

    def build(self, rec, out: Path):
        checkpoint = str(out / "table4.ckpt")
        with rec.span("resilience.sweep"):
            first = self.sweeper.run_points(self.points, checkpoint=checkpoint)
        if first.failures or first.completed() != len(self.points):
            raise RuntimeError(f"sweep failed: {first.failures!r}")
        checkpoint_bytes = os.path.getsize(checkpoint)
        with rec.span("resilience.resume"):
            again = self.sweeper.run_points(self.points, checkpoint=checkpoint)
        if again.resumed != len(self.points) or again.results != first.results:
            raise RuntimeError("resumed sweep does not match the first sweep")
        self.results = {
            (p.l1, p.l2, p.associativity): r
            for p, r in zip(self.points, first.results)
        }
        self.extras = {
            "resilience.completed_frac": first.completed() / len(self.points),
            "resilience.retries": first.retries,
            "resilience.pool_restarts": first.pool_restarts,
            "storage.checkpoint_bytes": checkpoint_bytes,
        }
        with rec.span("report.render"):
            table = build_table4(self)
            (out / "table4.txt").write_text(table.render() + "\n")
        return [asdict(row) for row in table.rows]

    def run(self, l1, l2, associativity):
        """The sweep's result for one point, so ``build_table4`` can
        assemble its rows from the sweep instead of re-simulating."""
        return self.results[(l1, l2, associativity)]

    def model_result(self):
        return self.results[self.model_point[:3]]


WORKLOADS = {
    "fig4_cold23": Figure4,
    "roster_4k_1seg": Roster,
    "fig6_partial": Figure6,
    "sweep_table4_par": Table4Sweep,
}


def save_figure(out: Path, name: str, figure, panels) -> None:
    """Render the figure and save its text, and CSV and SVG per panel."""
    (out / f"{name}.txt").write_text(figure.render() + "\n")
    for panel_name, panel in panels:
        (out / f"{panel_name}.csv").write_text(
            series_to_csv(panel.series, x_label=panel.x_label)
        )
        save_svg(
            panel.series, out / f"{panel_name}.svg", title=panel.title,
            x_label=panel.x_label, y_label=panel.y_label,
        )


def cpu_seconds() -> float:
    """User + system time of this process and its reaped children."""
    times = os.times()
    return times.user + times.system + times.children_user + times.children_system


def traced_build(job, workload, label: str, tmp: Path):
    """Build under spans, time each layer alone, and derive layer metrics."""
    workers = tmp / "workers"
    workers.mkdir()
    # Trace ids are 16 hex digits, as repro-trace-report expects; the
    # readable "<workload>/<seed>/<repeat>" label rides on the root span.
    trace_id = hashlib.sha256(label.encode()).hexdigest()[:16]
    rec = Recorder(trace_id, str(workers))

    def l1_label(runner, l1, *args, **kwargs):
        return {"l1": str(l1)}

    undo = [
        rec.shim(ExperimentRunner, "run", "experiments.runner.run", l1_label),
        rec.shim(ExperimentRunner, "miss_stream", "experiments.runner.miss_stream",
                 l1_label),
        rec.counter(hierarchy, "capture_miss_stream", "captures"),
    ]
    cpu = cpu_seconds()
    try:
        with rec.span("build", trace=label):
            artifact = job.build(rec, tmp)
    finally:
        for restore in undo:
            restore()
    cpu = cpu_seconds() - cpu
    model = job.model_result()

    requests, miss_ratios = {}, {}
    with rec.span("trace.generate"):
        trace = list(workload)
    for geometry_label in L1_GEOMETRIES:
        geometry = parse_geometry(geometry_label)
        l1 = DirectMappedCache(geometry.capacity_bytes, geometry.block_size)
        used = geometry_label in job.l1s
        with rec.span("cache.hierarchy.capture", l1=geometry_label, used=used):
            stream = hierarchy.capture_miss_stream(trace, l1)
        requests[geometry_label] = stream.readins + stream.writebacks
        miss_ratios[geometry_label] = l1.stats.readin_miss_ratio
        if used:
            with rec.span("cache.stream.pack", l1=geometry_label):
                PackedMissStream.from_miss_stream(stream)
        del stream
    del trace
    columnar_requests = columnar_point(job, workload, rec, requests)

    rec.write_jsonl(tmp / "spans.jsonl")
    with open(tmp / "spans.jsonl", encoding="utf-8") as handle:
        records = [json.loads(line) for line in handle]
    own = self_seconds(records)

    def named(name):
        return [r for r in records if r["name"] == name]

    def wall(name):
        return sum(r["wall_seconds"] for r in named(name))

    def self_time(name):
        return sum(own[r["span_id"]] for r in named(name))

    build = named("build")[0]
    runs = named("experiments.runner.run")
    captures = sum(
        r["attrs"].get("captures", 0) for r in named("experiments.runner.miss_stream")
    )
    refs = len(workload)
    used = len(job.l1s)
    generate_s = wall("trace.generate")
    capture_s = sum(
        r["wall_seconds"] for r in named("cache.hierarchy.capture") if r["attrs"]["used"]
    )
    miss_stream_s = self_time("experiments.runner.miss_stream")
    run_s = self_time("experiments.runner.run")
    replayed = sum(requests[r["attrs"]["l1"]] for r in runs)
    layers = {
        "trace.generate_s": generate_s,
        "trace.ns_per_ref": generate_s / refs * 1e9,
        "cache.hierarchy.capture_s": capture_s,
        "cache.hierarchy.ns_per_ref": capture_s / (refs * used) * 1e9,
        "cache.hierarchy.l2_requests": sum(requests[g] for g in job.l1s),
        "cache.stream.pack_s": wall("cache.stream.pack"),
        "experiments.runner.miss_stream_s": miss_stream_s,
        "experiments.runner.captures": captures,
        "experiments.runner.run_s": run_s,
        "experiments.runner.runs": len(runs),
        "experiments.runner.ns_per_l2_request": run_s / max(replayed, 1) * 1e9,
        "report.render_s": self_time("report.render"),
        "unattributed_s": own[build["span_id"]],
        # Standalone generate + capture cost per L1 capture against the
        # production path's fused cost per capture.
        "layer_check.gen_l1_ratio": (
            (generate_s + capture_s / used) / (miss_stream_s / max(captures, 1))
        ),
        "cpu_over_wall": cpu / build["wall_seconds"],
    }
    for geometry_label, paper in L1_GEOMETRIES.items():
        measured = miss_ratios[geometry_label]
        layers[f"model.l1_miss_ratio.{geometry_label}"] = measured
        layers[f"model.l1_miss_ratio_gap.{geometry_label}"] = measured - paper
    for scheme in ("naive", "mru", "partial"):
        layers[f"model.probes_per_access.{scheme}"] = model.schemes[scheme].total
    if isinstance(job, Table4Sweep):
        layers["resilience.sweep_s"] = wall("resilience.sweep")
        layers["resilience.resume_s"] = wall("resilience.resume")
        layers.update(job.extras)
    if columnar_requests:
        columnar_s = wall("core.batch.run")
        layers["core.batch.run_s"] = columnar_s
        layers["core.batch.ns_per_l2_request"] = columnar_s / columnar_requests * 1e9
    return artifact, build["wall_seconds"], layers


def columnar_point(job, workload, rec, requests) -> int:
    """Time one cold columnar replay of the model point while the
    columnar engine exists; returns the L2 requests replayed (0 if not)."""
    try:
        from repro.core.batch import clear_run_delta_memo
    except ImportError:
        return 0
    l1, l2, a, kwargs = job.model_point
    clear_run_delta_memo()
    runner = ExperimentRunner(workload, use_columnar=True)
    runner.packed_miss_stream(parse_geometry(l1))
    with rec.span("core.batch.run", l1=l1, l2=l2, associativity=a):
        runner.run(l1, l2, a, **kwargs)
    return requests[l1]


def main(argv) -> int:
    name, seed, mode, size, tmp, repeat = argv
    tmp = Path(tmp)
    segments, per_segment = SIZES[name][size]
    workload = AtumWorkload(
        segments=segments, references_per_segment=per_segment, seed=int(seed)
    )
    job = WORKLOADS[name](workload)
    result = {"setup_done": time.monotonic(), "refs": len(workload)}
    if mode == "run":
        start = time.perf_counter()
        artifact = job.build(NullRecorder(), tmp)
        result["wall_s"] = time.perf_counter() - start
        result["digest"] = digest(artifact)
    elif mode == "trace":
        label = f"{name}/{seed}/{repeat}"
        artifact, build_wall, layers = traced_build(job, workload, label, tmp)
        result.update(wall_s=build_wall, digest=digest(artifact), layers=layers)
    (tmp / "result.json").write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
