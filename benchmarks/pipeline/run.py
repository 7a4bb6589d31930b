"""Cold, per-layer benchmark of paper-artifact builds.

Every timed repeat is a fresh interpreter (``child.py``), so it pays the
L1 capture exactly as a ``repro-tables`` or ``repro-sweep`` invocation
does: no miss-stream memo hits, no stream artifacts. Repeats run one at
a time (a closed loop with one client).

Usage, from the repository root::

    python benchmarks/pipeline/run.py --seed 1989 [--trace] [--out FILE] [--smoke]
    python benchmarks/pipeline/run.py compare PARENT.json CHANGE.json [--force]
    python benchmarks/pipeline/run.py --workload NAME --seed N --seconds S --trace 0|1

The first form runs all four workloads round-robin (7 timed repeats
each, every one followed by 3 set-up-only children, plus one traced
repeat each with ``--trace``), prints every metric with its unit and
writes a results file. ``compare`` judges two results files against the bounds in
``BENCHMARK.json``. The last form runs one workload for ``S`` seconds
and prints one JSON object as its last line of output.
"""

from __future__ import annotations

import argparse
import importlib.util
import itertools
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parents[1]
SRC = ROOT / "src"
CHILD = BENCH_DIR / "child.py"
OUT_DIR = BENCH_DIR / "out"
CONFIG = ROOT / "BENCHMARK.json"
GOLDEN = BENCH_DIR / "golden.json"

WORKLOADS = ("fig4_cold23", "roster_4k_1seg", "fig6_partial", "sweep_table4_par")
#: Timed repeats per workload, by size.
REPEATS = {"full": 7, "smoke": 2}
#: Set-up-only children after each timed repeat. Spread over the run
#: like the repeats, their median does not hinge on one slow phase of
#: a shared host, as a burst of them back to back would.
SETUPS_PER_REPEAT = 3
#: Fewest timed repeats a ``--seconds`` run makes, whatever the budget.
MIN_REPEATS = 3
#: Seconds one child may take before it is killed and counted as failed.
CHILD_TIMEOUT = 60.0
#: A traced repeat fails when its builder's wall is attributed to no
#: layer by more than this share.
MAX_UNATTRIBUTED = 0.10
#: Units of the layer metrics only the results file carries: the
#: sweep's own layers, and the opt-in columnar engine while it exists.
EXTRA_LAYER_UNITS = {
    "resilience.sweep_s": "s", "resilience.resume_s": "s",
    "resilience.completed_frac": "ratio", "resilience.retries": "count",
    "resilience.pool_restarts": "count", "storage.checkpoint_bytes": "bytes",
    "core.batch.run_s": "s", "core.batch.ns_per_l2_request": "ns",
}
#: ``failed_frac`` reads 0 whenever nothing fails, and every metric in
#: ``BENCHMARK.json`` must be non-zero, so it is judged here instead:
#: any increase is a regression.
FAILED_FRAC = {"name": "failed_frac", "unit": "ratio", "better": "lower", "bound": 0.0}


def summarize(values) -> dict:
    """Median, quartiles (``statistics.quantiles``, n=4) and count."""
    values = list(values)
    if len(values) == 1:
        q1 = q3 = values[0]
    else:
        q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "n": len(values), "values": values}


def environment() -> dict:
    """What must match for two results files to be comparable."""
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": importlib.util.find_spec("numpy") is not None,
        "machine": platform.machine(),
    }


def git_sha():
    """The checkout's commit, or ``None`` outside a git work tree."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
            capture_output=True, text=True, timeout=30,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def load_json(path):
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def run_child(name, seed, mode, size, repeat):
    """One hermetic child; returns its result dict, or ``None`` if it failed.

    The child gets no ``REPRO_*`` variable, ``src`` as its only
    ``PYTHONPATH`` entry, and its own temp directory (also its
    ``TMPDIR``), deleted afterwards. CPU time and peak RSS come from
    ``wait4``, so they include the child's pool workers.
    """
    OUT_DIR.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix=f"{name}-{mode}-", dir=OUT_DIR))
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env.update(PYTHONPATH=str(SRC), TMPDIR=str(tmp))
    argv = [sys.executable, str(CHILD), name, str(seed), mode, size, str(tmp),
            str(repeat)]
    proc = None
    try:
        with open(tmp / "child.log", "w+", encoding="utf-8") as log:
            started = time.monotonic()
            proc = subprocess.Popen(argv, env=env, cwd=ROOT, stdout=log,
                                    stderr=subprocess.STDOUT,
                                    start_new_session=True)
            status, usage = wait_or_kill(proc, started + CHILD_TIMEOUT)
            if status != 0:
                log.seek(0)
                tail = log.read()[-2000:]
                print(f"{name}/{seed}/{mode}#{repeat} failed "
                      f"(status {status}):\n{tail}", file=sys.stderr)
                return None
        result = load_json(tmp / "result.json")
        result["setup_s"] = result.pop("setup_done") - started
        result["cpu_s"] = usage.ru_utime + usage.ru_stime
        result["peak_rss_mb"] = usage.ru_maxrss / 1024
        if "wall_s" in result:
            result["refs_per_s"] = result["refs"] / result["wall_s"]
        if mode == "trace":
            shutil.copy(tmp / "spans.jsonl", OUT_DIR / f"spans-{seed}-{name}.jsonl")
        return result
    finally:
        if proc is not None and proc.returncode is None:  # interrupted
            kill_group(proc.pid)
            proc.wait()
        shutil.rmtree(tmp, ignore_errors=True)


def wait_or_kill(proc, deadline):
    """Reap ``proc`` with ``wait4``; past ``deadline``, kill its process
    group first. Returns (exit status, rusage); a killed child's status
    is negative."""
    while True:
        pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
        if pid:
            break
        if time.monotonic() > deadline:
            kill_group(proc.pid)
            _, status, usage = os.wait4(proc.pid, 0)
            break
        time.sleep(0.005)
    proc.returncode = os.waitstatus_to_exitcode(status)
    kill_group(proc.pid)  # pool workers it may have left behind
    return proc.returncode, usage


def kill_group(pgid) -> None:
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        pass


class Workload:
    """Every child result of one workload in one invocation."""

    def __init__(self, name, seed, size):
        self.name, self.seed, self.size = name, seed, size
        self.setups, self.repeats, self.traced = [], [], []
        self.attempted = self.failed = 0
        golden = load_json(GOLDEN).get(name, {}) if size == "full" else {}
        self.golden = golden.get(str(seed))

    def spawn(self, mode):
        self.attempted += 1
        result = run_child(self.name, self.seed, mode, self.size, self.attempted)
        if result is None:
            self.failed += 1
        elif mode == "setup":
            self.setups.append(result)
        elif mode == "trace" and (result["layers"]["unattributed_s"]
                                  > MAX_UNATTRIBUTED * result["wall_s"]):
            print(f"{self.name}: {result['layers']['unattributed_s']:.3f} s of "
                  f"{result['wall_s']:.3f} s unattributed", file=sys.stderr)
            self.failed += 1
        else:
            (self.traced if mode == "trace" else self.repeats).append(result)
        return result

    def timed_round(self):
        """One timed repeat, then :data:`SETUPS_PER_REPEAT` set-up children."""
        self.spawn("run")
        for _ in range(SETUPS_PER_REPEAT):
            self.spawn("setup")

    def digests(self):
        return [r["digest"] for r in self.repeats + self.traced]

    def failures(self):
        """Failed children plus repeats whose digest differs from the
        golden (if this seed has one) or else from the first repeat's;
        traced repeats included."""
        expected = self.golden or next(iter(self.digests()), None)
        return self.failed + sum(d != expected for d in self.digests())

    def end_to_end(self):
        metrics = {}
        for key in ("wall_s", "refs_per_s", "cpu_s", "peak_rss_mb"):
            if self.repeats:
                metrics[key] = summarize(r[key] for r in self.repeats)
        if self.setups:
            metrics["setup_s"] = summarize(r["setup_s"] for r in self.setups)
        metrics["failed_frac"] = summarize([self.failures() / max(self.attempted, 1)])
        return metrics

    def layers(self):
        """Median of each layer metric over the traced repeats."""
        if not self.traced:
            return {}
        names = self.traced[0]["layers"]
        layers = {key: statistics.median(r["layers"][key] for r in self.traced)
                  for key in names}
        if self.repeats:
            untraced = statistics.median(r["wall_s"] for r in self.repeats)
            traced = statistics.median(r["wall_s"] for r in self.traced)
            layers["trace_overhead_frac"] = traced / untraced - 1
        return layers


def run_for(step, seconds, minimum):
    """Call ``step`` until another call would likely overrun ``seconds``."""
    start = time.monotonic()
    for count in itertools.count(1):
        step()
        elapsed = time.monotonic() - start
        if count >= minimum and elapsed * (count + 1) / count > seconds:
            return


def workload_run(args, config) -> int:
    """One workload for ``--seconds``; the last output line is the result."""
    workload = Workload(args.workload, args.seed, "full")
    if args.trace:
        start = time.monotonic()
        workload.spawn("run")  # the untraced wall and digest to check against
        run_for(lambda: workload.spawn("trace"),
                args.seconds - (time.monotonic() - start), 1)
        wanted = config["per_layer"]
        values = workload.layers()
    else:
        run_child(args.workload, args.seed, "setup", "full", 0)  # writes bytecode
        run_for(workload.timed_round, args.seconds, MIN_REPEATS)
        wanted = config["end_to_end"]
        values = {k: v["median"] for k, v in workload.end_to_end().items()}
    if any(metric["name"] not in values for metric in wanted):
        print("no successful repeat to report", file=sys.stderr)
        return 1
    failed = workload.failures()
    print(json.dumps({
        "correct": failed == 0,
        "attempted": workload.attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in wanted},
    }))
    return 0


def full_run(args, config) -> int:
    """All workloads, round-robin; prints the metrics and writes results."""
    size = "smoke" if args.smoke else "full"
    workloads = [Workload(name, args.seed, size) for name in WORKLOADS]
    run_child(WORKLOADS[0], args.seed, "setup", size, 0)  # writes bytecode
    for _ in range(REPEATS[size]):
        for workload in workloads:
            workload.timed_round()
    if args.trace:
        for workload in workloads:
            workload.spawn("trace")
    units = {m["name"]: m["unit"] for m in config["end_to_end"] + config["per_layer"]}
    units.update(EXTRA_LAYER_UNITS, failed_frac=FAILED_FRAC["unit"])
    results = {
        "git_sha": git_sha(), "environment": environment(), "seed": args.seed,
        "size": size, "workloads": {},
    }
    for workload in workloads:
        metrics = workload.end_to_end()
        for key, entry in metrics.items():
            entry["unit"] = units[key]
        results["workloads"][workload.name] = {
            "attempted": workload.attempted, "failed": workload.failures(),
            "digests": sorted(set(workload.digests())), "golden": workload.golden,
            "metrics": metrics, "layers": workload.layers(),
        }
        print(f"\n{workload.name}  (seed {args.seed}, {size}, "
              f"{workload.attempted} children, golden "
              f"{'none' if workload.golden is None else 'checked'})")
        for key, entry in metrics.items():
            print(f"  {key:<38} {entry['median']:>14.6g} {units[key]:<7} "
                  f"[{entry['q1']:.6g}, {entry['q3']:.6g}] n={entry['n']}")
        for key, value in workload.layers().items():
            print(f"  {key:<38} {value:>14.6g} {units[key]}")
    out = Path(args.out) if args.out else OUT_DIR / f"results-{args.seed}-{size}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(results, indent=1) + "\n")
    print(f"\nresults: {out}")
    failed = any(w["metrics"]["failed_frac"]["median"]
                 for w in results["workloads"].values())
    return 1 if failed else 0


def verdict(parent, change, metric) -> tuple:
    """(verdict, relative change) of one metric; positive change is worse.

    ``unresolved`` when either side's interquartile range, as a share of
    its median, is wider than the bound, unless every run of the change
    reads better than every run of the parent.
    """
    sign = 1 if metric["better"] == "lower" else -1
    if parent["median"]:
        worse = sign * (change["median"] - parent["median"]) / parent["median"]
    else:
        worse = sign * change["median"]
    if metric["name"] == FAILED_FRAC["name"]:
        return ("regression" if worse > 0 else "ok"), worse
    bound = metric["bound"]
    spread = max((s["q3"] - s["q1"]) / abs(s["median"]) for s in (parent, change))
    if spread > bound:
        every_run_better = all(sign * c < sign * p for c in change["values"]
                               for p in parent["values"])
        return ("improvement" if every_run_better else "unresolved"), worse
    if worse > bound:
        return "regression", worse
    if worse < -bound:
        return "improvement", worse
    return "ok", worse


def compare(argv, config) -> int:
    parser = argparse.ArgumentParser(prog="run.py compare")
    parser.add_argument("parent")
    parser.add_argument("change")
    parser.add_argument("--force", action="store_true",
                        help="compare even if the environments differ")
    args = parser.parse_args(argv)
    parent, change = load_json(args.parent), load_json(args.change)
    if parent["environment"] != change["environment"] and not args.force:
        print(f"environments differ: {parent['environment']} vs "
              f"{change['environment']} (use --force)", file=sys.stderr)
        return 2
    metrics = config["end_to_end"] + [FAILED_FRAC]
    regressions = 0
    print(f"{'workload':<17} {'metric':<12} {'parent median [q1, q3]':<34} "
          f"{'change median [q1, q3]':<34} {'delta':>8} {'bound':>6}  verdict")
    for name in parent["workloads"]:
        if name not in change["workloads"]:
            print(f"{name:<17} missing from {args.change}")
            regressions += 1
            continue
        for metric in metrics:
            p = parent["workloads"][name]["metrics"].get(metric["name"])
            c = change["workloads"][name]["metrics"].get(metric["name"])
            if p is None or c is None:
                continue
            result, worse = verdict(p, c, metric)
            regressions += result == "regression"
            print(f"{name:<17} {metric['name']:<12} {side(p):<34} {side(c):<34} "
                  f"{worse:>+8.1%} {metric['bound']:>6.0%}  {result}")
    return 1 if regressions else 0


def side(stats) -> str:
    return f"{stats['median']:.5g} [{stats['q1']:.5g}, {stats['q3']:.5g}]"


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    # Unwind on SIGTERM too, so the running child is killed and reaped.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    config = load_json(CONFIG)
    if argv[:1] == ["compare"]:
        return compare(argv[1:], config)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1989, help="workload seed")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1), help="add traced repeats (per-layer metrics)")
    parser.add_argument("--out", help="results file (default: out/results-SEED-SIZE.json)")
    parser.add_argument("--smoke", action="store_true", help="tiny sizes, ~10 s")
    parser.add_argument("--workload", choices=WORKLOADS,
                        help="run only this workload for --seconds")
    parser.add_argument("--seconds", type=float, default=config["run_seconds"])
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"no simulator sources under {SRC}", file=sys.stderr)
        return 2
    if args.workload:
        return workload_run(args, config)
    return full_run(args, config)


if __name__ == "__main__":
    sys.exit(main())
