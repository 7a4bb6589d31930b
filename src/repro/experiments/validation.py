"""Acceptance harness: check every headline claim of the reproduction.

Encodes the paper-vs-measured shape criteria of EXPERIMENTS.md as
executable checks over one :class:`ExperimentRunner`, producing a
structured PASS/FAIL report. Exposed as the ``repro-validate`` CLI.

The checks are *shape* criteria (orderings, trends, crossovers) plus
the calibration bands — exactly what a different trace is expected to
preserve — not absolute-number matches.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Optional

from repro.experiments.configs import parse_geometry
from repro.experiments.runner import ExperimentRunner
from repro.hardware.costmodel import table2_designs
from repro.experiments.tables import build_table1


@dataclass
class CheckResult:
    """Outcome of one named claim check."""

    name: str
    passed: bool
    detail: str


@dataclass
class ValidationReport:
    """All check outcomes plus an overall verdict."""

    checks: List[CheckResult] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        """True when every check passed."""
        return all(check.passed for check in self.checks)

    def render(self) -> str:
        """One line per check plus the verdict."""
        lines = []
        for check in self.checks:
            mark = "PASS" if check.passed else "FAIL"
            lines.append(f"[{mark}] {check.name}: {check.detail}")
        verdict = "ALL CHECKS PASSED" if self.passed else "SOME CHECKS FAILED"
        lines.append(verdict)
        return "\n".join(lines)


def _check(
    report: ValidationReport, name: str, fn: Callable[[], str]
) -> None:
    try:
        detail = fn()
        report.checks.append(CheckResult(name, True, detail))
    except AssertionError as exc:
        report.checks.append(CheckResult(name, False, str(exc) or "failed"))


def validate(runner: Optional[ExperimentRunner] = None) -> ValidationReport:
    """Run every headline check and return the report."""
    if runner is None:
        runner = ExperimentRunner()
    report = ValidationReport()

    def analytic_tables() -> str:
        table1 = build_table1()
        naive = next(r for r in table1.rows if r.method == "Naive")
        assert naive.hit_probes == 2.5 and naive.miss_probes == 4.0, "Table 1"
        cells = table2_designs()
        assert cells[("direct", "dram")].total_packages == 18, "Table 2"
        assert str(cells[("mru", "dram")].access_time) == "150+50x", "Table 2"
        return "Table 1 and Table 2 regenerate exactly"

    _check(report, "analytic-tables", analytic_tables)

    def l1_calibration() -> str:
        targets = {"4K-16": 0.1181, "16K-16": 0.0657, "16K-32": 0.0513}
        geometries = [parse_geometry(label) for label in targets]
        runner.miss_stream(*geometries)
        measured = {
            geometry.label: runner.l1_miss_ratio(geometry)
            for geometry in geometries
        }
        for label, target in targets.items():
            ratio = measured[label] / target
            assert 0.6 < ratio < 1.6, f"{label}: {measured[label]:.4f} vs {target}"
        assert measured["4K-16"] > measured["16K-16"] > measured["16K-32"]
        shown = ", ".join(f"{k}={v:.4f}" for k, v in measured.items())
        return f"L1 miss ratios in band: {shown}"

    _check(report, "l1-calibration", l1_calibration)

    def writeback_share() -> str:
        result = runner.run("16K-16", "256K-32", 4)
        share = result.fraction_writebacks
        assert 0.12 < share < 0.32, f"write-back share {share:.3f}"
        return f"write-backs are {share:.1%} of L2 requests (paper ~21%)"

    _check(report, "writeback-share", writeback_share)

    def scheme_orderings() -> str:
        details = []
        for a in (4, 8, 16):
            result = runner.run("16K-16", "256K-32", a)
            totals = {
                name: result.schemes[name].total
                for name in ("traditional", "naive", "mru", "partial")
            }
            assert totals["traditional"] <= min(
                totals["naive"], totals["mru"], totals["partial"]
            ), f"traditional not floor at {a}-way"
            assert result.best_total() == "partial", f"{a}-way winner"
            if a >= 8:
                assert totals["naive"] > totals["mru"], f"naive not worst at {a}-way"
            details.append(f"{a}-way partial={totals['partial']:.2f}")
        return "partial wins reference config at " + ", ".join(details)

    _check(report, "scheme-orderings", scheme_orderings)

    def probes_grow_linearly() -> str:
        points = {}
        for a in (4, 8, 16):
            result = runner.run("16K-16", "256K-32", a)
            points[a] = result.schemes["mru"].total
        first = points[8] - points[4]
        second = points[16] - points[8]
        assert points[4] < points[8] < points[16], "not increasing"
        assert second > 0.5 * first, "sub-linear collapse"
        return f"MRU totals {points[4]:.2f} / {points[8]:.2f} / {points[16]:.2f}"

    _check(report, "probes-grow-with-associativity", probes_grow_linearly)

    def partial_dominates_misses() -> str:
        result = runner.run("16K-16", "256K-32", 8)
        partial = result.schemes["partial"].misses
        assert partial < 8, f"partial misses {partial:.2f} vs naive 8"
        return f"8-way miss probes: partial {partial:.2f} < naive 8 < mru 9"

    _check(report, "partial-dominates-misses", partial_dominates_misses)

    def mru_favored_config() -> str:
        result = runner.run("4K-16", "256K-64", 8)
        mru = result.schemes["mru"].total
        partial = result.schemes["partial"].total
        assert mru < result.schemes["naive"].total, "mru worse than naive"
        assert mru / partial < 1.35, f"mru/partial = {mru / partial:.2f}"
        return (
            f"4K-16/256K-64 8-way: mru {mru:.2f} vs partial {partial:.2f} "
            "(paper: near-win for MRU)"
        )

    _check(report, "mru-favored-config", mru_favored_config)

    def f1_falls_with_associativity() -> str:
        f1 = {}
        for a in (4, 8, 16):
            f1[a] = runner.run("16K-16", "256K-32", a).mru_distribution[0]
        assert f1[4] > f1[8] > f1[16], f"f1 not decreasing: {f1}"
        shown = ", ".join(f"{a}-way={v:.2f}" for a, v in f1.items())
        return f"f1 falls with associativity: {shown} (paper 0.75/0.60/0.36)"

    _check(report, "f1-decreases", f1_falls_with_associativity)

    def transforms_ordered() -> str:
        result = runner.run(
            "16K-16", "256K-32", 8, transforms=("none", "xor", "improved"),
            extra_tag_bits=(32,),
        )
        none16 = result.schemes["partial/none/t16"].total
        xor16 = result.schemes["partial/xor/t16"].total
        xor32 = result.schemes["partial/xor/t32"].total
        assert none16 >= xor16 - 0.02, "no-transform beats XOR"
        assert xor32 <= xor16 + 1e-9, "wider tags do not help"
        return (
            f"none {none16:.2f} >= xor {xor16:.2f}; 32-bit tags "
            f"improve to {xor32:.2f}"
        )

    _check(report, "tag-transforms", transforms_ordered)

    def writeback_optimization_helps() -> str:
        optimized = runner.run("16K-16", "256K-32", 8)
        raw = runner.run(
            "16K-16", "256K-32", 8, writeback_optimization=False
        )
        saved = raw.schemes["mru"].total - optimized.schemes["mru"].total
        assert saved > 0, "optimization did not help"
        return f"write-back optimization saves {saved:.2f} MRU probes/access"

    _check(report, "writeback-optimization", writeback_optimization_helps)

    return report
