"""Builders for the paper's tables.

Each ``build_tableN`` returns a structured result object with the raw
rows plus a ``render()`` method producing an ASCII table parallel to
the paper's layout.
"""

from __future__ import annotations

from dataclasses import astuple, dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.analysis import (
    expected_mru_hit_probes,
    expected_mru_miss_probes,
    expected_naive_hit_probes,
    expected_naive_miss_probes,
    expected_partial_hit_probes,
    expected_partial_miss_probes,
    geometric_hit_distribution,
)
from repro.experiments.configs import (
    L1_GEOMETRIES,
    TABLE4_ASSOCIATIVITIES,
    TABLE4_CONFIGS,
    parse_geometry,
)
from repro.experiments.report import render_table
from repro.experiments.runner import ConfigResult, ExperimentRunner
from repro.hardware.costmodel import table2_designs


@dataclass
class Table1Row:
    """One method/configuration row of Table 1."""

    method: str
    associativity: int
    subsets: int
    tag_memory_width: int
    hit_probes: float
    miss_probes: float


@dataclass
class Table1:
    rows: List[Table1Row]

    HEADERS = ("Method", "Assoc", "Subsets", "TagMemWidth", "Hit", "Miss")
    #: Probe counts are fixed-decimal (``.2f``) so the columns stay
    #: aligned against the paper's layout; ``:.4g`` would drop trailing
    #: zeros (``1.0`` → ``"1"``).
    FORMATS = (None, None, None, None, ".2f", ".2f")
    ALIGN = ("left",) + ("right",) * 5

    TITLE = (
        "Table 1. Performance of Set-Associativity Implementations "
        "(expected probes, t=16)"
    )

    def render(self, fmt: str = "ascii") -> str:
        """Render paralleling the paper's Table 1 (ASCII by default)."""
        return render_table(
            self.HEADERS, [astuple(row) for row in self.rows],
            title=self.TITLE, fmt=fmt, formats=self.FORMATS, align=self.ALIGN,
        )


def build_table1(tag_bits: int = 16, mru_f1_ratio: float = 0.5) -> Table1:
    """Expected-probe rows of Table 1 at the paper's example points.

    The MRU row's hit probes depend on the workload's ``f_i``; the
    paper reports the range ``[2, 5]``. We tabulate a representative
    geometric distribution (``f_{i+1} = ratio * f_i``) alongside the
    analytic bounds.
    """
    rows: List[Table1Row] = []
    a = 4
    rows.append(Table1Row("Traditional", a, 1, a * tag_bits, 1.0, 1.0))
    rows.append(
        Table1Row(
            "Naive", a, 1, tag_bits,
            expected_naive_hit_probes(a), expected_naive_miss_probes(a),
        )
    )
    mru_hit = expected_mru_hit_probes(geometric_hit_distribution(a, mru_f1_ratio))
    rows.append(
        Table1Row("MRU", a, 1, tag_bits, mru_hit, expected_mru_miss_probes(a))
    )
    rows.append(
        Table1Row(
            "Partial (k=4)", a, 1, max(tag_bits, a * 4),
            expected_partial_hit_probes(a, 4, 1),
            expected_partial_miss_probes(a, 4, 1),
        )
    )
    a = 8
    rows.append(
        Table1Row(
            "Partial (k=2)", a, 1, tag_bits,
            expected_partial_hit_probes(a, 2, 1),
            expected_partial_miss_probes(a, 2, 1),
        )
    )
    rows.append(
        Table1Row(
            "Partial w/Subsets (k=4)", a, 2, tag_bits,
            expected_partial_hit_probes(a, 4, 2),
            expected_partial_miss_probes(a, 4, 2),
        )
    )
    return Table1(rows=rows)


@dataclass
class Table2:
    cells: Dict[Tuple[str, str], object]

    HEADERS = ("", "Direct", "Traditional", "MRU", "Partial")
    ALIGN = ("left",) + ("right",) * 4

    TITLE = (
        "Table 2. Trial Set-Associativity Implementations "
        "(1M 24-bit tags, 4-way)"
    )

    def body_rows(self) -> List[List[str]]:
        """The row grid (already-stringified cost-model cells)."""
        designs = ("direct", "traditional", "mru", "partial")
        rows = []
        for family in ("dram", "sram"):
            for label, attr in (
                ("Access time (ns)", "access_time"),
                ("Cycle time (ns)", "cycle_time"),
                ("Memory packages", "memory_packages"),
                ("Support packages", "support_packages"),
                ("Total packages", "total_packages"),
            ):
                row = [f"{family.upper()} {label}"]
                for design in designs:
                    row.append(str(getattr(self.cells[(design, family)], attr)))
                rows.append(row)
        return rows

    def render(self, fmt: str = "ascii") -> str:
        """Render paralleling the paper's Table 2 (ASCII by default)."""
        return render_table(
            self.HEADERS, self.body_rows(), title=self.TITLE, fmt=fmt,
            align=self.ALIGN,
        )


def build_table2() -> Table2:
    """Regenerate Table 2 from the hardware cost model."""
    return Table2(cells=table2_designs())


@dataclass
class Table3Row:
    geometry: str
    measured_miss_ratio: float
    paper_miss_ratio: Optional[float]


@dataclass
class Table3:
    """Simulation-setup summary: L1 miss ratios, paper vs measured."""

    references: int
    segments: int
    rows: List[Table3Row]

    HEADERS = ("L1 geometry", "Measured miss ratio", "Paper miss ratio")
    #: Miss ratios are probabilities; ``.4f`` keeps every row the same
    #: width (the paper reports four decimal places).
    FORMATS = (None, ".4f", ".4f")
    ALIGN = ("left", "right", "right")

    TITLE = "Table 3. Trace and level-one cache characteristics"

    def workload_line(self) -> str:
        """The workload-scale preamble above the table proper."""
        return (
            f"Workload: {self.segments} cold-start segments, "
            f"{self.references} references total"
        )

    def render(self, fmt: str = "ascii") -> str:
        """Render the workload/L1 summary (ASCII by default)."""
        rows = [
            (
                r.geometry,
                r.measured_miss_ratio,
                "-" if r.paper_miss_ratio is None else r.paper_miss_ratio,
            )
            for r in self.rows
        ]
        body = render_table(
            self.HEADERS, rows, title=self.TITLE, fmt=fmt,
            formats=self.FORMATS, align=self.ALIGN,
        )
        separator = "\n\n" if fmt == "github" else "\n"
        return self.workload_line() + separator + body


def build_table3(runner: Optional[ExperimentRunner] = None) -> Table3:
    """Measured L1 miss ratios for the paper's three L1 geometries,
    captured in one pass over the trace."""
    if runner is None:
        runner = ExperimentRunner()
    geometries = [parse_geometry(label) for label in L1_GEOMETRIES]
    runner.miss_stream(*geometries)
    rows = [
        Table3Row(
            geometry=geometry.label,
            measured_miss_ratio=runner.l1_miss_ratio(geometry),
            paper_miss_ratio=paper,
        )
        for geometry, paper in zip(geometries, L1_GEOMETRIES.values())
    ]
    workload = runner.workload
    return Table3(
        references=len(workload),
        segments=workload.segments,
        rows=rows,
    )


@dataclass
class Table4Row:
    """One configuration row of Table 4 (for one associativity)."""

    l1: str
    l2: str
    associativity: int
    global_miss_ratio: float
    local_miss_ratio: float
    fraction_writebacks: float
    naive_hits: float
    naive_total: float
    mru_hits: float
    mru_total: float
    partial_hits: float
    partial_misses: float
    partial_total: float

    @property
    def best_total(self) -> str:
        """Low-cost scheme with the fewest total probes in this row."""
        totals = {
            "naive": self.naive_total,
            "mru": self.mru_total,
            "partial": self.partial_total,
        }
        return min(totals, key=totals.get)


@dataclass
class Table4:
    rows: List[Table4Row] = field(default_factory=list)

    def rows_for(self, associativity: int) -> List[Table4Row]:
        """The sub-table for one associativity (paper has three)."""
        return [r for r in self.rows if r.associativity == associativity]

    def render(self) -> str:
        """ASCII rendering paralleling the paper's Table 4 sections."""
        sections = []
        for a in sorted({r.associativity for r in self.rows}):
            rows = []
            for r in self.rows_for(a):
                marker = {"naive": "n", "mru": "m", "partial": "p"}[r.best_total]
                rows.append(
                    (
                        f"{r.l1} {r.l2}", r.global_miss_ratio, r.local_miss_ratio,
                        r.fraction_writebacks, r.naive_hits, r.naive_total,
                        r.mru_hits, r.mru_total, r.partial_hits,
                        r.partial_misses, f"*{r.partial_total:.4g}"
                        if marker == "p" else f"{r.partial_total:.4g}",
                    )
                )
            sections.append(
                render_table(
                    ["Configuration", "Global", "Local", "FracWB",
                     "Nv-Hit", "Nv-Tot", "MRU-Hit", "MRU-Tot",
                     "Pt-Hit", "Pt-Miss", "Pt-Tot"],
                    rows,
                    title=f"Table 4 ({a}-way set-associative level two cache)",
                )
            )
        return "\n\n".join(sections)


def build_table4(
    runner: Optional[ExperimentRunner] = None,
    associativities: Sequence[int] = TABLE4_ASSOCIATIVITIES,
    configs: Sequence[Tuple[str, str]] = tuple(TABLE4_CONFIGS),
) -> Table4:
    """Full Table 4 grid from trace-driven simulation."""
    if runner is None:
        runner = ExperimentRunner()
    table = Table4()
    for a in associativities:
        for l1_label, l2_label in configs:
            result = runner.run(l1_label, l2_label, a)
            table.rows.append(_table4_row(result))
    return table


def _table4_row(result: ConfigResult) -> Table4Row:
    naive = result.schemes["naive"]
    mru = result.schemes["mru"]
    partial = result.schemes["partial"]
    return Table4Row(
        l1=result.l1.label,
        l2=result.l2.label,
        associativity=result.associativity,
        global_miss_ratio=result.global_miss_ratio,
        local_miss_ratio=result.local_miss_ratio,
        fraction_writebacks=result.fraction_writebacks,
        naive_hits=naive.hits,
        naive_total=naive.total,
        mru_hits=mru.hits,
        mru_total=mru.total,
        partial_hits=partial.hits,
        partial_misses=partial.misses,
        partial_total=partial.total,
    )
