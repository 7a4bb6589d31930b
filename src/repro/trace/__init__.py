"""Trace substrate: reference types, ``din`` file I/O, and the
ATUM-like synthetic multiprogrammed workload that stands in for the
paper's (unavailable) ATUM traces.
"""

from repro.trace.dinero import read_din, write_din
from repro.trace.reference import AccessKind, Reference
from repro.trace.synthetic import AtumWorkload, SegmentParameters
from repro.trace.stats import TraceStatistics, summarize_trace

__all__ = [
    "AccessKind",
    "AtumWorkload",
    "Reference",
    "SegmentParameters",
    "TraceStatistics",
    "read_din",
    "summarize_trace",
    "write_din",
]
