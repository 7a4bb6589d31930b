"""Byte-exact pins of the generated synthetic trace.

The capture pins (``tests/cache/test_packed_stream.py``) see only the
L1 misses of default-parameter workloads. These hash every reference,
hits and word offsets included, so a change to the generator's loop or
to its sequence of ``random.Random`` calls shows up here, on every
Python the suite runs on. The shared-data branch is covered by a
multiprocessor node workload, the no-flush path by a warmed one.
"""

import hashlib

import pytest

from repro.cache.multiprocessor import node_workloads
from repro.trace.synthetic import AtumWorkload


def trace_digest(trace) -> str:
    """sha256 over ``kind.value`` and address of every reference."""
    digest = hashlib.sha256()
    for ref in trace:
        digest.update(f"{ref.kind.value} {ref.address}\n".encode())
    return digest.hexdigest()


WORKLOADS = {
    "seed1989": lambda: AtumWorkload(
        segments=3, references_per_segment=5_000, seed=1989
    ),
    "seed7": lambda: AtumWorkload(
        segments=3, references_per_segment=5_000, seed=7
    ),
    "seed2024": lambda: AtumWorkload(
        segments=3, references_per_segment=5_000, seed=2024
    ),
    "warmed": lambda: AtumWorkload(
        segments=2, references_per_segment=6_000, seed=1989
    ).warmed(),
    "shared": lambda: node_workloads(2, 2, 5_000, shared_fraction=0.1)[1],
}

#: ``(len(list(workload)), trace_digest(workload))`` per case.
TRACE_PINS = {
    "seed1989": (
        15002,
        "bbb56d753a8df52c1789ce5017114befd7148180baf876041f0a61fec140f710",
    ),
    "seed2024": (
        15002,
        "182c9bdcdee341c3b7561f4595eeb76c7d59f782a3730428616d6d953242420b",
    ),
    "seed7": (
        15002,
        "9ca903183a1912cb023fe7e066f280906bff2004027184f12fdb515c85b6a8ed",
    ),
    "shared": (
        10001,
        "c389f3a06384b8529214845c8d53e740a11b057755ac0a6a44af6cb541e2ee10",
    ),
    "warmed": (
        12000,
        "300292b05a1e2bed889dc5fd918404852364d62d1e0176151b8ff6c92249bee0",
    ),
}


@pytest.mark.parametrize("case", sorted(WORKLOADS))
def test_generated_trace_is_pinned(case):
    trace = list(WORKLOADS[case]())
    assert (len(trace), trace_digest(trace)) == TRACE_PINS[case]
