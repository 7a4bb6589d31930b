"""Per-process reference model for the synthetic ATUM-like workload.

Each process owns a private virtual address space (its process id in
the high address bits, like distinct VAX process spaces) with a code
region and a data region, and produces a mix of:

- *instruction fetches*: a program counter that advances sequentially,
  takes short backward branches (loops), and occasionally calls into
  another routine — giving both strong spatial locality and a code
  working set;
- *loads/stores*: data blocks re-referenced by Zipf-distributed LRU
  stack distance, with new blocks allocated sequentially within the
  data region — giving tunable temporal locality plus the spatial
  locality that makes larger cache blocks pay off.

The parameters are calibrated (see
``tests/integration/test_calibration.py`` and EXPERIMENTS.md) so the
paper's three L1 configurations land near the published miss ratios.
"""

from __future__ import annotations

import bisect
import random
from dataclasses import dataclass
from typing import List, Tuple

from repro.errors import ConfigurationError
from repro.trace.reference import AccessKind

#: Bits reserved for the per-process offset; the process id occupies
#: the bits above, so distinct processes never share cache blocks — and
#: the high-order tag bits are highly non-uniform (a handful of pids
#: and regions), exactly the hazard the paper's tag transformations
#: address. 26 offset bits keep a multiprogramming mix of 8 processes
#: inside a 32-bit virtual space, so a 16-bit tag is *exact* for the
#: paper's level-two geometries (as on the VAX) rather than lossy.
PROCESS_SPACE_BITS = 26

_CODE_BASE = 0x0000_0000
_DATA_BASE = 0x0100_0000
_CHASE_BASE = 0x0200_0000

#: The pid-0 slice is reserved as the globally shared segment
#: (multiprocessor studies): every process/node that references shared
#: data references the *same* blocks here. User pids start at 1.
SHARED_BASE = 0x0000_0000
SHARED_SPAN = 1 << PROCESS_SPACE_BITS


def shared_block_set(count: int, granule: int = 16, seed: int = 0xC0FFEE):
    """The canonical shared-data granule set (same for every process).

    Scattered through the pid-0 slice at 64-byte spacing, seeded
    independently of any process so all nodes agree on the layout.
    """
    import random as _random

    if count <= 0:
        raise ConfigurationError("shared set must be non-empty")
    rng = _random.Random(seed ^ count)
    slots = SHARED_SPAN // granule // 4
    positions = set()
    while len(positions) < count:
        positions.add(rng.randrange(slots) * 4)
    base = SHARED_BASE // granule
    return tuple(base + p for p in sorted(positions))


@dataclass(frozen=True)
class ProcessParameters:
    """Tunable knobs of the per-process model."""

    #: Fraction of references that are instruction fetches.
    instruction_fraction: float = 0.50
    #: Fraction of *data* references that are stores.
    store_fraction: float = 0.15
    #: Probability an instruction fetch branches instead of advancing.
    branch_probability: float = 0.16
    #: Given a branch: probability it is a short backward loop branch.
    loop_branch_fraction: float = 0.92
    #: Maximum backward distance (bytes) of a loop branch.
    loop_span: int = 96
    #: Number of distinct routines in the code region.
    routines: int = 16
    #: Size of each routine in bytes.
    routine_size: int = 512
    #: Zipf exponent for call-target selection: most calls go to a few
    #: hot routines, with a long tail of cold ones (realistic call
    #: profiles; a uniform choice would inflate the code working set).
    routine_theta: float = 1.8
    #: Zipf exponent for data-block stack distances.
    data_theta: float = 1.75
    #: Maximum data stack distance tracked.
    data_stack: int = 6144
    #: Probability a data reference touches a brand-new block.
    new_block_probability: float = 0.0008
    #: Data granule size in bytes (unit of the stack model).
    data_block: int = 16
    #: Probability a data reference continues a sequential run.
    sequential_run_probability: float = 0.03
    #: New data blocks are allocated ``1..allocation_skip_max`` granules
    #: past the previous allocation (1 = strictly sequential). Values
    #: above 1 dilute spatial locality, controlling how much larger
    #: cache blocks help.
    allocation_skip_max: int = 8
    #: Fraction of data references that chase pointers through a fixed
    #: set of widely scattered granules (linked lists, hash buckets,
    #: page tables). These references have *no* spatial locality, so
    #: they are insensitive to cache block size while remaining very
    #: sensitive to cache size — the knob that sets how much larger
    #: blocks pay off overall.
    chase_fraction: float = 0.062
    #: Number of granules in the pointer-chase set.
    chase_blocks: int = 220
    #: Spacing between chase granules, in granules (>= 4 keeps them in
    #: distinct 64-byte regions).
    chase_spacing: int = 4
    #: Zipf exponent over the chase set (small = near uniform).
    chase_theta: float = 0.6
    #: Heap allocations are grouped into arenas of this many granules;
    #: each arena sits at a random 64 KB-aligned spot in the 16 MB data
    #: region (mmap-like placement). Spreading arenas through the
    #: region gives stored tags realistic entropy — with a packed heap
    #: every block of a process would share one 16-bit tag value and
    #: the partial-compare scheme would see pathological false-match
    #: rates no transform could fix.
    arena_granules: int = 1024
    #: Fraction of data references that touch the globally *shared*
    #: segment (multiprocessor studies; 0 keeps the uniprocessor
    #: calibration untouched). All processes and nodes reference the
    #: same shared granules.
    shared_fraction: float = 0.0
    #: Number of granules in the shared segment.
    shared_blocks: int = 256
    #: Zipf exponent over the shared set.
    shared_theta: float = 0.6
    #: Fraction of shared references that are stores (coherency
    #: invalidation generators).
    shared_store_fraction: float = 0.12
    #: Skew of region placement: arena and chase positions are drawn as
    #: ``region * u**placement_skew`` with ``u`` uniform, concentrating
    #: allocations near the region base (real heaps grow upward from a
    #: fixed origin). Skewed placement makes the *high-order* tag bits
    #: non-uniform while the low-order bits stay rich — precisely the
    #: situation Section 2.2's tag transformations are designed for,
    #: and what separates the None/XOR/Improved lines of Figure 6.
    placement_skew: float = 4.0

    def validate(self) -> None:
        """Raise :class:`ConfigurationError` on out-of-range knobs."""
        fractions = (
            self.instruction_fraction,
            self.store_fraction,
            self.branch_probability,
            self.loop_branch_fraction,
            self.new_block_probability,
            self.sequential_run_probability,
        )
        for value in fractions:
            if not 0.0 <= value <= 1.0:
                raise ConfigurationError(f"fraction {value} outside [0, 1]")
        if self.routines <= 0 or self.routine_size <= 0:
            raise ConfigurationError("code region must be non-empty")
        if self.data_stack <= 0:
            raise ConfigurationError("data_stack must be positive")
        if self.data_block <= 0 or self.data_block % 4:
            raise ConfigurationError("data_block must be a positive multiple of 4")
        if self.routine_theta <= 0 or self.data_theta <= 0:
            raise ConfigurationError("Zipf exponents must be positive")
        if self.allocation_skip_max < 1:
            raise ConfigurationError("allocation_skip_max must be at least 1")
        if not 0.0 <= self.chase_fraction <= 1.0:
            raise ConfigurationError("chase_fraction outside [0, 1]")
        if self.chase_blocks <= 0 or self.chase_spacing <= 0:
            raise ConfigurationError("chase set must be non-empty")
        if self.chase_theta <= 0:
            raise ConfigurationError("chase_theta must be positive")
        if self.arena_granules <= 0:
            raise ConfigurationError("arena_granules must be positive")
        if self.placement_skew < 1.0:
            raise ConfigurationError("placement_skew must be >= 1 (1 = uniform)")
        if not 0.0 <= self.shared_fraction <= 1.0:
            raise ConfigurationError("shared_fraction outside [0, 1]")
        if not 0.0 <= self.shared_store_fraction <= 1.0:
            raise ConfigurationError("shared_store_fraction outside [0, 1]")
        if self.shared_blocks <= 0:
            raise ConfigurationError("shared_blocks must be positive")
        if self.shared_theta <= 0:
            raise ConfigurationError("shared_theta must be positive")


class _ZipfCdf:
    """Shared inverse-CDF table for Zipf stack-distance sampling."""

    _cache = {}

    def __new__(cls, max_distance: int, theta: float):
        key = (max_distance, theta)
        table = cls._cache.get(key)
        if table is None:
            cumulative: List[float] = []
            total = 0.0
            for d in range(1, max_distance + 1):
                total += 1.0 / d**theta
                cumulative.append(total)
            table = [c / total for c in cumulative]
            cls._cache[key] = table
        return table


class ProcessModel:
    """Reference generator for one process (or the OS kernel)."""

    def __init__(
        self,
        pid: int,
        seed: int,
        params: ProcessParameters = ProcessParameters(),
    ) -> None:
        if pid < 0:
            raise ConfigurationError("pid must be non-negative")
        params.validate()
        self.pid = pid
        self.params = params
        self._rng = random.Random((seed << 20) ^ (pid * 0x9E3779B1))
        self._base = pid << PROCESS_SPACE_BITS
        region = 1 << (PROCESS_SPACE_BITS - 2)  # 16 MB per region
        # The code segment lands at a random 32 KB-aligned spot in the
        # code region, like a randomly relocated executable.
        code_span = params.routines * params.routine_size
        code_slots = max(1, (region - code_span) // 0x8000)
        self._code_base = (
            self._base + _CODE_BASE + self._rng.randrange(code_slots) * 0x8000
        )
        self._data_base = self._base + _DATA_BASE
        self._data_region_granules = region // params.data_block
        self._pc = self._code_base
        self._data_stack: List[int] = []
        self._zipf_cdf = _ZipfCdf(params.data_stack, params.data_theta)
        self._routine_cdf = _ZipfCdf(params.routines, params.routine_theta)
        # Each process gets its own hot-routine ordering, so different
        # processes do not share a layout (they cannot share blocks
        # anyway — distinct address spaces).
        self._routine_order = list(range(params.routines))
        self._rng.shuffle(self._routine_order)
        self._next_new_block = self._fresh_arena()
        self._arena_remaining = params.arena_granules
        self._run_block = None
        self._run_remaining = 0
        # The chase set is scattered uniformly through its own 16 MB
        # region (linked structures live wherever the allocator put
        # them), at chase_spacing-granule alignment so distinct entries
        # never share a cache block.
        chase_base = (self._base + _CHASE_BASE) // params.data_block
        step = params.chase_spacing
        slots = self._data_region_granules // step
        positions = set()
        while len(positions) < params.chase_blocks:
            positions.add(self._skewed_slot(slots) * step)
        self._chase_set = [chase_base + p for p in sorted(positions)]
        self._rng.shuffle(self._chase_set)
        self._chase_cdf = _ZipfCdf(params.chase_blocks, params.chase_theta)
        if params.shared_fraction > 0.0:
            self._shared_set = shared_block_set(
                params.shared_blocks, granule=params.data_block
            )
            self._shared_cdf = _ZipfCdf(params.shared_blocks, params.shared_theta)
        else:
            self._shared_set = ()
            self._shared_cdf = None

    def _skewed_slot(self, slots: int) -> int:
        """A slot index skewed toward 0 by ``placement_skew``."""
        u = self._rng.random() ** self.params.placement_skew
        index = int(u * slots)
        return min(index, slots - 1)

    def _fresh_arena(self) -> int:
        """First granule of a new 64 KB-aligned arena in the data region."""
        params = self.params
        arena_granules = 0x10000 // params.data_block
        arenas = max(1, self._data_region_granules // arena_granules)
        start = self._skewed_slot(arenas) * arena_granules
        return self._data_base // params.data_block + start

    def next_reference(self) -> Tuple[AccessKind, int]:
        """Produce one ``(kind, address)`` pair."""
        return self.references(1)[0]

    def references(self, count: int) -> List[Tuple[AccessKind, int]]:
        """Produce the next ``count`` ``(kind, address)`` pairs.

        The whole model runs in this one loop over bound locals: the
        instruction stream, then (for data references) the shared
        segment, the pointer-chase set, a sequential run or a Zipf
        draw from the LRU data stack. The order of ``random()`` and
        ``randrange()`` calls is the trace's identity: the golden
        digests and ``tests/trace/test_trace_pins.py`` pin it.
        """
        params = self.params
        rng = self._rng
        rand = rng.random
        randrange = rng.randrange
        bisect_left = bisect.bisect_left
        instruction = AccessKind.INSTRUCTION
        load = AccessKind.LOAD
        store = AccessKind.STORE
        instruction_fraction = params.instruction_fraction
        branch_probability = params.branch_probability
        loop_branch_fraction = params.loop_branch_fraction
        loop_span = params.loop_span
        routine_size = params.routine_size
        routine_cdf = self._routine_cdf
        routine_order = self._routine_order
        code_base = self._code_base
        code_end = code_base + params.routines * routine_size
        shared_cdf = self._shared_cdf
        shared_set = self._shared_set
        shared_fraction = params.shared_fraction
        shared_store_fraction = params.shared_store_fraction
        chase_fraction = params.chase_fraction
        chase_cdf = self._chase_cdf
        chase_set = self._chase_set
        data_block = params.data_block
        words = data_block // 4
        store_fraction = params.store_fraction
        sequential_run_probability = params.sequential_run_probability
        new_block_probability = params.new_block_probability
        zipf_cdf = self._zipf_cdf
        stack = self._data_stack
        stack_limit = params.data_stack
        skip_max = params.allocation_skip_max
        pc = self._pc
        run_block = self._run_block
        run_remaining = self._run_remaining
        next_new_block = self._next_new_block
        arena_remaining = self._arena_remaining

        pairs: List[Tuple[AccessKind, int]] = []
        append = pairs.append
        for _ in range(count):
            if rand() < instruction_fraction:
                address = pc
                if rand() < branch_probability:
                    if rand() < loop_branch_fraction:
                        # Short backward branch: loop within the
                        # current routine.
                        span = address - code_base
                        if span > loop_span:
                            span = loop_span
                        if span >= 4:
                            pc = address - (randrange(span // 4) + 1) * 4
                        else:
                            pc = address + 4
                    else:
                        # Call/jump to the start of another routine;
                        # targets are Zipf-distributed so a few
                        # routines are hot.
                        rank = bisect_left(routine_cdf, rand())
                        pc = code_base + routine_order[rank] * routine_size
                else:
                    pc = address + 4
                    if pc >= code_end:
                        pc = code_base
                append((instruction, address))
                continue
            if shared_cdf is not None and rand() < shared_fraction:
                block = shared_set[bisect_left(shared_cdf, rand())]
                address = block * data_block + randrange(words) * 4
                if rand() < shared_store_fraction:
                    append((store, address))
                else:
                    append((load, address))
                continue
            if chase_fraction and rand() < chase_fraction:
                block = chase_set[bisect_left(chase_cdf, rand())]
            elif run_remaining > 0 and run_block is not None:
                # Continue a sequential run into the adjacent block,
                # promoting it to the top of the data stack.
                run_remaining -= 1
                run_block += 1
                block = run_block
                try:
                    stack.remove(block)
                except ValueError:
                    pass
                stack.insert(0, block)
                if len(stack) > stack_limit:
                    stack.pop()
            else:
                # Re-reference a block by Zipf stack distance, or
                # allocate a fresh one past the previous allocation.
                fresh = not stack or rand() < new_block_probability
                if not fresh:
                    distance = bisect_left(zipf_cdf, rand()) + 1
                    if distance > len(stack):
                        fresh = True
                if fresh:
                    if arena_remaining <= 0:
                        next_new_block = self._fresh_arena()
                        arena_remaining = params.arena_granules
                    skip = skip_max
                    if skip > 1:
                        skip = randrange(1, skip + 1)
                    block = next_new_block + skip - 1
                    next_new_block = block + 1
                    arena_remaining -= skip
                else:
                    block = stack.pop(distance - 1)
                stack.insert(0, block)
                if len(stack) > stack_limit:
                    stack.pop()
                if rand() < sequential_run_probability:
                    run_block = block
                    run_remaining = randrange(1, 5)
                else:
                    run_remaining = 0
            address = block * data_block + randrange(words) * 4
            if rand() < store_fraction:
                append((store, address))
            else:
                append((load, address))

        self._pc = pc
        self._run_block = run_block
        self._run_remaining = run_remaining
        self._next_new_block = next_new_block
        self._arena_remaining = arena_remaining
        return pairs
