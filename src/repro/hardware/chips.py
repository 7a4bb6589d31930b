"""Memory-chip catalog for the Table 2 cost model.

Chip timings come straight from the paper's "Memory Packages" rows.
Page-mode dynamic RAMs serve repeated probes to the same row (cache
set) in less than half the initial access time — the property the
serial MRU and partial-compare implementations exploit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

from repro.errors import ConfigurationError


@dataclass(frozen=True)
class ChipSpec:
    """One memory-chip type.

    Attributes:
        name: Catalog name, e.g. ``"1Mx8 DRAM"``.
        words: Addressable words per chip.
        bits: Output width. A tuple (e.g. ``(16, 8)``) models the
            paper's mixed-width static-RAM bank.
        access_ns / cycle_ns: Basic (first-probe) timings.
        page_access_ns / page_cycle_ns: Page-mode timings for
            subsequent probes to the same row, or ``None`` if the chip
            has no page mode (static RAMs are fast every cycle).
    """

    name: str
    words: int
    bits: Tuple[int, ...]
    access_ns: float
    cycle_ns: float
    page_access_ns: Optional[float] = None
    page_cycle_ns: Optional[float] = None

    def __post_init__(self) -> None:
        if self.words <= 0:
            raise ConfigurationError("chip must have at least one word")
        if not self.bits or any(b <= 0 for b in self.bits):
            raise ConfigurationError("chip output width must be positive")
        if self.access_ns <= 0 or self.cycle_ns < self.access_ns:
            raise ConfigurationError(
                "cycle time must be at least the access time"
            )

    @property
    def has_page_mode(self) -> bool:
        """Whether repeated same-row probes get the fast page timing."""
        return self.page_access_ns is not None

    def chips_for(self, entries: int, width_bits: int) -> int:
        """Packages needed for ``entries`` words of ``width_bits`` each.

        Width is covered greedily with the widest available bank
        first (a ``(16, 8)`` part contributes 16-bit slices until the
        remainder fits in 8); depth multiplies by the number of
        chip-word rows.
        """
        if entries <= 0 or width_bits <= 0:
            raise ConfigurationError("entries and width must be positive")
        banks = sorted(self.bits, reverse=True)
        remaining = width_bits
        per_row = 0
        for index, bank in enumerate(banks):
            if remaining <= 0:
                break
            if index == len(banks) - 1:
                per_row += -(-remaining // bank)
                remaining = 0
            else:
                take = remaining // bank
                per_row += take
                remaining -= take * bank
        rows = -(-entries // self.words)
        return per_row * rows


#: Dynamic RAM chips of the paper's Table 2 (top half, left).
DRAM_CHIPS = {
    "1Mx8": ChipSpec(
        name="1Mx8 DRAM",
        words=1 << 20,
        bits=(8,),
        access_ns=100.0,
        cycle_ns=190.0,
        page_access_ns=35.0,
        page_cycle_ns=35.0,
    ),
    "256Kx8": ChipSpec(
        name="256Kx8 DRAM",
        words=1 << 18,
        bits=(8,),
        access_ns=80.0,
        cycle_ns=160.0,
    ),
}

#: Static RAM chips of the paper's Table 2 (top half, right).
SRAM_CHIPS = {
    "1Mx4": ChipSpec(
        name="1Mx4 SRAM",
        words=1 << 20,
        bits=(4,),
        access_ns=40.0,
        cycle_ns=40.0,
    ),
    "256Kx(16,8)": ChipSpec(
        name="256Kx(16,8) SRAM",
        words=1 << 18,
        bits=(16, 8),
        access_ns=40.0,
        cycle_ns=40.0,
    ),
}
