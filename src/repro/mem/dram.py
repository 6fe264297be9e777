"""DDR2 DRAM timing model.

A deliberately small model that still produces the two behaviours the
evaluation depends on: *row-buffer locality* (sequential streams are
faster than random pointer chasing) and *bank-level parallelism*
(one controller can overlap a handful of independent accesses).

Addresses map to banks by low-order row interleaving:
``bank = (addr // row_bytes) % banks``; each bank remembers its open
row, and an access is a row hit iff it targets that row.
"""

from __future__ import annotations

from repro.config import DRAMConfig
from repro.sim.stats import Counter

__all__ = ["DRAMTiming"]


class DRAMTiming:
    """Per-controller bank state + access-latency classification."""

    def __init__(self, config: DRAMConfig) -> None:
        self.config = config
        #: open row per bank; -1 means all banks precharged
        self._open_rows = [-1] * config.banks
        self.row_hits = Counter("dram.row_hits")
        self.row_misses = Counter("dram.row_misses")

    def bank_of(self, addr: int) -> int:
        """Bank servicing *addr* (row-interleaved)."""
        return (addr // self.config.row_bytes) % self.config.banks

    def row_of(self, addr: int) -> int:
        return addr // (self.config.row_bytes * self.config.banks)

    def access_ns(self, addr: int) -> float:
        """Latency of one access at *addr*; updates the open-row state."""
        bank = self.bank_of(addr)
        row = self.row_of(addr)
        if self._open_rows[bank] == row:
            self.row_hits.add()
            return self.config.row_hit_ns
        self._open_rows[bank] = row
        self.row_misses.add()
        return self.config.row_miss_ns

    def burst_terms(self, offset: int, count: int, line_bytes: int) -> list[float]:
        """Per-line service terms of a burst of *count* back-to-back
        line accesses starting at controller-local *offset*.

        Returns ``controller_ns + row_hit_ns`` or ``controller_ns +
        row_miss_ns`` for each line in address order, and leaves the
        open-row state and counters exactly as *count* :meth:`access_ns`
        calls would. Summing the list therefore adds the same floats in
        the same order as the per-line walk. The walk goes by row runs:
        only the first line of a run can miss its bank's open row, and
        the rest of the run hits it.
        """
        cfg = self.config
        row_bytes, banks = cfg.row_bytes, cfg.banks
        hit = cfg.controller_ns + cfg.row_hit_ns
        miss = cfg.controller_ns + cfg.row_miss_ns
        open_rows = self._open_rows
        terms: list[float] = []
        misses = 0
        addr, end = offset, offset + count * line_bytes
        while addr < end:
            chunk = addr // row_bytes
            # lines whose start address falls inside this row
            run = -(-(min(end, (chunk + 1) * row_bytes) - addr) // line_bytes)
            bank, row = chunk % banks, chunk // banks
            if open_rows[bank] == row:
                terms += [hit] * run
            else:
                open_rows[bank] = row
                misses += 1
                terms.append(miss)
                terms += [hit] * (run - 1)
            addr += run * line_bytes
        self.row_hits.add(count - misses)
        self.row_misses.add(misses)
        return terms

    def hit_rate(self) -> float:
        """Fraction of accesses that hit an open row so far."""
        total = self.row_hits.value + self.row_misses.value
        return self.row_hits.value / total if total else 0.0

    def reset(self) -> None:
        self._open_rows = [-1] * self.config.banks
        self.row_hits.reset()
        self.row_misses.reset()
