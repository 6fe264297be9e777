"""Per-line specification of a memory-controller burst's DRAM timing.

A burst packet stands for ``line_count`` back-to-back line accesses.
The spec walks them one line at a time, in address order, through
:meth:`~repro.mem.dram.DRAMTiming.access_ns` at each line's own
controller-local offset, and charges ``controller_ns`` plus that
latency per line. The production controller times a burst by row runs
(:meth:`~repro.mem.dram.DRAMTiming.burst_terms`);
``tests/mem/test_dram.py`` requires both to produce bit-equal service
times, row-hit/miss counts and open-row state.
"""

from __future__ import annotations

from repro.mem.controller import MemoryController

__all__ = ["per_line_burst_terms"]


def per_line_burst_terms(
    mc: MemoryController, addr: int, count: int, line_bytes: int
) -> list[float]:
    """Service terms of *count* lines from node-local *addr*, one
    :meth:`access_ns` call per line, in address order."""
    return [
        mc.config.controller_ns
        + mc.timing.access_ns(mc._local_offset(addr + k * line_bytes))
        for k in range(count)
    ]
