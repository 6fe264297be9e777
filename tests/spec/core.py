"""Per-line reference twin of the packet-tier core's data path.

:class:`ScalarCore` walks every span one cache line at a time through
:class:`~repro.cluster.core.Core`'s single-line steps and writes dirty
lines back one packet each: no span classification, no burst packets.
The production span/burst path must match it in simulated time, every
counter, and the bytes returned.
"""

from __future__ import annotations

from typing import Generator

from repro.cluster.core import Core

__all__ = ["ScalarCore", "install_scalar_cores"]


class ScalarCore(Core):
    """A :class:`Core` whose multi-line accesses go line by line."""

    def _touch_lines(self, paddr: int, size: int, is_write: bool) -> Generator:
        line_bytes = self.cache.config.line_bytes
        last = (paddr + size - 1) // line_bytes
        for line in range(paddr // line_bytes, last + 1):
            yield from self._touch_line(line, is_write)

    def _coherent_lines(self, paddr: int, size: int, is_write: bool) -> Generator:
        line_bytes = self.cache.config.line_bytes
        last = (paddr + size - 1) // line_bytes
        for line in range(paddr // line_bytes, last + 1):
            yield from self._coherent_line(line, is_write)

    def flush_cache(self) -> Generator:
        if self.cache is None:
            return None
        line_bytes = self.cache.config.line_bytes
        for line in self.cache.flush():
            yield from self._timing_write(line * line_bytes, line_bytes)
        return None


def install_scalar_cores(cluster):
    """Rebind every core of a built *cluster* to :class:`ScalarCore`."""
    for node in cluster.nodes.values():
        for core in node.cores:
            core.__class__ = ScalarCore
    return cluster
