"""Per-line reference twins of the fast-tier accessors.

Each twin overrides only ``_charge``: a multi-line access is walked one
cache line at a time with scalar :meth:`~repro.mem.cache.Cache.access`
calls (and, for the prefetching remote accessor, one prefetcher lookup
per missing line) instead of the production span pass. Single-line
accesses keep the production step. Time, access counts, cache and
prefetcher statistics, and swap page-pool state must all match.
"""

from __future__ import annotations

from repro.model.fastsim import LocalMemAccessor, RemoteMemAccessor, SwapAccessor

__all__ = ["ScalarLocalMemAccessor", "ScalarRemoteMemAccessor", "ScalarSwapAccessor"]


class ScalarLocalMemAccessor(LocalMemAccessor):
    def _charge(self, addr: int, size: int, is_write: bool) -> None:
        first, n = self._span_of(addr, size)
        cache = self.cache
        if n == 1 or cache is None:
            super()._charge(addr, size, is_write)
            return
        self.accesses += n
        hit_ns, local_ns = self._hit_ns, self._local_ns
        t = 0.0
        for line in range(first, first + n):
            result = cache.access(line, is_write)
            if result.hit:
                t += hit_ns
            elif result.writeback:
                t += 2 * local_ns
            else:
                t += local_ns
        self.time_ns += t


class ScalarRemoteMemAccessor(RemoteMemAccessor):
    def _charge(self, addr: int, size: int, is_write: bool) -> None:
        first, n = self._span_of(addr, size)
        if n == 1:
            super()._charge(addr, size, is_write)
            return
        self.accesses += n
        remote = self._remote_ns
        cache = self.cache
        pf = self.prefetcher
        for line in range(first, first + n):
            if cache is not None:
                result = cache.access(line, is_write)
                if result.hit:
                    self.time_ns += self._hit_ns
                    continue
                if result.writeback:
                    self.time_ns += remote
            if pf is not None and pf.access(line):
                self.time_ns += pf.config.covered_ns
            else:
                self.time_ns += remote


class ScalarSwapAccessor(SwapAccessor):
    def _charge(self, addr: int, size: int, is_write: bool) -> None:
        first, n = self._span_of(addr, size)
        self.accesses += n
        for line in range(first, first + n):
            self._charge_line(line, is_write)
