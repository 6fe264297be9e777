"""Exact-LRU specification of the set-associative write-back cache.

A plain per-set ``OrderedDict`` model with no tag array and no batched
entry points: the reference the production
:class:`~repro.mem.cache.Cache` is differentially tested against.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Optional

from repro.config import CacheConfig
from repro.errors import CoherenceError
from repro.mem.cache import AccessResult, CacheStats

__all__ = ["ReferenceCache"]


@dataclass
class _Line:
    dirty: bool = False
    # MESI state is tracked by the coherence domain; the cache only
    # needs residency + dirtiness.


@dataclass
class ReferenceCache:
    """The original per-set ``OrderedDict`` engine, kept as the
    executable specification of exact-LRU semantics.

    The production :class:`~repro.mem.cache.Cache` must behave
    identically access for access;
    ``tests/mem/test_cache_differential.py`` enforces this with
    randomized differential traces.
    """

    config: CacheConfig
    name: str = "cache"
    #: per-set recency queues, ``None`` until the set's first miss
    _sets: list[Optional[OrderedDict[int, _Line]]] = field(init=False, repr=False)
    stats: CacheStats = field(init=False)

    def __post_init__(self) -> None:
        self._sets = [None] * self.config.num_sets
        self.stats = CacheStats()

    # -- geometry -------------------------------------------------------------
    def line_of(self, addr: int) -> int:
        return addr // self.config.line_bytes

    def set_of(self, line: int) -> int:
        return line % self.config.num_sets

    # -- core operation ----------------------------------------------------
    def access(self, line: int, is_write: bool) -> AccessResult:
        si = self.set_of(line)
        s = self._sets[si]
        if s is None:
            s = self._sets[si] = OrderedDict()
        entry = s.get(line)
        if entry is not None:
            s.move_to_end(line)
            if is_write:
                entry.dirty = True
            self.stats.hits += 1
            return AccessResult(hit=True)

        self.stats.misses += 1
        evicted: Optional[int] = None
        writeback = False
        if len(s) >= self.config.associativity:
            victim, vline = s.popitem(last=False)
            evicted = victim
            writeback = vline.dirty and self.config.write_back
            self.stats.evictions += 1
            if writeback:
                self.stats.writebacks += 1
        s[line] = _Line(dirty=is_write and self.config.write_back)
        return AccessResult(hit=False, evicted=evicted, writeback=writeback)

    # -- coherence hooks ---------------------------------------------------
    def _entry(self, line: int) -> Optional[_Line]:
        s = self._sets[self.set_of(line)]
        return s.get(line) if s is not None else None

    def contains(self, line: int) -> bool:
        return self._entry(line) is not None

    def is_dirty(self, line: int) -> bool:
        entry = self._entry(line)
        return bool(entry and entry.dirty)

    def invalidate(self, line: int) -> bool:
        s = self._sets[self.set_of(line)]
        entry = s.pop(line, None) if s is not None else None
        if entry is None:
            raise CoherenceError(
                f"{self.name}: invalidate of non-resident line {line:#x}"
            )
        self.stats.invalidations_received += 1
        return entry.dirty

    def flush(self) -> list[int]:
        dirty: list[int] = []
        for s in self._sets:
            if s is None:
                continue
            for line, entry in list(s.items()):
                if entry.dirty:
                    dirty.append(line)
                del s[line]
        self.stats.flushes += 1
        self.stats.writebacks += len(dirty)
        return dirty

    @property
    def resident_lines(self) -> int:
        return sum(len(s) for s in self._sets if s is not None)
