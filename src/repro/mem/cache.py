"""Set-associative write-back cache model.

Tag-array only: the data lives in the backing store, so the cache
tracks *which lines are resident and dirty* and produces hit/miss
timing plus write-back traffic.

:class:`Cache` keeps one representation of its state: flat arrays over
``sets x ways`` slots of the resident line's tag (``-1`` = invalid),
the stamp of its last touch (``0`` = invalid) and its dirty bit,
allocated on the cache's first miss. Exact LRU follows from the
stamps: a miss evicts the smallest-stamp way, so invalid ways fill
first. A ``line -> slot`` index keeps the scalar hit test one dict get.
A batch of lines in distinct sets (:meth:`Cache.access_span`,
:meth:`Cache.access_block`) is classified, evicted and installed with
array operations and leaves the index to catch up lazily; short or
conflicting batches replay :meth:`Cache.access` line by line.

``tests/spec/cache.py`` holds the exact-LRU specification,
``ReferenceCache``; ``tests/mem/test_cache_differential.py`` drives
identical traces through both and requires identical stats, residency,
dirtiness and flush output.

Lines are identified by *line address* (byte address // line size);
callers that have full addresses use :meth:`Cache.line_of`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np

from repro.config import CacheConfig
from repro.errors import CoherenceError

__all__ = [
    "Cache",
    "CacheStats",
    "AccessResult",
    "BlockResult",
]


@dataclass
class CacheStats:
    """Aggregate counters for one cache instance."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    writebacks: int = 0
    invalidations_received: int = 0
    flushes: int = 0

    @property
    def accesses(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        return self.hits / self.accesses if self.accesses else 0.0


class AccessResult:
    """Outcome of one cache access.

    A plain ``__slots__`` class rather than a dataclass: one of these
    is produced per scalar miss on the hot path, and hits all share the
    module-level ``_HIT`` singleton.
    """

    __slots__ = ("hit", "evicted", "writeback")

    def __init__(
        self,
        hit: bool,
        evicted: Optional[int] = None,
        writeback: bool = False,
    ) -> None:
        self.hit = hit
        self.evicted = evicted
        self.writeback = writeback

    def __repr__(self) -> str:  # pragma: no cover
        return (
            f"AccessResult(hit={self.hit}, evicted={self.evicted}, "
            f"writeback={self.writeback})"
        )


_HIT = AccessResult(True)

#: batches of at most this many lines are replayed line by line: below
#: it the vectorized pass's fixed cost exceeds the per-line work
_REPLAY_MAX = 12


#: shared read-only empty line array for a batch's empty fields
_NONE = np.empty(0, dtype=np.int64)
_NONE.flags.writeable = False


class BlockResult(NamedTuple):
    """Outcome of one batched access over a span of lines (a named
    tuple: one is built per batch, at half a frozen dataclass's cost)."""

    hits: int
    misses: int
    #: dirty evictions triggered while installing the span's misses
    writebacks: int
    #: line addresses that missed, in input order (prefetcher feed)
    miss_lines: np.ndarray
    #: per-input-line hit flags, aligned with the request's lines
    hit_mask: np.ndarray
    #: every victim line evicted by a miss install, in miss order
    #: (coherence directories drop their sharer entries from this)
    evicted_lines: np.ndarray
    #: the dirty subset of ``evicted_lines`` — lines that owe a
    #: write-back, still in miss order
    wb_lines: np.ndarray
    #: for each entry of ``wb_lines``, the index into ``miss_lines`` of
    #: the install that displaced it; a scalar replay performs the
    #: write-back immediately before fetching that miss
    wb_miss_idx: np.ndarray

    @property
    def accesses(self) -> int:
        return self.hits + self.misses


class Cache:
    """One cache (modeled at the L2 / last-level-per-core granularity)."""

    def __init__(self, config: CacheConfig, name: str = "cache") -> None:
        self.config = config
        self.name = name
        self.stats = CacheStats()
        self._nsets = config.num_sets
        self._ways = config.associativity
        self._wb = config.write_back
        #: line -> flat slot ``set * ways + way``: an index over the
        #: slot arrays that spans leave behind (see :meth:`_find`)
        self._slot: dict[int, int] = {}
        #: index size that triggers :meth:`_reindex`: stale entries may
        #: at most match the cache's lines in number
        self._max_index = 2 * config.num_lines
        #: stamp of the most recent touch (valid stamps are >= 1)
        self._clock = 0
        #: per-slot tags; ``None`` until the cache's first miss, which
        #: allocates it with the rest of the slot state (:meth:`_alloc`)
        self._tags: Optional[np.ndarray] = None

    def __repr__(self) -> str:  # pragma: no cover
        return f"Cache(name={self.name!r}, config={self.config!r})"

    # -- geometry -------------------------------------------------------------
    def line_of(self, addr: int) -> int:
        """Line address containing byte address *addr*."""
        return addr // self.config.line_bytes

    def set_of(self, line: int) -> int:
        return line % self._nsets

    def _alloc(self) -> None:
        """Allocate the slot state, all ways invalid: flat per-slot tag,
        recency-stamp and dirty-bit arrays, their (sets, ways) row views
        and memoryviews (for scalar element access), the per-set flags
        of :meth:`_find` and the eviction-order memo of :meth:`_victim`.
        """
        shape = (self._nsets, self._ways)
        slots = self._nsets * self._ways
        self._tags = np.full(slots, -1, dtype=np.int64)
        self._stamp = np.zeros(slots, dtype=np.int64)
        self._dirty = np.zeros(slots, dtype=bool)
        self._tag_rows = self._tags.reshape(shape)
        self._stamp_rows = self._stamp.reshape(shape)
        self._unindexed = np.zeros(self._nsets, dtype=bool)
        self._tag_mv = memoryview(self._tags)
        self._stamp_mv = memoryview(self._stamp)
        self._dirty_mv = memoryview(self._dirty)
        self._unindexed_mv = memoryview(self._unindexed)
        self._order: list[Optional[list[int]]] = [None] * self._nsets

    def _find(self, line: int) -> Optional[int]:
        """Slot holding *line*, or ``None`` if it is not resident.

        Only the scalar path keeps the index exact. A span leaves the
        entries of the lines it evicts in place (so an entry counts only
        if its slot still holds the line) and does not index the lines
        it installs; it flags their sets instead, and the first lookup
        that misses the index in a flagged set indexes the whole set.
        """
        slot = self._slot.get(line)
        if slot is not None and self._tag_mv[slot] == line:
            return slot
        si = line % self._nsets
        if self._tags is None or not self._unindexed_mv[si]:
            return None
        return self._index_set(si, line)

    def _index_set(self, si: int, line: int) -> Optional[int]:
        """Index flagged set *si*; *line*'s slot if the set holds it."""
        self._unindexed_mv[si] = False
        found = None
        index = self._slot
        base = si * self._ways
        for w, tag in enumerate(self._tag_rows[si].tolist()):
            if tag >= 0:
                index[tag] = base + w
                if tag == line:
                    found = base + w
        if len(index) > self._max_index:
            self._reindex()
        return found

    def _reindex(self) -> None:
        """Rebuild the index from the tag array, dropping stale entries."""
        slots = (self._tags >= 0).nonzero()[0]
        self._slot = dict(zip(self._tags[slots].tolist(), slots.tolist()))
        self._unindexed.fill(False)

    # -- core operation ----------------------------------------------------
    def access(self, line: int, is_write: bool) -> AccessResult:
        """Touch *line*; returns hit/miss and any eviction.

        On a miss the line is installed (fetch is the caller's job) and
        the LRU victim of the set, if the set was full, is evicted —
        with ``writeback=True`` if it was dirty.
        """
        slot = self._slot.get(line)
        if slot is None or self._tag_mv[slot] != line:
            return self._miss(line, is_write)
        self._clock = clock = self._clock + 1
        self._stamp_mv[slot] = clock
        if is_write:
            self._dirty_mv[slot] = True
        self.stats.hits += 1
        return _HIT

    def _miss(self, line: int, is_write: bool) -> AccessResult:
        """Index miss: a line a span installed, or a real miss that
        evicts the set's LRU way and installs *line*."""
        si = line % self._nsets
        if self._tags is None:
            self._alloc()
        elif self._unindexed_mv[si] and self._index_set(si, line) is not None:
            return self.access(line, is_write)
        st = self.stats
        st.misses += 1
        slot = self._victim(si)
        tags = self._tag_mv
        evicted: Optional[int] = tags[slot]
        writeback = False
        index = self._slot
        if evicted >= 0:
            index.pop(evicted, None)
            st.evictions += 1
            if self._dirty_mv[slot] and self._wb:
                writeback = True
                st.writebacks += 1
        else:
            evicted = None
        self._clock = clock = self._clock + 1
        tags[slot] = line
        self._stamp_mv[slot] = clock
        self._dirty_mv[slot] = is_write and self._wb
        index[line] = slot
        if len(index) > self._max_index:
            self._reindex()
        return AccessResult(False, evicted, writeback)

    def _victim(self, si: int) -> int:
        """Slot of set *si*'s least recently used (or an invalid) way.

        Stamps only grow, so a way touched after its set's ways were
        ranked has a stamp above the ranking's clock, and the LRU way
        is the first ranked way that is still untouched. A ranking is
        ``[clock, way, ...]`` with the LRU way last; it is recomputed
        when it runs out, and dropped when a way is invalidated (the
        one event that lowers a stamp).
        """
        base = si * self._ways
        order = self._order[si]
        if order:
            since = order[0]
            stamp = self._stamp_mv
            while len(order) > 1:
                slot = base + order.pop()
                if stamp[slot] <= since:
                    return slot
        order = self._stamp_rows[si].argsort(kind="stable")[::-1].tolist()
        self._order[si] = [self._clock, *order]
        return base + self._order[si].pop()

    # -- batched operation -------------------------------------------------
    def access_span(self, first_line: int, count: int, is_write: bool) -> BlockResult:
        """Touch the *count* consecutive lines starting at *first_line*.

        Semantically identical to *count* ascending :meth:`access`
        calls, but hits/misses/write-backs for the whole span are
        classified in one vectorized pass over the slot arrays.
        """
        if count <= _REPLAY_MAX:
            return self._replay(range(first_line, first_line + count), is_write)
        nsets = self._nsets
        if count <= nsets:
            lines = np.arange(first_line, first_line + count, dtype=np.int64)
            return self._block_unique_sets(lines, lines % nsets, is_write)
        # A span longer than the set count revisits sets; process it in
        # set-count chunks, each of which maps to all-distinct sets.
        end = first_line + count
        return _combine_blocks([
            self.access_span(pos, min(nsets, end - pos), is_write)
            for pos in range(first_line, end, nsets)
        ])

    def access_block(
        self, lines: "np.ndarray | list[int]", is_write: bool
    ) -> BlockResult:
        """Touch every line in *lines* (array-like of line addresses).

        Equivalent to scalar :meth:`access` calls in input order. Spans
        and other batches whose lines fall into distinct sets take the
        vectorized pass; short batches and batches with intra-set
        conflicts (duplicate lines, or more lines than sets) are
        replayed line by line.
        """
        arr = np.array(lines, dtype=np.int64)
        n = int(arr.size)
        sets = arr % self._nsets
        if n > _REPLAY_MAX and np.unique(sets).size == n:
            return self._block_unique_sets(arr, sets, is_write)
        return self._replay(arr.tolist(), is_write)

    def _replay(self, lines, is_write: bool) -> BlockResult:
        """Scalar :meth:`access` calls in input order, collected into a
        :class:`BlockResult`: the exact path for batches with intra-set
        conflicts, and the cheaper one for short batches, whose cost is
        the vectorized pass's fixed per-call overhead."""
        hit_l: list[bool] = []
        miss_l: list[int] = []
        evicted_l: list[int] = []
        wb_lines_l: list[int] = []
        wb_idx_l: list[int] = []
        access = self.access
        for line in lines:
            r = access(line, is_write)
            hit_l.append(r.hit)
            if r.hit:
                continue
            if r.evicted is not None:
                evicted_l.append(r.evicted)
                if r.writeback:
                    wb_lines_l.append(r.evicted)
                    wb_idx_l.append(len(miss_l))
            miss_l.append(line)
        return BlockResult(
            hits=len(hit_l) - len(miss_l),
            misses=len(miss_l),
            writebacks=len(wb_lines_l),
            miss_lines=np.array(miss_l, dtype=np.int64),
            hit_mask=np.array(hit_l, dtype=bool),
            evicted_lines=np.array(evicted_l, dtype=np.int64),
            wb_lines=np.array(wb_lines_l, dtype=np.int64),
            wb_miss_idx=np.array(wb_idx_l, dtype=np.int64),
        )

    def _block_unique_sets(
        self, lines: np.ndarray, sets: np.ndarray, is_write: bool
    ) -> BlockResult:
        """Vectorized pass for a batch whose lines map to distinct sets.

        With distinct sets, no line in the batch can hit, evict, or
        reorder another, so every step is one array operation: line
        ``i`` takes stamp ``clock + 1 + i`` (the stamp a scalar replay
        in input order would give it), a hit refreshes its slot, and a
        miss installs into its set's smallest-stamp way.
        """
        if self._tags is None:
            self._alloc()
        ways = self._ways
        n = lines.size
        match = self._tag_rows[sets] == lines[:, None]
        hit_mask = match.any(axis=1)
        nhits = int(np.count_nonzero(hit_mask))
        st = self.stats
        st.hits += nhits
        st.misses += n - nhits
        stamps = np.arange(self._clock + 1, self._clock + 1 + n, dtype=np.int64)
        self._clock += n
        if nhits:
            if nhits == n:
                hslot = sets * ways + match.argmax(axis=1)
                self._stamp[hslot] = stamps
            else:
                hslot = sets[hit_mask] * ways + match[hit_mask].argmax(axis=1)
                self._stamp[hslot] = stamps[hit_mask]
            if is_write:
                self._dirty[hslot] = True
            if nhits == n:
                return BlockResult(n, 0, 0, _NONE, hit_mask, _NONE, _NONE, _NONE)
            miss = ~hit_mask
            lines, sets, stamps = lines[miss], sets[miss], stamps[miss]
        vslot = sets * ways + self._stamp_rows[sets].argmin(axis=1)
        victim = self._tags[vslot]
        evicted = victim[victim >= 0]
        if self._wb:
            wb_miss_idx = self._dirty[vslot].nonzero()[0]
            wb_lines = victim[wb_miss_idx]
        else:
            wb_miss_idx = wb_lines = _NONE
        st.evictions += evicted.size
        st.writebacks += wb_lines.size
        self._tags[vslot] = lines
        self._stamp[vslot] = stamps
        self._dirty[vslot] = is_write and self._wb
        self._unindexed[sets] = True
        return BlockResult(
            hits=nhits,
            misses=n - nhits,
            writebacks=wb_lines.size,
            miss_lines=lines,
            hit_mask=hit_mask,
            evicted_lines=evicted,
            wb_lines=wb_lines,
            wb_miss_idx=wb_miss_idx,
        )

    # -- coherence hooks ---------------------------------------------------
    def contains(self, line: int) -> bool:
        return self._find(line) is not None

    def is_dirty(self, line: int) -> bool:
        slot = self._find(line)
        return slot is not None and self._dirty_mv[slot]

    def invalidate(self, line: int) -> bool:
        """Drop *line* (coherence probe). Returns True if it was dirty.

        A dirty invalidation means the probe also triggered a data
        transfer — the expensive case the paper's architecture avoids
        across nodes.
        """
        slot = self._find(line)
        if slot is None:
            raise CoherenceError(
                f"{self.name}: invalidate of non-resident line {line:#x}"
            )
        del self._slot[line]
        self._order[line % self._nsets] = None
        self._tag_mv[slot] = -1
        self._stamp_mv[slot] = 0
        was_dirty = self._dirty_mv[slot]
        self._dirty_mv[slot] = False
        self.stats.invalidations_received += 1
        return was_dirty

    def flush(self) -> list[int]:
        """Write back and drop every dirty line; return their addresses.

        Models the explicit cache flush the prototype performs between
        a write phase and a parallel read-only phase (Section IV-B).
        """
        dirty: list[int] = []
        if self._tags is not None:
            # set-index order, then LRU order within a set: the
            # write-back order the reference model produces
            slots = self._dirty.nonzero()[0]
            order = np.lexsort((self._stamp[slots], slots // self._ways))
            dirty = self._tags[slots[order]].tolist()
            self._slot.clear()
            self._tags.fill(-1)
            self._stamp.fill(0)
            self._dirty.fill(False)
            self._unindexed.fill(False)
            self._order = [None] * self._nsets
        self.stats.flushes += 1
        self.stats.writebacks += len(dirty)
        return dirty

    @property
    def resident_lines(self) -> int:
        if self._tags is None:
            return 0
        return int(np.count_nonzero(self._tags >= 0))


def _combine_blocks(parts: list[BlockResult]) -> BlockResult:
    # wb_miss_idx entries index each part's own miss list; shift them by
    # the miss count of the preceding parts to index the merged list.
    miss_base = np.cumsum([0] + [p.misses for p in parts[:-1]])
    return BlockResult(
        hits=sum(p.hits for p in parts),
        misses=sum(p.misses for p in parts),
        writebacks=sum(p.writebacks for p in parts),
        miss_lines=np.concatenate([p.miss_lines for p in parts]),
        hit_mask=np.concatenate([p.hit_mask for p in parts]),
        evicted_lines=np.concatenate([p.evicted_lines for p in parts]),
        wb_lines=np.concatenate([p.wb_lines for p in parts]),
        wb_miss_idx=np.concatenate(
            [p.wb_miss_idx + b for p, b in zip(parts, miss_base)]
        ),
    )
