"""Differential property tests: production Cache vs ReferenceCache.

The array-backed batch engine must be access-for-access identical to
the per-set ``OrderedDict`` reference model — same hits, evictions,
write-backs, residency, dirtiness and flush output — on any trace,
whatever mix of scalar and batched entry points produced it.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.config import CacheConfig
from repro.errors import CoherenceError
from repro.mem.cache import Cache

from tests.spec.cache import ReferenceCache


def _tiny(ways: int = 2, sets: int = 8, write_back: bool = True) -> CacheConfig:
    return CacheConfig(
        size_bytes=64 * ways * sets,
        associativity=ways,
        line_bytes=64,
        write_back=write_back,
    )


def _assert_same_state(cache: Cache, ref: ReferenceCache, lines) -> None:
    assert cache.stats == ref.stats
    assert cache.resident_lines == ref.resident_lines
    for line in lines:
        assert cache.contains(line) == ref.contains(line), line
        if cache.contains(line):
            assert cache.is_dirty(line) == ref.is_dirty(line), line


class TestScalarEquivalence:
    @pytest.mark.parametrize("write_back", [True, False])
    @pytest.mark.parametrize("seed", range(4))
    def test_random_scalar_trace(self, seed, write_back):
        cfg = _tiny(write_back=write_back)
        cache, ref = Cache(cfg), ReferenceCache(cfg)
        rng = np.random.default_rng(seed)
        lines = rng.integers(0, 64, size=2000)
        writes = rng.random(size=2000) < 0.3
        for line, w in zip(lines.tolist(), writes.tolist()):
            a = cache.access(line, w)
            b = ref.access(line, w)
            assert (a.hit, a.evicted, a.writeback) == (b.hit, b.evicted, b.writeback)
        _assert_same_state(cache, ref, range(64))
        assert cache.flush() == ref.flush()
        assert cache.stats == ref.stats


class TestBatchEquivalence:
    """Batched entry points vs a scalar replay on the reference model."""

    def _replay_block(self, ref: ReferenceCache, lines, is_write):
        hits = misses = writebacks = 0
        hit_mask = []
        for line in lines:
            r = ref.access(int(line), is_write)
            hit_mask.append(r.hit)
            hits += r.hit
            misses += not r.hit
            writebacks += r.writeback
        return hits, misses, writebacks, hit_mask

    @pytest.mark.parametrize(
        "seed, write_back",
        [pytest.param(seed, True, id=str(seed)) for seed in range(6)]
        + [pytest.param(seed, False, id=f"write_through-{seed}")
           for seed in range(6)],
    )
    def test_random_mixed_trace(self, seed, write_back):
        """Interleave scalar accesses, spans, scattered blocks, blocks
        with intra-set conflicts, invalidations of resident lines and
        flushes; every observable must match."""
        cfg = _tiny(ways=4, sets=16, write_back=write_back)
        cache, ref = Cache(cfg), ReferenceCache(cfg)
        rng = np.random.default_rng(100 + seed)
        for _ in range(300):
            kind = rng.integers(0, 6)
            is_write = bool(rng.random() < 0.4)
            if kind == 0:  # scalar
                line = int(rng.integers(0, 200))
                a, b = cache.access(line, is_write), ref.access(line, is_write)
                assert (a.hit, a.evicted, a.writeback) == (
                    b.hit, b.evicted, b.writeback)
                continue
            if kind == 4:  # coherence probe of a resident line
                resident = [l for l in range(200) if ref.contains(l)]
                if resident:
                    line = resident[int(rng.integers(0, len(resident)))]
                    assert cache.invalidate(line) == ref.invalidate(line)
                continue
            if kind == 5:
                if rng.random() < 0.2:  # phase-end flush, now and then
                    assert cache.flush() == ref.flush()
                continue
            if kind == 1:  # consecutive span (may exceed the set count)
                first = int(rng.integers(0, 200))
                count = int(rng.integers(1, 40))
                res = cache.access_span(first, count, is_write)
                batch = np.arange(first, first + count)
            elif kind == 2:  # scattered block over distinct sets
                k = int(rng.integers(1, 17))
                batch = rng.permutation(16)[:k] + 16 * rng.integers(0, 12, k)
                res = cache.access_block(batch, is_write)
            else:  # conflicting block: duplicates force scalar replay
                batch = rng.integers(0, 40, size=int(rng.integers(2, 20)))
                res = cache.access_block(batch, is_write)
            hits, misses, wbs, mask = self._replay_block(ref, batch, is_write)
            assert res.hits == hits
            assert res.misses == misses
            assert res.writebacks == wbs
            assert res.hit_mask.tolist() == mask
            assert res.miss_lines.tolist() == [
                int(l) for l, h in zip(batch, mask) if not h
            ]
        _assert_same_state(cache, ref, range(200))
        assert cache.flush() == ref.flush()
        assert cache.stats == ref.stats

    def test_lru_order_preserved_across_batches(self):
        """After a batch, the LRU victim must be the same line the
        reference model would evict — recency updates are exact."""
        cfg = _tiny(ways=2, sets=4)
        cache, ref = Cache(cfg), ReferenceCache(cfg)
        # fill set 0 via lines 0 and 4; touch 0 again via a batch so 4
        # becomes LRU; line 8 must then evict 4, not 0
        for c in (cache, ref):
            c.access(0, False)
            c.access(4, False)
        cache.access_block(np.array([0]), False)
        ref.access(0, False)
        a, b = cache.access(8, False), ref.access(8, False)
        assert a.evicted == b.evicted == 4

    def test_batch_after_invalidate_reuses_freed_way(self):
        cfg = _tiny(ways=2, sets=4)
        cache, ref = Cache(cfg), ReferenceCache(cfg)
        for c in (cache, ref):
            c.access(0, True)
            c.access(4, True)
        # materialize the tag mirror, then invalidate underneath it
        cache.access_span(0, 1, True)
        ref.access(0, True)
        assert cache.invalidate(4) == ref.invalidate(4)
        res = cache.access_span(8, 1, False)
        r = ref.access(8, False)
        assert res.misses == 1 and not r.hit
        assert res.writebacks == int(r.writeback)
        _assert_same_state(cache, ref, [0, 4, 8])

    def test_flush_resets_batch_state(self):
        cfg = _tiny(ways=2, sets=4)
        cache, ref = Cache(cfg), ReferenceCache(cfg)
        for c in (cache, ref):
            for line in range(8):
                c.access(line, True)
        cache.access_span(0, 8, False)  # materialize tags
        for line in range(8):
            ref.access(line, False)
        assert cache.flush() == ref.flush()
        # the tag mirror must reflect the flush: everything misses now
        res = cache.access_span(0, 8, False)
        assert res.misses == 8 and res.writebacks == 0

    def test_write_through_never_writes_back(self):
        cfg = _tiny(ways=1, sets=2, write_back=False)
        cache = Cache(cfg)
        cache.access_span(0, 2, True)
        res = cache.access_span(2, 2, True)  # evicts lines 0,1
        assert res.writebacks == 0
        assert cache.stats.writebacks == 0

    def test_empty_and_singleton_blocks(self):
        cache = Cache(_tiny())
        res = cache.access_block(np.empty(0, dtype=np.int64), False)
        assert res.accesses == 0 and res.hit_mask.size == 0
        res = cache.access_block([7], True)
        assert res.misses == 1 and res.miss_lines.tolist() == [7]
        res = cache.access_block([7], False)
        assert res.hits == 1 and res.hit_mask.tolist() == [True]


class TestEvictionInfo:
    """``BlockResult``'s ordered eviction fields vs a scalar replay.

    The batched miss path replays ``evicted_lines`` / ``wb_lines`` /
    ``wb_miss_idx`` to keep coherence directories and DRAM transaction
    order exact, so they must reproduce the per-access eviction record
    of the reference model, in miss order.
    """

    @staticmethod
    def _replay(ref: ReferenceCache, lines, is_write):
        evicted, wb_lines, wb_idx = [], [], []
        nmiss = 0
        for line in lines:
            r = ref.access(int(line), is_write)
            if r.hit:
                continue
            if r.evicted is not None:
                evicted.append(r.evicted)
                if r.writeback:
                    wb_lines.append(r.evicted)
                    wb_idx.append(nmiss)
            nmiss += 1
        return evicted, wb_lines, wb_idx

    @pytest.mark.parametrize("seed", range(4))
    def test_block_eviction_fields_match_scalar(self, seed):
        cfg = _tiny(ways=2, sets=8)
        cache, ref = Cache(cfg), ReferenceCache(cfg)
        rng = np.random.default_rng(40 + seed)
        for _ in range(80):
            kind = rng.integers(0, 3)
            is_write = bool(rng.random() < 0.5)
            if kind == 0:  # consecutive span (may exceed the set count)
                first = int(rng.integers(0, 40))
                count = int(rng.integers(1, 24))
                lines = list(range(first, first + count))
                result = cache.access_span(first, count, is_write)
            elif kind == 1:  # scattered block, distinct sets likely
                lines = rng.integers(0, 60, size=rng.integers(1, 8)).tolist()
                result = cache.access_block(lines, is_write)
            else:  # single-line block
                lines = [int(rng.integers(0, 60))]
                result = cache.access_block(lines, is_write)
            evicted, wb_lines, wb_idx = self._replay(ref, lines, is_write)
            assert result.evicted_lines.tolist() == evicted
            assert result.wb_lines.tolist() == wb_lines
            assert result.wb_miss_idx.tolist() == wb_idx
            assert result.writebacks == len(wb_lines)
        assert cache.stats == ref.stats

    def test_wb_miss_idx_points_at_displacing_miss(self):
        """Dirty victims pair with the exact install that displaced
        them: replaying write-back k immediately before fetch
        ``wb_miss_idx[k]`` reproduces the scalar transaction order."""
        cfg = _tiny(ways=1, sets=4)
        cache = Cache(cfg)
        cache.access_span(0, 4, is_write=True)   # dirty lines 0..3
        r = cache.access_span(4, 8, is_write=False)
        # every install evicts one dirty line from the same set
        assert r.misses == 8
        assert r.evicted_lines.tolist() == [0, 1, 2, 3, 4, 5, 6, 7]
        assert r.wb_lines.tolist() == [0, 1, 2, 3]  # 4..7 were clean
        assert r.wb_miss_idx.tolist() == [0, 1, 2, 3]


class TestLazySets:
    """Per-set state is allocated on a set's first miss; a cache that
    has touched only some sets must still behave like the spec."""

    def _fill(self, cache, ref, set_order, ways: int, nsets: int) -> None:
        for si in set_order:
            for k in range(ways + 1):  # one eviction per set
                line = si + k * nsets
                a = cache.access(line, k % 2 == 0)
                b = ref.access(line, k % 2 == 0)
                assert (a.hit, a.evicted, a.writeback) == (
                    b.hit, b.evicted, b.writeback)

    @pytest.mark.parametrize("order", ["descending", "shuffled"])
    def test_flush_writes_back_in_set_index_order(self, order):
        ways, nsets = 2, 16
        cfg = _tiny(ways=ways, sets=nsets)
        cache, ref = Cache(cfg), ReferenceCache(cfg)
        touched = list(range(1, nsets, 2))
        if order == "descending":
            touched.reverse()
        else:
            np.random.default_rng(3).shuffle(touched)
        self._fill(cache, ref, touched, ways, nsets)
        _assert_same_state(cache, ref, range(nsets * (ways + 1)))
        flushed = cache.flush()
        assert flushed == ref.flush()
        sets = [line % nsets for line in flushed]
        assert sets == sorted(sets) and set(sets) == set(touched)
        assert cache.stats == ref.stats
        assert cache.resident_lines == ref.resident_lines == 0
        # the flushed cache starts over: every set misses again
        self._fill(cache, ref, touched[::-1], ways, nsets)
        assert cache.flush() == ref.flush()

    def test_untouched_set_contains_and_invalidate(self):
        cfg = _tiny(ways=2, sets=8)
        cache, ref = Cache(cfg), ReferenceCache(cfg)
        for c in (cache, ref):
            c.access(1, True)  # touches set 1 only
            assert not c.contains(3)
            assert not c.is_dirty(3)
            with pytest.raises(CoherenceError):
                c.invalidate(3)
            # a touched set that does not hold the line raises too
            with pytest.raises(CoherenceError):
                c.invalidate(9)
            assert c.invalidate(1) is True
        assert cache.stats == ref.stats
        assert cache.resident_lines == ref.resident_lines == 0

    def test_partly_touched_cache_residency_and_tag_mirror(self):
        cfg = _tiny(ways=2, sets=8)
        cache, ref = Cache(cfg), ReferenceCache(cfg)
        assert cache.resident_lines == ref.resident_lines == 0
        for line in (2, 10, 5):  # sets 2 (twice) and 5
            cache.access(line, False)
            ref.access(line, False)
        assert cache.resident_lines == ref.resident_lines == 3
        # the batched access classifies a cache whose other sets were
        # never touched
        res = cache.access_span(0, 8, True)
        mask = [ref.access(line, True).hit for line in range(8)]
        assert res.hits == sum(mask) == 2
        assert res.hit_mask.tolist() == mask
        for line in range(24):
            assert cache.contains(line) == ref.contains(line), line
        _assert_same_state(cache, ref, range(24))
        assert cache.flush() == ref.flush()


class TestSlotIndex:
    """Spans leave the scalar path's ``line -> slot`` index stale (the
    lines they evict keep their entries, the lines they install get
    none); scalar lookups, invalidations and the index rebuild that
    drops stale entries must still match the spec exactly."""

    @pytest.mark.parametrize("seed", range(3))
    def test_scalar_rounds_between_evicting_spans(self, seed):
        cfg = _tiny(ways=2, sets=8)
        cache, ref = Cache(cfg), ReferenceCache(cfg)
        rng = np.random.default_rng(70 + seed)
        for rnd in range(40):
            # scalar touches index their lines; some hit span installs
            for line in rng.integers(0, 64, size=24).tolist():
                is_write = bool(rng.random() < 0.5)
                a, b = cache.access(line, is_write), ref.access(line, is_write)
                assert (a.hit, a.evicted, a.writeback) == (
                    b.hit, b.evicted, b.writeback)
            # a 16-line span (vectorized) evicts most of the index
            first = int(rng.integers(0, 64))
            res = cache.access_span(first, 16, rnd % 3 == 0)
            mask = [ref.access(l, rnd % 3 == 0).hit
                    for l in range(first, first + 16)]
            assert res.hit_mask.tolist() == mask
            if rnd % 5 == 4:
                resident = [l for l in range(80) if ref.contains(l)]
                line = resident[int(rng.integers(0, len(resident)))]
                assert cache.invalidate(line) == ref.invalidate(line)
            _assert_same_state(cache, ref, range(80))
        assert cache.flush() == ref.flush()
