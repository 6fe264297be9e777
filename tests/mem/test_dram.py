"""Tests for DRAM timing."""

from __future__ import annotations

import numpy as np
import pytest

from repro.config import DRAMConfig
from repro.ht.packet import make_burst_read_req
from repro.mem.backing import BackingStore
from repro.mem.controller import MemoryController
from repro.mem.dram import DRAMTiming
from repro.sim.resources import Store

from tests.spec.dram import per_line_burst_terms


@pytest.fixture
def dram():
    return DRAMTiming(DRAMConfig(row_hit_ns=40, row_miss_ns=90,
                                 row_bytes=8192, banks=8))


def test_first_access_misses(dram):
    assert dram.access_ns(0) == 90


def test_same_row_hits(dram):
    dram.access_ns(0)
    assert dram.access_ns(64) == 40
    assert dram.access_ns(8191) == 40


def test_new_row_same_bank_misses(dram):
    dram.access_ns(0)
    # next row of bank 0 starts one full rotation later
    assert dram.access_ns(8192 * 8) == 90


def test_banks_independent(dram):
    dram.access_ns(0)            # bank 0
    assert dram.access_ns(8192) == 90   # bank 1, cold
    assert dram.access_ns(64) == 40     # bank 0 row still open


def test_bank_mapping_row_interleaved(dram):
    assert dram.bank_of(0) == 0
    assert dram.bank_of(8192) == 1
    assert dram.bank_of(8192 * 8) == 0


def test_hit_rate_tracking(dram):
    dram.access_ns(0)
    dram.access_ns(64)
    dram.access_ns(128)
    assert dram.hit_rate() == pytest.approx(2 / 3)


def test_reset_closes_rows(dram):
    dram.access_ns(0)
    dram.reset()
    assert dram.access_ns(0) == 90
    assert dram.hit_rate() == 0.0


def test_sequential_stream_mostly_hits(dram):
    total = sum(dram.access_ns(a) for a in range(0, 8192, 64))
    # one miss then 127 hits
    assert total == 90 + 127 * 40


class TestBurstRowRuns:
    """``burst_terms`` (row runs) against the per-line spec walk."""

    CFG = DRAMConfig(
        capacity_bytes=1 << 20,
        banks=4,
        row_bytes=256,
        row_hit_ns=45.3,
        row_miss_ns=90.7,
        controller_ns=10.1,
    )

    def _pair(self, sim, interleave):
        n = interleave[2] if interleave else 1
        return [
            MemoryController(
                sim, self.CFG, BackingStore(n << 20), base=0,
                interleave=interleave,
            )
            for _ in range(2)
        ]

    def _bursts(self, rng, interleave, count):
        """Random line-aligned bursts that cross rows and wrap across
        banks; on an interleaved controller each stays in one of its
        stripes, as ``burst_align_bytes`` guarantees."""
        for _ in range(count):
            lines = int(rng.integers(2, 60))
            if interleave is None:
                start = int(rng.integers(0, (1 << 20) // 64 - lines)) * 64
            else:
                gran, idx, n = interleave
                lines = min(lines, gran // 64)
                stripe = int(rng.integers(0, (1 << 20) // gran)) * n + idx
                first = int(rng.integers(0, gran // 64 - lines + 1))
                start = stripe * gran + first * 64
            yield start, lines

    @pytest.mark.parametrize(
        "interleave", [None, (4096, 1, 2), (2048, 2, 4)],
        ids=["contiguous", "stripe4K-of-2", "stripe2K-of-4"],
    )
    @pytest.mark.parametrize("seed", range(3))
    def test_bit_equal_to_per_line_walk(self, sim, interleave, seed):
        fast, spec = self._pair(sim, interleave)
        rng = np.random.default_rng(seed)
        for addr, lines in self._bursts(rng, interleave, 300):
            got = sum(fast.timing.burst_terms(fast._local_offset(addr), lines, 64))
            want = sum(per_line_burst_terms(spec, addr, lines, 64))
            assert got.hex() == want.hex(), (addr, lines)
            assert fast.timing._open_rows == spec.timing._open_rows
        assert fast.timing.row_hits.value == spec.timing.row_hits.value
        assert fast.timing.row_misses.value == spec.timing.row_misses.value
        assert spec.timing.row_misses.value > 300  # bursts cross rows

    def test_controller_charges_the_spec_service_time(self, sim):
        """End to end: a burst packet through the controller advances
        the clock by exactly the spec's summed terms."""
        fast, spec = self._pair(sim, (4096, 1, 2))
        reply = Store(sim)
        rng = np.random.default_rng(9)
        for tag, (addr, lines) in enumerate(
            self._bursts(rng, (4096, 1, 2), 50), start=1
        ):
            t0 = sim.now
            pkt = make_burst_read_req(1, 1, addr, 64, lines, tag=tag)
            pkt.meta["reply_to"] = reply
            fast.deliver(pkt)
            sim.run()
            assert reply.try_get().line_count == lines
            assert sim.now == t0 + sum(per_line_burst_terms(spec, addr, lines, 64))

    def test_spec_walks_line_by_line(self, sim, monkeypatch):
        """Vacuity guard: the spec really calls ``access_ns`` once per
        line, so the comparison above is against the per-line walk."""
        _, spec = self._pair(sim, None)
        calls = []
        real = spec.timing.access_ns
        monkeypatch.setattr(
            spec.timing, "access_ns", lambda a: calls.append(a) or real(a)
        )
        per_line_burst_terms(spec, 8192 - 128, 7, 64)
        assert calls == [8192 - 128 + 64 * k for k in range(7)]
