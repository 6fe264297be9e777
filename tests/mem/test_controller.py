"""Tests for the memory controller device."""

from __future__ import annotations

import pytest

from repro.config import DRAMConfig
from repro.errors import AddressError
from repro.ht.packet import PacketType, make_read_req, make_write_req
from repro.mem.backing import BackingStore
from repro.mem.controller import MemoryController
from repro.sim.resources import Store


@pytest.fixture
def setup(sim):
    backing = BackingStore(1 << 20)
    mc = MemoryController(
        sim, DRAMConfig(capacity_bytes=1 << 20), backing, base=0, name="mc"
    )
    reply = Store(sim)
    return backing, mc, reply


def _send(mc, reply, pkt):
    pkt.meta["reply_to"] = reply
    mc.deliver(pkt)


def test_read_returns_backing_data(sim, setup):
    backing, mc, reply = setup
    backing.write(0x100, b"\xAA" * 16)
    _send(mc, reply, make_read_req(1, 1, 0x100, 16, tag=1))
    sim.run()
    resp = reply.try_get()
    assert resp.ptype is PacketType.READ_RESP
    assert resp.payload == b"\xAA" * 16
    assert mc.reads.value == 1


def test_write_lands_in_backing(sim, setup):
    backing, mc, reply = setup
    _send(mc, reply, make_write_req(1, 1, 0x200, b"hello", tag=2))
    sim.run()
    resp = reply.try_get()
    assert resp.ptype is PacketType.WRITE_ACK
    assert backing.read(0x200, 5) == b"hello"


def test_timing_only_write_moves_no_data(sim, setup):
    backing, mc, reply = setup
    backing.write(0x300, b"precious")
    pkt = make_write_req(1, 1, 0x300, bytes(8), tag=3)
    pkt.meta["timing_only"] = True
    _send(mc, reply, pkt)
    sim.run()
    assert reply.try_get().ptype is PacketType.WRITE_ACK
    assert backing.read(0x300, 8) == b"precious"
    assert mc.writes.value == 1  # timing was still charged


def test_service_takes_dram_time(sim, setup):
    _, mc, reply = setup
    _send(mc, reply, make_read_req(1, 1, 0, 8, tag=1))
    sim.run()
    cfg = mc.config
    assert sim.now >= cfg.controller_ns + cfg.row_hit_ns


def test_out_of_slice_address_rejected(sim, setup):
    _, mc, reply = setup
    _send(mc, reply, make_read_req(1, 1, 1 << 21, 8, tag=1))
    with pytest.raises(AddressError):
        sim.run()


def test_slice_must_fit_backing(sim):
    backing = BackingStore(1 << 20)
    with pytest.raises(AddressError):
        MemoryController(sim, DRAMConfig(capacity_bytes=1 << 21), backing, 0)


def test_bank_parallelism_overlaps_requests(sim):
    """Requests to different banks overlap; same-bank requests serialize."""

    def run(addresses):
        s = type(sim)() if False else None  # keep flake quiet
        from repro.sim.engine import Simulator

        local = Simulator()
        backing = BackingStore(1 << 20)
        mc = MemoryController(
            local,
            DRAMConfig(capacity_bytes=1 << 20, row_bytes=8192, banks=8),
            backing,
            0,
        )
        reply = Store(local)
        for i, addr in enumerate(addresses):
            pkt = make_read_req(1, 1, addr, 8, tag=i + 1)
            pkt.meta["reply_to"] = reply
            mc.deliver(pkt)
        local.run()
        return local.now

    different_banks = run([0, 8192, 16384, 24576])
    same_bank_rows = run([0, 65536, 131072, 196608])  # bank 0, new rows
    assert different_banks < same_bank_rows


def test_owns_predicate(sim):
    backing = BackingStore(1 << 22)
    mc = MemoryController(
        sim, DRAMConfig(capacity_bytes=1 << 20), backing, base=1 << 20
    )
    assert not mc.owns(0)
    assert mc.owns(1 << 20)
    assert mc.owns((1 << 21) - 1)
    assert not mc.owns(1 << 21)


@pytest.mark.parametrize("queue_depth", [2, 32])
def test_queue_depth_blocks_extra_injectors(sim, queue_depth):
    """Five injectors put one read each at t=0 into a one-bank
    controller. With ``queue_depth=2`` the ingress fills: the extra
    puts are accepted only as the dispatcher drains it, while the
    one-bank service order, and so every completion time, is the same
    as with a deep queue."""
    mc = MemoryController(
        sim,
        DRAMConfig(capacity_bytes=1 << 20, banks=1, queue_depth=queue_depth),
        BackingStore(1 << 20),
        base=0,
    )
    reply = Store(sim)
    accepted = {}
    done = {}

    def injector(tag):
        pkt = make_read_req(1, 1, tag * 64, 64, tag=tag)
        pkt.meta["reply_to"] = reply
        yield mc.ingress.put(pkt)
        accepted[tag] = sim.now

    def collector():
        for _ in range(5):
            resp = yield reply.get()
            done[resp.tag] = sim.now

    for tag in range(1, 6):
        sim.process(injector(tag))
    sim.process(collector())
    sim.run()
    # one row miss (10 + 90 ns), then row hits (10 + 45 ns), serialized
    assert done == {1: 100.0, 2: 155.0, 3: 210.0, 4: 265.0, 5: 320.0}
    if queue_depth == 2:
        assert mc.ingress.max_level == 2
        # three fit at t=0 (one taken by the idle dispatcher, two
        # buffered); each later put waits for the dispatcher to free a
        # place when it takes the next packet
        assert accepted == {1: 0.0, 2: 0.0, 3: 0.0, 4: 100.0, 5: 155.0}
    else:
        assert accepted == dict.fromkeys(range(1, 6), 0.0)
