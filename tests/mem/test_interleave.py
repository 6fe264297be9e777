"""Tests for node-interleaved memory-controller mapping."""

from __future__ import annotations

import pytest

from repro.cluster.cluster import Cluster
from repro.cluster.malloc import Placement
from repro.config import (
    ClusterConfig,
    DRAMConfig,
    NetworkConfig,
    NodeConfig,
)
from repro.errors import AddressError, ConfigError
from repro.ht.packet import make_burst_read_req
from repro.mem.backing import BackingStore
from repro.mem.controller import MemoryController
from repro.sim.resources import Store
from repro.units import mib


class TestOwnership:
    def _mc(self, sim, idx, n=4, granularity=4096):
        backing = BackingStore(n * mib(1))
        return MemoryController(
            sim,
            DRAMConfig(capacity_bytes=mib(1)),
            backing,
            base=0,
            interleave=(granularity, idx, n),
        )

    def test_stripes_rotate_across_controllers(self, sim):
        mcs = [self._mc(sim, i) for i in range(4)]
        for stripe in range(8):
            addr = stripe * 4096 + 100
            owners = [mc.owns(addr) for mc in mcs]
            assert owners.count(True) == 1
            assert owners.index(True) == stripe % 4

    def test_every_address_has_exactly_one_owner(self, sim):
        mcs = [self._mc(sim, i) for i in range(4)]
        for addr in range(0, 64 * 4096, 1111):
            assert sum(mc.owns(addr) for mc in mcs) == 1

    def test_local_offset_compacts_stripes(self, sim):
        mc = self._mc(sim, idx=0)
        # stripe 0 -> offset 0..4095; stripe 4 (its 2nd) -> 4096..8191
        assert mc._local_offset(0) == 0
        assert mc._local_offset(4095) == 4095
        assert mc._local_offset(4 * 4096) == 4096
        assert mc._local_offset(4 * 4096 + 7) == 4096 + 7

    def test_capacity_bound(self, sim):
        mc = self._mc(sim, idx=0, n=4)
        assert not mc.owns(4 * mib(1))

    def test_validation(self, sim):
        backing = BackingStore(mib(8))
        with pytest.raises(AddressError):
            MemoryController(sim, DRAMConfig(capacity_bytes=mib(1)),
                             backing, 0, interleave=(1000, 0, 4))
        with pytest.raises(AddressError):
            MemoryController(sim, DRAMConfig(capacity_bytes=mib(1)),
                             backing, 0, interleave=(4096, 5, 4))
        with pytest.raises(AddressError):
            MemoryController(sim, DRAMConfig(capacity_bytes=mib(8)),
                             backing, 0, interleave=(4096, 0, 4))

    def test_burst_leaving_its_stripe_rejected(self, sim):
        """A burst must stay in one stripe: one that runs through the
        other controller's stripe into this controller's next stripe
        owns both of its ends but is not contiguous here."""
        mc = self._mc(sim, idx=0, n=2)
        reply = Store(sim)
        inside = make_burst_read_req(1, 1, 4096 - 256, 64, 2, tag=1)
        across = make_burst_read_req(1, 1, 4096 - 128, 64, 64 + 4, tag=2)
        assert mc.owns(across.addr) and mc.owns(across.addr + across.size - 64)
        for pkt in (inside, across):
            pkt.meta["reply_to"] = reply
        mc.deliver(inside)
        sim.run()
        assert reply.try_get().tag == 1
        mc.deliver(across)
        with pytest.raises(AddressError, match="crosses ownership boundary"):
            sim.run()

    def test_config_validation(self):
        with pytest.raises(ConfigError):
            NodeConfig(interleave_bytes=1000)
        NodeConfig(interleave_bytes=4096)  # fine


class TestClusterIntegration:
    def _cluster(self, interleave: int):
        return Cluster(
            ClusterConfig(
                network=NetworkConfig(topology="line", dims=(2, 1)),
                node=NodeConfig(interleave_bytes=interleave),
            )
        )

    def test_functional_correctness_interleaved(self):
        cluster = self._cluster(4096)
        app = cluster.session(1)
        ptr = app.malloc(mib(2), Placement.LOCAL)
        payload = bytes(range(256)) * 64  # spans several stripes
        app.write(ptr, payload, cached=False)
        assert app.read(ptr, len(payload), cached=False) == payload

    def test_traffic_spreads_across_controllers(self):
        cluster = self._cluster(4096)
        app = cluster.session(1)
        ptr = app.malloc(mib(2), Placement.LOCAL)
        for i in range(32):
            app.read(ptr + i * 4096, 64, cached=False)
        reads = [mc.reads.value for mc in cluster.node(1).mcs]
        assert all(r > 0 for r in reads)
        assert max(reads) - min(reads) <= 1  # perfectly balanced

    def test_contiguous_mode_concentrates(self):
        cluster = self._cluster(0)
        app = cluster.session(1)
        ptr = app.malloc(mib(2), Placement.LOCAL)
        for i in range(32):
            app.read(ptr + i * 4096, 64, cached=False)
        reads = [mc.reads.value for mc in cluster.node(1).mcs]
        assert reads[0] >= 32  # all in socket 0's controller
        assert sum(reads[1:]) == 0

    def test_interleaving_speeds_up_parallel_streams(self):
        """Bank-conflicting parallel streams: contiguous mode funnels
        every core into socket 0's controller (few distinct banks);
        interleaving gives each core its own controller."""

        def run(interleave: int) -> float:
            cluster = self._cluster(interleave)
            sim = cluster.sim
            app = cluster.session(1)
            ptr = app.malloc(mib(8), Placement.LOCAL)
            app.read(ptr, 64, cached=False)
            for v in range(ptr, ptr + mib(8), 4096):
                app.aspace.translate(v)

            # Exploit the 8-outstanding local window: every core issues
            # its whole stream asynchronously. Per-core 4 KiB lanes at
            # 64 KiB stride stay inside ONE bank of socket 0's
            # controller under the contiguous layout.
            procs = []
            t0 = sim.now
            for core_idx in range(4):
                core = app.node.cores[core_idx]
                base = app.aspace.translate(ptr + core_idx * 4096).phys_addr
                for i in range(32):
                    procs.append(
                        sim.process(core.read(base + i * 65536, 64))
                    )
            sim.run()
            assert all(p.ok for p in procs)
            return sim.now - t0

        assert run(4096) < run(0) * 0.7
