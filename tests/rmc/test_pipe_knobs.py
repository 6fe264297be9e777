"""The RMC pipe knobs, each set and checked against the pipe formula.

A pipe service holds its pipe for ``base * min(1 + congestion_alpha *
waiting, congestion_cap)``, where ``waiting`` is the pipe's load (holders
plus queued requesters) when the request arrives. These tests move one
knob at a time and assert the simulated time moves by exactly what that
formula predicts: the server pipe on an idle read, the multiplier under
contended arrivals, and the NACK decode of a full slot buffer.
"""

from __future__ import annotations

import pytest

from repro.cluster.cluster import Cluster
from repro.cluster.malloc import Placement
from repro.config import ClusterConfig, NetworkConfig, RMCConfig
from repro.ht.packet import PacketType, make_burst_read_req, make_read_req
from repro.sim.resources import Store
from repro.units import CACHE_LINE, mib


def _cluster(**rmc_overrides) -> Cluster:
    return Cluster(
        ClusterConfig(
            network=NetworkConfig(topology="line", dims=(3, 1)),
            rmc=RMCConfig(**rmc_overrides),
        )
    )


def _idle_read_ns(**rmc_overrides) -> float:
    """Simulated latency of one uncached 64 B read from node 1 to node 2
    on an otherwise idle cluster (TLB warmed by a first read)."""
    cluster = _cluster(**rmc_overrides)
    app = cluster.session(1)
    app.borrow_remote(2, mib(8))
    ptr = app.malloc(mib(1), Placement.REMOTE)
    app.read(ptr, CACHE_LINE, cached=False)
    t0 = cluster.sim.now
    app.read(ptr + 4096, CACHE_LINE, cached=False)
    return cluster.sim.now - t0


def test_idle_read_pays_the_server_pipe_twice():
    # one decode on the way in, one encode of the response on the way out
    base = _idle_read_ns(server_processing_ns=48.0)
    slower = _idle_read_ns(server_processing_ns=148.0)
    assert slower - base == pytest.approx(2 * 100.0, abs=1e-9)


def test_idle_read_pays_no_congestion():
    # nothing queued on arrival: the multiplier is 1 whatever alpha is
    assert _idle_read_ns(congestion_alpha=0.0) == _idle_read_ns(
        congestion_alpha=0.9
    )


def _pipe_finish_times(n: int, base: float, **rmc_overrides) -> list[float]:
    """*n* requests arriving at the same instant on node 1's client pipe."""
    cluster = _cluster(**rmc_overrides)
    rmc, sim = cluster.node(1).rmc, cluster.sim
    sim.run()
    t0 = sim.now
    done: list[float] = []
    for i in range(n):
        rmc._pipe_service(
            rmc._client_pipe, base, lambda _i: done.append(sim.now - t0), i
        )
    sim.run()
    return done


def _predicted(n: int, base: float, alpha: float, cap: float) -> list[float]:
    finish, out = 0.0, []
    for waiting in range(n):  # the k-th arrival finds k ahead of it
        finish += base * min(1.0 + alpha * waiting, cap)
        out.append(finish)
    return out


@pytest.mark.parametrize("alpha", [0.0, 0.35, 0.8])
def test_congestion_alpha_scales_contended_arrivals(alpha):
    done = _pipe_finish_times(4, 100.0, congestion_alpha=alpha)
    assert done == pytest.approx(_predicted(4, 100.0, alpha, 4.0))
    if alpha:
        # vacuity: contention really stretched the later services
        assert done[-1] > 400.0


def test_congestion_cap_bounds_the_multiplier():
    done = _pipe_finish_times(
        5, 100.0, congestion_alpha=0.8, congestion_cap=1.5
    )
    assert done == pytest.approx(_predicted(5, 100.0, 0.8, 1.5))
    # the cap bites from the second queued arrival on (1 + 0.8 > 1.5)
    assert done[2] - done[1] == pytest.approx(150.0)


def _nack_ns_at_full_buffer(packet_factory, **rmc_overrides) -> float:
    """Time from delivering a read to node 1's RMC, while its only
    buffer slot is held, to the NACK landing in the reply store."""
    cluster = _cluster(buffer_entries=1, **rmc_overrides)
    rmc, sim = cluster.node(1).rmc, cluster.sim
    sim.run()
    held = rmc._slots.request()  # the one slot, held throughout
    reply = Store(sim)
    arrived: list = []
    reply.get_then(lambda pkt: arrived.append((sim.now, pkt)))
    pkt = packet_factory(cluster.amap.encode(2, 0x1000))
    pkt.meta["reply_to"] = reply
    t0 = sim.now
    rmc.deliver(pkt)
    sim.run()
    ((when, nack),) = arrived
    assert nack.ptype is PacketType.NACK
    assert rmc.client_nacks.value == pkt.line_count
    rmc._slots.release(held)
    return when - t0


def test_nack_ns_is_the_full_buffer_decode():
    def line(addr):
        return make_read_req(1, 2, addr, CACHE_LINE, tag=7)

    assert _nack_ns_at_full_buffer(line, nack_ns=40.0) == pytest.approx(40.0)
    assert _nack_ns_at_full_buffer(line, nack_ns=90.0) == pytest.approx(90.0)


def test_nack_ns_charged_per_line_of_a_burst():
    def burst(addr):
        return make_burst_read_req(1, 2, addr, CACHE_LINE, 4, tag=9)

    assert _nack_ns_at_full_buffer(burst, nack_ns=25.0) == pytest.approx(100.0)
