"""Replay determinism through a full cluster scenario.

The engine rework (bucketed event queue, inlined hot paths) must be
invisible to the model: the same scenario replays bit-for-bit

* across two identical runs (baseline determinism),
* with ``REPRO_SANITIZE=1`` (sanitizers observe, never perturb),
* on the plain binary-heap twin of the engine
  (:class:`~tests.spec.engine.HeapSimulator`, the event list's
  executable spec),
* against sha256 digests recorded before the packet path dropped its
  unawaited events. Each trace carries the packet log below — every
  packet each pipe stage handled, in fire order — so a change to the
  ``(time, seq)`` order of the surviving events shows up as a digest
  mismatch even where it leaves every completion time alone.
"""

from __future__ import annotations

import hashlib
from typing import Optional

from repro.cluster.cluster import Cluster
from repro.cluster.malloc import Placement
from repro.config import ClusterConfig, NetworkConfig, RMCConfig
from repro.sim.sanitize import PacketAudit
from repro.units import CACHE_LINE, mib
from tests.spec.engine import HeapSimulator, install_heap_engine, lanes


class _PacketLog(PacketAudit):
    """The sanitizer's packet audit, also logging each observation:
    when which pipe stage (crossbar, link, switch, RMC client/server,
    memory controller) handled which packet, in fire order."""

    __slots__ = ("sim", "log")

    def __init__(self, sim) -> None:
        super().__init__()
        self.sim = sim
        self.log: list = []

    def record(self, kind: str, packet) -> None:
        self.log.append((self.sim.now, kind, packet.tag, packet.ptype.value))
        super().record(kind, packet)


def _arm_log(cluster: Cluster) -> list:
    log = _PacketLog(cluster.sim)
    cluster.sim.audit = log
    return log.log


def _build() -> Cluster:
    return Cluster(
        ClusterConfig(
            network=NetworkConfig(topology="line", dims=(3, 1)),
            rmc=RMCConfig(prefetch_depth=2, buffer_entries=4),
        )
    )


def _scenario(
    cluster: Optional[Cluster] = None, ready_seen: Optional[list] = None
) -> list:
    """Borrow + mixed remote traffic with prefetch and NACK pressure.

    Returns the full observable trace: every datum read, the clock
    after every operation, the final counter values and the packet
    log. When given,
    *ready_seen* collects the ready-lane length at each burst reader's
    start and finish.
    """
    if cluster is None:
        cluster = _build()
    sim = cluster.sim
    packets = _arm_log(cluster)
    app = cluster.session(1)
    app.borrow_remote(2, mib(8))
    ptr = app.malloc(mib(2), Placement.REMOTE)
    trace: list = [sim.now]

    for i in range(6):
        app.write(ptr + i * CACHE_LINE, bytes([i + 1]) * CACHE_LINE,
                  cached=False)
        trace.append(sim.now)
    # a sequential sweep (prefetch engages) then strided jumps
    for i in range(6):
        trace.append(app.read(ptr + i * CACHE_LINE, CACHE_LINE,
                              cached=False))
        trace.append(sim.now)
    for i in range(4):
        trace.append(app.read(ptr + (i * 37 % 256) * 4096, CACHE_LINE,
                              cached=False))
        trace.append(sim.now)
    # multi-core burst contention through the shared client buffer
    phys = app.aspace.translate(ptr).phys_addr
    done: list = []

    def reader(core):
        if ready_seen is not None:
            ready_seen.append(lanes(sim)[0])
        data = yield from core.cached_read(phys, 4096)
        done.append(data)
        if ready_seen is not None:
            ready_seen.append(lanes(sim)[0])

    for core in app.node.cores[:2]:
        sim.process(reader(core))
    sim.run()
    trace.append(done)
    trace.append(sim.now)

    rmc = cluster.node(1).rmc
    trace.append(
        (
            rmc.client_requests.value,
            rmc.client_nacks.value,
            rmc.prefetch_issued.value,
            rmc.prefetch_hits.value,
            rmc.prefetch_wasted.value,
        )
    )
    trace.append(packets)
    return trace


#: stressor nodes and threads of the contended scenario; node 13 sits
#: two X-Y hops from the donor, so its traffic crosses a transit switch
_DONOR = 6
_STRESSORS = (5, 13)
_THREADS = 2
_TRANSIT = 10  # the switch between node 13 and the donor


def _contended_cluster() -> Cluster:
    return Cluster(ClusterConfig(rmc=RMCConfig(server_buffer_entries=2)))


def _contended(cluster: Optional[Cluster] = None) -> tuple[list, Cluster]:
    """Uncached reads from two stressor nodes x two threads to one donor.

    The default 4x4 mesh with a two-entry donor server buffer, so the
    donor NACKs and requesters back off and retry. Returns the trace
    (every datum with its completion time, the final clock, the packet
    log) and the cluster for the vacuity checks.
    """
    if cluster is None:
        cluster = _contended_cluster()
    sim = cluster.sim
    packets = _arm_log(cluster)
    ptrs = {}
    for node in _STRESSORS:
        sess = cluster.session(node)
        sess.borrow_remote(_DONOR, mib(2))
        ptr = sess.malloc(mib(1), Placement.REMOTE)
        sess.bulk_write(ptr, bytes((node + i) % 256 for i in range(4096)))
        ptrs[node] = (sess, ptr)
    trace: list = [sim.now]

    def reader(node: int, core: int):
        sess, ptr = ptrs[node]
        for i in range(6):
            off = ((core * 7 + i * 5) % 64) * CACHE_LINE
            data = yield from sess.g_read(
                ptr + off, CACHE_LINE, core=core, cached=False
            )
            trace.append((node, core, i, sim.now, data))

    for node in _STRESSORS:
        for core in range(_THREADS):
            sim.process(reader(node, core))
    sim.run()
    trace.append(sim.now)
    trace.append(packets)
    return trace, cluster


def _digest(trace: list) -> str:
    return hashlib.sha256(repr(trace).encode()).hexdigest()


#: digests of ``repr`` of each trace, recorded on the engine that still
#: scheduled a put event per packet delivery and a process per crossbar
#: transfer; dropping events nobody waits on must leave them unchanged
_SCENARIO_DIGEST = (
    "99f6e2349e1cdd458bba977c8a21576e195d4ceefad545afd11fdbcd4d614bba"
)
_CONTENDED_DIGEST = (
    "1441eb0570641aca511a6ad62d09dad008e26e7d2947f68578393af9b4ba50c4"
)


def test_scenario_fire_order_is_pinned():
    assert _digest(_scenario()) == _SCENARIO_DIGEST


def test_contended_fire_order_is_pinned():
    trace, cluster = _contended()
    assert _digest(trace) == _CONTENDED_DIGEST
    # vacuity: the donor really NACKed, and some packet really crossed
    # a transit switch on its way (two or more switch hops)
    assert cluster.node(_DONOR).rmc.server_nacks.value > 0
    assert cluster.network.hops(_STRESSORS[1], _DONOR) >= 2
    assert cluster.network.switches[_TRANSIT].forwarded.value > 0


def test_contended_replays_on_the_heap_twin():
    cluster = install_heap_engine(_contended_cluster())
    trace, _ = _contended(cluster)
    assert isinstance(cluster.sim, HeapSimulator)
    assert _digest(trace) == _CONTENDED_DIGEST


def test_two_runs_replay_bit_identical():
    assert _scenario() == _scenario()


def test_sanitized_run_replays_bit_identical(monkeypatch):
    base = _scenario()
    monkeypatch.setenv("REPRO_SANITIZE", "1")
    assert _scenario() == base


def test_heapq_reference_replays_bit_identical():
    fast_ready: list = []
    fast = _scenario(ready_seen=fast_ready)

    cluster = _build()
    # the build queues every process kick-off in the ready lane; the
    # installer must carry them over to the heap
    built_ready, built_heap = lanes(cluster.sim)
    assert built_ready > 0
    install_heap_engine(cluster)
    assert isinstance(cluster.sim, HeapSimulator)
    assert lanes(cluster.sim) == (0, built_ready + built_heap)
    ref_ready: list = []
    assert _scenario(cluster, ref_ready) == fast
    assert ref_ready and not any(ref_ready)
    assert any(fast_ready)  # the production run used its ready lane
