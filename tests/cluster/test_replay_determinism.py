"""Replay determinism through a full cluster scenario.

The engine rework (bucketed event queue, inlined hot paths) must be
invisible to the model: the same scenario replays bit-for-bit

* across two identical runs (baseline determinism),
* with ``REPRO_SANITIZE=1`` (sanitizers observe, never perturb),
* on the plain binary-heap twin of the engine
  (:class:`~tests.spec.engine.HeapSimulator`, the event list's
  executable spec).
"""

from __future__ import annotations

from typing import Optional

from repro.cluster.cluster import Cluster
from repro.cluster.malloc import Placement
from repro.config import ClusterConfig, NetworkConfig, RMCConfig
from repro.units import CACHE_LINE, mib
from tests.spec.engine import HeapSimulator, install_heap_engine, lanes


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
    after every operation, and the final counter values. When given,
    *ready_seen* collects the ready-lane length at each burst reader's
    start and finish.
    """
    if cluster is None:
        cluster = _build()
    sim = cluster.sim
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
    return trace


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
