"""Deterministic event budget of one remote access.

Host cost per remote read is dominated by the event engine, so the
number of events a read schedules is the timing-noise-free measure of
that cost. An uncached 64 B read on an idle default cluster (4x4 mesh,
node 1 reading from node 6, two fabric hops each way) must schedule
exactly the budget below; any new event on the packet path shows up
here before it shows up in wall-clock time.
"""

from __future__ import annotations

from repro.cluster.cluster import Cluster
from repro.cluster.malloc import Placement
from repro.config import ClusterConfig
from repro.units import CACHE_LINE, mib

#: 70 while every packet delivery scheduled a put event and every
#: crossbar transfer ran as a process with its own exit event; 60 while
#: each served request ran as a process (its exit event, and the
#: crossbar completion event it waited on, are gone)
READ_EVENTS = 58
ELAPSED_NS = [1020.0, 975.0, 1020.0]


def test_uncached_remote_read_event_budget():
    cluster = Cluster(ClusterConfig())
    sim = cluster.sim
    app = cluster.session(1)
    app.borrow_remote(6, mib(2))
    ptr = app.malloc(mib(1), Placement.REMOTE)
    assert cluster.network.hops(1, 6) == 2
    elapsed = []
    for i in range(3):
        events, t0 = sim.events_scheduled, sim.now
        data = app.read(ptr + i * 4096, CACHE_LINE, cached=False)
        assert len(data) == CACHE_LINE
        assert sim.events_scheduled - events == READ_EVENTS
        elapsed.append(sim.now - t0)
    # the simulated side is untouched by the event cuts
    assert elapsed == ELAPSED_NS
