"""The per-node fabric switch.

Each FPGA carries a switch that routes HNC packets between its four
mesh ports and the local RMC (Section IV-B). The model:

* one bounded ingress queue (input buffering). Link deliveries never
  wait on it: an arrival at a full ingress queues behind it, and the
  upstream wire keeps serializing. Only the local RMC's injection
  (:meth:`~repro.noc.network.Network.inject`, whose put the RMC
  yields) blocks on a full ingress,
* a forwarding loop that charges the switch traversal latency and
  pushes the packet onto the proper output link (or hands it to the
  local endpoint when it has arrived), plus a second one for the
  prefetch lane,
* per-switch forwarded/delivered counters feeding the congestion
  analysis of Figs. 7 and 8.
"""

from __future__ import annotations

from typing import Any, Callable, Optional

from repro.config import NetworkConfig
from repro.errors import TopologyError
from repro.ht.link import Link
from repro.ht.packet import Packet
from repro.noc.routing import RoutingTable
from repro.sim.engine import Simulator
from repro.sim.resources import Store
from repro.sim.stats import Counter

__all__ = ["Switch"]


class Switch:
    """One node's fabric switch."""

    def __init__(
        self,
        sim: Simulator,
        node_id: int,
        config: NetworkConfig,
        routing: RoutingTable,
    ) -> None:
        self.sim = sim
        self.node_id = node_id
        self.config = config
        self.routing = routing
        #: neighbor node id -> outgoing Link (filled in by Network)
        self.out_links: dict[int, Link] = {}
        #: local endpoint callback (the RMC's fabric-ingress deliver)
        self._endpoint: Optional[Callable[[Packet], None]] = None
        # Ingress shared by all input ports. Bounded, but only the local
        # RMC's injection blocks on it; link arrivals at a full ingress
        # queue behind it without stalling their wire.
        port_count = 5  # 4 mesh directions + local injection
        self.ingress = Store(
            sim,
            capacity=config.switch_buffer_packets * port_count,
            name=f"sw{node_id}.in",
        )
        # Low-priority virtual channel: prefetch bursts traverse through
        # their own lane so a speculative multi-line burst can never
        # head-of-line block a demand packet in the shared loop. The
        # lane is unbounded — prefetch never exerts back-pressure on
        # demand either.
        self._pf_lane = Store(sim, name=f"sw{node_id}.pf")
        self.forwarded = Counter(f"sw{node_id}.forwarded")
        self.delivered = Counter(f"sw{node_id}.delivered")
        #: fault-injection hook; armed only by sim/faults.py (SIM007)
        self._faults = None
        sim.call_later(0.0, self._next_demand)
        sim.call_later(0.0, self._next_prefetch)

    # -- wiring ----------------------------------------------------------
    def connect(self, neighbor: int, link: Link) -> None:
        if neighbor in self.out_links:
            raise TopologyError(
                f"switch {self.node_id} already linked to {neighbor}"
            )
        self.out_links[neighbor] = link

    def set_endpoint(self, deliver: Callable[[Packet], None]) -> None:
        if self._endpoint is not None:
            raise TopologyError(f"switch {self.node_id} already has an endpoint")
        self._endpoint = deliver

    # -- forwarding engine ---------------------------------------------------
    # Both loops are callback chains rather than processes: every call
    # they schedule (the kick-off, each ingress get, traversal delay,
    # prefetch-lane put and link-serialization wait) takes the place the
    # matching event of a generator loop would take.
    def _next_demand(self, _arg: Any = None) -> None:
        self.ingress.get_then(self._on_demand)

    def _on_demand(self, packet: Packet) -> None:
        if self._faults is not None and self._faults.filter_switch(
            self.node_id, packet
        ):
            self._next_demand()  # dropped in flight, or the node is dead
            return
        if self.sim.audit is not None:
            self.sim.audit.record(f"switch{self.node_id}", packet)
        if packet.meta.get("prefetch"):
            # divert to the low-priority VC; the demand loop moves
            # straight on to the next ingress packet
            self._pf_lane.put_then(packet, self._next_demand)
            return
        # bursts pay one arbitration+traversal per coalesced line
        self.sim.call_later(
            self.config.switch_latency_ns * packet.line_count,
            self._demand_traversed,
            packet,
        )

    def _demand_traversed(self, packet: Packet) -> None:
        self._dispatch(packet, self._next_demand)

    def _next_prefetch(self, _arg: Any = None) -> None:
        self._pf_lane.get_then(self._on_prefetch)

    def _on_prefetch(self, packet: Packet) -> None:
        # same traversal charges as the demand loop, FIFO among
        # prefetch packets only
        self.sim.call_later(
            self.config.switch_latency_ns * packet.line_count,
            self._prefetch_traversed,
            packet,
        )

    def _prefetch_traversed(self, packet: Packet) -> None:
        self._dispatch(packet, self._next_prefetch)

    def _dispatch(self, packet: Packet, then: Callable[[Any], None]) -> None:
        """Hand *packet* on, then continue its loop with *then*: at once
        for a local delivery, after serialization for a forward."""
        if packet.dst == self.node_id:
            self.delivered.add(packet.line_count)
            if self._endpoint is None:
                raise TopologyError(
                    f"switch {self.node_id}: packet arrived but no "
                    "endpoint is attached"
                )
            self._endpoint(packet)
            then(None)
            return
        nxt = self.routing.next_hop(self.node_id, packet.dst)
        try:
            link = self.out_links[nxt]
        except KeyError:
            raise TopologyError(
                f"switch {self.node_id}: no link toward {nxt}"
            ) from None
        packet.hops += 1
        self.forwarded.add(packet.line_count)
        # Wait for serialization (this is where link contention arises);
        # propagation is pipelined inside Link.
        link.send_then(packet, then)
