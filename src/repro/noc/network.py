"""The assembled fabric.

Builds the topology graph, one :class:`~repro.noc.switch.Switch` per
node, and a pair of directed :class:`~repro.ht.link.Link` s per edge,
each link's sink being the far-side switch's ingress store. RMCs attach
as per-node endpoints and inject through :meth:`Network.inject`.
"""

from __future__ import annotations

from typing import Any, Callable, Optional

from repro.config import NetworkConfig
from repro.errors import TopologyError
from repro.ht.link import Link
from repro.ht.packet import Packet
from repro.noc.routing import RoutingTable
from repro.noc.switch import Switch
from repro.noc.topology import Topology
from repro.sim.engine import Event, Simulator
from repro.sim.resources import Store

__all__ = ["Network"]


class Network:
    """Fabric facade: topology + routing + switches + links."""

    def __init__(self, sim: Simulator, config: NetworkConfig) -> None:
        self.sim = sim
        self.config = config
        self.topology = Topology.build(config)
        self.routing = RoutingTable(self.topology)
        self.switches: dict[int, Switch] = {
            n: Switch(sim, n, config, self.routing)
            for n in range(1, self.topology.num_nodes + 1)
        }
        self.links: dict[tuple[int, int], Link] = {}
        for a, b in self.topology.edges():
            self._wire(a, b)
            self._wire(b, a)

    def _wire(self, src: int, dst: int) -> None:
        link = Link(
            self.sim,
            self.config.link,
            name=f"link{src}->{dst}",
            sink=self.switches[dst].ingress,
        )
        link.edge = (src, dst)
        self.links[(src, dst)] = link
        self.switches[src].connect(dst, link)

    # -- endpoint API (used by RMCs) ------------------------------------
    def attach(self, node_id: int, deliver: Callable[[Packet], None]) -> None:
        """Register the packet sink for fabric traffic arriving at a node."""
        self._switch(node_id).set_endpoint(deliver)

    def inject(self, node_id: int, packet: Packet) -> Event:
        """Offer *packet* to the local switch; fires when admitted.

        Blocks (event pends) while the switch ingress is full — the
        back-pressure a saturated fabric applies to its RMC.
        """
        return self._ingress(node_id, packet).put(packet)

    def inject_then(
        self,
        node_id: int,
        packet: Packet,
        fn: Optional[Callable[[Any], Any]] = None,
        arg: Any = None,
    ) -> None:
        """Callback form of :meth:`inject`: ``fn(arg)`` runs once the
        switch admits *packet*. Without *fn* nothing waits on the
        admission, and none is scheduled."""
        ingress = self._ingress(node_id, packet)
        if fn is None:
            ingress.offer(packet)
        else:
            ingress.put_then(packet, fn, arg)

    def _ingress(self, node_id: int, packet: Packet) -> Store:
        if packet.dst == node_id:
            raise TopologyError(
                f"packet destined to node {node_id} injected at node {node_id}"
            )
        return self._switch(node_id).ingress

    # -- queries ---------------------------------------------------------------
    def hops(self, src: int, dst: int) -> int:
        return self.routing.hops(src, dst)

    def link_utilization(self) -> dict[tuple[int, int], float]:
        """Time-weighted serialization occupancy per directed link."""
        return {
            edge: link.utilization() for edge, link in self.links.items()
        }

    def _switch(self, node_id: int) -> Switch:
        try:
            return self.switches[node_id]
        except KeyError:
            raise TopologyError(f"no switch for node {node_id}") from None
