"""HT device abstraction.

A packet-terminating component such as a memory controller is an
:class:`HTDevice`: it owns an ingress
:class:`~repro.sim.resources.Store` and one or more dispatcher chains
that hand each arriving packet to :meth:`handle`.

Plain HyperTransport can enumerate at most :data:`HT_MAX_DEVICES`
devices on one chain — the architectural limit (Section IV-A) that
forces the prototype to use High Node Count HT between nodes.
"""

from __future__ import annotations

from typing import Any, Callable, Optional

from repro.errors import ProtocolError
from repro.ht.packet import Packet
from repro.sim.engine import Simulator
from repro.sim.resources import Store
from repro.sim.stats import Counter

__all__ = ["HTDevice", "HT_MAX_DEVICES"]

#: Plain HT UnitID space: at most 32 devices per chain.
HT_MAX_DEVICES: int = 32


class HTDevice:
    """Base class for packet-terminating components.

    Subclasses override :meth:`handle`, a callback chain that services
    one packet (through ``sim.call_later`` and the callback waits of
    :mod:`repro.sim.resources`) and calls ``done(None)`` once, where a
    generator handler would have returned. Each device processes its
    ingress serially unless ``parallelism`` > 1 — a memory controller
    with multiple banks sets this higher. A dispatcher is a chain:
    ingress get, ``handle``, next get.
    """

    def __init__(
        self,
        sim: Simulator,
        name: str,
        parallelism: int = 1,
        ingress: Optional[Store] = None,
    ) -> None:
        if parallelism < 1:
            raise ProtocolError(f"device parallelism must be >= 1, got {parallelism}")
        self.sim = sim
        self.name = name
        self.ingress = ingress if ingress is not None else Store(sim, name=f"{name}.in")
        self.received = Counter(f"{name}.received")
        self.parallelism = parallelism
        for _ in range(parallelism):
            sim.call_later(0.0, self._next_packet)

    # -- wiring ----------------------------------------------------------
    def deliver(self, packet: Packet) -> None:
        """Synchronously enqueue a packet (used by links and crossbars)."""
        self.ingress.offer(packet)

    # -- behaviour ---------------------------------------------------------
    def handle(self, packet: Packet, done: Callable[[Any], None]) -> None:
        """Service one packet, then call ``done(None)``. Override in
        subclasses."""
        raise NotImplementedError

    def _next_packet(self, _arg: Any = None) -> None:
        self.ingress.get_then(self._dispatch)

    def _dispatch(self, packet: Packet) -> None:
        self.received.add(packet.line_count)
        self.handle(packet, self._next_packet)

    def __repr__(self) -> str:  # pragma: no cover
        return f"<{type(self).__name__} {self.name}>"
