"""Per-line reference twin of the RMC hardware prefetcher.

:class:`ScalarPrefetchRMC` issues one read packet per prefetched line,
each through its own pipe service. The production burst path must fetch
the same lines and produce the same issued/hit/wasted counters and the
same bytes.
"""

from __future__ import annotations

from typing import Generator

from repro.ht.packet import make_read_req
from repro.rmc.rmc import RMC
from repro.units import CACHE_LINE

__all__ = ["ScalarPrefetchRMC", "install_scalar_prefetch"]


class ScalarPrefetchRMC(RMC):
    """An :class:`RMC` whose prefetches go out one line per packet."""

    def _issue_prefetches(self, demand_addr: int) -> Generator:
        owner = self.amap.node_of(demand_addr)
        line_addr = demand_addr & ~(CACHE_LINE - 1)
        for d in range(1, self.config.prefetch_depth + 1):
            pf_addr = line_addr + d * CACHE_LINE
            if self.amap.node_of(pf_addr) != owner:
                break  # never cross the owner window
            if (
                pf_addr in self._prefetch_data
                or pf_addr in self._prefetch_inflight
            ):
                continue
            self._prefetch_inflight.add(pf_addr)
            yield from self._pipe_service(
                self._prefetch_pipe, self.config.per_op_ns()
            )
            pf_request = make_read_req(
                self.node_id, owner, pf_addr, CACHE_LINE, self.tags.next()
            )
            yield from self._launch_prefetch(pf_request, 1)


def install_scalar_prefetch(cluster):
    """Rebind every RMC of a built *cluster* to :class:`ScalarPrefetchRMC`."""
    for node in cluster.nodes.values():
        node.rmc.__class__ = ScalarPrefetchRMC
    return cluster
